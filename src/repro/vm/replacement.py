"""Page-replacement policies.

DEC OSF/1's VM used a global FIFO-with-second-chance scheme; we provide
FIFO, LRU, and Clock (second chance) behind one interface so experiments
can ablate the choice.  The policy only tracks *resident* pages and picks
victims; residency bookkeeping lives in the machine.

Every policy also implements the *batch-step* API the VM and the trace
compiler ride on (``touch_batch`` + ``export_state``/``restore_state``):
touches between two eviction decisions may be applied as one batch,
because for the built-ins the state after a touch sequence depends only
on membership (FIFO), the referenced-bit set (Clock), or the order of
*last* touches (LRU) — never on the interleaving of touches with
anything else.  The VM's hot loop buffers touches and flushes the batch
before every simulation yield, and the compiler replays the same
batches off-line, so both paths make identical eviction decisions
(pinned by ``tests/compile``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List

__all__ = ["ReplacementPolicy", "FifoReplacement", "LruReplacement", "ClockReplacement", "make_replacement"]


class ReplacementPolicy:
    """Interface: track resident pages, surrender a victim on demand."""

    __slots__ = ()

    name = "abstract"

    def insert(self, page_id: int) -> None:
        """A page became resident."""
        raise NotImplementedError

    def touch(self, page_id: int) -> None:
        """A resident page was referenced."""
        raise NotImplementedError

    def touch_batch(self, page_ids: Iterable[int]) -> None:
        """Apply a run of touches at once (same net effect as the loop)."""
        touch = self.touch
        for page_id in page_ids:
            touch(page_id)

    def evict(self) -> int:
        """Choose and remove a victim; returns its page id."""
        raise NotImplementedError

    def remove(self, page_id: int) -> None:
        """A page left residency by other means (e.g. process exit)."""
        raise NotImplementedError

    def export_state(self) -> Any:
        """JSON-serialisable snapshot for schedule replay."""
        raise NotImplementedError

    def restore_state(self, state: Any) -> None:
        """Inverse of :meth:`export_state`."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoReplacement(ReplacementPolicy):
    """Evict the page resident longest, regardless of references."""

    __slots__ = ("_queue", "_members")

    name = "fifo"

    def __init__(self) -> None:
        self._queue: Deque[int] = deque()
        self._members: set = set()

    def insert(self, page_id: int) -> None:
        if page_id in self._members:
            raise ValueError(f"page {page_id} already resident")
        self._queue.append(page_id)
        self._members.add(page_id)

    def touch(self, page_id: int) -> None:
        if page_id not in self._members:
            raise KeyError(f"page {page_id} is not resident")

    def touch_batch(self, page_ids: Iterable[int]) -> None:
        members = self._members
        for page_id in page_ids:
            if page_id not in members:
                raise KeyError(f"page {page_id} is not resident")

    def evict(self) -> int:
        if not self._queue:
            raise IndexError("no resident pages to evict")
        victim = self._queue.popleft()
        self._members.discard(victim)
        return victim

    def remove(self, page_id: int) -> None:
        if page_id in self._members:
            self._members.discard(page_id)
            self._queue.remove(page_id)

    def export_state(self) -> List[int]:
        return list(self._queue)

    def restore_state(self, state: Iterable[int]) -> None:
        self._queue = deque(state)
        self._members = set(self._queue)

    def __len__(self) -> int:
        return len(self._members)


class LruReplacement(ReplacementPolicy):
    """Evict the least recently used page (exact LRU stack).

    The stack is a plain ``dict`` (insertion-ordered since 3.7): the
    first key is the LRU page, a touch is ``pop`` + reinsert, and an
    eviction pops the first key — measurably cheaper on the VM's hot
    loop than the former ``OrderedDict``.
    """

    __slots__ = ("_order",)

    name = "lru"

    def __init__(self) -> None:
        self._order: Dict[int, None] = {}

    def insert(self, page_id: int) -> None:
        if page_id in self._order:
            raise ValueError(f"page {page_id} already resident")
        self._order[page_id] = None

    def touch(self, page_id: int) -> None:
        order = self._order
        try:
            order.pop(page_id)
        except KeyError:
            raise KeyError(f"page {page_id} is not resident") from None
        order[page_id] = None

    def touch_batch(self, page_ids: Iterable[int]) -> None:
        # Per-reference touching leaves the touched pages at the MRU end
        # ordered by *last* touch; everything untouched keeps its relative
        # order below them.  Deduplicate keeping each page's last touch
        # (reversed + fromkeys), then replay in ascending last-touch order.
        order = self._order
        for page_id in reversed(dict.fromkeys(reversed(list(page_ids)))):
            try:
                order.pop(page_id)
            except KeyError:
                raise KeyError(f"page {page_id} is not resident") from None
            order[page_id] = None

    def evict(self) -> int:
        if not self._order:
            raise IndexError("no resident pages to evict")
        victim = next(iter(self._order))
        del self._order[victim]
        return victim

    def remove(self, page_id: int) -> None:
        self._order.pop(page_id, None)

    def export_state(self) -> List[int]:
        return list(self._order)

    def restore_state(self, state: Iterable[int]) -> None:
        self._order = dict.fromkeys(state)

    def __len__(self) -> int:
        return len(self._order)


class ClockReplacement(ReplacementPolicy):
    """Second-chance FIFO: referenced pages get one reprieve per lap.

    Closest to what DEC OSF/1 actually ran, and the default for the
    reproduction experiments.
    """

    __slots__ = ("_ring", "_referenced")

    name = "clock"

    def __init__(self) -> None:
        self._ring: Deque[int] = deque()
        self._referenced: Dict[int, bool] = {}

    def insert(self, page_id: int) -> None:
        if page_id in self._referenced:
            raise ValueError(f"page {page_id} already resident")
        self._ring.append(page_id)
        self._referenced[page_id] = False

    def touch(self, page_id: int) -> None:
        if page_id not in self._referenced:
            raise KeyError(f"page {page_id} is not resident")
        self._referenced[page_id] = True

    def touch_batch(self, page_ids: Iterable[int]) -> None:
        referenced = self._referenced
        for page_id in set(page_ids):
            if page_id not in referenced:
                raise KeyError(f"page {page_id} is not resident")
            referenced[page_id] = True

    def evict(self) -> int:
        if not self._ring:
            raise IndexError("no resident pages to evict")
        while True:
            candidate = self._ring.popleft()
            if self._referenced[candidate]:
                self._referenced[candidate] = False
                self._ring.append(candidate)
            else:
                del self._referenced[candidate]
                return candidate

    def remove(self, page_id: int) -> None:
        if page_id in self._referenced:
            del self._referenced[page_id]
            self._ring.remove(page_id)

    def export_state(self) -> List[List[Any]]:
        return [[page_id, self._referenced[page_id]] for page_id in self._ring]

    def restore_state(self, state: Iterable[Iterable[Any]]) -> None:
        self._ring = deque()
        self._referenced = {}
        for page_id, referenced in state:
            self._ring.append(page_id)
            self._referenced[page_id] = bool(referenced)

    def __len__(self) -> int:
        return len(self._referenced)


_POLICIES = {
    "fifo": FifoReplacement,
    "lru": LruReplacement,
    "clock": ClockReplacement,
}


def make_replacement(name: str) -> ReplacementPolicy:
    """Construct a replacement policy by name ('fifo', 'lru', 'clock')."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
