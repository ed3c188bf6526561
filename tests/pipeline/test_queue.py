"""Write-behind queue unit tests against a scripted fake pager.

The fake's placement routine records exactly what the queue hands the
pager, so these tests pin the queue's contracts in isolation: zero-time
admission, in-place coalescing, FIFO batch drain, backlog
back-pressure, and release semantics.  The placement routine itself
(disk fallbacks included) is tested on the real pager in
``tests/core/test_pageout_placement.py``.
"""

import pytest

from repro.pipeline import PageoutQueue, PipelineSpec
from repro.sim import Counter, Simulator, Tally


class FakeStack:
    def __init__(self):
        self.clusters = []
        self._open = None

    def begin_cluster(self, src):
        self._open = []

    def end_cluster(self):
        self.clusters.append(self._open)
        self._open = None

    def record(self, page_id):
        if self._open is not None:
            self._open.append(page_id)


class FakePolicy:
    def __init__(self, stack):
        self.stack = stack
        self.client_host = "client"


class FakePager:
    """Just enough pager surface for PageoutQueue._transmit."""

    def __init__(self, sim, send_time=0.001):
        self.sim = sim
        self.policy = FakePolicy(FakeStack())
        self.sent = []
        self.settled = []
        self.send_time = send_time

    def _place_pageout(self, page_id, contents, span):
        yield self.sim.timeout(self.send_time)
        self.policy.stack.record(page_id)
        self.sent.append((page_id, contents))

    def _pageout_settled(self, page_id, contents):
        self.settled.append(page_id)


def make_queue(sim, pager, **spec_kwargs):
    spec = PipelineSpec(**{"window": 4, **spec_kwargs})
    return PageoutQueue(pager, spec, Counter(), Tally())


def drive(sim, gen):
    sim.process(gen)
    sim.run()


def test_enqueue_completes_in_zero_sim_time():
    sim = Simulator()
    pager = FakePager(sim)
    queue = make_queue(sim, pager)
    stamps = []

    def producer():
        yield from queue.enqueue(1, b"a")
        stamps.append(sim.now)

    drive(sim, producer())
    assert stamps == [0.0]  # admitted instantly, transmitted later
    assert pager.sent == [(1, b"a")]
    assert queue.pending == 0


def test_coalesce_transmits_only_newest_version():
    sim = Simulator()
    pager = FakePager(sim)
    queue = make_queue(sim, pager)

    def producer():
        yield from queue.enqueue(7, b"v1")
        yield from queue.enqueue(8, b"other")
        yield from queue.enqueue(7, b"v2")  # re-dirty while queued

    drive(sim, producer())
    assert pager.sent == [(7, b"v2"), (8, b"other")]
    assert queue.counters["coalesced"] == 1
    assert queue.counters["enqueued"] == 2


def test_fifo_order_and_window_batching():
    sim = Simulator()
    pager = FakePager(sim)
    queue = make_queue(sim, pager, window=2)

    def producer():
        for page_id in (1, 2, 3, 4, 5):
            yield from queue.enqueue(page_id, bytes([page_id]))

    drive(sim, producer())
    assert [page_id for page_id, _ in pager.sent] == [1, 2, 3, 4, 5]
    assert queue.counters["drain_batches"] == 3  # 2 + 2 + 1
    assert queue.counters["drained_pages"] == 5
    # Every batch was bracketed by the protocol stack's cluster framing.
    assert pager.policy.stack.clusters == [[1, 2], [3, 4], [5]]


def test_backlog_blocks_producers():
    sim = Simulator()
    pager = FakePager(sim)
    queue = make_queue(sim, pager, window=1)
    backlog = queue.spec.max_backlog
    assert backlog == 8  # 8 * window
    admitted = []

    def producer():
        for page_id in range(backlog + 4):
            yield from queue.enqueue(page_id, b"x")
            admitted.append((page_id, sim.now))

    drive(sim, producer())
    assert [page_id for page_id, _ in pager.sent] == list(range(backlog + 4))
    assert queue.counters["backlog_stalls"] > 0
    # The first ``backlog`` fit instantly; later ones had to wait for
    # the drainer to make room.
    assert all(at == 0.0 for _, at in admitted[:backlog])
    assert admitted[-1][1] > 0.0


def test_release_drops_queued_entry():
    sim = Simulator()
    pager = FakePager(sim)
    queue = make_queue(sim, pager)

    def producer():
        yield from queue.enqueue(1, b"keep")
        yield from queue.enqueue(2, b"dead")
        queue.release(2)

    drive(sim, producer())
    assert pager.sent == [(1, b"keep")]
    assert queue.counters["released_queued"] == 1


def test_lookup_prefers_queued_over_sending():
    sim = Simulator()
    pager = FakePager(sim, send_time=0.01)
    queue = make_queue(sim, pager, window=1)
    seen = []

    def producer():
        yield from queue.enqueue(1, b"v1")
        yield sim.timeout(0.005)  # drainer is mid-transmit of v1
        assert queue.lookup(1).sending
        yield from queue.enqueue(1, b"v2")  # new entry, not a coalesce
        seen.append(queue.lookup(1).contents)

    drive(sim, producer())
    assert seen == [b"v2"]  # queued (newer) wins over sending
    assert pager.sent == [(1, b"v1"), (1, b"v2")]
    assert queue.counters["coalesced"] == 0


def test_wait_idle_blocks_until_everything_settled():
    sim = Simulator()
    pager = FakePager(sim, send_time=0.01)
    queue = make_queue(sim, pager, window=2)
    done = []

    def producer():
        for page_id in range(4):
            yield from queue.enqueue(page_id, b"x")
        yield from queue.wait_idle()
        done.append(sim.now)

    drive(sim, producer())
    assert queue.pending == 0
    assert len(pager.sent) == 4
    assert sorted(pager.settled) == [0, 1, 2, 3]  # every entry settles
    assert done and done[0] == pytest.approx(0.04)
