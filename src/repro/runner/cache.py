"""Content-addressed on-disk cache of completed experiment runs.

Each result is stored as one JSON file named by the SHA-256 of the
run's *fingerprint*: the spec's canonical identity, the package
version, and a digest of every package source that can shape a result
— all of ``repro`` except the render-only modules in
:data:`_RENDER_ONLY`.  Editing any digested file invalidates every
entry automatically; editing analysis, rendering or the CLI does not —
re-running ``repro fig2`` after an unrelated change skips
already-computed cells.

The store is human-inspectable: every file carries the spec it caches
in ``describe()`` form next to the report fields.  Invalidate manually
by deleting files (or the whole directory), or bypass with
``--no-cache``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from ..vm.machine import CompletionReport
from .spec import RunSpec

__all__ = [
    "ResultCache",
    "default_cache_dir",
    "fingerprint",
]

#: Bump when the on-disk entry layout changes.
_FORMAT = 1

#: Top-level package entries that only render or log: the one part of
#: the source tree left out of the digest.  Nothing that computes a
#: cached cell calls into them (the modules importing ``analysis`` use it
#: to render tables), so editing them can never change a cached cell.
_RENDER_ONLY = frozenset({"analysis", "cli.py", "log.py", "__main__.py"})

_code_digest: Optional[str] = None


def _digest_tree(root: Path) -> str:
    """Digest of every ``.py`` file under ``root`` outside
    :data:`_RENDER_ONLY`, paths included."""
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*.py")):
        relative = file.relative_to(root)
        if relative.parts[0] in _RENDER_ONLY:
            continue
        digest.update(relative.as_posix().encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()


def _source_digest() -> str:
    """:func:`_digest_tree` of the installed package (cached)."""
    global _code_digest
    if _code_digest is None:
        import repro

        _code_digest = _digest_tree(Path(repro.__file__).parent)
    return _code_digest


def fingerprint(spec: RunSpec) -> str:
    """Content address of one run: spec identity + version + sources."""
    import repro

    payload = "\n".join(
        (str(_FORMAT), repro.__version__, _source_digest(), spec.identity())
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else the XDG cache home."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Filesystem-backed map from run fingerprints to results."""

    def __init__(self, cache_dir: Optional[os.PathLike] = None):
        self.dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, spec: RunSpec) -> Path:
        return self.dir / f"{fingerprint(spec)}.json"

    def get(self, spec: RunSpec) -> Optional[Tuple[CompletionReport, Dict[str, Any]]]:
        """Load a cached (report, extras) pair, or None on miss."""
        try:
            with open(self._path(spec), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if entry.get("format") != _FORMAT:
                raise ValueError("stale cache format")
            report = CompletionReport(**entry["report"])
            extras = entry.get("extras", {})
        except (OSError, ValueError, TypeError, KeyError):
            # Missing, corrupt, or from an incompatible layout: recompute.
            self.misses += 1
            return None
        self.hits += 1
        return report, extras

    def put(
        self, spec: RunSpec, report: CompletionReport, extras: Dict[str, Any]
    ) -> bool:
        """Store one result; returns False if it is not JSON-representable."""
        entry = {
            "format": _FORMAT,
            "spec": spec.describe(),
            "report": asdict(report),
            "extras": extras,
        }
        try:
            payload = json.dumps(entry, indent=1, sort_keys=True)
        except (TypeError, ValueError):
            return False
        path = self._path(spec)
        # Write-then-rename so concurrent runners never read a torn file.
        # Any filesystem failure (unwritable location, a file where the
        # cache directory should be) degrades to "not cached" — never
        # lose a completed run to a cache problem.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        return True

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.dir.is_dir():
            for file in self.dir.glob("*.json"):
                file.unlink(missing_ok=True)
                removed += 1
        return removed

