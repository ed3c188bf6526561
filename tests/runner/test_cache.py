"""Result cache: round-trip fidelity, content addressing, corruption."""

import dataclasses
import json

from repro.cli import main
from repro.runner import ResultCache, RunSpec, fingerprint
from repro.runner.execute import execute_spec

SPEC = RunSpec.make("gauss", "disk", workload_kwargs={"n": 700})


def test_roundtrip_preserves_report_exactly(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get(SPEC) is None
    assert cache.misses == 1

    result = execute_spec(SPEC)
    assert cache.put(SPEC, result.report, result.extras)

    report, extras = cache.get(SPEC)
    assert cache.hits == 1
    assert dataclasses.asdict(report) == dataclasses.asdict(result.report)
    assert extras == result.extras


def test_fingerprint_ignores_label_but_not_parameters():
    labelled = RunSpec.make("gauss", "disk", workload_kwargs={"n": 700}, label="x")
    assert fingerprint(labelled) == fingerprint(SPEC)
    other = RunSpec.make("gauss", "disk", workload_kwargs={"n": 701})
    assert fingerprint(other) != fingerprint(SPEC)


def test_engine_keyword_enters_the_fingerprint(tmp_path):
    """A tier chosen by keyword is part of the run's identity: a cache
    warmed with the default (fast) cell never serves the frame-level one."""
    frame_level = RunSpec.make(
        "gauss", "disk", workload_kwargs={"n": 700},
        overrides={"analytic_ethernet": False},
    )
    assert fingerprint(frame_level) != fingerprint(SPEC)
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    assert cache.put(SPEC, result.report, result.extras)
    assert cache.get(SPEC) is not None
    assert cache.get(frame_level) is None


def test_cli_writes_only_under_cache_dir(tmp_path, monkeypatch, capsys):
    """``--cache-dir`` is the only place a cached CLI run writes to."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    xdg = tmp_path / "xdg"
    xdg.mkdir()
    monkeypatch.setenv("XDG_CACHE_HOME", str(xdg))
    cache_dir = tmp_path / "cache"
    argv = ["fig2", "--apps", "mvec", "--policies", "no-reliability"]
    assert main(argv + ["--cache-dir", str(cache_dir)]) == 0
    assert list(cache_dir.glob("*.json"))
    assert list(xdg.iterdir()) == []


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)

    [entry] = tmp_path.glob("*.json")
    entry.write_text("{not json", encoding="utf-8")
    assert cache.get(SPEC) is None

    entry.write_text(json.dumps({"format": 999}), encoding="utf-8")
    assert cache.get(SPEC) is None


def test_unserialisable_extras_refuse_to_cache(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    assert not cache.put(SPEC, result.report, {"cluster": object()})
    assert cache.get(SPEC) is None


def test_unusable_cache_location_degrades_to_uncached(tmp_path):
    """A file where the cache dir should be must never lose a result."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    cache = ResultCache(blocker)
    result = execute_spec(SPEC)
    assert not cache.put(SPEC, result.report, result.extras)
    assert cache.get(SPEC) is None


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)
    assert cache.clear() == 1
    assert cache.get(SPEC) is None


def test_entries_are_human_inspectable(tmp_path):
    cache = ResultCache(tmp_path)
    result = execute_spec(SPEC)
    cache.put(SPEC, result.report, result.extras)
    [entry] = tmp_path.glob("*.json")
    payload = json.loads(entry.read_text(encoding="utf-8"))
    assert payload["spec"]["workload"] == "gauss"
    assert payload["spec"]["policy"] == "disk"
    assert payload["report"]["etime"] == result.report.etime


def _package_copy(tmp_path):
    import shutil
    from pathlib import Path

    import repro

    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def _edit_first_module(path):
    target = path if path.is_file() else sorted(path.rglob("*.py"))[0]
    original = target.read_bytes()
    target.write_bytes(original + b"\n# edited\n")
    return target, original


def test_fingerprint_covers_every_result_shaping_subpackage(tmp_path):
    from repro.runner.cache import _RENDER_ONLY, _digest_tree

    root = _package_copy(tmp_path)
    base = _digest_tree(root)
    digested = [
        entry for entry in sorted(root.iterdir())
        if entry.name not in _RENDER_ONLY
        and (entry.is_dir() or entry.suffix == ".py")
    ]
    assert {"compile", "pipeline", "obs", "runner", "experiments"} <= {
        entry.name for entry in digested
    }
    for entry in digested:
        target, original = _edit_first_module(entry)
        assert _digest_tree(root) != base, entry.name
        target.write_bytes(original)
    assert _digest_tree(root) == base


def test_fingerprint_ignores_render_only_modules(tmp_path):
    from repro.runner.cache import _RENDER_ONLY, _digest_tree

    root = _package_copy(tmp_path)
    base = _digest_tree(root)
    for name in sorted(_RENDER_ONLY):
        _edit_first_module(root / name)
    assert _digest_tree(root) == base
