"""Schedule artifacts: JSON round-trip, cache hits, key sensitivity."""

import dataclasses

import pytest

from repro.compile import FaultSchedule, compile_trace
from repro.config import MachineSpec
from repro.core.builder import build_cluster
from repro.obs.trace import Tracer, install_tracer, uninstall_tracer
from repro.runner.cache import ScheduleCache
from repro.vm.replacement import LruReplacement
from repro.workloads import Gauss

_SMALL = MachineSpec(
    name="cache-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE", raising=False)


def _compile_small():
    return compile_trace(
        Gauss(n=300, passes=2).trace(),
        user_frames=128,
        policy=LruReplacement(),
        cpu_speed=1.0,
        max_cpu_chunk=0.25,
        free_batch=16,
    )


def test_schedule_json_roundtrip_is_exact(tmp_path):
    schedule = _compile_small()
    cache = ScheduleCache()
    key = {"workload": ["Gauss", 8192, 300, 2], "user_frames": 128}
    assert cache.put(key, schedule)
    loaded = cache.get(key)
    # Floats survive repr round-trip exactly; every op must match.
    assert dataclasses.asdict(loaded) == dataclasses.asdict(schedule)
    assert cache.hits == 1


def test_cache_miss_on_different_key():
    schedule = _compile_small()
    cache = ScheduleCache()
    cache.put({"user_frames": 128}, schedule)
    assert cache.get({"user_frames": 129}) is None
    assert cache.misses == 1


def test_format_mismatch_recompiles(tmp_path):
    schedule = _compile_small()
    data = schedule.to_json_dict()
    data["format"] = 999
    with pytest.raises(ValueError):
        FaultSchedule.from_json_dict(data)


def test_stale_format_entries_silently_miss(monkeypatch):
    """The cache path hashes SCHEDULE_FORMAT, so a format bump (like
    PR 6's columnar v2) never even opens entries written under the old
    layout — they are a silent miss, not a deserialisation error."""
    from repro.compile import schedule as schedule_mod

    schedule = _compile_small()
    cache = ScheduleCache()
    key = {"workload": ["Gauss", 8192, 300, 2], "user_frames": 128}
    assert cache.put(key, schedule)
    assert cache.get(key) is not None
    monkeypatch.setattr(schedule_mod, "SCHEDULE_FORMAT", 9999)
    fresh = ScheduleCache()
    assert fresh.get(key) is None
    assert (fresh.hits, fresh.misses) == (0, 1)


def test_second_run_hits_cache_and_is_identical():
    tracer = Tracer()
    install_tracer(tracer)
    try:
        def run():
            cluster = build_cluster(
                policy="no-reliability", n_servers=2, seed=5, machine_spec=_SMALL
            )
            return dataclasses.asdict(cluster.run(Gauss(n=300, passes=2)))

        first = run()
        second = run()
    finally:
        uninstall_tracer()
    assert first == second
    compile_events = [
        (r["event"], (r.get("attrs") or {}).get("reason"))
        for r in tracer.events
        if r["component"] == "compile"
    ]
    assert compile_events == [("compiled", None), ("cache-hit", None)]


def test_recorded_workload_compiles_uncached(tmp_path):
    """No identity token -> compiled fresh each run, never cached."""
    from repro.workloads.trace_io import RecordedWorkload, save_trace

    path = tmp_path / "wl.trace"
    save_trace(Gauss(n=300, passes=1), path)
    workload = RecordedWorkload(path)
    assert workload.schedule_token() is None

    tracer = Tracer()
    install_tracer(tracer)
    try:
        cluster = build_cluster(
            policy="no-reliability", n_servers=2, seed=5, machine_spec=_SMALL
        )
        compiled = dataclasses.asdict(cluster.run(workload))
        cluster = build_cluster(
            policy="no-reliability", n_servers=2, seed=5, machine_spec=_SMALL,
            compile_schedules=False,
        )
        interpreted = dataclasses.asdict(cluster.run(workload))
    finally:
        uninstall_tracer()
    assert compiled == interpreted
    events = [
        (r["event"], r.get("attrs", {})) for r in tracer.events
        if r["component"] == "compile"
    ]
    assert events[0][0] == "compiled" and events[0][1]["cached"] is False
