"""Erasure-coded reliability (ISSUE 8 acceptance criteria).

Three layers of pinning:

* **codec properties** (hypothesis): the GF(256) Reed-Solomon stripe
  reconstructs the original page from *any* k of its k+m fragments,
  byte-identically, for arbitrary page contents and shapes; a corrupted
  fragment inside the decode subset is always caught by the pager's
  end-to-end checksum (never silently wrong bytes).
* **campaign invariants**: ec-2-1 and ec-4-2 come through the heavy and
  correlated chaos campaigns (multi-server crash_group, crash-during-
  recovery cascade, amnesiac flap, rot burst) CLEAN on both the
  synchronous and pipelined datapaths, with the degraded-read and
  rebuild accounting proving the redundancy actually worked.
* **fast-path identity**: the trace-compiled run of an erasure-coded
  cell returns the same report as the interpreted run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MachineSpec
from repro.core import build_cluster
from repro.core.policies import PlacementGroupManager, parse_ec_policy
from repro.core.policies.gf256 import (
    ReedSolomon,
    join_fragments,
    split_page,
)
from repro.errors import ConfigurationError, ReproError
from repro.faults import ChaosController, FaultPlan, check_page_integrity
from repro.vm.page import page_checksum
from repro.workloads import SequentialScan

SMALL = MachineSpec(
    name="test-small",
    ram_bytes=2 * 1024 * 1024,
    kernel_resident_bytes=1 * 1024 * 1024,
    page_size=8192,
)


def build_ec(policy, pipelined=False, **overrides):
    shape = parse_ec_policy(policy)
    kwargs = dict(
        machine_spec=SMALL,
        n_servers=max(2 * sum(shape), 8),
        content_mode=True,
        seed=3,
        server_capacity_pages=600,
    )
    if pipelined:
        kwargs.update(pipeline_window=4, pipeline_prefetch=4)
    kwargs.update(overrides)
    return build_cluster(policy=policy, **kwargs)


# --------------------------------------------------------------------------
# Codec properties.
# --------------------------------------------------------------------------

_SHAPES = st.sampled_from([(2, 1), (3, 2), (4, 2), (2, 2), (5, 3)])


@settings(max_examples=30, deadline=None)
@given(
    shape=_SHAPES,
    contents=st.binary(min_size=0, max_size=256),
    subset_seed=st.integers(min_value=0, max_value=2**31),
)
def test_any_k_fragments_roundtrip(shape, contents, subset_seed):
    """Any k of the k+m fragments reproduce the page byte-identically."""
    import itertools
    import random

    k, m = shape
    page_size = 64  # small pages keep the property fast; math is per-byte
    page = contents[:page_size].ljust(page_size, b"\0")
    fragment_size = -(-page_size // k)
    data = split_page(page, k, fragment_size)
    rs = ReedSolomon(k, m)
    parity = rs.encode(data)
    fragments = list(data) + list(parity)

    all_subsets = list(itertools.combinations(range(k + m), k))
    rng = random.Random(subset_seed)
    for subset in rng.sample(all_subsets, min(6, len(all_subsets))):
        available = {i: fragments[i] for i in subset}
        decoded = rs.data_from(available)
        assert join_fragments(decoded, page_size) == page


@settings(max_examples=20, deadline=None)
@given(
    shape=_SHAPES,
    flip_index=st.integers(min_value=0, max_value=10**6),
)
def test_corrupt_fragment_never_silently_wrong(shape, flip_index):
    """A rotted fragment in the decode subset trips the page checksum.

    The codec itself cannot detect corruption (any k points define *a*
    polynomial); the guarantee is end-to-end — the pageout-time CRC the
    pager keeps never matches bytes decoded through rot.
    """
    k, m = shape
    page_size = 64
    page = bytes(range(page_size // 2)) * 2
    fragment_size = -(-page_size // k)
    data = split_page(page, k, fragment_size)
    rs = ReedSolomon(k, m)
    fragments = list(data) + list(rs.encode(data))

    victim = flip_index % len(fragments)
    # Only columns that are real payload in *every* data fragment: a flip
    # in the last fragment's zero-padding (or in the parity column that
    # only feeds that padding) is truncated away by join_fragments and is
    # legitimately invisible end-to-end.
    solid_cols = page_size - (k - 1) * fragment_size
    byte_pos = (flip_index // len(fragments)) % solid_cols
    rotted = bytearray(fragments[victim])
    rotted[byte_pos] ^= 1 + (flip_index % 255)
    fragments[victim] = bytes(rotted)

    # Decode through a subset that *includes* the rotted fragment.
    subset = [victim] + [i for i in range(k + m) if i != victim][: k - 1]
    decoded = rs.data_from({i: fragments[i] for i in subset})
    assert page_checksum(join_fragments(decoded, page_size)) != page_checksum(page)


def test_codec_shape_validation():
    with pytest.raises(ValueError):
        ReedSolomon(0, 1)
    with pytest.raises(ValueError):
        ReedSolomon(1, 0)
    with pytest.raises(ValueError):
        ReedSolomon(200, 56)  # k + m > 255 overruns GF(256) points


# --------------------------------------------------------------------------
# Placement groups.
# --------------------------------------------------------------------------

def test_placement_groups_partition_pool_with_slack():
    servers = [f"server-{i}" for i in range(8)]
    groups = PlacementGroupManager(servers, width=3)
    # 8 servers / width 3 -> 2 groups of 4: every group carries one
    # spare beyond the stripe width, so rebuilds stay in-group.
    assert len(groups.groups) == 2
    sizes = sorted(len(g) for g in groups.groups)
    assert sizes == [4, 4]
    seen = [s for g in groups.groups for s in g]
    assert sorted(seen) == sorted(servers)


def test_parse_ec_policy_names():
    assert parse_ec_policy("ec-2-1") == (2, 1)
    assert parse_ec_policy("ec-4-2") == (4, 2)
    assert parse_ec_policy("mirroring") is None
    assert parse_ec_policy("ec-x-1") is None


def test_builder_rejects_undersized_pool():
    with pytest.raises(ConfigurationError):
        build_cluster(
            policy="ec-4-2",
            machine_spec=SMALL,
            n_servers=5,  # < k + m = 6
            content_mode=True,
            server_capacity_pages=600,
        )


# --------------------------------------------------------------------------
# Degraded reads.
# --------------------------------------------------------------------------

def test_degraded_read_survives_dead_fragment_holder():
    cluster = build_ec("ec-2-1")
    cluster.run(SequentialScan(n_pages=300, passes=1, write=True))
    cluster.servers[1].crash()
    report = check_page_integrity(cluster)
    assert report.clean, report.verdict
    # Pages striped over the dead server were served by parity
    # substitution, and the report says so.
    assert report.degraded
    assert cluster.policy.counters["degraded_reads"] >= len(report.degraded)


# --------------------------------------------------------------------------
# Campaigns (the acceptance matrix).
# --------------------------------------------------------------------------

def run_campaign(policy, plan, pipelined):
    cluster = build_ec(policy, pipelined=pipelined)
    controller = ChaosController(cluster, plan)
    error = None
    try:
        cluster.run(SequentialScan(n_pages=400, passes=3, write=True))
    except ReproError as exc:
        error = exc
    return cluster, controller, error


@pytest.mark.parametrize("pipelined", [False, True], ids=["sync", "pipelined"])
@pytest.mark.parametrize("policy", ["ec-2-1", "ec-4-2"])
def test_ec_survives_correlated_campaign(policy, pipelined):
    """Multi-server crash_group + cascade + flap + rot: CLEAN, with the
    reconstruction accounting proving redundancy did the surviving."""
    cluster, controller, error = run_campaign(
        policy, FaultPlan.correlated_campaign(), pipelined
    )
    assert error is None, error
    report = check_page_integrity(cluster)
    assert report.clean, f"{policy}: {report.verdict} lost={report.lost[:5]}"
    kinds = [kind for _, kind, _ in controller.fault_log]
    assert "crash_group" in kinds
    counters = cluster.policy.counters
    assert counters["fragments_rebuilt"] > 0
    assert counters["recovered_pages"] > 0
    assert cluster.pager.counters["recoveries"] >= 3


@pytest.mark.parametrize("pipelined", [False, True], ids=["sync", "pipelined"])
@pytest.mark.parametrize("policy", ["ec-2-1", "ec-4-2"])
def test_ec_survives_heavy_campaign(policy, pipelined):
    """The pre-existing heavy campaign (single crash + flap + loss +
    rot) must also be CLEAN — EC is a superset of single tolerance."""
    from repro.experiments.resilience import _level_plan

    cluster, _, error = run_campaign(policy, _level_plan("heavy"), pipelined)
    assert error is None, error
    report = check_page_integrity(cluster)
    assert report.clean, f"{policy}: {report.verdict}"


def test_correlated_campaign_plan_is_data():
    """crash_group round-trips through the plain-kwargs wire format."""
    plan = FaultPlan.correlated_campaign()
    clone = FaultPlan.from_kwargs(plan.as_kwargs())
    assert clone == plan
    assert hash(clone) == hash(plan)
    assert any(event[0] == "crash_group" for event in plan.events)


def test_crash_group_logged_once_with_members():
    cluster = build_ec("ec-2-1")
    controller = ChaosController(
        cluster, FaultPlan(events=(("crash_group", 1.0, (0, 4)),))
    )
    cluster.run(SequentialScan(n_pages=300, passes=1, write=True))
    entries = [e for e in controller.fault_log if e[1] == "crash_group"]
    assert len(entries) == 1
    assert entries[0][2]["servers"] == ["server-0", "server-4"]


# --------------------------------------------------------------------------
# Fast-path identity.
# --------------------------------------------------------------------------

def test_compiled_and_interpreted_reports_identical():
    def one_run(compile_schedules):
        cluster = build_ec("ec-4-2", compile_schedules=compile_schedules)
        report = cluster.run(SequentialScan(n_pages=300, passes=2, write=True))
        return report, cluster.metrics.snapshot()

    compiled_report, compiled_metrics = one_run(True)
    interpreted_report, interpreted_metrics = one_run(False)
    assert compiled_report.etime == interpreted_report.etime
    assert compiled_report.faults == interpreted_report.faults
    assert compiled_metrics == interpreted_metrics


@pytest.mark.parametrize("level", ["heavy", "correlated"])
def test_compiled_identity_under_chaos(level):
    """The concurrent fragment datapath (scatter pageouts, wave pageins)
    stays bit-deterministic under fault campaigns: the compiled-enabled
    and interpreted runs of a chaos cell return identical reports and
    metrics snapshots."""
    from repro.experiments.resilience import _level_plan

    plan = (
        FaultPlan.correlated_campaign()
        if level == "correlated"
        else _level_plan("heavy")
    )

    def one_run(compile_schedules):
        cluster = build_ec("ec-4-2", compile_schedules=compile_schedules)
        ChaosController(cluster, plan)
        report = cluster.run(SequentialScan(n_pages=400, passes=3, write=True))
        integrity = check_page_integrity(cluster)
        assert integrity.clean, integrity.verdict
        return report, cluster.metrics.snapshot()

    compiled_report, compiled_metrics = one_run(True)
    interpreted_report, interpreted_metrics = one_run(False)
    assert compiled_report.etime == interpreted_report.etime
    assert compiled_report.faults == interpreted_report.faults
    assert compiled_metrics == interpreted_metrics
