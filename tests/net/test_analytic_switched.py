"""Analytic switched fast path == the per-event store-and-forward walk.

The switched network's uncontended path precomputes the uplink / switch
hop / downlink-drain boundaries and parks each transfer on one kernel
event; a second flow landing on a held port devirtualizes the hold back
into the ordinary resource walk mid-flight.  These tests pin the
contract: for any arrival pattern, every observable — completion times,
counters, wire utilisation, message-latency tally — is byte-identical
between ``analytic=True`` and ``analytic=False`` runs.  The model draws
no randomness on either path, so there is no RNG axis to check.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, SwitchedNetworkSpec, fast_network
from repro.net import SwitchedNetwork
from repro.sim import Simulator

_SPEC = SwitchedNetworkSpec()


def _drive(analytic, senders, spec=None, bandwidths=None, chaos=None):
    """Run a sender schedule; return every observable as one digest.

    ``senders`` is a list of dicts: ``src``/``dst`` hosts, an ``offset``
    before the first message, and ``sizes`` sent back-to-back.
    ``bandwidths`` optionally overrides per-host link rates and
    ``chaos`` optionally describes a partition window
    ``(segment, cut_at, heal_at)``.
    """
    sim = Simulator()
    net = SwitchedNetwork(sim, spec=spec, analytic=analytic)
    hosts = sorted({h for s in senders for h in (s["src"], s["dst"])})
    for host in hosts:
        net.attach(host, bandwidth=(bandwidths or {}).get(host))
    done = []

    def sender(idx, plan):
        if plan["offset"]:
            yield sim.timeout(plan["offset"])
        for size in plan["sizes"]:
            yield net.transfer(plan["src"], plan["dst"], size)
            done.append((idx, sim.now))

    for idx, plan in enumerate(senders):
        sim.process(sender(idx, plan), name=f"sender-{idx}")
    if chaos is not None:
        segment, cut_at, heal_at = chaos

        def bridge_failure():
            yield sim.timeout(cut_at)
            net.partition(segment)
            yield sim.timeout(heal_at - cut_at)
            net.heal()

        sim.process(bridge_failure(), name="bridge")
    sim.run()
    return {
        "done": done,
        "counters": net.stats.counters.as_dict(),
        "utilization": net.stats.utilization(),
        "busy_seconds": net.stats.busy_seconds(),
        "latency": net.stats.message_latency.as_dict(),
        "now": sim.now,
    }


def _identical(senders, spec=None, bandwidths=None, chaos=None):
    fast = _drive(True, senders, spec=spec, bandwidths=bandwidths, chaos=chaos)
    slow = _drive(False, senders, spec=spec, bandwidths=bandwidths, chaos=chaos)
    assert fast == slow
    return fast


def _chain(spec, nbytes):
    """(t_wire_end, t_hop_end, t_end) for a transfer starting at t=0."""
    full, rest = divmod(nbytes, spec.mtu)
    frames = full + (1 if rest else 0)
    wire = (nbytes + frames * spec.frame_overhead) / spec.bandwidth
    last = nbytes % spec.mtu or spec.mtu
    drain = (min(last, nbytes) + spec.frame_overhead) / spec.bandwidth
    t_wire_end = wire
    t_hop_end = t_wire_end + spec.per_hop_latency
    t_end = t_hop_end + drain
    return t_wire_end, t_hop_end, t_end


# ------------------------------------------------------------ uncontended

def test_uncontended_stream_identical():
    digest = _identical(
        [{"src": "a", "dst": "b", "offset": 0.0,
          "sizes": [PAGE_SIZE, 1400, 100, PAGE_SIZE]}]
    )
    assert digest["counters"]["messages"] == 4


def test_disjoint_pairs_hold_concurrently():
    """Unlike the shared Ethernet's single hold, every disjoint port
    pair runs analytically at the same time — and still matches."""
    digest = _identical(
        [
            {"src": f"h{2 * i}", "dst": f"h{2 * i + 1}", "offset": 0.0,
             "sizes": [PAGE_SIZE, PAGE_SIZE]}
            for i in range(8)
        ]
    )
    assert digest["counters"]["messages"] == 16


def test_uncontended_run_spawns_no_transfer_processes():
    """An uncontended analytic transfer is one parked kernel event plus
    a completion callback — no ``xfer`` process at all."""
    def count_processes(analytic):
        sim = Simulator()
        net = SwitchedNetwork(sim, analytic=analytic)
        net.attach("a")
        net.attach("b")

        def sender():
            for _ in range(20):
                yield net.transfer("a", "b", PAGE_SIZE)

        sim.run_until_complete(sim.process(sender()))
        return sim.process_count

    assert count_processes(True) == 1        # just the sender
    assert count_processes(False) == 1 + 20  # sender + one walk per message


# -------------------------------------------------------- devirtualization

def _window_offsets(spec, nbytes):
    """One offset inside each chain window plus every exact boundary."""
    t_wire_end, t_hop_end, t_end = _chain(spec, nbytes)
    return [
        t_wire_end / 2,               # mid-uplink
        (t_wire_end + t_hop_end) / 2,  # in the switch hop
        (t_hop_end + t_end) / 2,      # draining the downlink
        t_wire_end, t_hop_end, t_end,  # exact boundaries
        t_end * 1.5,                  # after completion
    ]


_OFFSET_IDS = ("mid-wire", "mid-hop", "mid-drain",
               "at-wire-end", "at-hop-end", "at-end", "after-end")


@pytest.mark.parametrize("contention", ["tx", "rx", "both"])
@pytest.mark.parametrize(
    "offset", _window_offsets(_SPEC, PAGE_SIZE),
    ids=_OFFSET_IDS,
)
def test_second_flow_devirtualizes_identically(contention, offset):
    src = "a" if contention in ("tx", "both") else "c"
    dst = "b" if contention in ("rx", "both") else "d"
    digest = _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": src, "dst": dst, "offset": offset, "sizes": [1400]},
        ]
    )
    assert digest["counters"]["messages"] == 2


def test_zero_hop_latency_boundary_tie():
    """With ``per_hop_latency=0`` the wire-end and hop-end boundaries
    coincide; a flow landing exactly there exercises the tie rule."""
    spec = SwitchedNetworkSpec(per_hop_latency=0.0)
    t_wire_end, _, t_end = _chain(spec, PAGE_SIZE)
    for offset in (t_wire_end, t_wire_end / 2, t_end):
        for dst in ("b", "d"):
            _identical(
                [
                    {"src": "a", "dst": "b", "offset": 0.0,
                     "sizes": [PAGE_SIZE]},
                    {"src": "a", "dst": dst, "offset": offset,
                     "sizes": [1400]},
                ],
                spec=spec,
            )


# Dyadic spec: every boundary float is exact, so same-instant boundary
# ties between independent chains are constructed reliably rather than
# hoped for.  Chain for 8192 B: wire 2^-7, hop 2^-10, drain 2^-10; for
# 1024 B: wire = drain = 2^-10.
_DYADIC = SwitchedNetworkSpec(
    bandwidth=float(2 ** 20), mtu=1024, frame_overhead=0,
    per_hop_latency=2.0 ** -10,
)
_TICK = 2.0 ** -10


def test_devirtualized_resume_wins_sibling_boundary_tie():
    """Two equal-size transfers to one receiver start at the same
    instant; a third small flow devirtualizes the first one's hold
    mid-uplink.  The resumed chain shares its wire-end and hop-end
    boundaries with its sibling exactly, and — being the older chain —
    must still win the downlink FIFO at the hop-end tie, as it does
    event-driven.  (Found by an 8-client fleet campaign: the resume
    used to re-enter the heap at a fresh rank and lose the tie.)"""
    digest = _identical(
        [
            {"src": "a", "dst": "d", "offset": 0.0, "sizes": [8192]},
            {"src": "b", "dst": "d", "offset": 0.0, "sizes": [8192]},
            {"src": "c", "dst": "d", "offset": _TICK, "sizes": [1024]},
        ],
        spec=_DYADIC,
    )
    # c slips through while a is mid-wire; a (older) then beats b.
    assert digest["done"] == [
        (2, 4 * _TICK), (0, 10 * _TICK), (1, 11 * _TICK)
    ]


def test_older_resume_meets_newer_hold_at_its_hop_end():
    """An older devirtualized chain reaches the downlink at exactly a
    *newer* fast hold's hop-end boundary.  The newer hold has not yet
    acquired the port event-driven (its chain ranks later), so it must
    queue behind the older arrival — not be re-granted the port as if
    already draining.  (Found by the same fleet campaign: the phase
    verdict at an exact boundary hit used to ignore chain age.)"""
    digest = _identical(
        [
            {"src": "a", "dst": "d", "offset": 0.0, "sizes": [8192]},
            # e devirtualizes a mid-wire, drains, and gets out of the way.
            {"src": "e", "dst": "d", "offset": _TICK, "sizes": [1024]},
            # b starts exactly its own wire time before a's wire end, so
            # its fresh fast hold ties a's resumed chain on both the
            # wire-end and hop-end boundaries.
            {"src": "b", "dst": "d", "offset": 7 * _TICK, "sizes": [1024]},
        ],
        spec=_DYADIC,
    )
    assert digest["done"] == [
        (1, 4 * _TICK), (0, 10 * _TICK), (2, 11 * _TICK)
    ]


@settings(max_examples=60, deadline=None)
@given(
    offset=st.floats(min_value=0.0, max_value=0.0012, allow_nan=False),
    second_size=st.integers(min_value=1, max_value=2 * PAGE_SIZE),
    contention=st.sampled_from(["tx", "rx", "both"]),
)
def test_arrival_offset_sweep_identical(offset, second_size, contention):
    """Hypothesis sweep over the whole hold window (~0.8 ms for a page):
    wherever the second flow lands, devirtualization must reconstruct
    the exact store-and-forward state."""
    src = "a" if contention in ("tx", "both") else "c"
    dst = "b" if contention in ("rx", "both") else "d"
    _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": src, "dst": dst, "offset": offset,
             "sizes": [second_size]},
        ]
    )


def test_fan_in_to_one_receiver_identical():
    """Many senders funnelling into one downlink: holds form, devirt,
    and the drain serialisation must serialise identically."""
    digest = _identical(
        [
            {"src": f"s{i}", "dst": "sink", "offset": i * 0.0002,
             "sizes": [PAGE_SIZE, 1400]}
            for i in range(6)
        ]
    )
    assert digest["counters"]["messages"] == 12


def test_many_flows_random_schedule_identical():
    """A deeper soak: staggered bursts over overlapping port pairs,
    repeated devirtualization and re-acquired holds between bursts."""
    rng = random.Random(20260808)
    hosts = [f"h{i}" for i in range(5)]
    senders = []
    for i in range(8):
        src, dst = rng.sample(hosts, 2)
        senders.append({
            "src": src, "dst": dst,
            "offset": rng.uniform(0.0, 0.002),
            "sizes": [rng.randrange(1, PAGE_SIZE + 1) for _ in range(3)],
        })
    digest = _identical(senders)
    assert digest["counters"]["messages"] == 24


def test_back_to_back_holds_after_contention():
    """Contention drains, the fabric goes quiet: later messages must
    re-enter the fast path (and still match the per-event walk)."""
    _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0,
             "sizes": [1400, PAGE_SIZE]},
            {"src": "a", "dst": "c", "offset": 0.0, "sizes": [1400]},
            # Arrives long after the contenders drained: uncontended.
            {"src": "a", "dst": "b", "offset": 0.1, "sizes": [PAGE_SIZE]},
        ]
    )


def test_heterogeneous_bandwidths_identical():
    """Per-host link rates (§5 heterogeneous networks) flow into the
    precomputed boundaries: min(src, dst) on the wire, dst on drain."""
    _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": "c", "dst": "b", "offset": 0.0003, "sizes": [PAGE_SIZE]},
            {"src": "a", "dst": "c", "offset": 0.0005, "sizes": [1400]},
        ],
        bandwidths={"a": 12_500_000.0, "b": 1_250_000.0, "c": 6_250_000.0},
    )


def test_partition_window_identical():
    """Transfers stalled at a bridge failure (§2.2) resume on heal; the
    stall path must not corrupt or bypass the analytic bookkeeping."""
    digest = _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": "c", "dst": "d", "offset": 0.0004,
             "sizes": [PAGE_SIZE, 1400]},
            {"src": "a", "dst": "d", "offset": 0.0006, "sizes": [1400]},
        ],
        chaos=(("a", "b"), 0.0003, 0.0009),
    )
    assert digest["counters"]["partitions"] == 1


# ------------------------------------------------------------------ gating

def test_chaos_wrapper_pins_per_event():
    """A fault-injecting decorator disables the fast path outright,
    exactly as it does for the analytic Ethernet."""
    from repro.faults.network import UnreliableNetwork

    sim = Simulator()
    inner = SwitchedNetwork(sim)
    assert inner.analytic is True
    UnreliableNetwork(inner, rng=random.Random(1), drop_rate=0.1)
    assert inner.analytic is False

    benign = SwitchedNetwork(sim)
    UnreliableNetwork(benign, rng=random.Random(1))
    assert benign.analytic is True


def test_fast_network_scaling_unchanged():
    """The Figure-4 bandwidth sweep still sees ~linear latency scaling
    through the analytic path."""
    times = {}
    for factor in (1, 10):
        sim = Simulator()
        net = SwitchedNetwork(sim, spec=fast_network(factor), analytic=True)
        net.attach("a")
        net.attach("b")

        def driver():
            yield net.transfer("a", "b", PAGE_SIZE)
            return sim.now

        times[factor] = sim.run_until_complete(sim.process(driver()))
    ratio = times[1] / times[10]
    assert 7.0 < ratio <= 10.5


def test_cluster_ab_byte_identical(tmp_path, monkeypatch):
    """Full-cluster A/B on the analytic-switched axis: paging over the
    analytic fabric must produce the exact CompletionReport and metrics
    snapshot the per-event fabric does."""
    import dataclasses

    from repro.config import MachineSpec
    from repro.core.builder import build_cluster
    from repro.workloads import Gauss

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = MachineSpec(
        name="analytic-switched-small",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )

    def run(analytic):
        cluster = build_cluster(
            policy="mirroring", n_servers=2, seed=7, machine_spec=spec,
            switched_spec=SwitchedNetworkSpec(),
            analytic_switched=analytic,
        )
        report = cluster.run(Gauss(n=400, passes=2))
        return dataclasses.asdict(report), cluster.metrics.snapshot()

    report_fast, metrics_fast = run(True)
    report_slow, metrics_slow = run(False)
    assert report_fast == report_slow
    assert metrics_fast == metrics_slow
