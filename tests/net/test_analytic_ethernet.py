"""Analytic Ethernet fast path == the frame-level CSMA/CD walk, exactly.

The uncontended-medium fast path precomputes every frame boundary and
parks the sender on one kernel event; a second sender devirtualizes the
hold back into the ordinary state machine mid-flight.  These tests pin
the contract: for any arrival pattern, every observable — completion
times, frame/collision counters, wire utilisation, message-latency
tally, backoff RNG stream states — is byte-identical between
``analytic=True`` and ``analytic=False`` runs, and the uncontended path
draws no RNG at all.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, EthernetSpec
from repro.net import EthernetCsmaCd
from repro.sim import RngRegistry, Simulator

_SEED = 11


def _drive(analytic, senders, spec=None):
    """Run a sender schedule; return every observable as one digest.

    ``senders`` is a list of dicts: ``src``/``dst`` hosts, an ``offset``
    before the first message, and ``sizes`` sent back-to-back.
    """
    sim = Simulator()
    net = EthernetCsmaCd(
        sim, spec=spec, rngs=RngRegistry(seed=_SEED), analytic=analytic
    )
    hosts = sorted({h for s in senders for h in (s["src"], s["dst"])})
    for host in hosts:
        net.attach(host)
    done = []

    def sender(idx, plan):
        if plan["offset"]:
            yield sim.timeout(plan["offset"])
        for size in plan["sizes"]:
            yield net.transfer(plan["src"], plan["dst"], size)
            done.append((idx, sim.now))

    for idx, plan in enumerate(senders):
        sim.process(sender(idx, plan), name=f"sender-{idx}")
    sim.run()
    return {
        "done": done,
        "counters": net.stats.counters.as_dict(),
        "utilization": net.stats.utilization(),
        "latency": net.stats.message_latency.as_dict(),
        "drops": net.drops,
        "now": sim.now,
        "rng": [
            net.rngs.stream(f"ethernet.{host}").getstate() for host in hosts
        ],
    }


def _identical(senders, spec=None):
    fast = _drive(True, senders, spec=spec)
    slow = _drive(False, senders, spec=spec)
    assert fast == slow
    return fast


# ------------------------------------------------------------ uncontended

def test_uncontended_stream_identical_and_draws_no_rng():
    digest = _identical(
        [{"src": "a", "dst": "b", "offset": 0.0,
          "sizes": [PAGE_SIZE, 1400, 100, PAGE_SIZE]}]
    )
    assert digest["counters"].get("collisions", 0) == 0
    # No collision ever happened, so the backoff stream was never
    # touched: its state equals a freshly-seeded stream's.
    fresh = RngRegistry(seed=_SEED)
    assert digest["rng"] == [
        fresh.stream("ethernet.a").getstate(),
        fresh.stream("ethernet.b").getstate(),
    ]


def test_uncontended_run_is_a_third_of_the_kernel_entries():
    """The analytic hold costs a few kernel heap entries per message
    (the hop to its completion entry, the completion, the sender's
    wake-up), not a resolver walk per frame: a PAGE_SIZE message
    fragments into 6 frames, so the frame-level walk pushes over 3x
    as many entries."""
    def count_entries(analytic):
        sim = Simulator()
        net = EthernetCsmaCd(
            sim, rngs=RngRegistry(seed=_SEED), analytic=analytic
        )
        net.attach("a")
        net.attach("b")

        def sender():
            for _ in range(20):
                yield net.transfer("a", "b", PAGE_SIZE)

        before = sim.claim_seq()
        sim.run_until_complete(sim.process(sender()))
        return sim.claim_seq() - before - 1

    assert count_entries(True) < count_entries(False) / 3


# -------------------------------------------------------- devirtualization

def _hold_boundaries(spec, nbytes):
    """Frame boundaries of a message starting at t=0, as the hold
    computes them (gap end, transmit start, transmit end per frame)."""
    mtu = spec.mtu
    full, rest = divmod(nbytes, mtu)
    sizes = [mtu] * full + ([rest] if rest else [])
    t = 0.0
    bounds = []
    for payload in sizes:
        b = t + spec.interframe_gap
        s = b + spec.slot_time
        e = s + spec.frame_time(payload)
        bounds.append((b, s, e))
        t = e
    return bounds


def _case_offsets(spec, nbytes):
    """One offset inside each window of several frames: the interframe
    gap (devirt case C), the contention slot (case B), mid-transmission
    (case A), plus exact boundaries and past the message end."""
    bounds = _hold_boundaries(spec, nbytes)
    offsets = []
    for k in (0, len(bounds) // 2, len(bounds) - 1):
        b, s, e = bounds[k]
        gap_open = bounds[k - 1][2] if k else 0.0
        offsets += [
            (gap_open + b) / 2,  # case C: in the gap
            (b + s) / 2,         # case B: in the contention slot
            (s + e) / 2,         # case A: mid-transmission
            b, s,                # exact window edges
        ]
    offsets.append(bounds[-1][2] * 1.01)  # after the message completes
    return offsets


@pytest.mark.parametrize(
    "offset", _case_offsets(EthernetSpec(), PAGE_SIZE),
    ids=lambda o: f"{o * 1e6:.1f}us",
)
def test_second_sender_devirtualizes_identically(offset):
    _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": "c", "dst": "d", "offset": offset, "sizes": [1400]},
        ]
    )


@settings(max_examples=60, deadline=None)
@given(
    offset=st.floats(min_value=0.0, max_value=0.012, allow_nan=False),
    second_size=st.integers(min_value=1, max_value=2 * PAGE_SIZE),
)
def test_arrival_offset_sweep_identical(offset, second_size):
    """Hypothesis sweep over the whole hold window (an 8 KB message runs
    ~8.6 ms): wherever the second sender lands, devirtualization must
    reconstruct the exact frame-level state."""
    _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0, "sizes": [PAGE_SIZE]},
            {"src": "c", "dst": "d", "offset": offset, "sizes": [second_size]},
        ]
    )


def test_many_senders_random_schedule_identical():
    """A deeper soak: four stations, staggered bursts, repeated
    contention and re-acquired holds between bursts."""
    rng = random.Random(20260808)
    senders = [
        {
            "src": f"h{2 * i}", "dst": f"h{2 * i + 1}",
            "offset": rng.uniform(0.0, 0.03),
            "sizes": [rng.randrange(1, PAGE_SIZE + 1) for _ in range(4)],
        }
        for i in range(4)
    ]
    digest = _identical(senders)
    assert digest["counters"]["messages"] == 16


def test_back_to_back_holds_after_contention():
    """Contention resolves, then the medium goes quiet: later messages
    must re-enter the fast path (and still match frame-level)."""
    digest = _identical(
        [
            {"src": "a", "dst": "b", "offset": 0.0,
             "sizes": [1400, PAGE_SIZE]},
            {"src": "c", "dst": "d", "offset": 0.0, "sizes": [1400]},
            # Arrives long after the contenders drained: uncontended.
            {"src": "a", "dst": "b", "offset": 0.1, "sizes": [PAGE_SIZE]},
        ]
    )
    assert digest["counters"]["collisions"] >= 1


# ------------------------------------------------------------------ gating

def test_chaos_wrapper_pins_frame_level():
    """A fault-injecting decorator disables the fast path outright: the
    chaos digests pin frame-level event sequences."""
    from repro.faults.network import UnreliableNetwork

    sim = Simulator()
    inner = EthernetCsmaCd(sim, rngs=RngRegistry(seed=_SEED))
    assert inner.analytic is True
    UnreliableNetwork(inner, rng=random.Random(1), drop_rate=0.1)
    assert inner.analytic is False

    # A zero-rate wrapper injects nothing and keeps the fast path.
    benign = EthernetCsmaCd(sim, rngs=RngRegistry(seed=_SEED))
    UnreliableNetwork(benign, rng=random.Random(1))
    assert benign.analytic is True


def test_cluster_ab_byte_identical(tmp_path, monkeypatch):
    """Full-cluster A/B on the analytic axis: paging over the analytic
    wire must produce the exact CompletionReport and metrics snapshot
    the frame-level wire does."""
    import dataclasses

    from repro.config import MachineSpec
    from repro.core.builder import build_cluster
    from repro.workloads import Gauss

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = MachineSpec(
        name="analytic-small",
        ram_bytes=2 * 1024 * 1024,
        kernel_resident_bytes=1 * 1024 * 1024,
        page_size=8192,
    )

    def run(analytic):
        cluster = build_cluster(
            policy="mirroring", n_servers=2, seed=7, machine_spec=spec,
            analytic_ethernet=analytic,
        )
        report = cluster.run(Gauss(n=400, passes=2))
        return dataclasses.asdict(report), cluster.metrics.snapshot()

    report_fast, metrics_fast = run(True)
    report_slow, metrics_slow = run(False)
    assert report_fast == report_slow
    assert metrics_fast == metrics_slow
