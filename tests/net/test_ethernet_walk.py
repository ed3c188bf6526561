"""Golden pins of the contended CSMA/CD walk.

Seeded runs of several stations sending bursts of mixed message sizes
over one segment: with the analytic hold on and off, across a partition
that heals mid-burst, and with an attempt limit small enough to force
drops.  Each run is reduced to what the walk decides: the delivery log
(message order and the exact ``repr`` of every delivery time), the frame
and collision counters, the drop count, the wire"s busy seconds and
every station"s backoff RNG state.  The golden values were taken from
the generator-based walk; any rewrite of the kernel or of the Ethernet
state machine must reproduce them bit for bit.
"""

import hashlib
import random

import pytest

from repro.config import PAGE_SIZE, EthernetSpec
from repro.net import EthernetCsmaCd
from repro.sim import RngRegistry, Simulator

_HOSTS = ("a", "b", "c", "d", "e")
_SIZES = (64, 700, 1400, 1500, 3000, PAGE_SIZE, 12000)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _plan(seed, n_senders, n_messages, think):
    """Per sender: its route and a list of (think time, size, wait)."""
    rng = random.Random(seed)
    plan = []
    for i in range(n_senders):
        src = _HOSTS[i]
        dst = _HOSTS[(i + 1 + rng.randrange(len(_HOSTS) - 1)) % len(_HOSTS)]
        steps = [
            (rng.choice((0.0, 0.0, rng.uniform(0.0, think))),
             rng.choice(_SIZES),
             rng.random() < 0.7)
            for _ in range(n_messages)
        ]
        plan.append((src, dst, steps))
    return plan


def _walk(seed, analytic=True, spec=None, n_senders=4, n_messages=10,
          think=0.004, partition=None):
    sim = Simulator()
    net = EthernetCsmaCd(
        sim, spec=spec, rngs=RngRegistry(seed=seed), analytic=analytic
    )
    for host in _HOSTS:
        net.attach(host)
    log = []
    delivered = net.stats.delivered

    def record(message):
        log.append((message.msg_id, repr(sim.now)))
        delivered(message)

    net.stats.delivered = record
    plan = _plan(seed, n_senders, n_messages, think)
    # One message queued before the clock starts, ahead of the
    # stations" own start-up.
    net.transfer(plan[0][0], plan[0][1], 1400)

    def sender(src, dst, steps):
        for think, size, wait in steps:
            if think:
                yield sim.timeout(think)
            done = net.transfer(src, dst, size)
            if wait:
                yield done

    for src, dst, steps in plan:
        sim.process(sender(src, dst, steps))
    stalled = []
    if partition is not None:
        segment, cut_at, heal_at = partition

        def cutter():
            yield sim.timeout(cut_at)
            net.partition(segment)
            yield sim.timeout(heal_at - cut_at)
            stalled.append(len(net._heal_waiters))
            net.heal()

        sim.process(cutter())
    sim.run()
    rank = {mid: i for i, mid in enumerate(sorted(mid for mid, _ in log))}
    counters = net.stats.counters
    return {
        "log": _digest("\n".join(f"{rank[mid]} {t}" for mid, t in log)),
        "messages": len(log),
        "frames": counters["frames"],
        "collisions": counters["collisions"],
        "station_collisions": counters["station_collisions"],
        "drops": net.drops,
        "stalled": stalled,
        "busy": repr(net.stats.busy_seconds()),
        "rng": _digest(repr([
            net.rngs.stream(f"ethernet.{host}").getstate() for host in _HOSTS
        ])),
    }


_RUNS = {
    "analytic": dict(seed=3),
    "frame-walk": dict(seed=3, analytic=False),
    # Sparse bursts: analytic holds, devirtualized mid-transmission
    # (seed 7) and in the gap and the contention slot (seed 28).
    "holds-mid-frame": dict(seed=7, think=0.01, n_messages=12),
    "holds-gap-and-slot": dict(seed=28, think=0.03, n_messages=12,
                               n_senders=5),
    "partition-heal": dict(seed=5, partition=({"a", "b"}, 0.004, 0.019)),
    "drops": dict(seed=8, spec=EthernetSpec(max_attempts=3), n_senders=5,
                  n_messages=4),
}

_GOLDEN = {
    "analytic": {
        "log": "a651247b2e16007d",
        "messages": 41,
        "frames": 102,
        "collisions": 35,
        "station_collisions": 79,
        "drops": 0,
        "stalled": [],
        "busy": "0.1186591999999999",
        "rng": "6eb3875aa7da3b4b",
    },
    "drops": {
        "log": "a64153b53f3d2436",
        "messages": 21,
        "frames": 63,
        "collisions": 914,
        "station_collisions": 3103,
        "drops": 1017,
        "stalled": [],
        "busy": "0.12430559999999923",
        "rng": "5d36d4423ce858d4",
    },
    "frame-walk": {
        "log": "a651247b2e16007d",
        "messages": 41,
        "frames": 102,
        "collisions": 35,
        "station_collisions": 79,
        "drops": 0,
        "stalled": [],
        "busy": "0.1186591999999999",
        "rng": "6eb3875aa7da3b4b",
    },
    "holds-gap-and-slot": {
        "log": "00bbe0d067b389f1",
        "messages": 61,
        "frames": 174,
        "collisions": 86,
        "station_collisions": 197,
        "drops": 0,
        "stalled": [],
        "busy": "0.20495359999999954",
        "rng": "4a396552d1880b0a",
    },
    "holds-mid-frame": {
        "log": "02c9ffc342fdb1e1",
        "messages": 49,
        "frames": 128,
        "collisions": 66,
        "station_collisions": 143,
        "drops": 0,
        "stalled": [],
        "busy": "0.14283839999999998",
        "rng": "66b4508ff04b42e7",
    },
    "partition-heal": {
        "log": "e4d9d53f9c8edf62",
        "messages": 41,
        "frames": 145,
        "collisions": 34,
        "station_collisions": 82,
        "drops": 0,
        "stalled": [2],
        "busy": "0.1712047999999997",
        "rng": "003b1d66cb32683d",
    },
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_walk_matches_golden(name):
    assert _walk(**_RUNS[name]) == _GOLDEN[name]


def test_runs_are_contended():
    """The pins only guard the walk if it collides, backs off and drops."""
    assert _GOLDEN["frame-walk"]["collisions"] > 0
    assert _GOLDEN["partition-heal"]["collisions"] > 0
    assert _GOLDEN["partition-heal"]["stalled"][0] > 0
    assert _GOLDEN["drops"]["drops"] > 0
