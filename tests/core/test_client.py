"""RemoteMemoryPager behaviour: fallback, migration, thresholds, daemon."""

import pytest

from repro.core import RemoteMemoryPager, build_cluster
from repro.errors import ServerCrashed, SwapSpaceExhausted
from repro.vm import page_bytes

PAGE = 8192


def cluster_for(policy="no-reliability", **kwargs):
    defaults = dict(n_servers=2, content_mode=True, server_capacity_pages=64)
    defaults.update(kwargs)
    return build_cluster(policy=policy, **defaults)


def drive(cluster, gen):
    def body(gen):
        result = yield from gen
        return result

    return cluster.sim.run_until_complete(cluster.sim.process(body(gen)))


def pageout(cluster, page_id, version=1):
    drive(cluster, cluster.pager.pageout(page_id, page_bytes(page_id, version, PAGE)))


def pagein(cluster, page_id):
    return drive(cluster, cluster.pager.pagein(page_id))


def test_disk_fallback_when_servers_full():
    cluster = cluster_for(server_capacity_pages=4)
    for page_id in range(12):  # 2 servers x 4 pages, then overflow
        pageout(cluster, page_id)
    assert cluster.pager.pages_on_local_disk == 4
    assert cluster.pager.counters["disk_fallback_pageouts"] == 4
    # Disk-resident pages still read back correctly.
    for page_id in range(12):
        assert pagein(cluster, page_id) == page_bytes(page_id, 1, PAGE)


def test_no_fallback_configured_raises():
    cluster = cluster_for(server_capacity_pages=2)
    cluster.pager.disk_backend = None
    with pytest.raises(SwapSpaceExhausted):
        for page_id in range(8):
            pageout(cluster, page_id)


def test_repageout_moves_page_off_disk_fallback():
    cluster = cluster_for(server_capacity_pages=4)
    for page_id in range(12):
        pageout(cluster, page_id)
    on_disk = next(iter(cluster.pager._on_disk))
    # Free server room, then re-pageout the disk-resident page.
    cluster.pager.release(0)
    pageout(cluster, on_disk, version=2)
    assert on_disk not in cluster.pager._on_disk
    assert pagein(cluster, on_disk) == page_bytes(on_disk, 2, PAGE)


def test_release_clears_disk_fallback():
    cluster = cluster_for(server_capacity_pages=2)
    for page_id in range(6):
        pageout(cluster, page_id)
    victim = next(iter(cluster.pager._on_disk))
    cluster.pager.release(victim)
    assert victim not in cluster.pager._on_disk


def test_migration_moves_pages_to_spare():
    cluster = cluster_for(server_capacity_pages=64)
    spare = cluster.add_spare_server()
    for page_id in range(32):
        pageout(cluster, page_id)
    loaded = cluster.servers[0]
    held = [p for p, s in cluster.policy._placement.items() if s is loaded]
    moved = drive(cluster, cluster.pager.migrate_from(loaded))
    assert moved == len(held)
    assert loaded.stored_pages == 0
    # All pages remain retrievable, with correct contents.
    for page_id in range(32):
        assert pagein(cluster, page_id) == page_bytes(page_id, 1, PAGE)


def test_migration_limit():
    cluster = cluster_for()
    cluster.add_spare_server()
    for page_id in range(16):
        pageout(cluster, page_id)
    loaded = cluster.servers[0]
    before = loaded.stored_pages
    moved = drive(cluster, cluster.pager.migrate_from(loaded, limit=3))
    assert moved == 3
    assert loaded.stored_pages == before - 3


def test_replicate_disk_pages_back():
    cluster = cluster_for(server_capacity_pages=4)
    for page_id in range(12):
        pageout(cluster, page_id)
    assert cluster.pager.pages_on_local_disk == 4
    cluster.add_spare_server(capacity_pages=64)
    # The spare is registered but not in the policy's server set; pages
    # re-replicate once the policy's own servers free up.
    for page_id in range(4):
        cluster.pager.release(page_id)
    moved = drive(cluster, cluster.pager.replicate_disk_pages_back())
    assert moved == 4
    assert cluster.pager.pages_on_local_disk == 0
    for page_id in range(4, 12):
        assert pagein(cluster, page_id) == page_bytes(page_id, 1, PAGE)


def test_network_threshold_routes_to_disk():
    cluster = cluster_for(
        server_capacity_pages=512,
        network_threshold=0.001,  # absurdly low: everything looks congested
    )
    window = RemoteMemoryPager.THRESHOLD_WINDOW
    for page_id in range(window + 8):
        pageout(cluster, page_id)
    assert cluster.pager.counters["disk_fallback_pageouts"] >= 8


def test_network_threshold_reprobes_after_streak():
    cluster = cluster_for(server_capacity_pages=512, network_threshold=0.001)
    window = RemoteMemoryPager.THRESHOLD_WINDOW
    for page_id in range(window + 2 * window + 4):
        pageout(cluster, page_id)
    # After 2*window disk-routed pageouts the window clears and the
    # network is probed again (policy transfers keep growing).
    assert cluster.policy.transfers > window


def test_threshold_disabled_by_default():
    cluster = cluster_for(server_capacity_pages=512)
    for page_id in range(40):
        pageout(cluster, page_id)
    assert cluster.pager.counters["disk_fallback_pageouts"] == 0


def test_daemon_serializes_policy_pageouts():
    """Concurrent pageouts must not interleave inside the policy."""
    cluster = build_cluster(
        policy="parity-logging", n_servers=4, overflow_fraction=0.25,
        content_mode=True, server_capacity_pages=256,
    )
    sim = cluster.sim
    done = []

    def one(page_id):
        yield from cluster.pager.pageout(page_id, page_bytes(page_id, 1, PAGE))
        done.append(page_id)

    for page_id in range(16):
        sim.process(one(page_id))
    sim.run()
    assert len(done) == 16
    # The round-robin invariant survives concurrency: one member per
    # server per group.
    for group in cluster.policy._groups.values():
        names = [m.server.name for m in group.members]
        assert len(names) == len(set(names))


def test_transfers_property_reflects_policy():
    cluster = cluster_for()
    pageout(cluster, 1)
    pagein(cluster, 1)
    assert cluster.pager.transfers == cluster.policy.transfers == 2


class _AlwaysCrashingScrub:
    """A policy whose scrub trips over the same crashed server every time.

    After a few calls it raises a sentinel instead, so a retry loop
    without the repeating-name rule fails fast rather than spinning.
    """

    name = "always-crashing-scrub"

    def __init__(self, sim):
        self.sim = sim
        self.servers = []
        self.scrub_calls = 0

    def scrub_page(self, page_id, verify, span=None):
        self.scrub_calls += 1
        if self.scrub_calls > 4:
            raise AssertionError("scrub retried the same crash without bound")
        yield self.sim.timeout(0.001)
        raise ServerCrashed("server-0")


def test_scrub_crash_repeating_after_recovery_escapes():
    from repro.sim import Simulator
    from repro.vm.page import page_checksum

    sim = Simulator()
    policy = _AlwaysCrashingScrub(sim)
    pager = RemoteMemoryPager(policy)
    recovered = []

    def stub_recovery(crash):
        recovered.append(crash.server_name)
        yield sim.timeout(0.001)

    pager._handle_crash = stub_recovery
    pager.checksums[7] = page_checksum(page_bytes(7, 1, PAGE))
    rotten = page_bytes(7, 2, PAGE)  # fails the end-to-end checksum
    with pytest.raises(ServerCrashed):
        sim.run_until_complete(sim.process(pager._verified(7, rotten)))
    # One recovery of server-0; the retry hit the same hole and escaped.
    assert recovered == ["server-0"]
    assert policy.scrub_calls == 2
