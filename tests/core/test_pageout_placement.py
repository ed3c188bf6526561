"""Pageout placement's disk fallbacks on the real pager, on both datapaths.

The paging daemon (synchronous datapath) and the write-behind queue's
drainer (pipelined, window 4) place every pageout through the same
``RemoteMemoryPager._place_pageout``.  Each fallback — network degraded
(§5), no server room (§2.1), request timeout — must leave the page on
the local disk, count it, and serve it back on pagein.
"""

import pytest

from repro.core import RemoteMemoryPager, build_cluster
from repro.net.protocol import RetrySpec
from repro.vm import page_bytes

PAGE = 8192

#: datapath -> pipeline window (1 = the paper's synchronous daemon).
DATAPATHS = {"sync": 1, "pipelined": 4}

datapaths = pytest.mark.parametrize("datapath", sorted(DATAPATHS))


def cluster_for(datapath, **kwargs):
    return build_cluster(
        policy="no-reliability",
        n_servers=2,
        content_mode=True,
        pipeline_window=DATAPATHS[datapath],
        **kwargs,
    )


def run(cluster, gen):
    def body():
        return (yield from gen)

    return cluster.sim.run_until_complete(cluster.sim.process(body()))


def page_out(cluster, page_ids):
    """Page out version 1 of each page, then settle any write-behind."""

    def body():
        for page_id in page_ids:
            yield from cluster.pager.pageout(page_id, page_bytes(page_id, 1, PAGE))
        yield from cluster.pager.drain()

    run(cluster, body())


def assert_served_from_disk(cluster, page_ids):
    pager = cluster.pager
    for page_id in page_ids:
        assert page_id in pager._on_disk
    reads_before = pager.counters["disk_fallback_pageins"]
    for page_id in page_ids:
        assert run(cluster, pager.pagein(page_id)) == page_bytes(page_id, 1, PAGE)
    assert pager.counters["disk_fallback_pageins"] == reads_before + len(page_ids)


@datapaths
def test_network_degraded_routes_to_disk(datapath):
    cluster = cluster_for(
        datapath,
        server_capacity_pages=512,
        network_threshold=0.001,  # absurdly low: every transfer looks congested
    )
    window = RemoteMemoryPager.THRESHOLD_WINDOW
    page_out(cluster, range(window + 8))
    pager = cluster.pager
    # The first ``window`` transfers fill the measurement window; every
    # later pageout sees a degraded network and goes to the disk.
    assert pager.counters["disk_fallback_pageouts"] == 8
    assert pager.counters["timeout_fallback_pageouts"] == 0
    assert_served_from_disk(cluster, range(window, window + 8))


@datapaths
def test_no_server_room_falls_back_to_disk(datapath):
    cluster = cluster_for(datapath, server_capacity_pages=4)
    page_out(cluster, range(12))  # 2 servers x 4 pages, then overflow
    pager = cluster.pager
    assert pager.counters["disk_fallback_pageouts"] == 4
    assert pager.counters["timeout_fallback_pageouts"] == 0
    assert pager.pages_on_local_disk == 4
    assert_served_from_disk(cluster, sorted(pager._on_disk))


@datapaths
def test_request_timeout_falls_back_to_disk(datapath):
    cluster = cluster_for(datapath)
    cluster.stack.retry = RetrySpec(timeout=0.05, max_attempts=2)
    cluster.network.partition({host.name for host in cluster.server_hosts})
    page_out(cluster, [3])
    cluster.network.heal()
    pager = cluster.pager
    assert pager.counters["timeout_fallback_pageouts"] == 1
    assert pager.counters["disk_fallback_pageouts"] == 1
    assert_served_from_disk(cluster, [3])
