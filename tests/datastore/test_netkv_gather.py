"""One loop hop per cluster op: per-shard requests go out together.

``NetKVCluster`` queues every per-shard request of an op (each replica
of a write, each window and chunk of a batch, each shard of a listing)
before it waits for any reply. Against real shards that delay every
request by the same fixed ``DELAY``, such an op takes about one delay,
not one per shard it touches.

Feedback tagging rides on the same path: the WM names live keys with a
Redis hash tag, so moving one to its ``done`` name stays in its slot
and costs one native RENAME per replica, sent together.
"""

import contextlib
import time

import pytest

from repro.core.feedback import StoreFeedbackMixin
from repro.core.wm import _feedback_key
from repro.datastore import aio
from repro.datastore.netkv import (NetKVClient, NetKVCluster, NetKVServer,
                                   NetKVStore, TransportConfig, key_slot)
from repro.util.faults import NetworkFaultInjector

pytestmark = pytest.mark.multi_server

DELAY = 0.2
FAST = TransportConfig(op_timeout=2.0, connect_timeout=0.5, retries=1,
                       backoff_base=0.01, backoff_max=0.05)


class FixedDelay(NetworkFaultInjector):
    """Delays every request by exactly ``delay_seconds`` once armed."""

    def __init__(self) -> None:
        super().__init__(delay_seconds=DELAY)

    def arm(self) -> None:
        self.rates["delay"] = 1.0

    def delay_duration(self) -> float:
        return self.delay_seconds


@contextlib.contextmanager
def shards(n, replication, injectors=None):
    servers = [NetKVServer(fault_injector=inj).start()
               for inj in (injectors or [None] * n)]
    cluster = NetKVCluster([s.address for s in servers], config=FAST,
                           replication=replication, route_refresh=0)
    try:
        yield servers, cluster
    finally:
        cluster.close()
        for s in servers:
            s.stop()


@contextlib.contextmanager
def delayed_cluster(n, replication):
    injectors = [FixedDelay() for _ in range(n)]
    with shards(n, replication, injectors) as (_, cluster):
        cluster.keys()  # connect every channel before the delays start
        for inj in injectors:
            inj.arm()
        yield cluster, injectors


def key_on_primary(cluster, primary, tag="k"):
    return next(f"{tag}{i}" for i in range(10_000)
                if cluster._replicas_for(f"{tag}{i}")[0] == primary)


def timed(fn, *args):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


class TestRequestsOverlap:
    def test_replicated_set_waits_one_delay(self):
        with delayed_cluster(2, replication=2) as (cluster, injectors):
            took, _ = timed(cluster.set, "k", b"v")
            assert [inj.injected["delay"] for inj in injectors] == [1, 1]
            assert DELAY <= took < 1.5 * DELAY
            assert cluster.get("k") == b"v"

    def test_mset_over_three_windows_waits_one_delay(self):
        with delayed_cluster(3, replication=1) as (cluster, injectors):
            items = [(key_on_primary(cluster, p), b"v%d" % p)
                     for p in range(3)]
            took, _ = timed(cluster.mset, items)
            assert [inj.injected["delay"] for inj in injectors] == [1, 1, 1]
            assert DELAY <= took < 1.5 * DELAY
            assert cluster.mget([k for k, _ in items]) == [v for _, v in items]

    def test_keys_waits_one_delay(self):
        with delayed_cluster(3, replication=1) as (cluster, injectors):
            cluster.mset([(key_on_primary(cluster, p), b"v") for p in range(3)])
            for inj in injectors:
                inj.reset()
            took, listed = timed(cluster.keys)
            assert len(listed) == 3
            assert [inj.injected["delay"] for inj in injectors] == [1, 1, 1]
            assert DELAY <= took < 1.5 * DELAY


def test_write_acked_by_one_replica_leaves_its_missed_write_marker():
    with shards(2, replication=2) as (servers, cluster):
        key = key_on_primary(cluster, 0)
        cluster.set(key, b"v1")
        servers[0].stop()
        cluster.set(key, b"v2")  # acked by shard 1 alone
        peer = NetKVClient(servers[1].address, FAST)
        try:
            assert peer.get(key) == b"v2"
            assert int(peer.get("__repro_missed__/" + key)) > 0
        finally:
            peer.close()


class TestSameSlotTagging:
    def test_live_and_done_names_share_a_slot(self):
        for loop, sim in (("rdf", "cg00001"), ("ss", "aa00002")):
            for chunk in range(4):
                live = _feedback_key(loop, sim, chunk)
                assert live == f"{loop}/live/{{{sim}-{chunk:03d}}}"
                done = live.replace("/live/", "/done/", 1)
                assert key_slot(live) == key_slot(done)
                # namespaced views prefix the key; the tag still decides
                assert key_slot("tenants/a/c1/" + live) == key_slot(done)

    def test_tag_sends_only_renames(self, monkeypatch):
        sent = []
        dispatch = aio._dispatch

        def recording(server, cmd, args, payload):
            sent.append(cmd)
            return dispatch(server, cmd, args, payload)

        with shards(3, replication=2) as (_, cluster):
            store = NetKVStore(cluster)
            live = [_feedback_key("rdf", f"cg{i:05d}", 0) for i in range(6)]
            store.write_many({k: b"rdf" for k in live})
            feedback = StoreFeedbackMixin(store, "rdf/live/", "rdf/done/")
            monkeypatch.setattr(aio, "_dispatch", recording)
            feedback.tag(live)
            monkeypatch.undo()
            assert sent == ["RENAME"] * (2 * len(live))
            assert store.transport_stats.rename_orphans == 0
            assert store.keys("rdf/live/") == []
            assert sorted(store.keys("rdf/done/")) == sorted(
                k.replace("/live/", "/done/") for k in live)
