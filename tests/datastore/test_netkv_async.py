"""Event-loop transport unit tests: coalescing, connection bounds and caps.

The protocol/cluster/resilience suites exercise the transport through
the client and store surface; this file targets the channel's
opportunistic request coalescer, the one-connection-per-shard bound on
concurrent callers, the server's ``max_connections`` accept cap, the
loop thread's shutdown, and the single transport's public names.
"""

from __future__ import annotations

import concurrent.futures
import threading
import time

import pytest

from repro.datastore import aio, netkv
from repro.datastore.aio import AsyncClientChannel, LoopThread, _Op
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.netkv import (
    NetKVClient,
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)

pytestmark = pytest.mark.async_transport


@pytest.fixture()
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


@pytest.fixture()
def channel(server):
    chan = AsyncClientChannel(server.address, TransportConfig())
    yield chan
    chan.close()


def _enqueue_batch(chan, ops):
    """Queue ops in one loop callback so the drainer sees them together.

    The first ``_enqueue`` creates the drainer task, but the loop only
    runs it after this callback returns — by then the whole batch is
    queued, making the fold deterministic instead of timing-dependent.
    """
    chan.ping()  # force loop + connection up before going behind the API
    lt = chan._ensure_loop()

    def put():
        for op in ops:
            chan._enqueue(op)

    lt.loop.call_soon_threadsafe(put)
    return [op.fut for op in ops]


def _op(kind, arg):
    return _Op(kind, arg, concurrent.futures.Future())


class TestCoalescing:
    def test_queued_gets_fold_into_one_mget(self, channel):
        for i in range(8):
            channel.set(f"k{i}", b"v%d" % i)
        channel.stats.reset()
        ops = [_op("GET", f"k{i}") for i in range(8)]
        futs = _enqueue_batch(channel, ops)
        assert [f.result(10) for f in futs] == [b"v%d" % i for i in range(8)]
        assert channel.stats.coalesced_requests == 1
        assert channel.stats.coalesced_keys == 8
        assert channel.stats.max_batch_keys >= 8

    def test_fold_stops_at_kind_boundary_and_preserves_fifo(self, channel):
        channel.set("a", b"1")
        channel.set("b", b"2")
        channel.stats.reset()
        ops = [
            _op("GET", "a"),
            _op("GET", "b"),
            _op("SET", ("c", b"3")),
            _op("SET", ("d", b"4")),
            _op("DEL", "a"),
            _op("DEL", "b"),
        ]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"1"
        assert futs[1].result(10) == b"2"
        for f in futs[2:]:
            assert f.result(10) is None
        # Three same-kind runs of two: MGET, MSET, MDEL — never a mix.
        assert channel.stats.coalesced_requests == 3
        assert channel.stats.coalesced_keys == 6
        # FIFO held: the DELs ran after the SETs, so c and d survive.
        assert channel.get("c") == b"3"
        with pytest.raises(KeyNotFound):
            channel.get("a")

    def test_folded_miss_maps_back_to_the_one_caller(self, channel):
        channel.set("hit", b"x")
        ops = [_op("GET", "hit"), _op("GET", "miss"), _op("GET", "hit")]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"x"
        with pytest.raises(KeyNotFound):
            futs[1].result(10)
        assert futs[2].result(10) == b"x"

    def test_unfoldable_key_ships_alone(self, channel):
        channel.set("good", b"g")
        channel.stats.reset()
        # "bad key" can't ride in an MGET frame (the wire uses NUL/space
        # framing), so it must break the run and ship as a single GET.
        ops = [_op("GET", "good"), _op("GET", "bad key"), _op("GET", "good")]
        futs = _enqueue_batch(channel, ops)
        assert futs[0].result(10) == b"g"
        with pytest.raises(StoreError):
            futs[1].result(10)
        assert futs[2].result(10) == b"g"
        assert channel.stats.coalesced_requests == 0

    def test_concurrent_callers_coalesce_and_stay_correct(self, server):
        chan = AsyncClientChannel(server.address, TransportConfig())
        try:
            for i in range(16):
                chan.set(f"c{i}", b"v%d" % i)
            errors = []

            def worker(i):
                try:
                    for _ in range(25):
                        assert chan.get(f"c{i}") == b"v%d" % i
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # 16 callers blocked behind one wire: while one round trip
            # is in flight the rest pile up and fold. Over 400 gets the
            # coalescer cannot plausibly stay idle.
            assert chan.stats.coalesced_requests > 0
            assert chan.stats.coalesced_keys >= 2 * chan.stats.coalesced_requests
        finally:
            chan.close()


def _hammer(server, op, threads=16, rounds=30):
    """Run ``op(i)`` from many threads at once; return the peak number
    of connections the shard served while they ran."""
    errors = []
    peak = [0]
    peak_lock = threading.Lock()
    start = threading.Barrier(threads)

    def worker(w):
        try:
            start.wait()
            for r in range(rounds):
                op(w * rounds + r)
                with peak_lock:
                    peak[0] = max(peak[0], server.connection_count())
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=worker, args=(w,)) for w in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    assert not errors
    return peak[0]


class TestConnectionBounds:
    """Regression: bursty fan-out once opened one short-lived connection
    per concurrent caller. Concurrent callers must become queue depth on
    one connection per shard, however many of them overlap."""

    def test_concurrent_callers_share_one_connection(self, server, channel):
        peak = _hammer(server, lambda i: channel.ping())
        assert peak == 1
        assert server.connection_count() == 1
        assert channel.stats.reconnects == 0

    def test_cluster_churn_is_bounded(self, server):
        cluster = NetKVCluster([server.address])
        try:
            def op(i):
                cluster.set(f"k{i}", b"v")
                assert cluster.get(f"k{i}") == b"v"

            peak = _hammer(server, op)
            # One operation channel; the health prober only connects
            # once a shard has failed, which never happens here.
            assert peak == 1
            assert cluster.stats.reconnects == 0
            assert len(cluster.keys()) == 16 * 30
        finally:
            cluster.close()


class TestMaxConnections:
    def test_excess_connections_are_refused_then_admitted(self):
        srv = NetKVServer(max_connections=2).start()
        cfg = TransportConfig(retries=1, backoff_base=0.001,
                              backoff_max=0.005, connect_timeout=2.0,
                              op_timeout=2.0)
        c1 = c2 = c3 = None
        try:
            c1 = NetKVClient(srv.address, config=cfg)
            c2 = NetKVClient(srv.address, config=cfg)
            assert c1.ping() and c2.ping()
            assert srv.connection_count() == 2
            c3 = NetKVClient(srv.address, config=cfg)
            with pytest.raises(StoreUnavailable):
                c3.ping()
            # Freeing a slot readmits the refused client on retry.
            c1.close()
            deadline = time.monotonic() + 5.0
            while srv.connection_count() > 1:
                assert time.monotonic() < deadline, "slot never freed"
                time.sleep(0.01)
            assert c3.ping()
        finally:
            for c in (c1, c2, c3):
                if c is not None:
                    c.close()
            srv.stop()


class TestLoopThread:
    def test_stop_runs_callbacks_queued_before_it(self):
        """``loop.stop()`` leaves callbacks scheduled by the last batch
        unrun; ``transport.abort()`` closes its socket in one, so the
        loop thread must run them before it closes the loop."""
        lt = LoopThread(name="test-loop")
        ran = threading.Event()

        def last_batch():
            lt.loop.call_soon(ran.set)
            lt.loop.stop()

        lt.call_soon(last_batch)
        lt.stop()
        assert not lt.is_alive()
        assert ran.is_set()
        assert lt.loop.is_closed()


class TestSingleTransport:
    def test_public_names_are_the_event_loop_classes(self):
        # perfbench traces AsyncClientChannel by name; callers keep
        # importing NetKVClient / NetKVServer / TransportConfig.
        assert NetKVClient is AsyncClientChannel
        assert NetKVServer is aio.AsyncNetKVServer
        assert netkv.TransportConfig is aio.TransportConfig

    def test_channel_config_defaults(self, server):
        chan = AsyncClientChannel(server.address)
        try:
            assert chan.config == TransportConfig()
            chan.set("k", b"v")
            assert chan.get("k") == b"v"
        finally:
            chan.close()

    @pytest.mark.parametrize("factory", [NetKVCluster, NetKVStore.connect],
                             ids=["cluster", "store"])
    def test_transport_argument_is_rejected(self, server, factory):
        """There is one transport: selecting one fails loudly instead of
        being silently ignored."""
        with pytest.raises(TypeError):
            factory([server.address], transport="threaded")
