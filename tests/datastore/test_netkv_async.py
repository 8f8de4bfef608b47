"""Transport unit tests: the channel contract, connection bounds, caps.

The protocol/cluster/resilience suites exercise the transport through
the client and store surface; this file targets the contract both
channels (the socket channel and the in-process ``LocalShard``) keep
for ``NetKVCluster``, the socket channel's connection pool under
concurrent callers, the server's ``max_connections`` accept cap, the
server loop thread's shutdown, and the single transport's public names.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.datastore import aio, netkv
from repro.datastore.aio import AsyncClientChannel, LocalShard, LoopThread
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.netkv import (
    NetKVClient,
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)

pytestmark = pytest.mark.async_transport

ONE_TRY = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=0)


class Interrupted(Exception):
    """Not a StoreError: what ``_gather`` does not turn into a value."""


@pytest.fixture()
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


@pytest.fixture(params=["local", "socket"])
def shard_channel(request):
    """``(channel, take_down)``: a channel of either kind, and a function
    that takes its shard down."""
    if request.param == "local":
        shard = LocalShard(("local", 0))
        yield shard, shard.close
        shard.close()
    else:
        srv = NetKVServer().start()
        chan = AsyncClientChannel(srv.address, ONE_TRY)
        yield chan, srv.stop
        chan.close()
        srv.stop()


# One case per wire command, run on a shard holding a=A and b=B:
# ``(args, reply, key space after)``; a reply that is an exception
# class is the error the call raises.
COMMAND_CASES = {
    "ping": ((), True, {"a": b"A", "b": b"B"}),
    "set": (("c", b"C"), None, {"a": b"A", "b": b"B", "c": b"C"}),
    "get": (("a",), b"A", {"a": b"A", "b": b"B"}),
    "delete": (("a",), None, {"b": b"B"}),
    "keys": (("a",), ["a"], {"a": b"A", "b": b"B"}),
    "rename": (("a", "z"), None, {"b": b"B", "z": b"A"}),
    "mget": ((["a", "x", "a"],), [b"A", None, b"A"], {"a": b"A", "b": b"B"}),
    "mset": (([("c", b"1"), ("c", b"2")],), 2,
             {"a": b"A", "b": b"B", "c": b"2"}),
    "mdelete": ((["a", "x", "a"],), [True, False, False], {"b": b"B"}),
    "msetnx": (([("a", b"no"), ("n", b"N"), ("n", b"M")],),
               [False, True, False], {"a": b"A", "b": b"B", "n": b"N"}),
    "len": ((), 2, {"a": b"A", "b": b"B"}),
    # A memory-only shard has nothing to snapshot.
    "snapshot": ((), StoreError, {"a": b"A", "b": b"B"}),
}


class TestChannelContract:
    """What ``NetKVCluster`` relies on from any channel it is given."""

    @pytest.mark.parametrize("name", [c.name for c in aio._COMMANDS])
    def test_every_command_has_the_same_answer(self, shard_channel, name):
        """Each table command, through its generated channel method; a
        command added to the table without a case here fails."""
        chan, _ = shard_channel
        args, reply, after = COMMAND_CASES[name]
        chan.mset([("a", b"A"), ("b", b"B")])
        if isinstance(reply, type):
            with pytest.raises(reply):
                getattr(chan, name)(*args)
        else:
            assert getattr(chan, name)(*args) == reply
        keys = chan.keys()
        assert dict(zip(keys, chan.mget(keys))) == after

    def test_replies_come_back_in_call_order(self, shard_channel):
        chan, _ = shard_channel
        for key in ("a", "b", "c"):
            chan.set(key, key.upper().encode())
        calls = [("get", ("c",)), ("get", ("a",)), ("mget", (["b", "x", "a"],)),
                 ("keys", ()), ("len", ()), ("get", ("b",))]
        handles = [chan._post(op, args) for op, args in calls]
        assert [chan._wait(h) for h in handles] == [
            b"C", b"A", [b"B", None, b"A"], ["a", "b", "c"], 3, b"B"]

    def test_gather_returns_errors_as_values(self, shard_channel):
        chan, take_down = shard_channel
        cluster = NetKVCluster([chan.address], channels=[chan],
                               route_refresh=0)
        chan.set("k", b"v")
        missing, value, renamed = cluster._gather([
            (0, "get", ("nope",)), (0, "get", ("k",)),
            (0, "rename", ("nope", "x"))])
        assert isinstance(missing, KeyNotFound)
        assert value == b"v"
        assert isinstance(renamed, KeyNotFound)
        take_down()
        [down] = cluster._gather([(0, "get", ("k",))])
        assert isinstance(down, StoreUnavailable)

    def test_gather_releases_unread_requests_on_other_errors(
            self, shard_channel, monkeypatch):
        chan, _ = shard_channel
        cluster = NetKVCluster([chan.address], channels=[chan],
                               route_refresh=0)
        chan.set("k", b"v")
        discarded = []
        discard = chan._discard

        def wait(handle):
            raise Interrupted

        def record(handle):
            discarded.append(handle)
            discard(handle)

        monkeypatch.setattr(chan, "_wait", wait)
        monkeypatch.setattr(chan, "_discard", record)
        with pytest.raises(Interrupted):
            cluster._gather([(0, "get", ("k",)), (0, "get", ("k",))])
        assert len(discarded) == 2  # the one being read and the unread one
        assert all(getattr(h, "conn", None) is None for h in discarded)
        monkeypatch.undo()
        assert chan.get("k") == b"v"

    def test_empty_batches_need_no_round_trip(self, shard_channel):
        chan, take_down = shard_channel
        take_down()  # an answer now cannot have come from the shard
        assert chan.mget([]) == []
        assert chan.mset([]) == 0
        assert chan.mdelete([]) == []
        assert chan.msetnx([]) == []
        with pytest.raises(StoreUnavailable):
            chan.get("k")

    def test_nf_maps_to_key_not_found(self, shard_channel):
        chan, _ = shard_channel
        for op, args, key in (("get", ("gone",), "gone"),
                              ("delete", ("gone",), "gone"),
                              ("rename", ("gone", "dst"), "gone")):
            with pytest.raises(KeyNotFound) as info:
                getattr(chan, op)(*args)
            assert info.value.args[0] == key
        chan.set("here", b"1")
        assert chan.get("here") == b"1"  # a miss leaves the channel serving


class TestMalformedReplyBodies:
    def test_unparseable_bodies_are_protocol_errors(self):
        """A StoreError, so ``_gather`` returns it as a value."""
        chan = AsyncClientChannel(("127.0.0.1", 1), ONE_TRY)  # never dials
        for kind, aux, raw in (("LEN", None, b"3x"),
                               ("SNAPSHOT", None, b"{"),
                               ("KEYS", None, b"\xff"),
                               ("MSET", 1, b"one")):
            with pytest.raises(aio.WireProtocolError):
                chan._decode(aio._Request(kind, aux, b""), raw)


class TestConcurrentCallers:
    def test_concurrent_callers_get_their_own_replies(self, server):
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
            assert chan.stats.coalesced_requests == 0  # nothing is folded
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
    per concurrent caller and op. A channel opens a connection only when
    every one it holds is out with a request, and keeps what it opened
    for the next burst."""

    def test_cluster_churn_is_bounded(self, server):
        cluster = NetKVCluster([server.address])
        chan = cluster._channels[0]
        opened = []
        connect = chan._connect

        def counting_connect():
            opened.append(1)
            return connect()

        chan._connect = counting_connect
        try:
            peaks = []
            for burst in range(5):
                def op(i, burst=burst):
                    key = f"k{burst}-{i}"
                    cluster.set(key, b"v")
                    assert cluster.get(key) == b"v"

                peaks.append(_hammer(server, op, threads=16, rounds=10))
            # One connection per caller at most, and reused across
            # bursts; the health prober only connects once a shard has
            # failed, which never happens here.
            assert max(peaks) <= 16
            assert 1 <= len(opened) <= 16
            assert len(chan._idle) <= aio._POOL_IDLE
            assert server.connection_count() <= aio._POOL_IDLE
            assert cluster.stats.reconnects == 0
            assert len(cluster.keys()) == 5 * 16 * 10
        finally:
            cluster.close()

    def test_tcp_cluster_starts_no_thread(self, server):
        before = set(threading.enumerate())
        cluster = NetKVCluster([server.address])
        try:
            cluster.set("k", b"v")
            assert cluster.get("k") == b"v"
            assert cluster.mget(["k", "x"]) == [b"v", None]
            assert cluster.keys() == ["k"]
            assert set(threading.enumerate()) == before
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
