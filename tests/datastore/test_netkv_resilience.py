"""Transport-resilience tests: timeouts, retries, reconnects, faults.

These cover the acceptance criteria of the transport hardening work:
a dead peer raises within a bounded multiple of the configured timeout
instead of hanging, a flapping server is absorbed by retries with zero
data loss, and all of it shows up in the telemetry counters.
"""

import contextlib
import socket
import threading
import time

import numpy as np
import pytest

from repro.datastore.base import StoreUnavailable
from repro.datastore.netkv import (
    NetKVClient,
    NetKVCluster,
    NetKVServer,
    NetKVStore,
    TransportConfig,
)
from repro.util.faults import NetworkFaultInjector
from repro.util.rng import RngStream

FAST = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=1,
                       backoff_base=0.01, backoff_max=0.05)
NO_RETRY = TransportConfig(op_timeout=0.5, connect_timeout=0.5, retries=0,
                           backoff_base=0.0, backoff_max=0.0)


@contextlib.contextmanager
def black_hole_server(accepted=None):
    """A listener that accepts and reads but never responds — the shape
    of a server that died mid-response with the connection still up.
    Accepted connections are appended to ``accepted`` when given."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)
    stop = threading.Event()

    def drain(conn):
        with contextlib.suppress(OSError):
            while conn.recv(4096):
                pass
        with contextlib.suppress(OSError):
            conn.close()

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if accepted is not None:
                accepted.append(conn)
            threading.Thread(target=drain, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=2)


def free_port_address():
    """An address nothing is listening on (bound then released)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


class TestDeadPeerTimeouts:
    def test_get_against_silent_server_times_out(self):
        """A GET whose response never comes must raise StoreUnavailable
        within 2x the configured budget, not hang forever."""
        with black_hole_server() as address:
            client = NetKVClient(address, config=NO_RETRY)
            budget = NO_RETRY.op_timeout
            t0 = time.monotonic()
            with pytest.raises(StoreUnavailable):
                client.get("anything")
            elapsed = time.monotonic() - t0
            assert elapsed < 2 * budget
            assert client.stats.timeouts == 1
            assert client.stats.exhausted == 1
            client.close()

    def test_retries_respect_total_budget(self):
        with black_hole_server() as address:
            client = NetKVClient(address, config=FAST)
            attempts = FAST.retries + 1
            budget = attempts * (FAST.op_timeout + FAST.backoff_max)
            t0 = time.monotonic()
            with pytest.raises(StoreUnavailable):
                client.get("k")
            assert time.monotonic() - t0 < 2 * budget
            assert client.stats.timeouts == attempts
            client.close()

    def test_connection_refused_is_store_unavailable(self):
        client = NetKVClient(free_port_address(), config=FAST)
        t0 = time.monotonic()
        with pytest.raises(StoreUnavailable):
            client.ping()
        assert time.monotonic() - t0 < 2 * (FAST.retries + 1) * (
            FAST.connect_timeout + FAST.backoff_max)
        client.close()

    def test_stale_socket_not_reused_after_failure(self):
        accepted = []
        with black_hole_server(accepted) as address:
            client = NetKVClient(address, config=NO_RETRY)
            try:
                for _ in range(2):
                    with pytest.raises(StoreUnavailable):
                        client.get("k")
                # The timed-out connection was dropped, not reused: the
                # second GET reached the peer on a fresh connection.
                assert client.stats.reconnects == 1
                assert len(accepted) == 2
            finally:
                client.close()


class OneDelay(NetworkFaultInjector):
    """Delays only the request after :meth:`arm`, by exactly
    ``delay_seconds``."""

    def arm(self) -> None:
        self.rates["delay"] = 1.0

    def request_fate(self):
        fate = super().request_fate()
        self.rates["delay"] = 0.0
        return fate

    def delay_duration(self) -> float:
        return self.delay_seconds


@contextlib.contextmanager
def stalling_server(values, stall):
    """A shard that answers ``GET key`` from ``values``, except that the
    first reply stops halfway through its body for ``stall`` seconds
    before the rest follows."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(0.1)
    stop = threading.Event()
    first = [True]
    lock = threading.Lock()

    def serve(conn):
        buf = b""
        with contextlib.suppress(OSError), conn:
            while True:
                while b"\n" not in buf:
                    chunk = conn.recv(4096)
                    if not chunk:
                        return
                    buf += chunk
                line, buf = buf.split(b"\n", 1)
                value = values[line.split()[1].decode()]
                reply = b"OK %d\n" % len(value) + value
                with lock:
                    cut, first[0] = first[0], False
                if cut:
                    half = len(reply) - len(value) // 2
                    conn.sendall(reply[:half])
                    time.sleep(stall)
                    reply = reply[half:]
                conn.sendall(reply)

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=serve, args=(conn,), daemon=True).start()

    thread = threading.Thread(target=accept_loop, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        listener.close()
        thread.join(timeout=2)


class TestStaleReplies:
    """A connection whose reply did not fully arrive is closed, never
    pooled: the late reply must not answer the next request."""

    def test_late_reply_does_not_answer_the_next_get(self):
        injector = OneDelay(delay_seconds=1.6 * NO_RETRY.op_timeout)
        server = NetKVServer(fault_injector=injector).start()
        client = NetKVClient(server.address, config=NO_RETRY)
        try:
            client.set("a", b"A")
            client.set("b", b"B")
            injector.arm()
            with pytest.raises(StoreUnavailable):
                client.get("a")  # times out; its reply comes later
            # Sent before the late reply lands: on the timed-out
            # connection it would read b"A".
            assert client.get("b") == b"B"
            time.sleep(injector.delay_seconds - NO_RETRY.op_timeout)
            assert client.get("a") == b"A"
            assert client.get("b") == b"B"
            assert client.stats.timeouts == 1
            assert injector.injected["delay"] == 1
        finally:
            client.close()
            server.stop()

    def test_reply_cut_mid_body_does_not_desync_the_next_op(self):
        values = {"a": b"A" * 64, "b": b"B" * 8}
        stall = 1.6 * NO_RETRY.op_timeout
        with stalling_server(values, stall) as address:
            client = NetKVClient(address, config=NO_RETRY)
            try:
                with pytest.raises(StoreUnavailable):
                    client.get("a")  # half the body, then a stall
                assert client.get("b") == values["b"]
                time.sleep(stall - NO_RETRY.op_timeout)
                assert client.get("a") == values["a"]
                assert client.get("b") == values["b"]
                assert client.stats.timeouts == 1
                assert client.stats.protocol_errors == 0
            finally:
                client.close()


class TestHungReplicaInGather:
    """A gather reads its replies one after another, so a hung replica's
    retries run before a healthy replica's reply is read. That reply
    arrived in time and must count: dropping it and sending the request
    again would answer a repeated DEL or RENAME with NF."""

    def test_healthy_replica_reply_survives_a_hung_peer(self):
        injectors = [OneDelay(delay_seconds=1.6 * FAST.op_timeout)
                     for _ in range(2)]
        servers = [NetKVServer(fault_injector=inj).start()
                   for inj in injectors]
        cluster = NetKVCluster([s.address for s in servers], config=FAST,
                               replication=2, route_refresh=0)
        try:
            cluster.set("gone", b"1")
            cluster.set("{t}src", b"2")
            injectors[cluster._replicas_for("gone")[0]].arm()
            cluster.delete("gone")  # the first replica times out once
            assert cluster.stats.timeouts == 1  # and the healthy one not
            injectors[cluster._replicas_for("{t}src")[0]].arm()
            cluster.rename("{t}src", "{t}dst")
            assert cluster.stats.timeouts == 2
            assert cluster.stats.retries == 2
            assert cluster.stats.exhausted == 0
            for server in servers:
                assert sorted(server.backend.scan("")) == ["{t}dst"]
            assert sum(inj.injected["delay"] for inj in injectors) == 2
        finally:
            cluster.close()
            for s in servers:
                s.stop()


class TestKillServerMidStream:
    def test_stop_during_session_raises_not_hangs(self):
        server = NetKVServer().start()
        client = NetKVClient(server.address, config=FAST)
        client.set("k", b"v")
        server.stop()
        t0 = time.monotonic()
        with pytest.raises(StoreUnavailable):
            client.get("k")
        assert time.monotonic() - t0 < 2 * (FAST.retries + 1) * (
            FAST.op_timeout + FAST.backoff_max)
        client.close()

    def test_client_survives_server_restart_on_same_port(self):
        server = NetKVServer().start()
        host, port = server.address
        client = NetKVClient(server.address, config=TransportConfig(
            op_timeout=0.5, connect_timeout=0.5, retries=4,
            backoff_base=0.05, backoff_max=0.2))
        client.set("before", b"1")
        server.stop()

        revived = NetKVServer(host=host, port=port).start()
        try:
            # The old connection is stale; the client must notice, drop
            # it, and reconnect to the revived shard transparently.
            client.set("after", b"2")
            assert client.get("after") == b"2"
            assert client.stats.reconnects >= 1
            assert client.stats.exhausted == 0
        finally:
            client.close()
            revived.stop()


class TestFaultAbsorption:
    def test_cluster_roundtrip_with_dropped_connections(self):
        """Acceptance: with the injector dropping 10% of connections
        (plus mid-request closes to keep connections churning), a full
        cluster workload completes with zero data loss."""
        rng_tree = RngStream(seed=2021)
        servers = [
            NetKVServer(fault_injector=NetworkFaultInjector(
                drop=0.10, close=0.05, rng=rng_tree.child(f"faults-{i}")))
            .start()
            for i in range(3)
        ]
        config = TransportConfig(op_timeout=1.0, connect_timeout=1.0,
                                 retries=8, backoff_base=0.005,
                                 backoff_max=0.05)
        cluster = NetKVCluster([s.address for s in servers], config=config,
                               rng=rng_tree.child("client-jitter"))
        try:
            payloads = {f"frame/{i:04d}": f"data-{i}".encode() * 7
                        for i in range(300)}
            for key, value in payloads.items():
                cluster.set(key, value)
            for key, value in payloads.items():
                assert cluster.get(key) == value  # zero data loss
            assert len(cluster.keys("frame/")) == 300
            injected = sum(s.fault_injector.total_injected() for s in servers)
            assert injected > 0, "injector never fired; test is vacuous"
            assert cluster.stats.retries > 0  # retries absorbed the faults
            assert cluster.stats.exhausted == 0
        finally:
            cluster.close()
            for s in servers:
                s.stop()

    def test_garbage_responses_are_retried(self):
        rng = np.random.default_rng(5)
        server = NetKVServer(fault_injector=NetworkFaultInjector(
            garbage=0.2, rng=rng)).start()
        client = NetKVClient(server.address, config=TransportConfig(
            op_timeout=1.0, connect_timeout=1.0, retries=10,
            backoff_base=0.001, backoff_max=0.01))
        try:
            for i in range(50):
                client.set(f"g{i}", bytes([i]) * 32)
            for i in range(50):
                assert client.get(f"g{i}") == bytes([i]) * 32
            assert server.fault_injector.injected["garbage"] > 0
            assert client.stats.protocol_errors > 0
        finally:
            client.close()
            server.stop()

    def test_delay_faults_slow_but_complete(self):
        server = NetKVServer(fault_injector=NetworkFaultInjector(
            delay=0.3, delay_seconds=0.01, rng=np.random.default_rng(9))).start()
        client = NetKVClient(server.address, config=FAST)
        try:
            for i in range(30):
                client.set(f"d{i}", b"x")
            assert len(client) == 30
            assert server.fault_injector.injected["delay"] > 0
        finally:
            client.close()
            server.stop()


class TestFeedbackDegradesGracefully:
    def test_store_outage_skips_iteration_instead_of_crashing(self):
        from repro.core.feedback import FeedbackManager, StoreFeedbackMixin

        class NullFeedback(StoreFeedbackMixin, FeedbackManager):
            def __init__(self, store):
                FeedbackManager.__init__(self)
                StoreFeedbackMixin.__init__(self, store, "live/", "done/")

            def process(self, items):
                return len(items)

            def report(self, result):
                pass

        store = NetKVStore.connect([free_port_address()], config=NO_RETRY)
        mgr = NullFeedback(store)
        rep = mgr.run_iteration(now=1.0)
        assert rep.error  # outage recorded, not raised
        assert rep.n_items == 0
        assert mgr.reports == [rep]
        store.close()


class TestTelemetryIntegration:
    def test_transport_counters_reach_collect_telemetry(self):
        from repro.app.builder import build_application
        from repro.core.telemetry import collect_telemetry, render_report
        from repro.core.wm import WorkflowConfig

        servers = [NetKVServer().start() for _ in range(2)]
        url = "netkv://" + ",".join(f"{h}:{p}" for h, p in
                                    (s.address for s in servers))
        try:
            app = build_application(
                store_url=url,
                workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=2,
                                        cg_steps_per_chunk=10,
                                        aa_chunks_per_job=1,
                                        aa_steps_per_chunk=10, seed=0),
                seed=0,
            )
            app.run(nrounds=1)
            report = collect_telemetry(app.wm)
            assert report.transport["requests"] > 0
            assert report.transport["bytes_sent"] > 0
            for counter in ("retries", "timeouts", "reconnects", "exhausted"):
                assert counter in report.transport
            assert report.transport["latency"]["count"] > 0
            assert "transport:" in render_report(report)
            app.wm.store.close()
        finally:
            for s in servers:
                s.stop()

    def test_in_process_store_reports_no_transport(self):
        from repro.app.builder import build_application
        from repro.core.telemetry import collect_telemetry

        app = build_application(
            store_url="kv://1",
            workflow=None,
            seed=0,
        )
        assert collect_telemetry(app.wm).transport == {}
