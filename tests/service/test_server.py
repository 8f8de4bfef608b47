"""End-to-end HTTP tests: a live daemon driven through ServiceClient.

Covers the acceptance criterion directly: two campaigns from two
tenants run concurrently against one daemon and one shared store with
disjoint keyspaces, and lifecycle verbs move the FSM over HTTP.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.service import (ControlPlaneServer, ServiceClient, ServiceConfig,
                           ServiceError)

pytestmark = pytest.mark.service

TINY = {"rounds": 2}
LONG = {"rounds": 5000}


@pytest.fixture(scope="module")
def server():
    cfg = ServiceConfig(pool_workers=4, max_campaigns_per_tenant=3,
                        max_campaigns_total=8)
    with ControlPlaneServer(store_url="kv://2", config=cfg) as srv:
        yield srv


@pytest.fixture(scope="module")
def client(server):
    host, port = server.address
    return ServiceClient(host, port)


def wait_state(client, campaign_id, *states, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        snap = client.status(campaign_id)
        if snap["state"] in states:
            return snap
        time.sleep(0.01)
    raise AssertionError(
        f"campaign {campaign_id} never reached {states}; "
        f"stuck at {client.status(campaign_id)['state']}")


class TestDaemonEndpoints:
    def test_health(self, client):
        health = client.health()
        assert health["status"] in ("ok", "degraded")
        assert health["draining"] is False
        assert health["uptime_seconds"] >= 0

    def test_ready(self, client):
        assert client.ready() is True

    def test_info_reports_limits(self, client):
        info = client.info()
        assert info["service"] == "repro-control-plane"
        assert info["limits"]["max_campaigns_per_tenant"] == 3
        assert info["limits"]["pool_workers"] == 4

    def test_daemon_trace_endpoint(self, client):
        spans = client.trace(limit=10)
        assert isinstance(spans, list)
        assert len(spans) <= 10


class TestCampaignLifecycle:
    def test_submit_runs_to_done(self, client):
        snap = client.submit("alice", name="smoke", **TINY)
        assert snap["state"] in ("pending", "running")
        assert snap["store_prefix"].startswith("tenants/alice/")
        final = client.wait(snap["id"], timeout=60)
        assert final["state"] == "done"
        assert final["rounds_done"] == TINY["rounds"]
        assert final["finished_at"] is not None

    def test_pause_resume_cancel_over_http(self, client):
        snap = client.submit("alice", name="steered", **LONG)
        cid = snap["id"]
        wait_state(client, cid, "running")
        assert client.pause(cid)["state"] == "paused"
        # Illegal edge: pausing a paused campaign is a 409.
        with pytest.raises(ServiceError) as err:
            client.pause(cid)
        assert err.value.status == 409
        assert client.resume(cid)["state"] == "running"
        assert client.cancel(cid)["state"] == "cancelled"
        final = client.wait(cid, timeout=60)
        assert final["state"] == "cancelled"
        assert final["rounds_done"] < LONG["rounds"]

    def test_two_tenants_share_one_daemon_disjoint_keyspaces(
            self, server, client):
        """The headline multi-tenancy contract (ISSUE acceptance)."""
        a = client.submit("alice", name="left", rounds=3)
        b = client.submit("bob", name="right", rounds=3)
        # Both make progress concurrently on the one shared daemon.
        fa = client.wait(a["id"], timeout=60)
        fb = client.wait(b["id"], timeout=60)
        assert fa["state"] == fb["state"] == "done"
        # One shared store, two fully disjoint namespaces.
        store = server.registry.store
        keys_a = set(store.keys(f"tenants/alice/{a['id']}/"))
        keys_b = set(store.keys(f"tenants/bob/{b['id']}/"))
        assert keys_a and keys_b
        assert keys_a.isdisjoint(keys_b)
        # Every key either tenant's campaign wrote sits under its prefix.
        assert all(k.startswith(f"tenants/alice/{a['id']}/") for k in keys_a)
        assert all(k.startswith(f"tenants/bob/{b['id']}/") for k in keys_b)

    def test_campaign_listing_filters_by_tenant(self, client):
        snap = client.submit("carol", **TINY)
        client.wait(snap["id"], timeout=60)
        mine = client.campaigns(tenant="carol")
        assert all(c["tenant"] == "carol" for c in mine)
        assert any(c["id"] == snap["id"] for c in mine)
        everyone = client.campaigns()
        assert len(everyone) >= len(mine)

    def test_telemetry_and_trace_scoped_to_campaign(self, client):
        snap = client.submit("alice", name="observed", **TINY)
        client.wait(snap["id"], timeout=60)
        telemetry = client.telemetry(snap["id"])
        assert telemetry["rounds"] == TINY["rounds"]
        assert "counters" in telemetry and "lock_stats" in telemetry
        spans = client.campaign_trace(snap["id"], limit=500)
        names = {s["name"] for s in spans}
        assert "campaign.round" in names
        # Scoping: every root span in the tail carries this campaign id.
        roots = [s for s in spans if s["name"] == "campaign.round"]
        assert roots
        assert all(s["attrs"]["campaign"] == snap["id"] for s in roots)

    def test_delete_purges_and_forgets(self, server, client):
        snap = client.submit("alice", name="temp", **TINY)
        client.wait(snap["id"], timeout=60)
        deleted = client.delete(snap["id"])
        assert deleted["purged_keys"] > 0
        assert server.registry.store.keys(snap["store_prefix"]) == []
        with pytest.raises(ServiceError) as err:
            client.status(snap["id"])
        assert err.value.status == 404

    def test_tenants_endpoint(self, client):
        snap = client.submit("dave", **TINY)
        client.wait(snap["id"], timeout=60)
        rows = {t["tenant"]: t for t in client.tenants()}
        assert rows["dave"]["campaigns"].get("done", 0) >= 1
        assert rows["dave"]["quota"] == 3


class TestErrorSurface:
    def test_unknown_campaign_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("c999999")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_verb_is_405_with_allow_header(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("DELETE", "/v1/health")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 405
        assert response.getheader("Allow") == "GET"
        assert body["allow"] == ["GET"]

    def test_bad_submission_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("No Such Tenant!")
        assert err.value.status == 400

    def test_malformed_json_body_is_400(self, server):
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/campaigns", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "not valid JSON" in body["error"]

    def test_keep_alive_requests_do_not_stall(self, server):
        # Headers and body go out as two segments; with Nagle on, every
        # reply on a reused connection waits for the client's delayed ACK
        # (~40 ms each, ~1.1 s for 25).
        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            start = time.monotonic()
            for _ in range(25):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                json.loads(response.read())
                assert response.status == 200
            elapsed = time.monotonic() - start
        finally:
            conn.close()
        assert elapsed < 0.5

    def test_quota_exhaustion_is_429(self, client):
        held = [client.submit("erin", **LONG) for _ in range(3)]
        try:
            with pytest.raises(ServiceError) as err:
                client.submit("erin", **LONG)
            assert err.value.status == 429
        finally:
            for snap in held:
                client.cancel(snap["id"])
                client.wait(snap["id"], timeout=60)

    def test_bad_query_parameter_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/trace", query={"limit": "soon"})
        assert err.value.status == 400


def raw_reply(address, request: bytes) -> bytes:
    """Send raw bytes; read until the server closes the connection (a
    socket timeout here means it never did)."""
    with socket.create_connection(address, timeout=5) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestContentLength:
    @pytest.mark.parametrize("value", [b"-1", b"abc"])
    def test_bad_content_length_is_400_and_closes(self, server, value):
        reply = raw_reply(server.address,
                          b"POST /v1/campaigns HTTP/1.1\r\nHost: x\r\n"
                          b"Content-Length: " + value + b"\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]

    def test_non_json_error_body_is_a_service_error(self, client):
        # No do_PUT: the stdlib answers 501 with an HTML page.
        with pytest.raises(ServiceError) as err:
            client._request("PUT", "/v1/health")
        assert err.value.status == 501


def counting_accepts(srv, monkeypatch):
    """Record every connection the daemon accepts from now on."""
    accepted = []
    original = srv._httpd.process_request

    def process_request(request, client_address):
        accepted.append(client_address)
        original(request, client_address)

    monkeypatch.setattr(srv._httpd, "process_request", process_request)
    return accepted


class TestKeepAlive:
    def test_one_client_one_connection(self, monkeypatch):
        with ControlPlaneServer(store_url="kv://1") as srv:
            accepted = counting_accepts(srv, monkeypatch)
            with ServiceClient(*srv.address) as c:
                for _ in range(50):
                    assert c.health()["draining"] is False
            assert len(accepted) == 1

    def test_threads_get_their_own_connections(self, monkeypatch):
        with ControlPlaneServer(store_url="kv://1") as srv:
            accepted = counting_accepts(srv, monkeypatch)
            c = ServiceClient(*srv.address)
            errors = []

            def probe(tenant):
                try:
                    cid = c.submit(tenant, **TINY)["id"]
                    for _ in range(50):
                        snap = c.status(cid)
                        assert (snap["id"], snap["tenant"]) == (cid, tenant)
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=probe, args=(t,))
                       for t in ("alice", "bob")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            c.close()
            assert errors == []
            assert len(accepted) == 2

    def test_stop_closes_kept_alive_connections(self):
        srv = ControlPlaneServer(store_url="kv://1").start()
        conn = http.client.HTTPConnection(*srv.address, timeout=10)
        try:
            conn.request("GET", "/v1/health")
            assert conn.getresponse().read()
            srv.stop()
            conn.sock.settimeout(1.0)
            assert conn.sock.recv(1) == b""  # EOF, not a timeout
        finally:
            conn.close()

    def test_get_reconnects_after_restart_on_same_port(self):
        srv = ControlPlaneServer(store_url="kv://1").start()
        port = srv.address[1]
        with ServiceClient(*srv.address) as c:
            c.health()
            srv.stop()
            with ControlPlaneServer(store_url="kv://1", port=port) as again:
                assert c.health()["draining"] is False
                assert again.registry is not srv.registry

    def test_post_on_a_closed_connection_is_sent_once(self):
        srv = ControlPlaneServer(store_url="kv://1").start()
        port = srv.address[1]
        with ServiceClient(*srv.address) as c:
            c.health()
            srv.stop()  # the server closes the kept-alive connection
            with ControlPlaneServer(store_url="kv://1", port=port) as again:
                snap = c.submit("alice", **TINY)
                c.wait(snap["id"], timeout=60)
                assert [x["id"] for x in again.registry.list()] == [snap["id"]]


class _HangUp(threading.Thread):
    """An HTTP peer that answers the first request on each connection,
    then hangs up on the next one without sending a status line."""

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self.requests = []
        self.start()

    def run(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            with sock:
                data = sock.recv(65536)
                self.requests.append(data.split(b"\r\n", 1)[0])
                sock.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 2"
                             b"\r\n\r\n{}")
                data = sock.recv(65536)
                if data:
                    self.requests.append(data.split(b"\r\n", 1)[0])

    def close(self) -> None:
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the accept()
        self.listener.close()
        self.join(5)


class TestRetryRule:
    def test_get_is_retried_once_post_is_never_resent(self):
        peer = _HangUp()
        try:
            with ServiceClient(*peer.address, timeout=5) as c:
                assert c.health() == {}
                assert c.health() == {}  # hung up on, retried fresh
                with pytest.raises(ConnectionError):
                    c.drain()
        finally:
            peer.close()
        get, post = b"GET /v1/health HTTP/1.1", b"POST /v1/drain HTTP/1.1"
        assert peer.requests == [get, get, get, post]


class TestDrainAndShutdown:
    def test_drain_flips_readiness_and_rejects_submissions(self):
        # A dedicated daemon: draining is one-way, so the module-scoped
        # fixture must not be poisoned.
        with ControlPlaneServer(store_url="kv://1") as srv:
            host, port = srv.address
            c = ServiceClient(host, port)
            running = c.submit("alice", **LONG)
            out = c.drain()
            assert out["draining"] is True
            assert c.ready() is False
            with pytest.raises(ServiceError) as err:
                c.submit("alice", **TINY)
            assert err.value.status == 503
            # The running campaign is not killed by drain.
            assert c.status(running["id"])["state"] in ("running", "paused",
                                                        "pending")

    def test_stop_cancels_running_campaigns(self):
        srv = ControlPlaneServer(store_url="kv://1").start()
        host, port = srv.address
        c = ServiceClient(host, port)
        snap = c.submit("alice", **LONG)
        srv.stop()
        handle = srv.registry._handles[snap["id"]]
        assert handle.state.value == "cancelled"
        assert not handle._thread.is_alive()


@pytest.mark.multi_server
class TestServiceOverNetKV:
    def test_two_tenants_on_one_netkv_cluster(self):
        """Daemon + replicated NetKV backend, end to end over sockets."""
        from repro.datastore.netkv import NetKVServer

        shards = [NetKVServer().start() for _ in range(2)]
        url = "netkv://" + ",".join(
            f"{h}:{p}" for h, p in (s.address for s in shards))
        try:
            with ControlPlaneServer(store_url=url) as srv:
                host, port = srv.address
                c = ServiceClient(host, port)
                a = c.submit("alice", rounds=2)
                b = c.submit("bob", rounds=2)
                assert c.wait(a["id"], timeout=120)["state"] == "done"
                assert c.wait(b["id"], timeout=120)["state"] == "done"
                store = srv.registry.store
                keys_a = set(store.keys(f"tenants/alice/{a['id']}/"))
                keys_b = set(store.keys(f"tenants/bob/{b['id']}/"))
                assert keys_a and keys_b and keys_a.isdisjoint(keys_b)
                assert c.health()["store"]["ok"] is True
        finally:
            for s in shards:
                s.stop()
