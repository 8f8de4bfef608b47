"""Wire-protocol hardening tests: hand-rolled frames against the server.

These talk raw TCP, not through :class:`NetKVClient`, because the bugs
they pin down (desync after a malformed SET header, spinning on blank
lines, unbounded headers) can only be produced by a misbehaving peer.
"""

import socket
import threading

import pytest

from repro.datastore import aio
from repro.datastore.base import StoreError
from repro.datastore.netkv import NetKVClient, NetKVServer, WireProtocolError


@pytest.fixture
def server():
    srv = NetKVServer().start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    c = NetKVClient(server.address)
    yield c
    c.close()


def raw_exchange(address, data, timeout=2.0):
    """Send bytes, then read until the server closes or goes quiet.

    Returns (response_bytes, closed) where ``closed`` is True when the
    server hung up (EOF) rather than leaving the connection open.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        closed = False
        sock.settimeout(0.5)
        while True:
            try:
                chunk = sock.recv(4096)
            except socket.timeout:
                break
            if not chunk:
                closed = True
                break
            chunks.append(chunk)
        return b"".join(chunks), closed


PAYLOAD_COMMANDS = [c for c in aio._COMMANDS if c.payload]


def _header(command, length):
    """A header for a payload-carrying command with the given length
    field (None: the field left out)."""
    words = [command.word] + ["k"] * command.arity[0]
    if length is not None:
        words.append(length)
    return " ".join(words).encode() + b"\n"


@pytest.mark.parametrize("command", PAYLOAD_COMMANDS, ids=lambda c: c.word)
class TestPayloadHeaderDesync:
    """The length field of every payload-carrying command is checked
    before a byte of payload is read."""

    def test_non_integer_length_errs_and_closes(self, server, command):
        # Before the fix the payload bytes were parsed as the next
        # header; now the connection gets one ERR and is closed.
        resp, closed = raw_exchange(server.address,
                                    _header(command, "notanint") + b"PAYLOADBYTES")
        assert resp.startswith(b"ERR ")
        assert resp.count(b"ERR") == 1  # payload was NOT parsed as a header
        assert closed

    def test_negative_length_errs_and_closes(self, server, command):
        resp, closed = raw_exchange(server.address, _header(command, "-5"))
        assert resp.startswith(b"ERR ")
        assert closed

    def test_absurd_length_errs_and_closes(self, server, command):
        resp, closed = raw_exchange(server.address,
                                    _header(command, "999999999999999"))
        assert resp.startswith(b"ERR ")
        assert closed

    def test_missing_length_errs_and_closes(self, server, command):
        resp, closed = raw_exchange(server.address, _header(command, None))
        assert resp.startswith(b"ERR ")
        assert closed

    def test_server_survives_malformed_header(self, server, client, command):
        raw_exchange(server.address, _header(command, "notanint") + b"JUNK")
        client.set("k", b"clean")
        assert client.get("k") == b"clean"
        assert len(client) == 1  # no junk keys leaked into the backend


class TestEmptyHeader:
    def test_blank_line_is_a_protocol_error(self, server):
        # Before the fix `if not header: continue` re-read blank lines
        # forever; now the first one draws ERR and a hangup.
        resp, closed = raw_exchange(server.address, b"\n\n\n")
        assert resp.startswith(b"ERR ")
        assert closed

    def test_whitespace_only_header_is_a_protocol_error(self, server):
        # It once closed the connection with no ERR frame.
        resp, closed = raw_exchange(server.address, b"  \t \nPING\n")
        assert (resp, closed) == (b"ERR empty header\n", True)

    def test_server_usable_after_blank_line_peer(self, server):
        raw_exchange(server.address, b"\n")
        client = NetKVClient(server.address)
        assert client.ping()
        client.close()


class TestOversizedHeader:
    def test_header_without_newline_is_bounded(self, server):
        resp, closed = raw_exchange(server.address, b"X" * 100_000)
        assert resp.startswith(b"ERR ")
        assert closed

    def test_huge_header_with_newline_is_rejected(self, server):
        resp, closed = raw_exchange(server.address,
                                    b"GET " + b"k" * 8192 + b"\n")
        assert resp.startswith(b"ERR ")
        assert closed


class TestPayloadEdges:
    def test_zero_length_payload_roundtrip(self, server):
        resp, _ = raw_exchange(server.address, b"SET empty 0\nGET empty\n")
        assert resp == b"OK 0\nOK 0\n"

    def test_non_utf8_header_errs(self, server):
        resp, closed = raw_exchange(server.address, b"GET \xff\xfe\n")
        assert resp.startswith(b"ERR ")
        assert closed


class TestReservedKeyBytes:
    """Keys carrying the KEYS separator or header whitespace must be
    rejected at SET time — otherwise a later KEYS reply would split at
    the wrong place (the ``\\x00`` separator edge case)."""

    def test_client_rejects_nul_key(self, server):
        client = NetKVClient(server.address)
        with pytest.raises(WireProtocolError):
            client.set("bad\x00key", b"v")
        client.close()

    def test_client_rejects_space_key(self, server):
        client = NetKVClient(server.address)
        with pytest.raises(WireProtocolError):
            client.set("bad key", b"v")
        with pytest.raises(WireProtocolError):
            client.rename("ok", "bad key")
        # A space would split a GET/DEL header and answer for "bad".
        for op in (client.get, client.delete):
            with pytest.raises(WireProtocolError):
                op("bad key")
        client.close()

    def test_server_rejects_nul_key_from_raw_peer(self, server):
        resp, _ = raw_exchange(server.address, b"SET a\x00b 1\nx")
        assert resp.startswith(b"ERR ")
        client = NetKVClient(server.address)
        assert client.keys() == []  # nothing leaked past the separator guard
        client.close()

    def test_keys_listing_stays_parseable(self, server):
        client = NetKVClient(server.address)
        for name in ("a", "b/c", "d-e_f.g"):
            client.set(name, b"v")
        assert client.keys() == ["a", "b/c", "d-e_f.g"]
        client.close()


class TestConcurrentClientsOneShard:
    def test_mixed_ops_and_errors_concurrently(self, server):
        """Many clients hammer one shard with interleaved hits, misses,
        and malformed frames; every well-formed op must stay correct."""
        errors = []

        def well_behaved(wid):
            try:
                c = NetKVClient(server.address)
                for i in range(40):
                    c.set(f"w{wid}/k{i}", f"{wid}:{i}".encode())
                    with pytest.raises(StoreError):
                        c.get(f"w{wid}/missing{i}")
                for i in range(40):
                    assert c.get(f"w{wid}/k{i}") == f"{wid}:{i}".encode()
                c.close()
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        def rude(_wid):
            try:
                for _ in range(10):
                    raw_exchange(server.address, b"SET k oops\nXX", timeout=1.0)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=well_behaved, args=(w,)) for w in range(4)]
        threads += [threading.Thread(target=rude, args=(w,)) for w in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        probe = NetKVClient(server.address)
        assert len(probe) == 160
        probe.close()


def _arity_message(command):
    takes = " or ".join(str(n) for n in command.arity)
    length = " and a payload length" if command.payload else ""
    return f"ERR {command.word} takes {takes} argument(s){length}\n".encode()


def _wrong_arity_headers(command):
    """Headers for ``command`` with one argument too many and, where it
    takes any, one too few (a payload's length field kept)."""
    counts = [max(command.arity) + 1]
    if min(command.arity) > 0:
        counts.append(min(command.arity) - 1)
    for n in counts:
        words = [command.word] + [f"k{i}" for i in range(n)]
        if command.payload:
            words.append("0")
        yield " ".join(words).encode() + b"\n"


@pytest.mark.parametrize("command", aio._COMMANDS, ids=lambda c: c.word)
class TestWrongArity:
    """A header with the wrong number of arguments is an error, never a
    partial op: the shard once ignored extra arguments (``DEL a b``
    deleted only ``a``) and indexed missing ones."""

    def test_wrong_arity_is_an_error(self, server, client, command):
        client.set("k0", b"v")
        for header in _wrong_arity_headers(command):
            resp, closed = raw_exchange(server.address, header + b"PING\n")
            if command.payload:
                # Where the payload ends is unknown: ERR, then close.
                assert (resp, closed) == (_arity_message(command), True)
            else:
                # One ERR, and the connection keeps serving.
                assert (resp, closed) == (
                    _arity_message(command) + b"OK 4\nPONG", False)
        assert client.keys() == ["k0"]
        assert client.get("k0") == b"v"


class TestWireCommandsByExample:
    def test_del_with_two_keys_deletes_neither(self, server, client):
        client.set("a", b"1")
        client.set("b", b"2")
        resp, closed = raw_exchange(server.address, b"DEL a b\n")
        assert (resp, closed) == (b"ERR DEL takes 1 argument(s)\n", False)
        assert client.keys() == ["a", "b"]

    def test_set_with_two_keys_stores_nothing(self, server, client):
        resp, closed = raw_exchange(server.address, b"SET x y 1\nz")
        assert resp == b"ERR SET takes 1 argument(s) and a payload length\n"
        assert closed
        assert client.keys() == []

    def test_get_without_a_key_names_its_arity(self, server):
        resp, closed = raw_exchange(server.address, b"GET\nPING\n")
        assert (resp, closed) == (
            b"ERR GET takes 1 argument(s)\nOK 4\nPONG", False)

    def test_flush_is_not_a_wire_command(self, server, client):
        client.set("k", b"v")
        resp, closed = raw_exchange(server.address, b"FLUSH\n")
        assert (resp, closed) == (b"ERR unknown command 'FLUSH'\n", False)
        assert client.get("k") == b"v"
