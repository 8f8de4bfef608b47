"""NetKV's transport: framing, server, client channel, transport config.

Everything that touches a socket lives here. The shard server runs on
asyncio; the client runs on its caller's thread (see DESIGN.md,
"Event-loop transport"):

- :class:`TransportConfig` — the client-side knobs (timeouts, retry
  budget, backoff, batch size; the ``[transport]`` config section).
- :class:`ReadBuffer` — zero-copy buffered framing. Incoming chunks are
  appended to one grow-only ``bytearray``; frames are sliced out through
  a ``memoryview`` (one copy per frame, no per-read reallocation) with a
  consumed-offset cursor and lazy compaction.
- :class:`LoopThread` — a dedicated event loop on a daemon thread;
  blocking callers submit coroutines via ``run_coroutine_threadsafe``.
- ``_COMMANDS`` — the wire command table: per command its channel
  method, wire word, header arity, payload, mutating and batch flags,
  client encoder, server handler (which changes the shard's dict and
  appends the WAL record) and reply parser. The server's dispatch and
  both channels' methods are derived from it.
- :class:`LocalShard` — a shard in the caller's process: the channel
  API ``NetKVCluster`` calls, answered through :func:`_dispatch` with no
  socket and no thread (``kv://`` and the chaos harness run on it).
- :class:`AsyncNetKVServer` — the shard server (``netkv.NetKVServer``).
  One ``asyncio.Protocol`` connection per client, a per-connection
  serve task, vectored writes (``transport.writelines``), and
  backpressure in both directions: write-buffer high-water marks gate
  the serve loop (bounded per-connection write queue), and the read
  buffer pauses the transport when a pipelining peer runs ahead of
  dispatch.
- :class:`AsyncClientChannel` — the shard client (``netkv.NetKVClient``):
  a small pool of blocking connections. The caller's thread sends the
  request and reads its reply; concurrent callers each use their own
  connection, so the channel starts no thread.

Wire-protocol primitives (:class:`WireProtocolError`, key validation,
batch payload packing) live here too and are re-exported by ``netkv``
so the import graph stays acyclic: ``netkv`` imports ``aio``, never the
reverse.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import re
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import trace
from repro.datastore.base import KeyNotFound, StoreError, StoreUnavailable
from repro.datastore.stats import TransportStats
from repro.datastore.wal import DurabilityConfig, ShardWAL

__all__ = [
    "TransportConfig",
    "WireProtocolError",
    "ReadBuffer",
    "LoopThread",
    "LocalShard",
    "AsyncNetKVServer",
    "AsyncClientChannel",
]

_MAX_HEADER = 4096

# Unconsumed-byte budget beyond the frame currently being read; above
# it the transport pauses reading (inbound backpressure for pipelining
# peers). Small enough to bound memory, large enough to keep a batch of
# small frames in flight.
_READ_SLACK = 1 << 18

# Per-connection outbound high-water mark: the serve loop won't start
# another request while more than this many response bytes sit unsent
# (bounded write queue).
_WRITE_HIGH_WATER = 1 << 20

# The serve loop batches responses to a pipelined burst and writes them
# out together once the buffered backlog drains — or at this many
# accumulated bytes, so one huge burst can't sit unsent indefinitely.
_FLUSH_BYTES = 1 << 16


@dataclass(frozen=True)
class TransportConfig:
    """Client-side transport knobs (the ``[transport]`` config section).

    ``op_timeout`` bounds every round trip, from sending the request to
    the last byte of its reply (a reply whose first bytes are already
    in when a gather's caller reaches it late is read to its end under
    a fresh ``op_timeout``); ``retries`` is how many
    times a failed operation is re-attempted on a fresh connection
    before :class:`StoreUnavailable`; the backoff between attempts is
    ``min(backoff_max, backoff_base * 2**attempt)`` scaled by a uniform
    jitter factor in ``[1 - jitter, 1 + jitter]`` so a thousand clients
    recovering from one server blip don't reconnect in lockstep.
    ``batch_keys`` caps how many keys one MGET/MSET/MDEL round trip
    carries (the pipeline depth): the cluster chunks larger batches.
    Only explicit batch calls make batch frames; single-key ops from
    concurrent callers are never merged into one.
    ``route_refresh`` is how often (seconds) a cluster client re-reads
    the shared routing map published on the shards, which is what lets
    it observe slot migrations performed by *other* processes; ``0``
    disables polling (single-writer test setups).
    """

    op_timeout: float = 5.0
    connect_timeout: float = 2.0
    retries: int = 4
    backoff_base: float = 0.02
    backoff_max: float = 1.0
    jitter: float = 0.5
    max_payload: int = 256 * 1024 * 1024
    batch_keys: int = 512
    route_refresh: float = 1.0

    def __post_init__(self) -> None:
        if self.route_refresh < 0:
            raise ValueError("route_refresh must be >= 0")
        if self.op_timeout <= 0 or self.connect_timeout <= 0:
            raise ValueError("timeouts must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_max")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.max_payload < 1:
            raise ValueError("max_payload must be >= 1")
        if self.batch_keys < 1:
            raise ValueError("batch_keys must be >= 1")


class WireProtocolError(StoreError):
    """A frame violated the wire protocol (bad length, oversized header,
    forbidden key bytes). The connection that produced it is untrusted:
    the peer closes it instead of guessing where the next frame starts."""


_RESERVED = re.compile("[ \t\n\r\x00]")


def _check_wire_key(key: str) -> str:
    """Reject keys the text protocol cannot carry unambiguously.

    The header is whitespace-split, so keys with spaces would silently
    truncate; NUL would corrupt the KEYS separator; newlines would
    desync framing. Checked on both ends — at the client before bytes
    leave, and at the server against hand-rolled peers.
    """
    if not key:
        raise WireProtocolError("empty key")
    if _RESERVED.search(key):
        raise WireProtocolError(f"key contains bytes the wire protocol reserves: {key!r}")
    return key


# --- batch (MGET/MSET/MDEL) payload framing ------------------------------
#
# Batch payloads reuse the protocol's length-prefixed style inside one
# frame so a single malformed entry invalidates only its own frame, and
# the outer framing (header + total payload length) stays intact.


def _split_key_payload(payload: bytes) -> List[str]:
    """Keys of an MGET/MDEL payload (NUL-joined; empty payload = no keys)."""
    if not payload:
        return []
    try:
        keys = payload.decode("utf-8").split("\x00")
    except UnicodeDecodeError:
        raise WireProtocolError("batch key payload is not UTF-8") from None
    return [_check_wire_key(k) for k in keys]


def _join_keys(keys: List[str]) -> bytes:
    """An MGET/MDEL payload: the keys joined by NUL."""
    return "\x00".join(_check_wire_key(k) for k in keys).encode("utf-8")


def _pack_values(values: List[Optional[bytes]]) -> bytes:
    """MGET response payload: "<n>\\n<bytes>" per value, -1 for missing."""
    parts: List[bytes] = []
    for value in values:
        if value is None:
            parts.append(b"-1\n")
        else:
            parts.append(b"%d\n" % len(value))
            parts.append(value)
    return b"".join(parts)


def _unpack_values(data: bytes, nkeys: int) -> List[Optional[bytes]]:
    """Inverse of :func:`_pack_values`; strict about trailing garbage."""
    out: List[Optional[bytes]] = []
    pos = 0
    for _ in range(nkeys):
        nl = data.find(b"\n", pos)
        if nl == -1:
            raise WireProtocolError("truncated batch value header")
        try:
            n = int(data[pos:nl])
        except ValueError:
            raise WireProtocolError(
                f"batch value length is not an integer: {data[pos:nl]!r}") from None
        pos = nl + 1
        if n < 0:
            out.append(None)
            continue
        if pos + n > len(data):
            raise WireProtocolError("truncated batch value bytes")
        out.append(data[pos:pos + n])
        pos += n
    if pos != len(data):
        raise WireProtocolError("trailing bytes after batch values")
    return out


def _pack_items(items: List[Tuple[str, bytes]]) -> bytes:
    """MSET request payload: repeated "<key> <n>\\n<value bytes>" blocks."""
    parts: List[bytes] = []
    for key, value in items:
        parts.append(f"{_check_wire_key(key)} {len(value)}\n".encode("utf-8"))
        parts.append(value)
    return b"".join(parts)


def _unpack_items(data: bytes) -> List[Tuple[str, bytes]]:
    """Inverse of :func:`_pack_items`, bounds-checking every block."""
    items: List[Tuple[str, bytes]] = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl == -1:
            raise WireProtocolError("truncated batch item header")
        try:
            head = data[pos:nl].decode("utf-8")
        except UnicodeDecodeError:
            raise WireProtocolError("batch item header is not UTF-8") from None
        key, sep, length_text = head.rpartition(" ")
        try:
            n = int(length_text)
        except ValueError:
            raise WireProtocolError(
                f"batch item length is not an integer: {length_text!r}") from None
        if not sep or n < 0:
            raise WireProtocolError(f"malformed batch item header: {head!r}")
        pos = nl + 1
        if pos + n > len(data):
            raise WireProtocolError("truncated batch item bytes")
        items.append((_check_wire_key(key), data[pos:pos + n]))
        pos += n
    return items


class ReadBuffer:
    """Grow-only read buffer with memoryview frame extraction.

    ``feed()`` appends network chunks; ``take_line``/``take_exact``
    slice complete frames out through a ``memoryview`` (one copy, no
    intermediate ``del buf[:n]`` per frame) and advance a consumed
    cursor. The consumed prefix is compacted lazily — only once it
    exceeds both 64 KiB and half the buffer — so a burst of small
    pipelined frames costs one reallocation, not one per frame.

    Views never outlive the call: slices are materialized to ``bytes``
    immediately, because a ``bytearray`` with live memoryview exports
    cannot be resized (``BufferError``) by the next ``feed``.
    """

    __slots__ = ("_buf", "_pos")

    _COMPACT_AT = 1 << 16

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    def feed(self, data: bytes) -> None:
        self._buf += data

    def pending(self) -> int:
        """Bytes received but not yet consumed."""
        return len(self._buf) - self._pos

    def _compact(self) -> None:
        pos = self._pos
        if pos >= len(self._buf):
            del self._buf[:]
            self._pos = 0
        elif pos > self._COMPACT_AT and pos * 2 > len(self._buf):
            del self._buf[:pos]
            self._pos = 0

    def take_line(self, limit: int = _MAX_HEADER) -> Optional[bytes]:
        """A complete line without its newline, or None if not yet fed.

        Raises :class:`WireProtocolError` once the pending line exceeds
        ``limit`` bytes, newline or not — the stream can no longer be
        framed.
        """
        idx = self._buf.find(b"\n", self._pos)
        if idx < 0:
            if self.pending() > limit:
                raise WireProtocolError(f"header exceeds {limit} bytes")
            return None
        if idx - self._pos > limit:
            raise WireProtocolError(f"header exceeds {limit} bytes")
        with memoryview(self._buf) as view:
            line = bytes(view[self._pos:idx])
        self._pos = idx + 1
        self._compact()
        return line

    def take_exact(self, n: int) -> Optional[bytes]:
        """Exactly ``n`` consumed bytes, or None until enough are fed."""
        if self.pending() < n:
            return None
        with memoryview(self._buf) as view:
            data = bytes(view[self._pos:self._pos + n])
        self._pos += n
        self._compact()
        return data


class LoopThread:
    """One asyncio event loop running on a dedicated daemon thread.

    Blocking callers hand coroutines over with
    ``run_coroutine_threadsafe`` and block on the returned future; the
    loop itself never blocks on application code.
    """

    def __init__(self, name: str = "repro-aio") -> None:
        self.loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._main, name=name, daemon=True)
        self._thread.start()
        self._ready.wait()

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.call_soon(self._ready.set)
        try:
            self.loop.run_forever()
        finally:
            try:
                # One more pass over callbacks already queued before the
                # stop: ``transport.abort()`` closes its socket in a
                # ``call_soon`` callback, and skipping it would leave the
                # connection open until the transport is collected.
                self.loop.stop()
                self.loop.run_forever()
                pending = asyncio.all_tasks(self.loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self.loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True))
            except Exception:
                pass
            self.loop.close()

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def submit(self, coro) -> concurrent.futures.Future:
        """Schedule ``coro`` on the loop; returns a concurrent Future."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def run(self, coro, timeout: Optional[float] = None):
        """Run ``coro`` on the loop and block for its result."""
        return self.submit(coro).result(timeout)

    def call_soon(self, fn: Callable, *args) -> None:
        self.loop.call_soon_threadsafe(fn, *args)

    def stop(self, join_timeout: float = 5.0) -> None:
        if self._thread.is_alive():
            try:
                self.loop.call_soon_threadsafe(self.loop.stop)
            except RuntimeError:
                pass
            self._thread.join(join_timeout)


# --- the command table (see DESIGN.md, "Wire protocol") -------------------


@dataclass(frozen=True)
class _Command:
    """One wire command: channel method ``name``, header word ``word``.

    ``arity``: the header argument counts accepted, a payload's length
    field not counted; ``payload``: a length-prefixed payload follows.
    A ``mutating`` command's ack waits on its WAL records (so a read
    never waits on another connection's fsync). ``empty``
    marks a batch command: the reply body an empty batch stands for,
    which both channels answer without a round trip.
    ``encode(*args) -> (header args, payload, aux)``, with ``aux`` the
    key an NF reply names or the key count a batch reply must match;
    every key put in a header is checked. ``handle(shard, args,
    payload)`` changes ``shard.data``, appends the WAL records and
    returns the reply body (None: the server's awaited path).
    ``parse(body, aux)`` is the channel method's return value.
    """

    name: str
    word: str
    arity: Tuple[int, ...]
    payload: bool
    encode: Callable
    handle: Optional[Callable]
    parse: Callable
    mutating: bool = False
    empty: Optional[bytes] = None


def _no_args():
    return (), b"", None


def _one_key(key: str):
    return (_check_wire_key(key),), b"", key


def _key_batch(keys: List[str]):
    return (), _join_keys(keys), len(keys)


def _item_batch(items: List[Tuple[str, bytes]]):
    return (), _pack_items(items), len(items)


def _set_key(shard, args, payload) -> bytes:
    key = _check_wire_key(args[0])
    shard.data[key] = payload
    if shard.wal is not None:
        shard.wal.append_set(key, payload)
    return b""


def _get_key(shard, args, payload) -> bytes:
    try:
        return shard.data[args[0]]
    except KeyError:
        raise KeyNotFound(args[0]) from None


def _delete_key(shard, args, payload) -> bytes:
    if shard.data.pop(args[0], None) is None:
        raise KeyNotFound(args[0])
    if shard.wal is not None:
        # Deletes are logged too: a replayed shard must not resurrect a
        # key whose removal was acked.
        shard.wal.append_delete(args[0])
    return b""


def _list_keys(shard, args, payload) -> bytes:
    prefix = args[0] if args else ""
    return "\x00".join(sorted(
        k for k in shard.data if k.startswith(prefix))).encode("utf-8")


def _rename_key(shard, args, payload) -> bytes:
    src, dst = args[0], _check_wire_key(args[1])
    try:
        shard.data[dst] = shard.data.pop(src)
    except KeyError:
        raise KeyNotFound(src) from None
    if shard.wal is not None:
        shard.wal.append_rename(src, dst)
    return b""


def _get_many(shard, args, payload) -> bytes:
    """Values in key order; a missing key is a -1 entry (the pipelined
    read never aborts a whole batch over one absent key)."""
    return _pack_values([shard.data.get(k) for k in _split_key_payload(payload)])


def _set_many(shard, args, payload) -> bytes:
    items = _unpack_items(payload)
    shard.data.update(items)
    if shard.wal is not None:
        for key, value in items:
            shard.wal.append_set(key, value)
    return b"%d" % len(items)


def _set_absent(shard, args, payload) -> bytes:
    """Set each pair only where the key is absent; one '1'/'0' flag per
    pair says which were stored. The slot-migration copier leans on
    this so a source-side copy can never overwrite a fresher value that
    was dual-written to the destination mid-copy."""
    data, wal = shard.data, shard.wal
    flags = bytearray()
    for key, value in _unpack_items(payload):
        stored = key not in data
        if stored:
            data[key] = value
            if wal is not None:
                wal.append_set(key, value)
        flags += b"1" if stored else b"0"
    return bytes(flags)


def _delete_many(shard, args, payload) -> bytes:
    """Delete the keys; one '1'/'0' flag per key says which existed (a
    replicated caller ORs the flags across copies)."""
    data, wal = shard.data, shard.wal
    flags = bytearray()
    for key in _split_key_payload(payload):
        existed = data.pop(key, None) is not None
        if existed and wal is not None:
            wal.append_delete(key)
        flags += b"1" if existed else b"0"
    return bytes(flags)


def _none(body: bytes, aux) -> None:
    return None


def _count(body: bytes, aux) -> int:
    return int(body)


def _key_list(body: bytes, aux) -> List[str]:
    return body.decode("utf-8").split("\x00") if body else []


def _flags(body: bytes, n: int) -> List[bool]:
    if len(body) != n or body.strip(b"01"):
        raise WireProtocolError(f"malformed flag reply: {body[:64]!r}")
    return [b == 0x31 for b in body]


_COMMANDS: Tuple[_Command, ...] = (
    # name, word, arity, payload, encode, handle, parse
    _Command("ping", "PING", (0,), False, _no_args,
             lambda shard, args, payload: b"PONG",
             lambda body, aux: body == b"PONG"),
    _Command("set", "SET", (1,), True,
             lambda key, value: ((_check_wire_key(key),), value, key),
             _set_key, _none, mutating=True),
    _Command("get", "GET", (1,), False, _one_key, _get_key,
             lambda body, aux: body),
    _Command("delete", "DEL", (1,), False, _one_key, _delete_key, _none,
             mutating=True),
    _Command("keys", "KEYS", (0, 1), False,
             lambda prefix="": (
                 (_check_wire_key(prefix),) if prefix else (), b"", None),
             _list_keys, _key_list),
    _Command("rename", "RENAME", (2,), False,
             lambda src, dst: (
                 (_check_wire_key(src), _check_wire_key(dst)), b"", src),
             _rename_key, _none, mutating=True),
    _Command("mget", "MGET", (0,), True, _key_batch, _get_many,
             _unpack_values, empty=b""),
    _Command("mset", "MSET", (0,), True, _item_batch, _set_many, _count,
             mutating=True, empty=b"0"),
    _Command("mdelete", "MDEL", (0,), True, _key_batch, _delete_many,
             _flags, mutating=True, empty=b""),
    _Command("msetnx", "MSETNX", (0,), True, _item_batch, _set_absent,
             _flags, mutating=True, empty=b""),
    _Command("len", "LEN", (0,), False, _no_args,
             lambda shard, args, payload: b"%d" % len(shard.data), _count),
    # The server snapshots on its awaited path (``_serve``), LocalShard
    # on the caller's thread.
    _Command("snapshot", "SNAPSHOT", (0,), False, _no_args, None,
             lambda body, aux: json.loads(body.decode("utf-8"))),
)

_BY_NAME = {c.name: c for c in _COMMANDS}
_BY_WORD = {c.word: c for c in _COMMANDS}


def _header_error(cmd: str, command: Optional[_Command]) -> str:
    """Why a header names no command or has the wrong arity."""
    if command is None:
        return f"unknown command {cmd!r}"
    takes = " or ".join(str(n) for n in command.arity)
    length = " and a payload length" if command.payload else ""
    return f"{cmd} takes {takes} argument(s){length}"


def _err_frame(msg: str) -> bytes:
    """An ERR reply: one line, the message cut to 500 characters."""
    line = msg.replace("\n", " ")[:500]
    return f"ERR {line}\n".encode("utf-8", "replace")


def _payload_length(cmd: str, text: str, max_payload: int) -> int:
    """A payload-carrying command's byte length (its last header arg),
    or :class:`WireProtocolError`."""
    try:
        length = int(text)
    except ValueError:
        raise WireProtocolError(
            f"{cmd} length is not an integer: {text!r}") from None
    if length < 0 or length > max_payload:
        raise WireProtocolError(f"{cmd} length out of range: {length}")
    return length


# --- server side ----------------------------------------------------------


def open_shard(persist_dir: Optional[str],
               durability: Optional[DurabilityConfig] = None
               ) -> Tuple[Dict[str, bytes], Optional[ShardWAL]]:
    """A shard's key space (a dict) and WAL: empty and memory-only
    without ``persist_dir``, else recovered from it (snapshot load + WAL
    replay, torn tail truncated) so it already holds every acked write."""
    if persist_dir is None:
        return {}, None
    wal = ShardWAL(persist_dir, durability)
    return dict(wal.recovered), wal


def _dispatch(shard, cmd: str, args, payload: bytes) -> bytes:
    """Serve one well-formed request on ``shard`` (its ``data``, ``wal``
    and ``lock``) under the shard's lock: the reply body, or
    :class:`KeyNotFound` for an NF reply."""
    handle = _BY_WORD[cmd].handle
    with shard.lock:
        return handle(shard, args, payload)


class _Channel:
    """The channel API ``NetKVCluster`` calls, shared by
    :class:`LocalShard` and :class:`AsyncClientChannel`: ``_post(name,
    args)`` sends a command, ``_wait(handle)`` returns its parsed reply
    or raises its error, ``_discard(handle)`` gives up on it unread.
    Each table command is a method ``name(*args)``, generated below."""

    def _submit(self, name: str, args: tuple = ()):
        return self._wait(self._post(name, args))

    def __len__(self) -> int:
        return self._submit("len")


def _channel_method(name: str) -> Callable:
    def method(self, *args):
        return self._submit(name, args)

    method.__name__ = name
    method.__qualname__ = f"_Channel.{name}"
    return method


for _command in _COMMANDS:
    setattr(_Channel, _command.name, _channel_method(_command.name))
del _command


class LocalShard(_Channel):
    """One shard in the caller's process, behind the channel API
    ``NetKVCluster`` calls, with the attributes :func:`_dispatch` reads
    from a server.

    ``_post`` answers at once, in call order, and ``_wait`` hands the
    outcome over (the socket channel's post/wait pair), so a cluster
    over these shards starts no thread and opens no socket. A request
    runs through the same table entry as on the socket, minus the
    frame. Concurrent
    callers are serialized by :func:`_dispatch`'s shard lock, as the
    server's loop serializes its connections. With a WAL ``directory``
    every mutation is logged and the ack waits for the record. The log
    skips fsync: a shard "crash" here kills the process, not the kernel,
    so the page cache survives and a restart sees the same records.
    """

    durability = DurabilityConfig(fsync=False)

    def __init__(self, address: Tuple[str, int],
                 directory: Optional[str] = None) -> None:
        self.address = address
        self.directory = directory
        self.lock = threading.Lock()
        self.start()

    def start(self) -> None:
        """Start from the WAL directory (empty when memory-only)."""
        self.data, self.wal = open_shard(self.directory, self.durability)
        self.up = True

    def close(self) -> None:
        self.up = False
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def _post(self, name: str, args: tuple = ()):
        command = _BY_NAME[name]
        try:
            header, payload, aux = command.encode(*args)
            if command.empty is not None and not aux:
                body = command.empty  # an empty batch: no dispatch
            else:
                body = self._call(command, header, payload)
            return command.parse(body, aux), None
        except StoreError as exc:
            return None, exc

    @staticmethod
    def _wait(handle):
        value, exc = handle
        if exc is not None:
            raise exc
        return value

    @staticmethod
    def _discard(handle) -> None:
        """An unread outcome holds nothing to release."""

    def _call(self, command: _Command, args, payload: bytes) -> bytes:
        if not self.up:
            raise StoreUnavailable(
                f"{self.address[0]} shard {self.address[1]} is down")
        if command.handle is None:  # SNAPSHOT
            return json.dumps(self._snapshot(), sort_keys=True).encode("utf-8")
        body = _dispatch(self, command.word, args, payload)
        if self.wal is not None and command.mutating:
            self.wal._write_and_sync()  # the ack waits for the record
            if self.wal.needs_compaction():
                self._snapshot()
        return body

    def _snapshot(self) -> dict:
        if self.wal is None:
            raise StoreError("shard has no persistence configured")
        with self.lock:
            items = list(self.data.items())
            self.wal.begin_snapshot()
        keys = self.wal.write_snapshot(items)["keys"]
        return dict(self.wal.info(), keys=keys)


class _ServerConnection(asyncio.Protocol):
    """One accepted connection: a serve task looping request→response.

    Read side: chunks land in a :class:`ReadBuffer`; ``read_line`` /
    ``read_exact`` await a wake event until a full frame is buffered.
    When a client pipelines far ahead of dispatch the transport pauses
    reading (``_READ_SLACK`` beyond the frame currently awaited).

    Write side: the transport's write-buffer high-water mark drives
    ``pause_writing``/``resume_writing`` into a ``_writable`` event the
    serve loop awaits before it starts more work — the bounded
    per-connection write queue.

    Error discipline: framing violations get one ERR frame and a close
    (after a payload-carrying header with a bad length or the wrong
    arity the payload boundary is unknowable — continuing would parse
    payload bytes as the next header); application errors, unknown
    commands and a payload-less command's wrong arity get an ERR frame
    and the connection continues; KeyNotFound is ``NF``.
    """

    def __init__(self, owner: "AsyncNetKVServer") -> None:
        self.owner = owner
        self.task: Optional[asyncio.Task] = None
        self.buf = ReadBuffer()
        self.transport: Any = None
        self._eof = False
        self._paused_reading = False
        self._need = 0
        self._wake = asyncio.Event()
        self._writable = asyncio.Event()
        self._writable.set()

    def connection_made(self, transport) -> None:
        self.transport = transport
        try:
            transport.set_write_buffer_limits(high=_WRITE_HIGH_WATER)
        except (AttributeError, RuntimeError):
            pass
        injector = self.owner.fault_injector
        if injector is not None and injector.connection_fate() == "drop":
            transport.close()  # close before reading anything
            return
        if not self.owner._register(self):
            transport.close()  # stopping, or at max_connections
            return
        self.task = asyncio.get_running_loop().create_task(self._serve())

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._eof = True
        self._wake.set()
        self._writable.set()  # unblock a serve loop parked on backpressure
        self.owner._unregister(self)

    def data_received(self, data: bytes) -> None:
        self.buf.feed(data)
        if not self._paused_reading and self.buf.pending() > self._need + _READ_SLACK:
            try:
                self.transport.pause_reading()
                self._paused_reading = True
            except RuntimeError:
                pass
        self._wake.set()

    def eof_received(self) -> Optional[bool]:
        self._eof = True
        self._wake.set()
        return False  # close our side too

    def pause_writing(self) -> None:
        self._writable.clear()

    def resume_writing(self) -> None:
        self._writable.set()

    def _resume_if_starved(self) -> None:
        if self._paused_reading and self.buf.pending() <= self._need + _READ_SLACK:
            self._paused_reading = False
            try:
                self.transport.resume_reading()
            except RuntimeError:
                pass

    async def read_line(self, limit: int = _MAX_HEADER) -> bytes:
        while True:
            line = self.buf.take_line(limit)
            if line is not None:
                self._resume_if_starved()
                return line
            if self._eof:
                raise ConnectionError("connection closed mid-frame")
            self._resume_if_starved()
            self._wake.clear()
            await self._wake.wait()

    async def read_exact(self, n: int) -> bytes:
        self._need = n
        try:
            while True:
                data = self.buf.take_exact(n)
                if data is not None:
                    return data
                if self._eof:
                    raise ConnectionError("connection closed mid-frame")
                self._resume_if_starved()
                self._wake.clear()
                await self._wake.wait()
        finally:
            self._need = 0
            self._resume_if_starved()

    def _err_close(self, msg: str) -> None:
        try:
            self.transport.write(_err_frame(msg))
            self.transport.close()
        except Exception:
            pass

    async def _serve(self) -> None:  # noqa: C901 - a protocol switch is a switch
        owner = self.owner
        injector = owner.fault_injector
        transport = self.transport
        # Responses for a pipelined burst accumulate here and reach the
        # socket in one vectored write when the buffered request backlog
        # drains (or every _FLUSH_BYTES): one syscall per burst instead
        # of one per response.
        out: List[bytes] = []
        out_bytes = 0
        wal = owner.wal
        # Highest WAL sequence this connection's unsent responses depend
        # on. Flushing awaits the group commit up to exactly that point,
        # so read-only bursts (and connections that didn't mutate) never
        # wait on someone else's fsync.
        wal_need = 0

        async def flush() -> None:
            nonlocal out_bytes, wal_need
            if wal is not None and wal_need > wal.synced_seq:
                await wal.commit(wal_need)
            wal_need = 0
            if out:
                transport.writelines(out)
                out.clear()
                out_bytes = 0

        try:
            while True:
                # Bounded write queue: don't take another request while
                # the previous responses haven't drained past the
                # transport's high-water mark.
                if not self._writable.is_set():
                    await self._writable.wait()
                if transport.is_closing():
                    return
                try:
                    header = self.buf.take_line()
                    if header is None:
                        await flush()  # the burst is fully answered; park
                        header = await self.read_line()
                except ConnectionError:
                    return  # client went away
                except WireProtocolError as exc:
                    await flush()
                    self._err_close(str(exc))
                    return
                if not header:
                    # A blank line cannot start a request.
                    await flush()
                    self._err_close("empty header")
                    return
                fate = injector.request_fate() if injector is not None else None
                seconds = 0.0
                if fate == "delay":
                    # The sleep awaits outside any span: spans are
                    # thread-local and every connection shares this loop
                    # thread — an await inside one would interleave other
                    # connections' spans into its subtree.
                    seconds = injector.delay_duration()
                    await flush()
                    await asyncio.sleep(seconds)
                elif fate == "close":
                    with trace.span("netkv.handle") as sp:
                        if sp:
                            sp.event("fault", fate="close")
                    await flush()
                    transport.close()
                    return
                elif fate == "garbage":
                    with trace.span("netkv.handle") as sp:
                        if sp:
                            sp.event("fault", fate="garbage")
                    await flush()
                    try:
                        transport.write(injector.garbage_payload())
                    except Exception:
                        pass
                    transport.close()
                    return
                try:
                    parts = header.decode("utf-8").split()
                except UnicodeDecodeError:
                    self._err_close("header is not UTF-8")
                    return
                if not parts:  # whitespace only
                    await flush()
                    self._err_close("empty header")
                    return
                cmd, args = parts[0].upper(), parts[1:]
                command = _BY_WORD.get(cmd)
                # A payload's length is the header's last argument.
                if command is None or len(args) - command.payload not in command.arity:
                    msg = _header_error(cmd, command)
                    if command is not None and command.payload:
                        # Where the payload ends is unknown: the bytes
                        # that follow cannot be trusted as a header.
                        await flush()
                        self._err_close(msg)
                        return
                    out.append(_err_frame(msg))
                    out_bytes += len(out[-1])
                    continue
                payload = b""
                if command.payload:
                    try:
                        length = _payload_length(cmd, args.pop(), owner.max_payload)
                        payload = self.buf.take_exact(length)
                        if payload is None:
                            await flush()
                            payload = await self.read_exact(length)
                    except WireProtocolError as exc:
                        # Framing is broken (bad length field, oversized
                        # payload): the bytes that follow cannot be
                        # trusted as a header.
                        await flush()
                        self._err_close(str(exc))
                        return
                    except ConnectionError:
                        return
                if command.handle is None:  # SNAPSHOT
                    # Needs awaits (items copy + freeze under the
                    # dispatch lock, file write on an executor), so it
                    # cannot run inside _dispatch or the span below.
                    try:
                        snap = await owner.compact(force=True)
                        body = owner.wal.info()
                        body["keys"] = snap["keys"]
                        response = json.dumps(
                            body, sort_keys=True).encode("utf-8")
                        hdr = b"OK %d\n" % len(response)
                        out.append(hdr)
                        out.append(response)
                        out_bytes += len(hdr) + len(response)
                    except Exception as exc:
                        out.append(_err_frame(str(exc)))
                        out_bytes += len(out[-1])
                    if out_bytes >= _FLUSH_BYTES:
                        await flush()
                    continue
                # Dispatch and respond synchronously inside the span —
                # no awaits, so the thread-local span stack stays
                # well-nested across the connections multiplexed here.
                with trace.span("netkv.handle") as sp:
                    if sp:
                        sp.set(cmd=cmd)
                        if fate == "delay":
                            sp.event("fault", fate="delay", seconds=seconds)
                    try:
                        response = _dispatch(owner, cmd, args, payload)
                    except KeyNotFound:
                        out.append(b"NF\n")
                        out_bytes += 3
                        continue
                    except WireProtocolError as exc:
                        await flush()
                        self._err_close(str(exc))
                        return
                    except Exception as exc:  # application errors → ERR frames
                        out.append(_err_frame(str(exc)))
                        out_bytes += len(out[-1])
                        continue
                    hdr = b"OK %d\n" % len(response)
                    out.append(hdr)
                    out.append(response)
                    out_bytes += len(hdr) + len(response)
                    compact_due = False
                    if wal is not None and command.mutating:
                        # The burst's responses now depend on the log
                        # up to here; flush() will group-commit first.
                        wal_need = wal.seq
                        compact_due = wal.needs_compaction()
                if compact_due:
                    # Awaited outside the span (spans are thread-local;
                    # see above).  The heavy snapshot write runs on an
                    # executor, so the loop keeps serving other
                    # connections while this one waits.
                    try:
                        await owner.compact()
                    except StoreError:
                        pass  # a racing SNAPSHOT/compaction got there
                if out_bytes >= _FLUSH_BYTES:
                    await flush()
        except asyncio.CancelledError:
            raise
        except Exception:
            try:
                transport.close()
            except Exception:
                pass


class AsyncNetKVServer:
    """One networked shard (``NetKVServer``): an in-memory key space
    (``data``, a dict) served from a dedicated event loop.

    The listening socket is bound in the constructor so ``address`` is
    available before ``start()`` (and a restart can rebind the same
    port); ``start()`` spins the shard's :class:`LoopThread` and begins
    accepting. ``fault_injector`` plugs a
    :class:`~repro.util.faults.NetworkFaultInjector` into the accept
    and request paths for degraded-network testing.

    ``max_connections`` caps concurrently served connections: excess
    accepts are closed immediately (documented in OPERATIONS.md for
    ``repro netkv --serve``). With the default ``None`` the shard takes
    what the event loop can hold — 10k+ connections cost one protocol
    object each, not one thread each.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 fault_injector=None,
                 max_payload: int = 256 * 1024 * 1024,
                 max_connections: Optional[int] = None,
                 backlog: int = 4096,
                 persist_dir: Optional[str] = None,
                 durability: Optional[DurabilityConfig] = None) -> None:
        # Recovery happens here, before the port accepts anything, so
        # the first request already sees every previously acked write.
        self.data, self.wal = open_shard(persist_dir, durability)
        self.lock = threading.Lock()
        self.fault_injector = fault_injector
        self.max_payload = max_payload
        self.max_connections = max_connections
        self._backlog = backlog
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        self._listen_sock = sock
        self._address: Tuple[str, int] = sock.getsockname()
        self._loop_thread: Optional[LoopThread] = None
        self._snap_lock: Optional[asyncio.Lock] = None
        self._aserver: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._conn_lock = threading.Lock()
        self._stop_lock = threading.Lock()
        self._stopping = False

    @property
    def address(self) -> Tuple[str, int]:
        return self._address

    def _register(self, conn: _ServerConnection) -> bool:
        with self._conn_lock:
            if self._stopping:
                return False
            if (self.max_connections is not None
                    and len(self._conns) >= self.max_connections):
                return False
            self._conns.add(conn)
            return True

    def _unregister(self, conn: _ServerConnection) -> None:
        with self._conn_lock:
            self._conns.discard(conn)

    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._conns)

    def start(self) -> "AsyncNetKVServer":
        with self._stop_lock:
            if self._stopping:
                raise StoreError("server was stopped; create a new one")
            if self._loop_thread is not None:
                return self  # already started
            self._loop_thread = LoopThread(
                name=f"netkv-shard:{self._address[1]}")
        self._aserver = self._loop_thread.run(self._open())
        return self

    async def _open(self) -> asyncio.AbstractServer:
        loop = asyncio.get_running_loop()
        self._snap_lock = asyncio.Lock()
        return await loop.create_server(
            lambda: _ServerConnection(self), sock=self._listen_sock,
            backlog=self._backlog, start_serving=True)

    async def compact(self, force: bool = False) -> Dict[str, object]:
        """Snapshot + compact the WAL without stalling the loop.

        The key-space copy and the log freeze happen together under the
        dispatch lock (cheap: the freeze is two renames), then the
        snapshot write + fsync runs on an executor while the loop keeps
        serving — the WAL's own file lock holds group commits off until
        the snapshot lands, and commit waiters poll rather than pile
        writes into an ambiguous file.  With ``force=False`` the call
        is a no-op unless the log has outgrown ``compact_bytes``, so
        concurrent triggers collapse into one snapshot.
        """
        if self.wal is None:
            raise StoreError("shard has no persistence configured")
        if self._snap_lock is None:
            raise StoreError("server is not running")
        async with self._snap_lock:
            with self.lock:
                if not force and not self.wal.needs_compaction():
                    return {"keys": len(self.data),
                            "snapshots": self.wal.snapshots,
                            "wal_bytes": self.wal.wal_bytes}
                items = list(self.data.items())
                self.wal.begin_snapshot()
            return await asyncio.get_running_loop().run_in_executor(
                None, self.wal.write_snapshot, items)

    def stop(self, join_timeout: float = 5.0) -> None:
        """Stop accepting, sever live connections, and join the loop.

        Severing matters for restart semantics: connections on a
        "stopped" shard must not keep serving (the resilience tests
        revive shards at the same address). In-flight serve tasks are
        awaited (bounded by ``join_timeout``) so an acked write is
        fully applied before the loop thread dies.
        """
        with self._stop_lock:
            if self._stopping:
                return
            self._stopping = True
            lt = self._loop_thread
        if lt is None:  # never started: just release the port
            try:
                self._listen_sock.close()
            except OSError:
                pass
            if self.wal is not None:
                self.wal.close()
            return
        try:
            lt.run(self._shutdown(join_timeout), timeout=join_timeout + 5.0)
        except Exception:
            pass
        lt.stop(join_timeout)
        if self.wal is not None:
            # The loop is down; one last synchronous flush catches
            # records whose group commit hadn't fired yet (their
            # responses were never sent, but replaying them is free).
            self.wal.close()

    async def _shutdown(self, join_timeout: float) -> None:
        if self._aserver is not None:
            self._aserver.close()
            try:
                await self._aserver.wait_closed()
            except Exception:
                pass
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        tasks = [c.task for c in conns if c.task is not None]
        for conn in conns:
            try:
                conn.transport.abort()
            except Exception:
                pass
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=join_timeout)
            for task in pending:
                task.cancel()

    def __enter__(self) -> "AsyncNetKVServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# --- client side ----------------------------------------------------------


def _frame(command: _Command, args, payload: bytes) -> bytes:
    """One request frame: the header line, then the payload."""
    header = " ".join((command.word, *args))
    if command.payload:
        header += " %d" % len(payload)
    return header.encode("utf-8") + b"\n" + payload


# Idle connections a channel keeps for reuse. A caller that finds none
# idle opens another, so a channel holds one connection per caller that
# overlaps with others and keeps at most this many once they are done.
_POOL_IDLE = 16

# Bytes one ``recv`` asks for: a small reply arrives in one call.
_RECV_BYTES = 1 << 16

# The first byte of Linux's TCP_INFO is the connection state; 1 is
# ESTABLISHED. Without TCP_INFO an idle connection is taken on trust.
_TCP_INFO = getattr(socket, "TCP_INFO", None)
_ESTABLISHED = b"\x01"


def _timeval(deadline: float) -> bytes:
    """The time left before ``deadline`` as a ``struct timeval``."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("op_timeout elapsed")
    # An all-zero timeval would mean "no timeout".
    return struct.pack("ll", int(left), int(left % 1 * 1e6) or 1)


class _Conn:
    """One blocking connection to a shard: a socket and its read buffer.

    The socket stays in blocking mode; the kernel bounds each ``send``
    and ``recv`` by SO_SNDTIMEO/SO_RCVTIMEO, set to the time left before
    the request's deadline. So ``op_timeout`` bounds the whole round
    trip however many calls the reply needs, and the send and the
    receive are the only calls of a request that release the GIL (a
    Python-level timeout would add a ``poll`` and a mode switch to
    each, and under a busy GIL every release can cost a switch
    interval).
    """

    __slots__ = ("sock", "buf")

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.buf = ReadBuffer()

    def idle_ok(self) -> bool:
        """Whether an idle connection is still usable: the shard has not
        closed or reset it while it sat in the pool."""
        if self.buf.pending():
            return False
        if _TCP_INFO is None:
            return True
        try:
            return self.sock.getsockopt(
                socket.IPPROTO_TCP, _TCP_INFO, 1) == _ESTABLISHED
        except OSError:
            return False

    def arrived(self) -> bool:
        """Whether reply bytes, or the peer's close, are already here
        (a peek that does not block)."""
        if self.buf.pending():
            return True
        try:
            self.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False
        except OSError:
            return True  # the read that follows raises it
        return True

    def _io(self, option: int, deadline: float, call: Callable, arg):
        self.sock.setsockopt(socket.SOL_SOCKET, option, _timeval(deadline))
        try:
            return call(arg)
        except BlockingIOError:  # the kernel timeout fired
            raise TimeoutError("op_timeout elapsed") from None

    def send(self, data: bytes, deadline: float) -> None:
        view = memoryview(data)
        while view:
            view = view[self._io(socket.SO_SNDTIMEO, deadline,
                                 self.sock.send, view):]

    def _fill(self, deadline: float, size: int = _RECV_BYTES) -> None:
        chunk = self._io(socket.SO_RCVTIMEO, deadline, self.sock.recv, size)
        if not chunk:
            raise ConnectionError("connection closed mid-frame")
        self.buf.feed(chunk)

    def read_line(self, deadline: float) -> bytes:
        while True:
            line = self.buf.take_line()
            if line is not None:
                return line
            self._fill(deadline)

    def read_exact(self, n: int, deadline: float) -> bytes:
        while True:
            data = self.buf.take_exact(n)
            if data is not None:
                return data
            self._fill(deadline, max(_RECV_BYTES, n - self.buf.pending()))

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class _Request:
    """One request between :meth:`AsyncClientChannel._post` and
    :meth:`~AsyncClientChannel._wait`: its frame, and the connection it
    went out on or the error its last attempt hit."""

    __slots__ = ("kind", "aux", "frame", "conn", "t0", "deadline", "error",
                 "result")

    def __init__(self, kind: str, aux, frame: Optional[bytes],
                 result=None) -> None:
        self.kind = kind
        self.aux = aux
        self.frame = frame  # None: answered without a round trip
        self.conn: Optional[_Conn] = None
        self.t0 = 0.0
        self.deadline = 0.0
        self.error: Optional[BaseException] = None
        self.result = result


class AsyncClientChannel(_Channel):
    """Blocking connection pool to one shard (``NetKVClient``).

    A call runs on the caller's thread in two steps, :meth:`_post` then
    :meth:`_wait` (the same pair :class:`LocalShard` speaks): ``_post``
    takes an idle connection from the channel's pool, or opens one, and
    sends the request frame; ``_wait`` reads the reply on that
    connection and puts it back. So a caller can send to many shards
    before it waits for any (``NetKVCluster._gather``), and concurrent
    callers each hold their own connection while their request is out.
    A connection goes back to the pool only after a whole reply was
    read from it; one that timed out, broke framing or lost its peer is
    closed, so no late reply can reach the next request.

    Retry ladder: timeouts, connection failures, and protocol
    violations drop the connection, wait out a jittered
    capped-exponential backoff, and re-attempt on a fresh connection
    until the budget is spent (→ StoreUnavailable). Application
    outcomes (NF → KeyNotFound, ERR → StoreError) are never retried.
    Retries make every operation at-least-once: SET/GET/RENAME are
    idempotent, but a DEL whose response was lost can raise
    :class:`KeyNotFound` on the re-attempt even though the key was
    removed (see DESIGN.md, "Transport failure semantics").

    The channel starts no thread; :meth:`close` closes its idle
    connections, and any still out close as their replies come in.
    """

    def __init__(self, address: Tuple[str, int],
                 config: Optional[TransportConfig] = None,
                 stats: Optional[TransportStats] = None,
                 rng=None) -> None:
        self.address = (str(address[0]), int(address[1]))
        self.config = config if config is not None else TransportConfig()
        self.stats = stats if stats is not None else TransportStats()
        self._rng = rng if rng is not None else random.Random(0x5EED)
        self._lock = threading.Lock()
        self._idle: List[_Conn] = []
        # Connections dropped and not yet replaced: opening the next
        # one counts as a reconnect.
        self._lost = 0
        self._closed = False

    # --- the connection pool ----------------------------------------------

    def _connect(self) -> _Conn:
        sock = socket.create_connection(self.address,
                                        self.config.connect_timeout)
        with self._lock:
            replaces = self._lost > 0
            if replaces:
                self._lost -= 1
        if replaces:
            self.stats.note_reconnect()
        return _Conn(sock)

    def _checkout(self) -> _Conn:
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connect()
            if conn.idle_ok():
                return conn
            self._drop(conn)  # the shard closed it while it sat idle

    def _checkin(self, conn: _Conn) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < _POOL_IDLE:
                self._idle.append(conn)
                return
        conn.close()

    def _drop(self, conn: _Conn) -> None:
        conn.close()
        with self._lock:
            self._lost += 1

    # --- one call: post, then wait ------------------------------------------

    def _post(self, name: str, args: tuple = ()) -> _Request:
        """First half of a call: send ``name(*args)`` to the shard.

        A failed send is kept on the request for :meth:`_wait` to
        retry; only a closed channel or a key the wire cannot carry
        raises here.
        """
        command = _BY_NAME[name]
        header, payload, aux = command.encode(*args)
        if command.empty is not None and not aux:
            return _Request(command.word, aux, None,
                            command.parse(command.empty, aux))
        if self._closed:
            raise StoreUnavailable(f"channel to {self.address} is closed")
        req = _Request(command.word, aux, _frame(command, header, payload))
        self._send(req, self._checkout)
        return req

    def _send(self, req: _Request, connect: Callable[[], _Conn]) -> None:
        req.conn = req.error = None
        req.t0 = time.perf_counter()
        try:
            req.conn = connect()
            self.stats.note_request(len(req.frame))
            req.deadline = time.monotonic() + self.config.op_timeout
            req.conn.send(req.frame, req.deadline)
        except (OSError, WireProtocolError) as exc:
            req.error = exc

    def _wait(self, req: _Request):
        """Second half of a call: read ``req``'s reply on this thread,
        retrying on a fresh connection while the budget lasts."""
        if req.frame is None:
            return req.result
        attempts = self.config.retries + 1
        for attempt in range(attempts):
            if attempt:
                self._backoff(attempt - 1)
                if self._closed:
                    raise StoreUnavailable(
                        f"channel to {self.address} is closed")
                self._send(req, self._connect)
            if req.error is None:
                try:
                    raw = self._read_reply(req)
                except (OSError, WireProtocolError) as exc:
                    req.error = exc
                else:
                    return self._decode(req, raw)
            self._note_failure(req, attempt)
        self.stats.note_exhausted()
        trace.event("exhausted", op=req.kind, attempts=attempts)
        raise StoreUnavailable(
            f"{req.kind} against {self.address[0]}:{self.address[1]} "
            f"failed after {attempts} attempt(s): {req.error}"
        ) from req.error

    @staticmethod
    def _discard(req: _Request) -> None:
        """Give up on ``req`` unread: close the connection its reply
        would come in on."""
        if req.conn is not None:
            req.conn.close()
            req.conn = None

    def _note_failure(self, req: _Request, attempt: int) -> None:
        if req.conn is not None:
            self._drop(req.conn)
            req.conn = None
        exc = req.error
        if isinstance(exc, TimeoutError):
            kind = "timeout"
            self.stats.note_retry(timed_out=True)
        elif isinstance(exc, WireProtocolError):
            # The peer sent something unframeable — desynced or
            # garbage-injected. The connection is dead to us.
            kind = "protocol"
            self.stats.note_retry(timed_out=False, protocol=True)
        else:
            kind = "connection"
            self.stats.note_retry(timed_out=False)
        trace.event("retry", kind=kind, op=req.kind, attempt=attempt)

    def _backoff(self, attempt: int) -> None:
        cfg = self.config
        base = min(cfg.backoff_max, cfg.backoff_base * (2.0 ** attempt))
        if base <= 0:
            return
        spread = cfg.jitter
        if spread:
            with self._lock:  # callers share the channel's generator
                draw = float(self._rng.random())
            base *= (1.0 - spread) + 2.0 * spread * draw
        time.sleep(base)

    def _read_reply(self, req: _Request) -> bytes:
        conn = req.conn
        deadline = req.deadline
        if time.monotonic() >= deadline and conn.arrived():
            # The caller came late to this reply (a gather read others
            # first), but the shard's answer is already here: the rest
            # of it gets a fresh op_timeout.
            deadline = time.monotonic() + self.config.op_timeout
        status = conn.read_line(deadline).decode("utf-8", "replace")
        if status.startswith("OK "):
            try:
                n = int(status[3:])
            except ValueError:
                raise WireProtocolError(f"malformed OK length: {status!r}") from None
            if n < 0 or n > self.config.max_payload:
                raise WireProtocolError(f"OK length out of range: {n}")
            body = conn.read_exact(n, deadline)
        elif status == "NF" or status.startswith("ERR "):
            body = None
            n = 0
        else:
            raise WireProtocolError(f"unparseable response {status!r}")
        # A whole reply was read: the connection is in step again.
        req.conn = None
        self._checkin(conn)
        self.stats.note_response(n, time.perf_counter() - req.t0)
        if body is not None:
            return body
        if status == "NF":
            raise KeyNotFound(req.aux if req.aux is not None else "?")
        raise StoreError(status[4:])

    def _decode(self, req: _Request, raw: bytes):
        """The value of an OK body; a body that does not parse for its
        op (bad UTF-8, a non-integer count, broken JSON) is a
        :class:`WireProtocolError`."""
        command = _BY_WORD[req.kind]
        try:
            value = command.parse(raw, req.aux)
        except ValueError as exc:
            raise WireProtocolError(
                f"malformed {req.kind} response: {exc}") from None
        if command.empty is not None:
            self.stats.note_batch(req.aux)
        return value

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
