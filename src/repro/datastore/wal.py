"""Per-shard durability: framed append-only log, snapshots, compaction.

A :class:`ShardWAL` gives one NetKV shard a crash-consistent disk image
made of a few files in its directory:

* ``snapshot.bin`` — the full key space at some past moment, written
  atomically (temp file + fsync + ``os.replace`` + directory fsync).
* ``wal.log`` — every mutation since the last compaction began, one
  CRC-framed record per logical write (deletes included, so a replayed
  shard does not resurrect removed keys).
* ``wal.log.<n>`` — sealed segments awaiting compaction.  Compaction is
  split in two so the heavy part can run off the serving thread:
  :meth:`begin_snapshot` (cheap: rename the live log to a sealed
  segment and start a fresh one) runs under the shard's dispatch lock
  together with the key-space copy, then :meth:`write_snapshot` does
  the snapshot write + fsync on an executor and deletes the sealed
  segments on success.  A crash between the two leaves the segments on
  disk; recovery replays snapshot, then segments in order, then the
  live log, so nothing acked is lost.

Recovery loads the snapshot and replays the log(s).  A torn tail record —
the normal result of crashing mid-append — is *truncated*, not fatal:
replay stops at the last frame whose length and CRC32 check out, and
the file is cut back to that offset before appends resume.  Everything
before the tear was acked against a completed fsync and survives.

Durability is group-committed: appends only buffer bytes in memory and
bump ``seq``; the serving loop awaits :meth:`commit` before releasing
responses.  The first waiter of a loop pass schedules a sync point
that, next pass, writes and fdatasyncs everything buffered inline on
the loop thread (Redis's ``appendfsync always``).  One fsync covers
every mutation dispatched in a pass, which keeps durable writes close
to the in-memory numbers (see ``BENCH_netkv_persist.json``).

A failed write+fsync poisons the WAL rather than losing records: the
drained buffer is pushed back in front of anything appended since, the
file is cut back to its last known-good frame boundary, and every
subsequent :meth:`commit` raises so the shard refuses to ack mutations
it cannot make durable.

Frame format (little-endian)::

    record  := u32 body_len | u32 crc32(body) | body
    body    := op:1 | fields
    op 'S'  := u32 key_len | key_utf8 | value_bytes
    op 'D'  := key_utf8
    op 'R'  := u32 src_len | src_utf8 | dst_utf8
    op 'F'  := (empty; clears the key space)

The snapshot file is the magic line ``RKVSNAP1\\n`` followed by 'S'
records in the same framing, so one decoder serves both files.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import struct
import threading
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.datastore.base import StoreError

__all__ = [
    "DurabilityConfig",
    "ShardWAL",
    "WALCorruption",
    "encode_record",
    "iter_frames",
    "replay_into",
]

_HDR = struct.Struct("<II")  # body_len, crc32(body)
_U32 = struct.Struct("<I")
_SNAP_MAGIC = b"RKVSNAP1\n"
_SNAP_NAME = "snapshot.bin"
_WAL_NAME = "wal.log"
_MAX_FRAME = 1 << 30  # sanity bound; anything larger is corruption


class WALCorruption(StoreError):
    """A frame *before* the tail failed validation.

    Torn tails are expected and silently truncated; a bad frame with
    valid frames after it means the file was damaged some other way and
    recovery refuses to guess.  (We only detect this within the bytes
    we scan linearly, so in practice this surfaces for snapshot files,
    whose atomic rename means they must be wholly valid.)
    """


@dataclasses.dataclass(frozen=True)
class DurabilityConfig:
    """Knobs for the ``[durability]`` config section.

    ``fsync`` gates every synchronous-flush call site (WAL group
    commit, snapshot rename, FSStore atomic writes); turning it off
    keeps the write path byte-identical but trusts the OS page cache.
    ``compact_bytes`` is the WAL size that triggers an automatic
    snapshot + log reset on the next mutation.
    """

    fsync: bool = True
    compact_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.compact_bytes < 4096:
            raise ValueError("durability.compact_bytes must be >= 4096")


def _sync_file(fh) -> None:
    fh.flush()
    if hasattr(os, "fdatasync"):
        os.fdatasync(fh.fileno())
    else:  # pragma: no cover - non-POSIX fallback
        os.fsync(fh.fileno())


def _write_all(fh, data: bytes) -> None:
    """Write every byte of ``data`` to an unbuffered file handle."""
    view = memoryview(data)
    while view:
        n = fh.write(view)
        if n is None:  # pragma: no cover - regular files always block
            n = len(view)
        view = view[n:]


def fsync_dir(path: str) -> None:
    """fsync a directory so a rename inside it survives power loss."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems that refuse
        pass
    finally:
        os.close(fd)


# --- framing ---------------------------------------------------------------


def encode_record(op: bytes, *fields: bytes) -> bytes:
    """Frame one record: 'S' (key, value), 'D' (key), 'R' (src, dst),
    'F' ()."""
    if op in (b"S", b"R"):
        first, second = fields
        body = op + _U32.pack(len(first)) + first + second
    elif op == b"D":
        body = op + fields[0]
    elif op == b"F":
        body = op
    else:
        raise ValueError(f"unknown WAL op {op!r}")
    return _HDR.pack(len(body), zlib.crc32(body)) + body


def iter_frames(data: bytes, offset: int = 0) -> Iterator[Tuple[int, bytes]]:
    """Yield ``(next_offset, body)`` for every valid frame; stop at the
    first torn or corrupt one (the caller decides whether what remains
    is an acceptable tail)."""
    n = len(data)
    while offset + _HDR.size <= n:
        body_len, crc = _HDR.unpack_from(data, offset)
        end = offset + _HDR.size + body_len
        if body_len > _MAX_FRAME or end > n:
            return  # torn tail: length field or body ran off the file
        body = data[offset + _HDR.size:end]
        if zlib.crc32(body) != crc:
            return  # torn tail: partially written body
        yield end, body
        offset = end


def _decode_body(body: bytes) -> Tuple[bytes, List[bytes]]:
    op = body[:1]
    if op == b"S" or op == b"R":
        if len(body) < 1 + _U32.size:
            raise WALCorruption("record too short for its op")
        (first_len,) = _U32.unpack_from(body, 1)
        first_end = 1 + _U32.size + first_len
        if first_end > len(body):
            raise WALCorruption("record key length exceeds body")
        return op, [body[1 + _U32.size:first_end], body[first_end:]]
    if op == b"D":
        return op, [body[1:]]
    if op == b"F":
        return op, []
    raise WALCorruption(f"unknown WAL op {op!r}")


def replay_into(data: bytes, into: Dict[str, bytes],
                offset: int = 0) -> Tuple[int, int]:
    """Apply every valid frame in ``data`` to ``into``.

    Returns ``(records_applied, valid_end_offset)``; bytes past the
    valid end are a torn tail the caller should truncate.
    """
    applied = 0
    valid_end = offset
    for end, body in iter_frames(data, offset):
        op, fields = _decode_body(body)
        if op == b"S":
            into[fields[0].decode("utf-8")] = fields[1]
        elif op == b"D":
            into.pop(fields[0].decode("utf-8"), None)
        elif op == b"R":
            src = fields[0].decode("utf-8")
            dst = fields[1].decode("utf-8")
            if src in into:
                into[dst] = into.pop(src)
        elif op == b"F":
            into.clear()
        applied += 1
        valid_end = end
    return applied, valid_end


# --- the per-shard log -----------------------------------------------------


class ShardWAL:
    """Append-only write log plus snapshot for one shard.

    Thread model: appends, :meth:`commit` and its write+fsync sync point
    run on the shard's event loop thread; :meth:`write_snapshot` runs on
    an executor.  ``_buf_lock`` guards the pending buffer and sequence
    counters across that boundary, and ``_file_lock`` serializes file
    I/O so a sync pass and a snapshot cannot interleave their writes.
    """

    def __init__(self, directory: str,
                 config: Optional[DurabilityConfig] = None) -> None:
        self.directory = directory
        self.config = config or DurabilityConfig()
        os.makedirs(directory, exist_ok=True)
        self._buf_lock = threading.Lock()
        self._file_lock = threading.Lock()
        self._pending = bytearray()
        self.seq = 0           # records appended since open
        self.synced_seq = 0    # records durable on disk
        self._waiters: Optional[List[asyncio.Future]] = None  # next sync's
        self._closed = False
        self._failed = False   # a write+fsync raised; stop acking
        # compaction-in-flight state (begin_snapshot .. write_snapshot)
        self._compacting = False
        self._frozen = b""       # pending bytes set aside by begin_snapshot
        self._frozen_seq = 0     # seq the snapshot will cover
        self._frozen_bytes = 0   # on-disk bytes held in sealed segments
        self._segments: List[str] = []
        self._seg_index = 0
        self._dir_dirty = False  # new live log needs a directory fsync
        # counters surfaced via info() / SNAPSHOT responses
        self.appends = 0
        self.fsync_batches = 0
        self.wal_bytes = 0     # bytes written to the log since open
        self.snapshots = 0
        self.sync_failures = 0
        self.replayed_records = 0
        self.truncated_bytes = 0
        self.recovered = self._recover()
        # Unbuffered: after a failed write we ftruncate back to the last
        # good frame boundary, and a userspace buffer could flush stale
        # bytes past it on close.
        self._fh = open(self._wal_path, "ab", buffering=0)
        try:
            self.log_bytes = os.path.getsize(self._wal_path)
        except OSError:  # pragma: no cover
            self.log_bytes = 0

    # -- paths -------------------------------------------------------------

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, _WAL_NAME)

    @property
    def _snap_path(self) -> str:
        return os.path.join(self.directory, _SNAP_NAME)

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> Dict[str, bytes]:
        """Snapshot + segment + log replay with torn-tail truncation.

        Sealed ``wal.log.<n>`` segments on disk mean a compaction began
        but its snapshot never landed; they replay between the snapshot
        and the live log, oldest first.  Replaying records the snapshot
        already covers is harmless — every op is idempotent against the
        state that already includes it (a rename whose source is gone
        is a no-op), so a suffix of history can be applied twice.
        """
        data: Dict[str, bytes] = {}
        if os.path.exists(self._snap_path):
            with open(self._snap_path, "rb") as fh:
                raw = fh.read()
            if not raw.startswith(_SNAP_MAGIC):
                raise WALCorruption(
                    f"{self._snap_path} is not a NetKV snapshot")
            applied, valid_end = replay_into(raw, data, len(_SNAP_MAGIC))
            if valid_end != len(raw):
                # The snapshot was renamed into place after a full
                # fsync; a short one means outside interference.
                raise WALCorruption(
                    f"{self._snap_path} is damaged at byte {valid_end}")
            self.replayed_records += applied
        numbered = []
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover
            names = []
        prefix = _WAL_NAME + "."
        for name in names:
            if name.startswith(prefix) and name[len(prefix):].isdigit():
                numbered.append((int(name[len(prefix):]),
                                 os.path.join(self.directory, name)))
        numbered.sort()
        self._segments = [path for _, path in numbered]
        self._seg_index = numbered[-1][0] + 1 if numbered else 0
        for path in self._segments + [self._wal_path]:
            if not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                raw = fh.read()
            applied, valid_end = replay_into(raw, data)
            self.replayed_records += applied
            if valid_end != len(raw):
                # Crash mid-append: drop the torn tail so appends
                # resume on a frame boundary.  (Only the newest file
                # can legitimately tear, but truncation is safe — a
                # tear is always at the very end of acked history.)
                self.truncated_bytes += len(raw) - valid_end
                with open(path, "r+b") as fh:
                    fh.truncate(valid_end)
                    if self.config.fsync:
                        _sync_file(fh)
            if path != self._wal_path:
                self._frozen_bytes += valid_end
        # Leftover segments do not block commits: _compacting stays
        # False and the interrupted compaction simply retries at the
        # next needs_compaction() trigger (the sizes still count).
        return data

    # -- appends (loop thread) ---------------------------------------------

    def _append(self, record: bytes) -> int:
        with self._buf_lock:
            if self._closed:
                raise StoreError("WAL is closed")
            self._pending += record
            self.seq += 1
            self.appends += 1
            return self.seq

    def append_set(self, key: str, value: bytes) -> int:
        return self._append(encode_record(b"S", key.encode("utf-8"), value))

    def append_delete(self, key: str) -> int:
        return self._append(encode_record(b"D", key.encode("utf-8")))

    def append_rename(self, src: str, dst: str) -> int:
        return self._append(encode_record(
            b"R", src.encode("utf-8"), dst.encode("utf-8")))

    def append_flush(self) -> int:
        return self._append(encode_record(b"F"))

    # -- group commit ------------------------------------------------------

    async def commit(self, target: Optional[int] = None) -> None:
        """Block until every record up to ``target`` (default: all
        appended so far) is durable.  Each waiter parks on its own
        future; the first of a loop pass schedules the sync point that
        resolves them all, so a cancelled waiter cannot abort a write
        other connections' acks are riding on."""
        if target is None:
            target = self.seq
        while self.synced_seq < target:
            if self._failed:
                raise StoreError(
                    "WAL write failed; shard refuses to ack mutations")
            if self._compacting:
                # A snapshot is landing on the executor; its fsync will
                # cover every frozen record.  Records appended *after*
                # begin_snapshot still need a sync pass, but that pass
                # must not run concurrently with the snapshot (ordering
                # on failure), so just poll until the flag clears.
                await asyncio.sleep(0.002)
                continue
            loop = asyncio.get_running_loop()
            if self._waiters is None:
                self._waiters = []
                loop.call_soon(self._sync_point)
            waiter = loop.create_future()
            self._waiters.append(waiter)
            await waiter

    def _sync_point(self) -> None:
        waiters, self._waiters = self._waiters, None
        try:
            if not self._compacting:  # never block the loop on a snapshot
                self._write_and_sync()
        except StoreError:
            pass  # poisoned: every waiter raises on its next check
        for waiter in waiters:
            if not waiter.done():  # a cancelled waiter is skipped
                waiter.set_result(None)

    def _write_and_sync(self) -> None:
        with self._file_lock:
            with self._buf_lock:
                if self._closed or self._failed or self._compacting:
                    return
                buf = bytes(self._pending)
                self._pending.clear()
                upto = self.seq
            if buf:
                try:
                    _write_all(self._fh, buf)
                    if self.config.fsync:
                        _sync_file(self._fh)
                    if self._dir_dirty and self.config.fsync:
                        fsync_dir(self.directory)
                except Exception as exc:
                    # Put the records back in front of anything appended
                    # since, cut the file back to its last good frame
                    # boundary, and stop acking: a WAL silently missing
                    # acked mutations is worse than a shard that
                    # refuses writes.
                    with self._buf_lock:
                        self._pending[:0] = buf
                        self._failed = True
                        self.sync_failures += 1
                    try:
                        os.ftruncate(self._fh.fileno(), self.log_bytes)
                    except OSError:  # pragma: no cover - double fault
                        pass
                    raise StoreError(
                        f"WAL write+fsync failed: {exc}") from exc
                self._dir_dirty = False
                self.wal_bytes += len(buf)
                self.log_bytes += len(buf)
                self.fsync_batches += 1
            with self._buf_lock:
                if upto > self.synced_seq:
                    self.synced_seq = upto

    # -- snapshot + compaction ---------------------------------------------

    def begin_snapshot(self) -> None:
        """Freeze the log for compaction (cheap: two renames, no data
        I/O).

        The caller holds whatever lock makes its upcoming ``items``
        copy a consistent view of the shard and calls this inside it —
        that lock is the sequence point making the copy and the freeze
        agree.  Pending bytes move aside, the live log is sealed into a
        numbered segment, and appends continue into a fresh file.
        Until :meth:`write_snapshot` finishes, sync passes stand down
        (commit waiters poll) so a snapshot failure cannot leave
        post-freeze records on disk ahead of the re-queued frozen ones.
        """
        with self._file_lock:
            with self._buf_lock:
                if self._closed:
                    raise StoreError("WAL is closed")
                if self._failed:
                    raise StoreError("WAL failed; refusing to compact")
                if self._compacting:
                    raise StoreError("a snapshot is already in progress")
                self._compacting = True
                self._frozen = bytes(self._pending)
                self._pending.clear()
                self._frozen_seq = self.seq
            try:
                self._fh.close()
                seg = f"{self._wal_path}.{self._seg_index}"
                self._seg_index += 1
                os.rename(self._wal_path, seg)
                self._segments.append(seg)
                self._frozen_bytes += self.log_bytes
                self.log_bytes = 0
                self._fh = open(self._wal_path, "ab", buffering=0)
                self._dir_dirty = True  # next commit fsyncs the dir
            except Exception:
                # Could not seal the segment: un-freeze so commits do
                # not poll a compaction that will never finish.
                with self._buf_lock:
                    self._pending[:0] = self._frozen
                    self._frozen = b""
                    self._compacting = False
                    self._failed = True  # the log file state is unknown
                raise

    def write_snapshot(
            self, items: Iterable[Tuple[str, bytes]]) -> Dict[str, int]:
        """Write the snapshot begun by :meth:`begin_snapshot` and
        retire the sealed segments.

        Heavy (full key-space write + fsync): run it on an executor.
        ``_file_lock`` keeps group commits out while the file work
        happens, but the event loop stays free to serve.  On failure
        the frozen records re-queue ahead of later appends and the
        segments stay on disk for recovery, so nothing acked is lost.
        """
        committed = False
        try:
            with self._file_lock:
                if self._closed:
                    raise StoreError("WAL is closed")
                nkeys = 0
                tmp = self._snap_path + ".tmp"
                with open(tmp, "wb") as fh:
                    fh.write(_SNAP_MAGIC)
                    for key, value in items:
                        fh.write(encode_record(
                            b"S", key.encode("utf-8"), value))
                        nkeys += 1
                    if self.config.fsync:
                        _sync_file(fh)
                os.replace(tmp, self._snap_path)
                if self.config.fsync:
                    fsync_dir(self.directory)
                committed = True
                for seg in self._segments:
                    try:
                        os.unlink(seg)
                    except OSError:  # pragma: no cover - leftover is fine
                        pass
                self._segments = []
                self._frozen_bytes = 0
                self.snapshots += 1
                with self._buf_lock:
                    self._frozen = b""
                    if self._frozen_seq > self.synced_seq:
                        self.synced_seq = self._frozen_seq
                    self._compacting = False
            return {"keys": nkeys, "snapshots": self.snapshots,
                    "wal_bytes": self.wal_bytes}
        finally:
            if not committed:
                with self._buf_lock:
                    self._pending[:0] = self._frozen
                    self._frozen = b""
                    self._compacting = False

    def snapshot(self, items: Iterable[Tuple[str, bytes]]) -> Dict[str, int]:
        """Synchronous snapshot + compaction for callers without an
        event loop (CLI recovery checks, tests).  The caller must
        ensure no concurrent appends between materializing ``items``
        and the freeze — the async server uses the two-step form under
        its dispatch lock instead."""
        items = list(items)
        self.begin_snapshot()
        return self.write_snapshot(items)

    def needs_compaction(self) -> bool:
        # In-memory size tracking: this runs after every mutating
        # command, so it must not cost a stat() syscall.  Sealed
        # segments count so an interrupted compaction retriggers.
        if self._compacting:
            return False
        return (self.log_bytes + self._frozen_bytes + len(self._pending)
                >= self.config.compact_bytes)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Flush whatever is buffered and close the file handle."""
        with self._buf_lock:
            if self._compacting:
                # Closing mid-compaction: the sealed segments stay on
                # disk for recovery; fold the frozen buffer back in
                # front of later appends so the final flush writes it
                # to the live log (which replays after the segments,
                # preserving order).
                self._pending[:0] = self._frozen
                self._frozen = b""
                self._compacting = False
        try:
            self._write_and_sync()
        except StoreError:  # already poisoned; still release the handle
            pass
        with self._file_lock, self._buf_lock:
            if not self._closed:
                self._closed = True
                try:
                    self._fh.close()
                except OSError:  # pragma: no cover
                    pass

    def info(self) -> Dict[str, object]:
        with self._buf_lock:
            return {
                "directory": self.directory,
                "fsync": self.config.fsync,
                "seq": self.seq,
                "synced_seq": self.synced_seq,
                "appends": self.appends,
                "fsync_batches": self.fsync_batches,
                "wal_bytes": self.wal_bytes,
                "snapshots": self.snapshots,
                "segments": len(self._segments),
                "sync_failures": self.sync_failures,
                "failed": self._failed,
                "replayed_records": self.replayed_records,
                "truncated_bytes": self.truncated_bytes,
                "recovered_keys": len(self.recovered),
            }
