"""ShardWAL unit tests: framing, recovery, torn tails, compaction.

The WAL's one contract: a shard that crashed and replayed holds exactly
the set of acked writes — every fsynced record present, no deleted key
resurrected, and a torn final record (the crash landed mid-write)
silently truncated instead of poisoning recovery.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
import zlib

import pytest

from repro.datastore.aio import AsyncNetKVServer
from repro.datastore.base import StoreError
from repro.datastore.wal import (
    DurabilityConfig,
    ShardWAL,
    WALCorruption,
    encode_record,
    iter_frames,
    replay_into,
)

pytestmark = pytest.mark.persist


def run(coro):
    return asyncio.run(coro)


def replayed(directory):
    """Open + close a fresh WAL and return what it recovered."""
    wal = ShardWAL(str(directory))
    try:
        return dict(wal.recovered)
    finally:
        wal.close()


# --- framing ----------------------------------------------------------------


def test_record_roundtrip():
    data = b"".join([
        encode_record(b"S", b"alpha", b"v1"),
        encode_record(b"D", b"alpha"),
        encode_record(b"R", b"src", b"dst"),
        encode_record(b"F"),
    ])
    bodies = [body for _, body in iter_frames(data)]
    assert len(bodies) == 4
    into = {"pre": b"existing"}
    applied, end = replay_into(data, into)
    assert applied == 4
    assert end == len(data)
    assert into == {}  # delete drops alpha; rename finds no src; F clears


def test_iter_frames_stops_at_corrupt_crc():
    good = encode_record(b"S", b"k", b"v")
    bad = bytearray(encode_record(b"S", b"k2", b"v2"))
    bad[-1] ^= 0xFF  # flip one payload byte: CRC mismatch
    frames = list(iter_frames(good + bytes(bad)))
    assert len(frames) == 1


def test_iter_frames_stops_at_torn_length():
    good = encode_record(b"S", b"k", b"v")
    torn = good + b"\x55\x01"  # a few garbage bytes, not even a header
    frames = list(iter_frames(torn))
    assert len(frames) == 1
    assert frames[0][0] == len(good)


def test_config_validation():
    with pytest.raises(ValueError):
        DurabilityConfig(compact_bytes=16)


# --- recovery ---------------------------------------------------------------


def test_replay_recovers_sets_and_deletes(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.append_set("a", b"1")
    wal.append_set("b", b"2")
    wal.append_delete("a")
    wal.append_rename("b", "c")
    run(wal.commit())
    wal.close()

    state = replayed(tmp_path)
    assert state == {"c": b"2"}  # delete applied in order, rename applied


def test_deleted_key_never_resurrects_across_restarts(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.append_set("k", b"v")
    wal.append_delete("k")
    run(wal.commit())
    wal.close()
    # Two restart generations: the delete must survive both (the log
    # is totally ordered, so the set can never replay after the delete).
    assert "k" not in replayed(tmp_path)
    assert "k" not in replayed(tmp_path)


def test_close_flushes_unsynced_tail(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.append_set("tail", b"value")  # no commit() — close must flush
    wal.close()
    assert replayed(tmp_path)["tail"] == b"value"


def test_torn_tail_is_truncated(tmp_path):
    wal = ShardWAL(str(tmp_path))
    for i in range(10):
        wal.append_set(f"k{i}", b"v")
    run(wal.commit())
    wal.close()

    path = os.path.join(str(tmp_path), "wal.log")
    size = os.path.getsize(path)
    with open(path, "ab") as fh:
        fh.write(b"\x13\x37garbage-half-record")

    wal = ShardWAL(str(tmp_path))
    try:
        assert len(wal.recovered) == 10
        assert wal.truncated_bytes > 0
        # The tail was physically removed, not just skipped.
        assert os.path.getsize(path) == size
        # And the log accepts appends cleanly after the repair.
        wal.append_set("after", b"repair")
        run(wal.commit())
    finally:
        wal.close()
    assert replayed(tmp_path)["after"] == b"repair"


def test_torn_mid_record_crc(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.append_set("good", b"v")
    run(wal.commit())
    wal.close()
    path = os.path.join(str(tmp_path), "wal.log")
    # Append a frame with a valid length but wrong CRC (torn payload).
    body = b"S" + (5).to_bytes(4, "little") + b"wrongwrong"
    frame = len(body).to_bytes(4, "little") + (zlib.crc32(body) ^ 1).to_bytes(
        4, "little") + body
    with open(path, "ab") as fh:
        fh.write(frame)
    assert replayed(tmp_path) == {"good": b"v"}


def test_corrupt_snapshot_refuses_recovery(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.append_set("k", b"v")
    run(wal.commit())
    wal.snapshot([("k", b"v")])
    wal.close()
    snap = os.path.join(str(tmp_path), "snapshot.bin")
    with open(snap, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        fh.write(b"\xff")
    # A torn WAL tail is routine; a damaged snapshot is data loss and
    # must be surfaced, not silently shrugged off.
    with pytest.raises(WALCorruption):
        ShardWAL(str(tmp_path))


# --- compaction -------------------------------------------------------------


def test_snapshot_compacts_wal(tmp_path):
    wal = ShardWAL(str(tmp_path))
    for i in range(50):
        wal.append_set("hot", f"v{i}".encode())
    run(wal.commit())
    assert wal.log_bytes > 0
    info = wal.snapshot([("hot", b"v49")])
    assert info["keys"] == 1
    assert wal.log_bytes == 0
    wal.append_delete("hot")
    run(wal.commit())
    wal.close()
    assert replayed(tmp_path) == {}  # snapshot value, then the delete


def test_needs_compaction_threshold(tmp_path):
    wal = ShardWAL(str(tmp_path), DurabilityConfig(compact_bytes=4096))
    assert not wal.needs_compaction()
    for i in range(100):
        wal.append_set(f"k{i}", b"x" * 64)
    assert wal.needs_compaction()  # pending bytes count before the fsync
    wal.snapshot([])
    assert not wal.needs_compaction()
    wal.close()


def test_begin_snapshot_seals_a_segment(tmp_path):
    """The cheap half of compaction moves the live log aside; nothing
    acked is lost even if the heavy half never runs (crash between the
    two phases)."""
    wal = ShardWAL(str(tmp_path))
    for i in range(25):
        wal.append_set(f"k{i}", b"v")
    run(wal.commit())
    wal.append_set("unsynced", b"tail")  # frozen, never fsynced
    wal.begin_snapshot()
    assert os.path.exists(os.path.join(str(tmp_path), "wal.log.0"))
    assert wal.log_bytes == 0
    wal.append_set("after", b"freeze")
    # Close without write_snapshot: simulates dying mid-compaction.
    wal.close()
    state = replayed(tmp_path)
    assert len(state) == 27
    assert state["unsynced"] == b"tail"
    assert state["after"] == b"freeze"


def test_write_snapshot_retires_segments(tmp_path):
    wal = ShardWAL(str(tmp_path))
    for i in range(10):
        wal.append_set(f"k{i}", b"v")
    run(wal.commit())
    wal.begin_snapshot()
    items = [(f"k{i}", b"v") for i in range(10)]
    wal.append_set("during", b"snap")
    info = wal.write_snapshot(items)
    assert info["keys"] == 10
    assert not os.path.exists(os.path.join(str(tmp_path), "wal.log.0"))
    run(wal.commit())
    wal.close()
    state = replayed(tmp_path)
    assert len(state) == 11 and state["during"] == b"snap"


def test_failed_snapshot_requeues_frozen_records(tmp_path, monkeypatch):
    """A snapshot that cannot land must not drop the frozen buffer:
    the records re-queue ahead of later appends and the sealed segment
    stays on disk for recovery."""
    wal = ShardWAL(str(tmp_path))
    wal.append_set("frozen", b"v")  # pending, never fsynced
    wal.begin_snapshot()
    monkeypatch.setattr(
        "repro.datastore.wal.os.replace",
        lambda *a: (_ for _ in ()).throw(OSError("disk full")))
    with pytest.raises(OSError):
        wal.write_snapshot([("frozen", b"v")])
    monkeypatch.undo()
    assert os.path.exists(os.path.join(str(tmp_path), "wal.log.0"))
    run(wal.commit())  # frozen record now syncs into the new live log
    wal.close()
    assert replayed(tmp_path)["frozen"] == b"v"


def test_sync_failure_poisons_the_wal(tmp_path, monkeypatch):
    """A failed write+fsync must not silently drop acked records: the
    buffer is restored, the WAL flags itself failed, and commits raise
    instead of acking."""
    wal = ShardWAL(str(tmp_path))
    wal.append_set("a", b"1")
    monkeypatch.setattr(
        "repro.datastore.wal._write_all",
        lambda fh, data: (_ for _ in ()).throw(OSError("I/O error")))
    with pytest.raises(StoreError):
        run(wal.commit())
    monkeypatch.undo()
    assert wal.sync_failures == 1
    assert wal.info()["failed"] is True
    # The records were re-queued, not lost...
    assert wal.synced_seq < wal.seq
    # ...but the shard stays poisoned: later commits refuse to ack.
    wal.append_set("b", b"2")
    with pytest.raises(StoreError):
        run(wal.commit())
    with pytest.raises(StoreError):
        wal.begin_snapshot()
    wal.close()


def test_closed_wal_refuses(tmp_path):
    wal = ShardWAL(str(tmp_path))
    wal.close()
    with pytest.raises(StoreError):
        wal.append_set("k", b"v")
    with pytest.raises(StoreError):
        wal.snapshot([])


# --- group commit -----------------------------------------------------------


def test_group_commit_coalesces_waiters(tmp_path):
    wal = ShardWAL(str(tmp_path))

    async def burst():
        for i in range(20):
            wal.append_set(f"k{i}", b"v")
        await asyncio.gather(*(wal.commit() for _ in range(20)))

    run(burst())
    # 20 concurrent waiters must not cost 20 fsync passes.
    assert wal.fsync_batches <= 3
    assert wal.synced_seq == wal.seq
    wal.close()
    assert len(replayed(tmp_path)) == 20


def test_commit_needs_no_executor(tmp_path, monkeypatch):
    """The write+fsync runs inline on the loop at the sync point: no
    task, no shield, no executor hop."""
    wal = ShardWAL(str(tmp_path))

    async def commit_without_executor():
        def refuse(*args, **kwargs):
            raise AssertionError("commit must not hop to an executor")

        monkeypatch.setattr(asyncio.get_running_loop(), "run_in_executor",
                            refuse)
        wal.append_set("k", b"v")
        await wal.commit()

    run(commit_without_executor())
    assert wal.synced_seq == wal.seq == 1
    assert wal.fsync_batches == 1
    wal.close()
    assert replayed(tmp_path) == {"k": b"v"}


def test_cancelled_waiter_does_not_abort_the_sync_point(tmp_path):
    wal = ShardWAL(str(tmp_path))

    async def one_waiter_cancelled():
        wal.append_set("a", b"1")
        doomed = asyncio.ensure_future(wal.commit())
        kept = asyncio.ensure_future(wal.commit())
        await asyncio.sleep(0)  # both are parked on the sync point
        doomed.cancel()
        await kept
        assert doomed.cancelled()

    run(one_waiter_cancelled())
    assert wal.synced_seq == wal.seq
    assert wal.fsync_batches == 1
    wal.close()


def test_pipelined_sets_from_three_connections_share_one_fsync(tmp_path):
    """Every mutation the shard dispatches in one loop pass rides the
    same sync point: three pipelined connections, one fsync batch."""
    server = AsyncNetKVServer(persist_dir=str(tmp_path / "shard")).start()
    socks = [socket.create_connection(server.address, timeout=5)
             for _ in range(3)]
    try:
        for sock in socks:  # accepted and served before the gate
            sock.sendall(b"PING\n")
            assert sock.recv(64) == b"OK 4\nPONG"
        before = server.wal.fsync_batches
        # Hold the shard's loop while all three bursts arrive, so the
        # next pass sees every connection readable at once.
        entered, gate = threading.Event(), threading.Event()

        def hold() -> None:
            entered.set()
            gate.wait(5)

        server._loop_thread.loop.call_soon_threadsafe(hold)
        assert entered.wait(5)
        for n, sock in enumerate(socks):
            sock.sendall(b"".join(b"SET c%d-%d 1\n%d" % (n, i, i)
                                  for i in range(5)))
        time.sleep(0.1)
        gate.set()
        for sock in socks:
            want = b"OK 0\n" * 5
            got = b""
            while len(got) < len(want):
                chunk = sock.recv(64)
                assert chunk, "shard closed the connection"
                got += chunk
            assert got == want
        assert server.wal.fsync_batches - before == 1
        assert server.wal.synced_seq == server.wal.seq == 15
    finally:
        for sock in socks:
            sock.close()
        server.stop()
