"""I/O accounting shared by every backend.

The campaign "creat[es] and manag[es] several TBs of data each day"; the
WM needs to know how much each store moved to report that. Backends
call :meth:`IOStats.note` from their primitives; the WM and benches
read the counters. Networked backends additionally keep
:class:`TransportStats` — the retry/timeout/reconnect counters and the
round-trip latency histogram the telemetry report surfaces.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["IOStats", "LatencyHistogram", "TransportStats"]


@dataclass
class IOStats:
    """Byte and operation counters for one store.

    Units: ``bytes_written`` and ``bytes_read`` are bytes;
    ``writes``, ``reads``, ``deletes``, ``moves``, and ``scans`` are
    operation counts. All counters are cumulative since construction
    (or the last :meth:`reset`).
    """

    bytes_written: int = 0
    bytes_read: int = 0
    writes: int = 0
    reads: int = 0
    deletes: int = 0
    moves: int = 0
    scans: int = 0

    def note(self, op: str, nbytes: int = 0) -> None:
        if op == "write":
            self.writes += 1
            self.bytes_written += nbytes
        elif op == "read":
            self.reads += 1
            self.bytes_read += nbytes
        elif op == "delete":
            self.deletes += 1
        elif op == "move":
            self.moves += 1
        elif op == "scan":
            self.scans += 1
        else:
            raise ValueError(f"unknown op {op!r}")

    def ops(self) -> int:
        return self.writes + self.reads + self.deletes + self.moves + self.scans

    def as_dict(self) -> Dict[str, int]:
        return {
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "writes": self.writes,
            "reads": self.reads,
            "deletes": self.deletes,
            "moves": self.moves,
            "scans": self.scans,
        }

    def reset(self) -> None:
        self.bytes_written = self.bytes_read = 0
        self.writes = self.reads = self.deletes = self.moves = self.scans = 0


# Log-spaced round-trip buckets, in milliseconds: sub-ms in-process hops
# through multi-second timeout-bound stalls all land in a useful bin.
_LATENCY_EDGES_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class LatencyHistogram:
    """Fixed log-bucket latency accumulator (no per-sample retention).

    All values are milliseconds: ``edges_ms`` are bucket upper edges,
    ``sum_ms`` and ``max_ms`` accumulate observed round trips, and the
    exported ``mean_ms`` / ``p50_ms`` / ``p99_ms`` derive from them.
    ``counts`` holds per-bucket sample counts (exported as the sparse
    ``buckets`` map; the final entry is the overflow bucket) and
    ``count`` is the total number of samples.
    Quantiles are bucket upper bounds, i.e. conservative: the true
    quantile is at most the reported value.
    """

    def __init__(self) -> None:
        self.edges_ms = _LATENCY_EDGES_MS
        self.counts = [0] * (len(self.edges_ms) + 1)  # last bucket = overflow
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0

    def observe(self, seconds: float) -> None:
        ms = seconds * 1e3
        self.counts[bisect.bisect_left(self.edges_ms, ms)] += 1
        self.count += 1
        self.sum_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms

    def mean_ms(self) -> float:
        return self.sum_ms / self.count if self.count else 0.0

    def quantile_ms(self, q: float) -> float:
        """Upper edge of the bucket holding the q-quantile (0 < q <= 1)."""
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return self.edges_ms[i] if i < len(self.edges_ms) else self.max_ms
        return self.max_ms

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms(),
            "p50_ms": self.quantile_ms(0.5),
            "p99_ms": self.quantile_ms(0.99),
            "max_ms": self.max_ms,
            "buckets": {
                f"<={edge:g}ms": n
                for edge, n in zip(self.edges_ms, self.counts)
                if n
            } | ({f">{self.edges_ms[-1]:g}ms": self.counts[-1]}
                 if self.counts[-1] else {}),
        }

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges_ms) + 1)
        self.count = 0
        self.sum_ms = 0.0
        self.max_ms = 0.0


class TransportStats:
    """Wire-level counters for one networked store (shared by its clients).

    Tracks what :class:`IOStats` cannot see: how hard the transport had
    to work to complete each logical operation. A cluster hands one
    instance to all of its per-shard clients, so the numbers describe
    the store as the workflow experiences it. Increments are
    lock-guarded because feedback managers fetch through thread pools.

    Counters (all cumulative counts unless noted): ``requests`` —
    attempts that reached the wire; ``retries`` — failed attempts that
    were re-tried, of which ``timeouts`` hit the op timeout and
    ``protocol_errors`` were unframeable responses; ``reconnects`` —
    fresh connections after the first; ``exhausted`` — operations that
    spent the whole retry budget and raised ``StoreUnavailable``;
    ``bytes_sent`` / ``bytes_received`` — payload volume in bytes;
    ``latency`` — a :class:`LatencyHistogram` of round-trip times.

    Replicated-cluster counters: ``failovers`` — reads served by a
    non-primary replica because an earlier replica was down or missed
    the key; ``shard_down_events`` / ``shard_up_events`` — health
    transitions (fail-over and fail-back); ``read_repairs`` — stale or
    missing replica copies refreshed from a healthy peer;
    ``rename_orphans`` — two-phase renames whose delete leg could not
    complete (the source copy survives on a dead shard as a duplicate,
    never as a loss). Pipelining counters: ``batched_requests`` —
    MGET/MSET/MDEL round trips; ``batched_keys`` — keys carried by
    those round trips; ``max_batch_keys`` — the deepest single batch
    (pipeline-depth high-water mark, a count not a cumulative sum).
    ``coalesced_requests`` / ``coalesced_keys`` are always 0: the
    client channel sends each single-key op as its own frame and
    merges none into a batch. They stay so that tools that read them
    (perfbench, older ledgers) keep working.
    Slot-migration counters: ``migrated_slots`` / ``migrated_keys`` —
    hash slots cut over and keys copied by ``migrate_slots``;
    ``dual_writes`` — writes mirrored to both the old and new replica
    windows while their slot was mid-migration; ``route_refreshes`` —
    times this client adopted a newer routing map published by another
    cluster instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.retries = 0
        self.timeouts = 0
        self.reconnects = 0
        self.protocol_errors = 0
        self.exhausted = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.failovers = 0
        self.shard_down_events = 0
        self.shard_up_events = 0
        self.read_repairs = 0
        self.rename_orphans = 0
        self.batched_requests = 0
        self.batched_keys = 0
        self.max_batch_keys = 0
        self.coalesced_requests = 0
        self.coalesced_keys = 0
        self.migrated_slots = 0
        self.migrated_keys = 0
        self.dual_writes = 0
        self.route_refreshes = 0
        self.latency = LatencyHistogram()

    def note_request(self, nbytes_sent: int) -> None:
        with self._lock:
            self.requests += 1
            self.bytes_sent += nbytes_sent

    def note_response(self, nbytes_received: int, seconds: float) -> None:
        with self._lock:
            self.bytes_received += nbytes_received
            self.latency.observe(seconds)

    def note_retry(self, *, timed_out: bool, protocol: bool = False) -> None:
        with self._lock:
            self.retries += 1
            if timed_out:
                self.timeouts += 1
            if protocol:
                self.protocol_errors += 1

    def note_reconnect(self) -> None:
        with self._lock:
            self.reconnects += 1

    def note_exhausted(self) -> None:
        with self._lock:
            self.exhausted += 1

    def note_failover(self) -> None:
        with self._lock:
            self.failovers += 1

    def note_shard_down(self) -> None:
        with self._lock:
            self.shard_down_events += 1

    def note_shard_up(self) -> None:
        with self._lock:
            self.shard_up_events += 1

    def note_read_repair(self, nkeys: int = 1) -> None:
        with self._lock:
            self.read_repairs += nkeys

    def note_rename_orphan(self) -> None:
        with self._lock:
            self.rename_orphans += 1

    def note_batch(self, nkeys: int) -> None:
        with self._lock:
            self.batched_requests += 1
            self.batched_keys += nkeys
            if nkeys > self.max_batch_keys:
                self.max_batch_keys = nkeys

    def note_migration(self, nslots: int, nkeys: int) -> None:
        with self._lock:
            self.migrated_slots += nslots
            self.migrated_keys += nkeys

    def note_dual_write(self) -> None:
        with self._lock:
            self.dual_writes += 1

    def note_route_refresh(self) -> None:
        with self._lock:
            self.route_refreshes += 1

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self.requests,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "reconnects": self.reconnects,
                "protocol_errors": self.protocol_errors,
                "exhausted": self.exhausted,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "failovers": self.failovers,
                "shard_down_events": self.shard_down_events,
                "shard_up_events": self.shard_up_events,
                "read_repairs": self.read_repairs,
                "rename_orphans": self.rename_orphans,
                "batched_requests": self.batched_requests,
                "batched_keys": self.batched_keys,
                "max_batch_keys": self.max_batch_keys,
                "coalesced_requests": self.coalesced_requests,
                "coalesced_keys": self.coalesced_keys,
                "migrated_slots": self.migrated_slots,
                "migrated_keys": self.migrated_keys,
                "dual_writes": self.dual_writes,
                "route_refreshes": self.route_refreshes,
                "latency": self.latency.as_dict(),
            }

    def reset(self) -> None:
        with self._lock:
            self.requests = self.retries = self.timeouts = 0
            self.reconnects = self.protocol_errors = self.exhausted = 0
            self.bytes_sent = self.bytes_received = 0
            self.failovers = self.shard_down_events = self.shard_up_events = 0
            self.read_repairs = self.rename_orphans = 0
            self.batched_requests = self.batched_keys = self.max_batch_keys = 0
            self.coalesced_requests = self.coalesced_keys = 0
            self.migrated_slots = self.migrated_keys = self.dual_writes = 0
            self.route_refreshes = 0
            self.latency.reset()
