"""NetKV: the Redis substitute over real sockets — cluster client and store.

The in-process :mod:`~repro.datastore.kvstore` models the cluster's
semantics; this module provides the same operations over actual TCP so
deployments where components live in different processes (the paper's
WM + thousands of simulation jobs) exercise a real wire protocol. The
transport itself — shard server, client channel, framing — lives in
:mod:`repro.datastore.aio`; ``NetKVServer`` and ``NetKVClient`` are its
:class:`~repro.datastore.aio.AsyncNetKVServer` and
:class:`~repro.datastore.aio.AsyncClientChannel`.

Protocol (text header + raw payload, one request per round trip)::

    request : <CMD> [args...] <payload_len>\\n<payload bytes>
    response: OK <len>\\n<payload>   |   NF\\n   |   ERR <message>\\n

Commands: PING, SET key, GET key, DEL key, KEYS prefix, RENAME src dst,
LEN, FLUSH, SNAPSHOT — plus the pipelined batch commands MGET, MSET,
MSETNX and MDEL, which carry many keys (and values) in a single round
trip::

    MGET <payload_len>\\n<keys joined by NUL>
        -> OK frame whose payload is, per key in order,
           "<n>\\n<value bytes>" (n = -1 and no bytes for a missing key)
    MSET <payload_len>\\n<repeated "<key> <n>\\n<value bytes>" blocks>
        -> OK frame whose payload is the decimal count stored
    MDEL <payload_len>\\n<keys joined by NUL>
        -> OK frame whose payload is one '1'/'0' flag byte per key
           ('1' = the key existed and was deleted)

A :class:`NetKVCluster` client routes keys over several servers with
the same hash-slot rule as the in-process cluster, and can replicate
every hash slot across ``replication`` consecutive shards: writes go
to every replica, reads fail over to the first healthy copy, and the
slice of the keyspace a shard owns only becomes unavailable when *all*
of its replicas are down. Per-shard health is tracked continuously
(fail-over marks a shard down; a cooldown-gated probe fails it back),
and a read-repair pass re-synchronizes replicas after a recovery.
Cross-shard renames are two-phase: the destination copy is fully
acknowledged before the source delete, so a shard death between the
phases can orphan a duplicate but never lose the value.

Transport resilience (§5.1 / §6 — the in-memory store is the campaign's
availability bottleneck):

- every client operation runs under a per-operation timeout and a
  capped exponential-backoff retry loop (:class:`TransportConfig`);
  a dead or flapping server surfaces as
  :class:`~repro.datastore.base.StoreUnavailable` instead of a hang;
- the server validates frames defensively (length fields, header size,
  key charset) and *closes* a connection it can no longer trust rather
  than desyncing on the next request;
- a :class:`~repro.util.faults.NetworkFaultInjector` can be plugged
  into the server to rehearse drops, delays, half-closes, and garbage;
- every retry/timeout/reconnect and round-trip latency lands in a
  shared :class:`~repro.datastore.stats.TransportStats` that
  :func:`repro.core.telemetry.collect_telemetry` reports.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import trace
from repro.datastore.base import (
    DataStore,
    KeyNotFound,
    StoreError,
    StoreUnavailable,
    validate_key,
)
from repro.datastore.aio import (
    AsyncClientChannel,
    AsyncNetKVServer,
    LoopThread,
    TransportConfig,
    WireProtocolError,
)
from repro.datastore.kvstore import _HASH_SLOTS, key_slot
from repro.datastore.stats import TransportStats

__all__ = [
    "TransportConfig",
    "WireProtocolError",
    "NetKVServer",
    "NetKVClient",
    "NetKVCluster",
    "NetKVStore",
]

# The shard server and the single-shard client are the event-loop
# transport's classes under their public names.
NetKVServer = AsyncNetKVServer
NetKVClient = AsyncClientChannel


def _chunks(seq: List, size: int) -> List[List]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


# Internal namespace for deletion markers. A delete that cannot reach
# every replica leaves a tombstone on the replicas it did reach, so the
# anti-entropy pass can tell "deleted while you were down" apart from
# "written while you were down" and does not resurrect tagged keys.
_TOMB = "__repro_tomb__/"

# Reserved key holding the cluster's routing map (slot overrides plus
# in-flight migration state), written to *every* shard so any client —
# including one in a different process — can discover placement changes.
# Durable shards persist it through their WAL, so the map survives a
# full cluster restart.  Excluded from keys()/repair/migration sweeps.
_ROUTE_KEY = "__repro_route__"


class _ShardState:
    """Health record for one shard; mutated under the cluster's health lock."""

    __slots__ = ("up", "down_since", "last_attempt")

    def __init__(self) -> None:
        self.up = True
        self.down_since = 0.0
        self.last_attempt = 0.0


class NetKVCluster:
    """Replicated, slot-routed client over several networked shards.

    Every hash slot lives on ``replication`` consecutive shards (its
    primary plus the following ``replication - 1``, wrapping around).
    Writes go to every healthy replica and succeed with at least one
    acknowledgement; reads try replicas in placement order and fail
    over past dead copies, repairing stale replicas with the value they
    missed. A slot's slice of the keyspace raises
    :class:`StoreUnavailable` only when *all* of its replicas are down.

    Per-shard health is tracked continuously: an operation that
    exhausts its retry budget marks the shard down, after which it is
    skipped until ``probe_cooldown`` elapses; then a single half-open
    probe (or a last-ditch attempt when no other replica is left) may
    fail it back. A recovered shard is queued for an anti-entropy
    repair pass — run automatically at the next operation — that pulls
    the writes it missed, pushes acked writes only it holds, and prunes
    keys its peers saw deleted (tombstones, see ``_TOMB``).

    Each shard gets one coalescing :class:`NetKVClient` channel for
    operations and one single-attempt channel for health probes, all on
    one event loop owned by the cluster. Every channel shares one
    :class:`TransportStats` and one :class:`TransportConfig`, so the
    cluster reports transport health for the store as a whole. With
    ``replication=1`` the behavior is exactly the old single-copy
    cluster.
    """

    def __init__(self, addresses: List[Tuple[str, int]],
                 config: Optional[TransportConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 replication: int = 1,
                 probe_cooldown: float = 0.25,
                 route_refresh: Optional[float] = None) -> None:
        if not addresses:
            raise StoreError("cluster needs at least one server address")
        if replication < 1:
            raise StoreError("replication must be >= 1")
        if probe_cooldown < 0:
            raise StoreError("probe_cooldown must be >= 0")
        self.addresses = [tuple(a) for a in addresses]
        self.config = config or TransportConfig()
        self.stats = TransportStats()
        self.replication = min(int(replication), len(self.addresses))
        self.probe_cooldown = float(probe_cooldown)
        self._rng = rng if rng is not None else np.random.default_rng()
        self._rng_lock = threading.Lock()
        # One event loop per cluster, created lazily on the first op so
        # never-connected clusters (routing-only tests) stay threadless.
        self._loop_thread: Optional[LoopThread] = None
        self._loop_lock = threading.Lock()
        # Concurrent callers share one channel per shard: they become
        # queue depth (and fold into batch frames), not parallel sockets.
        self._channels = [
            NetKVClient(addr, self.config, stats=self.stats,
                        loop_thread=self._get_loop, rng=self._spawn_rng())
            for addr in self.addresses
        ]
        # Probes must answer fast even when the shard is dead: one
        # attempt, no retry ladder.
        probe_cfg = dataclasses.replace(self.config, retries=0)
        self._probers = [
            NetKVClient(addr, probe_cfg, stats=self.stats,
                        loop_thread=self._get_loop, rng=self._spawn_rng())
            for addr in self.addresses
        ]
        self._states = [_ShardState() for _ in self.addresses]
        self._health_lock = threading.Lock()
        self._repair_pending: set = set()
        self._repairing = False
        self._repair_gate = threading.Lock()
        self._tombstones = False
        # Slot routing: by default slot s lives on shard s % n; a
        # finished migration records an override. While a slot is in
        # ``_migrating`` writes go to both windows and reads try the
        # destination first; while it is in ``_draining`` the old copies
        # have not been pruned yet and deletes tombstone both windows.
        # ``_routing_epoch`` bumps on every placement change so
        # operators (and tests) can observe cutovers.
        #
        # The map is not private to this instance: migrations publish
        # it to every shard under ``_ROUTE_KEY`` and every instance
        # re-reads it at most every ``route_refresh`` seconds, so a
        # migration run from another process (the OPERATIONS.md
        # ``repro netkv --migrate`` flow) is observed by long-running
        # daemons before the old copies are cleaned up.
        self._route_lock = threading.Lock()
        self._slot_owner: Dict[int, int] = {}
        self._migrating: Dict[int, int] = {}
        self._draining: Dict[int, int] = {}
        self._routing_epoch = 0
        self.route_refresh = (self.config.route_refresh
                              if route_refresh is None
                              else float(route_refresh))
        if self.route_refresh < 0:
            raise StoreError("route_refresh must be >= 0")
        self._now = time.monotonic  # swappable in tests
        # First poll happens one interval after construction: a fresh
        # client has the same bounded staleness as a running one, and
        # quick one-shot flows (health checks, unit tests) don't pay a
        # per-shard GET they will never need.
        self._route_last = self._now()
        self._route_frozen = False  # True while *we* migrate

    def _spawn_rng(self) -> np.random.Generator:
        # One Generator per client: numpy Generators are not thread-safe.
        with self._rng_lock:
            seed = int(self._rng.integers(0, 2 ** 63))
        return np.random.default_rng(seed)

    def _get_loop(self) -> LoopThread:
        with self._loop_lock:
            if self._loop_thread is None or not self._loop_thread.is_alive():
                self._loop_thread = LoopThread(name="netkv-cluster")
            return self._loop_thread

    # --- placement and health --------------------------------------------

    def _primary_for_slot(self, slot: int) -> int:
        """Owning shard of a hash slot (caller holds ``_route_lock``)."""
        return self._slot_owner.get(slot, slot % len(self._channels))

    def _window(self, primary: int) -> List[int]:
        n = len(self._channels)
        return [(primary + r) % n for r in range(self.replication)]

    def _replicas_for(self, key: str) -> List[int]:
        with self._route_lock:
            primary = self._primary_for_slot(key_slot(key))
        return self._window(primary)

    def _placement(self, key: str) -> Tuple[
            List[int], Optional[List[int]], Optional[List[int]]]:
        """(current window, migration-target window or None, drain
        window or None — the pre-cutover window of a slot whose old
        copies have not been pruned yet)."""
        slot = key_slot(key)
        with self._route_lock:
            primary = self._primary_for_slot(slot)
            dst = self._migrating.get(slot)
            src = self._draining.get(slot)
        window = self._window(primary)
        if dst is not None and dst != primary:
            return window, self._window(dst), None
        if src is not None and src != primary:
            return window, None, self._window(src)
        return window, None, None

    def _migrating_slots(self) -> Optional[Dict[int, int]]:
        """Snapshot of slots needing special handling (mid-migration or
        draining), or None (the common case, so batch routing pays one
        lock acquire and no copies).  Batch ops detour these keys
        through the single-key paths, which know both windows."""
        with self._route_lock:
            if not self._migrating and not self._draining:
                return None
            out = dict(self._draining)
            out.update(self._migrating)
            return out

    # --- shared routing map ----------------------------------------------

    def _route_doc(self) -> bytes:
        with self._route_lock:
            doc = {
                "epoch": self._routing_epoch,
                "owner": {str(s): d for s, d in self._slot_owner.items()},
                "migrating": {str(s): d
                              for s, d in self._migrating.items()},
                "draining": {str(s): d for s, d in self._draining.items()},
            }
        return json.dumps(doc, sort_keys=True).encode("utf-8")

    def _publish_route(self, best_effort: bool = False) -> None:
        """Write the routing map to every reachable shard.

        Written to all shards (not a replica window) because the map
        must be discoverable by a client that can only reach a subset.
        With ``best_effort=False`` at least one shard must ack — a
        migration that nobody else can observe must not proceed to
        prune source copies.
        """
        doc = self._route_doc()
        acked = 0
        last_exc: Optional[StoreError] = None
        for idx in range(len(self._channels)):
            try:
                self._shard_op(idx, lambda c, v=doc: c.set(_ROUTE_KEY, v))
                acked += 1
            except StoreError as exc:
                last_exc = exc
        if not acked and not best_effort:
            raise StoreUnavailable(
                "no shard accepted the routing map") from last_exc

    def _maybe_refresh_route(self) -> None:
        """Time-gated poll of the shared map, called at the top of every
        public operation (like ``_maybe_repair``)."""
        if self.route_refresh <= 0 or self._route_frozen:
            return
        now = self._now()
        if now - self._route_last < self.route_refresh:
            return
        self._route_last = now
        try:
            self._refresh_route()
        except StoreError:
            pass  # every shard down: the operation itself will report it

    def _refresh_route(self) -> None:
        """Adopt the newest published routing map, if any.

        Reads the map from every reachable shard and adopts the highest
        epoch that beats the local one; then (anti-entropy for the map
        itself) rewrites the local map onto shards serving an older or
        missing copy, so the map survives shards that were down when a
        migration published it.
        """
        n = len(self._channels)
        best: Optional[Dict[str, Any]] = None
        best_epoch = -1
        seen: Dict[int, int] = {}
        up, probe, _rest = self._split_health(list(range(n)))
        for idx in up + probe:
            try:
                raw = self._shard_op(idx, lambda c: c.get(_ROUTE_KEY))
            except KeyNotFound:
                seen[idx] = -1
                continue
            except StoreError:
                continue
            try:
                doc = json.loads(raw.decode("utf-8"))
                epoch = int(doc["epoch"])
            except (ValueError, TypeError, KeyError, UnicodeDecodeError):
                continue  # damaged copy; the rewrite below repairs it
            seen[idx] = epoch
            if epoch > best_epoch:
                best, best_epoch = doc, epoch
        adopted = False
        with self._route_lock:
            if (best is not None and not self._route_frozen
                    and best_epoch > self._routing_epoch):
                self._routing_epoch = best_epoch
                self._slot_owner = {
                    int(s): int(d)
                    for s, d in (best.get("owner") or {}).items()}
                self._migrating = {
                    int(s): int(d)
                    for s, d in (best.get("migrating") or {}).items()}
                self._draining = {
                    int(s): int(d)
                    for s, d in (best.get("draining") or {}).items()}
                adopted = True
            local_epoch = self._routing_epoch
        if adopted:
            self.stats.note_route_refresh()
            trace.event("netkv.route_adopt", epoch=local_epoch)
        if local_epoch <= 0:
            return  # pristine cluster: nothing worth republishing
        doc = self._route_doc()
        for idx, epoch in seen.items():
            if epoch < local_epoch:
                try:
                    self._shard_op(idx,
                                   lambda c, v=doc: c.set(_ROUTE_KEY, v))
                except StoreError:
                    pass

    def _route_grace(self) -> None:
        """Sleep out one refresh interval (plus margin) so every live
        client has re-read the published map before the next migration
        phase depends on it."""
        if self.route_refresh > 0:
            time.sleep(self.route_refresh * 1.5)

    def _split_health(self, shards: List[int]) -> Tuple[List[int], List[int], List[int]]:
        """Partition shards into (up, probe-eligible, cooling-down).

        A down shard whose cooldown elapsed claims its probe slot here,
        so concurrent operations don't all pay for the same probe.
        """
        now = self._now()
        up: List[int] = []
        probe: List[int] = []
        rest: List[int] = []
        with self._health_lock:
            for idx in shards:
                st = self._states[idx]
                if st.up:
                    up.append(idx)
                elif now - st.last_attempt >= self.probe_cooldown:
                    st.last_attempt = now
                    probe.append(idx)
                else:
                    rest.append(idx)
        return up, probe, rest

    def _mark_down(self, idx: int) -> None:
        now = self._now()
        with self._health_lock:
            st = self._states[idx]
            st.last_attempt = now
            if not st.up:
                return
            st.up = False
            st.down_since = now
        self.stats.note_shard_down()
        trace.event("netkv.shard_down", shard=idx)

    def _mark_up(self, idx: int) -> None:
        st = self._states[idx]
        if st.up:
            return  # fast path: no lock on the healthy hot path
        with self._health_lock:
            if st.up:
                return
            st.up = True
            self._repair_pending.add(idx)
        self.stats.note_shard_up()
        trace.event("netkv.shard_up", shard=idx,
                    downtime=self._now() - st.down_since)

    def _probe(self, idx: int) -> None:
        """Half-open check of a down shard: one cheap PING, no retries."""
        try:
            self._probers[idx].ping()
        except StoreUnavailable:
            self._mark_down(idx)
        except StoreError:
            self._mark_up(idx)  # it answered, even if with an error
        else:
            self._mark_up(idx)

    def _shard_op(self, idx: int, fn):
        """Run ``fn(channel)`` against shard ``idx``, folding the outcome
        into the shard's health state."""
        try:
            result = fn(self._channels[idx])
        except StoreUnavailable:
            self._mark_down(idx)
            raise
        except StoreError:
            self._mark_up(idx)  # the shard answered
            raise
        self._mark_up(idx)
        return result

    # --- single-key operations -------------------------------------------

    def set(self, key: str, value: bytes) -> None:
        self._maybe_repair()
        self._maybe_refresh_route()
        window, target, _drain = self._placement(key)
        if target is None:
            self._set_window(key, value, window)
            return
        # Dual-write while the slot migrates: the destination window is
        # what survives cutover, so its ack is the one that counts; the
        # source write keeps double-reads fresh and is best-effort.
        self._set_window(key, value, target)
        self.stats.note_dual_write()
        try:
            self._set_window(key, value, window)
        except StoreUnavailable:
            pass

    def _set_window(self, key: str, value: bytes,
                    replicas: List[int]) -> None:
        up, probe, rest = self._split_health(replicas)
        acked: List[int] = []
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal last_exc
            try:
                self._shard_op(idx, lambda c, k=key, v=value: c.set(k, v))
                acked.append(idx)
            except StoreUnavailable as exc:
                last_exc = exc

        for idx in up:
            attempt(idx)
        if not acked:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not acked:
            raise StoreUnavailable(
                f"no replica of {len(replicas)} accepted the write of {key!r}"
            ) from last_exc
        if self._tombstones:
            self._clear_tombstones([key], acked)

    def get(self, key: str) -> bytes:
        self._maybe_repair()
        self._maybe_refresh_route()
        window, target, _drain = self._placement(key)
        if target is None:
            return self._get_window(key, window)
        # Double-read while the slot migrates: the destination window
        # has every write made since migration began; the source still
        # holds the not-yet-copied past. NF only once both say NF.
        first: Optional[BaseException] = None
        try:
            return self._get_window(key, target)
        except (KeyNotFound, StoreUnavailable) as exc:
            first = exc
        try:
            return self._get_window(key, window)
        except KeyNotFound:
            if isinstance(first, StoreUnavailable):
                # The source proves absence of old data, but a write
                # acked by the unreachable destination could exist.
                raise first
            raise

    def _get_window(self, key: str, replicas: List[int]) -> bytes:
        up, probe, rest = self._split_health(replicas)
        attempted: List[int] = []
        nf: List[int] = []
        last_exc: Optional[BaseException] = None
        value: Optional[bytes] = None
        for tier in (up, probe + rest):
            if tier is not up and nf:
                break  # NF from a live replica wins over probing dead ones
            for idx in tier:
                attempted.append(idx)
                try:
                    value = self._shard_op(idx, lambda c, k=key: c.get(k))
                except KeyNotFound:
                    nf.append(idx)
                    continue
                except StoreUnavailable as exc:
                    last_exc = exc
                    continue
                break
            if value is not None or nf:
                break
        for idx in probe:
            if idx not in attempted:
                self._probe(idx)
        if value is None:
            if nf:
                raise KeyNotFound(key)
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for {key!r} are unavailable"
            ) from last_exc
        if len(attempted) > 1:
            self.stats.note_failover()
            trace.event("netkv.failover", key=key, served_by=attempted[-1])
        if nf:
            repaired = 0
            for idx in nf:
                try:
                    self._shard_op(idx, lambda c, k=key, v=value: c.set(k, v))
                    repaired += 1
                except StoreError:
                    pass
            if repaired:
                self.stats.note_read_repair(repaired)
        return value

    def delete(self, key: str) -> None:
        self._maybe_repair()
        self._maybe_refresh_route()
        window, target, drain = self._placement(key)
        if target is None and drain is None:
            self._delete_window(key, window)
            return
        # Delete from both windows; the forced tombstone also stops the
        # migration copier (including the post-cutover straggler pass
        # over a draining slot) from resurrecting this key out of a
        # source read that predates the delete.
        other = target if target is not None else drain
        replicas = list(dict.fromkeys(other + window))
        self._delete_window(key, replicas, force_tombstone=True)

    def _delete_window(self, key: str, replicas: List[int],
                       force_tombstone: bool = False) -> None:
        up, probe, rest = self._split_health(replicas)
        reached: List[int] = []
        found = False
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal found, last_exc
            try:
                self._shard_op(idx, lambda c, k=key: c.delete(k))
                reached.append(idx)
                found = True
            except KeyNotFound:
                reached.append(idx)
            except StoreUnavailable as exc:
                last_exc = exc

        for idx in up:
            attempt(idx)
        if not reached:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for {key!r} are unavailable"
            ) from last_exc
        if force_tombstone or len(reached) < len(replicas):
            self._write_tombstones([key], reached)
        if not found:
            raise KeyNotFound(key)

    def keys(self, prefix: str = "") -> List[str]:
        self._maybe_repair()
        self._maybe_refresh_route()
        n = len(self._channels)
        out: set = set()
        reached: set = set()
        last_exc: Optional[BaseException] = None
        up, probe, rest = self._split_health(list(range(n)))

        def scan(idx: int) -> None:
            nonlocal last_exc
            try:
                out.update(self._shard_op(idx, lambda c, p=prefix: c.keys(p)))
                reached.add(idx)
            except StoreUnavailable as exc:
                last_exc = exc

        for idx in up + probe:
            scan(idx)
        attempted = set(up) | set(probe)
        # Coverage check: a dead shard must not silently erase its slice
        # of the keyspace — every replica window needs a live witness.
        for p in range(n):
            window = [(p + r) % n for r in range(self.replication)]
            if any(w in reached for w in window):
                continue
            for idx in window:
                if idx in attempted:
                    continue
                attempted.add(idx)
                scan(idx)
                if idx in reached:
                    break
            if not any(w in reached for w in window):
                raise StoreUnavailable(
                    f"replica window {window} is entirely unavailable; a key "
                    f"listing would silently lose its keyspace slice"
                ) from last_exc
        # A union scan may see stale keys on a just-recovered replica;
        # its peers' tombstones veto them until repair prunes for real.
        tombs = {k[len(_TOMB):] for k in out if k.startswith(_TOMB)}
        if prefix.startswith(_TOMB):  # explicit tombstone listing (GC)
            return sorted(k for k in out if k.startswith(prefix))
        return sorted(k for k in out
                      if not k.startswith(_TOMB) and k not in tombs
                      and k != _ROUTE_KEY)

    def rename(self, src: str, dst: str) -> None:
        self._maybe_repair()
        self._maybe_refresh_route()
        special = self._migrating_slots()
        src_replicas = self._replicas_for(src)
        if (src_replicas == self._replicas_for(dst)
                and not (special and (key_slot(src) in special
                                      or key_slot(dst) in special))):
            self._rename_native(src, dst, src_replicas)
            return
        # Two-phase cross-shard move: the destination copy is fully
        # acknowledged before the source delete, so a shard death
        # between the phases leaves a duplicate (counted below), never
        # a lost value.
        value = self.get(src)
        self.set(dst, value)
        try:
            self.delete(src)
        except KeyNotFound:
            pass  # a concurrent mover finished the delete first
        except StoreUnavailable:
            self.stats.note_rename_orphan()
            trace.event("netkv.rename_orphan", src=src, dst=dst)

    def _rename_native(self, src: str, dst: str, replicas: List[int]) -> None:
        """Same-window rename: one RENAME round trip per replica."""
        up, probe, rest = self._split_health(replicas)
        reached: List[int] = []
        renamed = False
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal renamed, last_exc
            try:
                self._shard_op(idx, lambda c, s=src, d=dst: c.rename(s, d))
                reached.append(idx)
                renamed = True
            except KeyNotFound:
                reached.append(idx)
            except StoreUnavailable as exc:
                last_exc = exc

        for idx in up:
            attempt(idx)
        if not reached:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for {src!r} are unavailable"
            ) from last_exc
        if not renamed:
            raise KeyNotFound(src)
        if len(reached) < len(replicas):
            self._write_tombstones([src], reached)

    # --- pipelined batch operations --------------------------------------

    def _group_positions(self, keys: List[str],
                         skip: Optional[Dict[int, int]] = None
                         ) -> Dict[int, List[int]]:
        """Key positions grouped by primary shard (batch routing).

        Keys whose slot appears in ``skip`` (in-flight migrations) are
        left out — the caller routes them through the single-key path,
        which knows how to dual-write and double-read.
        """
        n = len(self._channels)
        with self._route_lock:
            owner = dict(self._slot_owner) if self._slot_owner else None
        groups: Dict[int, List[int]] = {}
        for i, k in enumerate(keys):
            slot = key_slot(k)
            if skip is not None and slot in skip:
                continue
            primary = owner.get(slot, slot % n) if owner else slot % n
            groups.setdefault(primary, []).append(i)
        return groups

    def mget(self, keys: List[str]) -> List[Optional[bytes]]:
        """Values for ``keys`` in order (None where missing), batching
        up to ``config.batch_keys`` keys per round trip with per-key
        replica failover and read repair."""
        self._maybe_repair()
        self._maybe_refresh_route()
        keys = list(keys)
        out: List[Optional[bytes]] = [None] * len(keys)
        migrating = self._migrating_slots()
        for primary, positions in sorted(
                self._group_positions(keys, migrating).items()):
            replicas = self._window(primary)
            for chunk in _chunks(positions, self.config.batch_keys):
                self._mget_chunk(keys, chunk, replicas, out)
        if migrating:
            # Keys mid-migration take the double-reading single-key path.
            for i, k in enumerate(keys):
                if key_slot(k) in migrating:
                    try:
                        out[i] = self.get(k)
                    except KeyNotFound:
                        out[i] = None
        return out

    def _mget_chunk(self, keys: List[str], positions: List[int],
                    replicas: List[int], out: List[Optional[bytes]]) -> None:
        up, probe, rest = self._split_health(replicas)
        remaining = list(positions)
        reached: List[Tuple[int, List[int]]] = []  # (shard, positions it lacked)
        last_exc: Optional[BaseException] = None
        nattempt = 0

        def attempt(idx: int) -> None:
            nonlocal remaining, last_exc, nattempt
            nattempt += 1
            try:
                values = self._shard_op(
                    idx, lambda c, ks=[keys[p] for p in remaining]: c.mget(ks))
            except StoreUnavailable as exc:
                last_exc = exc
                return
            still: List[int] = []
            for p, v in zip(remaining, values):
                if v is None:
                    still.append(p)
                else:
                    out[p] = v
            if nattempt > 1 and len(still) < len(remaining):
                self.stats.note_failover()
            reached.append((idx, still))
            remaining = still

        for idx in up:
            attempt(idx)
            if not remaining:
                break
        if not reached:
            for idx in probe + rest:
                attempt(idx)
                if not remaining:
                    break
        else:
            for idx in probe:
                self._probe(idx)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for a {len(positions)}-key "
                f"batch read are unavailable"
            ) from last_exc
        # Read repair: replicas that answered but lacked keys a peer had.
        repaired = 0
        for idx, missed in reached:
            items = [(keys[p], out[p]) for p in missed if out[p] is not None]
            if not items:
                continue
            try:
                self._shard_op(idx, lambda c, it=items: c.mset(it))
                repaired += len(items)
            except StoreError:
                pass
        if repaired:
            self.stats.note_read_repair(repaired)

    def mset(self, items: List[Tuple[str, bytes]]) -> None:
        """Write many key/value pairs, batching per primary shard and
        replicating each batch; raises :class:`StoreUnavailable` if any
        batch gets zero acknowledgements (earlier batches may have
        landed — writes are at-least-once, as with single-key retries)."""
        self._maybe_repair()
        self._maybe_refresh_route()
        items = list(items)
        n = len(self._channels)
        migrating = self._migrating_slots()
        with self._route_lock:
            owner = dict(self._slot_owner) if self._slot_owner else None
        groups: Dict[int, List[Tuple[str, bytes]]] = {}
        detour: List[Tuple[str, bytes]] = []
        for k, v in items:
            slot = key_slot(k)
            if migrating is not None and slot in migrating:
                detour.append((k, v))
                continue
            primary = owner.get(slot, slot % n) if owner else slot % n
            groups.setdefault(primary, []).append((k, v))
        for primary, group in sorted(groups.items()):
            replicas = self._window(primary)
            for chunk in _chunks(group, self.config.batch_keys):
                self._mset_chunk(chunk, replicas)
        for k, v in detour:
            self.set(k, v)  # dual-writes while the slot migrates

    def _mset_chunk(self, chunk: List[Tuple[str, bytes]],
                    replicas: List[int]) -> None:
        up, probe, rest = self._split_health(replicas)
        acked: List[int] = []
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal last_exc
            try:
                self._shard_op(idx, lambda c, it=chunk: c.mset(it))
                acked.append(idx)
            except StoreUnavailable as exc:
                last_exc = exc

        for idx in up:
            attempt(idx)
        if not acked:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not acked:
            raise StoreUnavailable(
                f"no replica of {len(replicas)} accepted a "
                f"{len(chunk)}-key batch write"
            ) from last_exc
        if self._tombstones:
            self._clear_tombstones([k for k, _ in chunk], acked)

    def mdelete(self, keys: List[str]) -> List[bool]:
        """Delete many keys; per-key flags say which existed on any
        replica. Batched per primary shard like :meth:`mget`."""
        self._maybe_repair()
        self._maybe_refresh_route()
        keys = list(keys)
        flags = [False] * len(keys)
        migrating = self._migrating_slots()
        for primary, positions in sorted(
                self._group_positions(keys, migrating).items()):
            replicas = self._window(primary)
            for chunk in _chunks(positions, self.config.batch_keys):
                self._mdel_chunk(keys, chunk, replicas, flags)
        if migrating:
            for i, k in enumerate(keys):
                if key_slot(k) in migrating:
                    try:
                        self.delete(k)  # both windows + copier tombstone
                        flags[i] = True
                    except KeyNotFound:
                        flags[i] = False
        return flags

    def _mdel_chunk(self, keys: List[str], positions: List[int],
                    replicas: List[int], flags: List[bool]) -> None:
        up, probe, rest = self._split_health(replicas)
        chunk_keys = [keys[p] for p in positions]
        reached: List[int] = []
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal last_exc
            try:
                fl = self._shard_op(idx, lambda c, ks=chunk_keys: c.mdelete(ks))
            except StoreUnavailable as exc:
                last_exc = exc
                return
            reached.append(idx)
            for p, f in zip(positions, fl):
                if f:
                    flags[p] = True

        for idx in up:
            attempt(idx)
        if not reached:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for a {len(positions)}-key "
                f"batch delete are unavailable"
            ) from last_exc
        if len(reached) < len(replicas):
            self._write_tombstones(chunk_keys, reached)

    # --- tombstones -------------------------------------------------------

    def _write_tombstones(self, keys: List[str], reached: List[int]) -> None:
        """Mark deletions a down replica missed, on the replicas reached."""
        items = [(_TOMB + k, b"") for k in keys]
        for idx in reached:
            try:
                self._shard_op(idx, lambda c, it=items: c.mset(it))
            except StoreError:
                pass
        self._tombstones = True
        trace.event("netkv.tombstone", keys=len(items))

    def _clear_tombstones(self, keys: List[str], reached: List[int]) -> None:
        """A re-write supersedes any pending deletion marker."""
        tomb_keys = [_TOMB + k for k in keys]
        for idx in reached:
            try:
                self._shard_op(idx, lambda c, ks=tomb_keys: c.mdelete(ks))
            except StoreError:
                pass

    # --- fail-back repair -------------------------------------------------

    def repair(self) -> None:
        """Probe down shards and run any pending anti-entropy passes now.

        This also happens automatically: operations probe cooled-down
        shards as a side effect, and a recovered shard is repaired at
        the next operation's entry. Calling it directly is useful after
        an orchestrated restart.
        """
        with self._health_lock:
            down = [i for i, st in enumerate(self._states) if not st.up]
        for idx in down:
            self._probe(idx)
        self._maybe_repair()

    def _maybe_repair(self) -> None:
        if not self._repair_pending or self._repairing:
            return
        with self._repair_gate:
            if self._repairing:
                return
            self._repairing = True
        try:
            while True:
                with self._health_lock:
                    if not self._repair_pending:
                        break
                    idx = min(self._repair_pending)
                    self._repair_pending.discard(idx)
                self._repair_shard(idx)
            if self._tombstones:
                with self._health_lock:
                    all_up = (not self._repair_pending
                              and all(st.up for st in self._states))
                if all_up:
                    self._gc_tombstones()
        finally:
            self._repairing = False

    def _repair_shard(self, s: int) -> None:
        """Anti-entropy for a recovered shard: prune deletions it missed,
        pull writes it missed, push acked writes only it holds."""
        n = len(self._channels)
        r = self.replication
        if r < 2:
            return
        with trace.span("netkv.repair") as sp:
            try:
                skeys = set(self._shard_op(s, lambda c: c.keys()))
            except StoreError:
                return  # went down again; re-queued at the next fail-back
            skeys.discard(_ROUTE_KEY)  # lives on every shard by design
            peers = sorted({(s + d) % n for d in range(-(r - 1), r)} - {s})
            peer_keys: Dict[int, set] = {}
            all_tombs: set = set()
            for d in peers:
                if not self._states[d].up:
                    continue
                try:
                    dk = set(self._shard_op(d, lambda c: c.keys()))
                except StoreError:
                    continue
                dk.discard(_ROUTE_KEY)
                peer_keys[d] = dk
                all_tombs.update(k[len(_TOMB):] for k in dk
                                 if k.startswith(_TOMB))
            copied = 0
            # 1) prune: keys a healthy peer saw deleted while s was down
            dead = [k for k in skeys
                    if not k.startswith(_TOMB) and k in all_tombs]
            for chunk in _chunks(dead, self.config.batch_keys):
                try:
                    self._shard_op(s, lambda c, ks=chunk: c.mdelete(ks))
                    skeys.difference_update(chunk)
                except StoreError:
                    break
            # 2) pull: live keys peers hold for windows that include s
            for d, dk in peer_keys.items():
                want = [k for k in dk
                        if not k.startswith(_TOMB) and k not in skeys
                        and k not in all_tombs
                        and s in self._replicas_for(k)]
                for chunk in _chunks(want, self.config.batch_keys):
                    try:
                        values = self._shard_op(d, lambda c, ks=chunk: c.mget(ks))
                        items = [(k, v) for k, v in zip(chunk, values)
                                 if v is not None]
                        if items:
                            self._shard_op(s, lambda c, it=items: c.mset(it))
                            copied += len(items)
                            skeys.update(k for k, _ in items)
                    except StoreError:
                        break
            # 3) push: acked writes only s holds (its peers were down too)
            for d, dk in peer_keys.items():
                give = [k for k in skeys
                        if not k.startswith(_TOMB) and k not in dk
                        and k not in all_tombs
                        and d in self._replicas_for(k)]
                for chunk in _chunks(give, self.config.batch_keys):
                    try:
                        values = self._shard_op(s, lambda c, ks=chunk: c.mget(ks))
                        items = [(k, v) for k, v in zip(chunk, values)
                                 if v is not None]
                        if items:
                            self._shard_op(d, lambda c, it=items: c.mset(it))
                            copied += len(items)
                    except StoreError:
                        break
            # 4) prune foreign copies: keys whose slot migrated away
            # while s was down, so s missed the post-cutover cleanup.
            # Keys of a slot still mid-migration or draining are left
            # alone — the source window is live state until the
            # migration's own cleanup retires it.
            foreign: List[str] = []
            with self._route_lock:
                overrides = bool(self._slot_owner)
                migrating = set(self._migrating) | set(self._draining)
            if overrides:
                foreign = [k for k in skeys
                           if not k.startswith(_TOMB)
                           and key_slot(k) not in migrating
                           and s not in self._replicas_for(k)]
                for chunk in _chunks(foreign, self.config.batch_keys):
                    try:
                        self._shard_op(s, lambda c, ks=chunk: c.mdelete(ks))
                    except StoreError:
                        break
            if copied:
                self.stats.note_read_repair(copied)
            if sp:
                sp.set(shard=s, copied=copied,
                       pruned=len(dead) + len(foreign))

    def _gc_tombstones(self) -> None:
        """Drop deletion markers once every shard is healthy again."""
        for idx in range(len(self._channels)):
            try:
                tombs = self._shard_op(idx, lambda c: c.keys(_TOMB))
                for chunk in _chunks(tombs, self.config.batch_keys):
                    self._shard_op(idx, lambda c, ks=chunk: c.mdelete(ks))
            except StoreError:
                return  # a shard vanished again; keep markers, retry later
        self._tombstones = False

    # --- online slot migration --------------------------------------------

    def migrate_slots(self, slots: Iterable[int], dst: int) -> Dict[str, Any]:
        """Move primary ownership of hash ``slots`` to shard ``dst``
        while serving reads and writes — including ones issued by
        *other* cluster instances (a serve daemon, another CLI).

        The routing map is shared state: migrations publish it to the
        shards under a reserved key that every instance polls (and
        durable shards persist), so a migration run from a standalone
        ``repro netkv --migrate`` process is observed by every
        concurrent client within one ``route_refresh`` interval.

        Six phases. (1) Mark + publish: adopt the newest shared map,
        mark the slots migrating (at least one shard must accept the
        published map), and wait out one refresh interval so every live
        client dual-writes (destination ack required) and double-reads
        (destination first). (2) Copy + drain: scan the live keys of
        the moving slots and write the ones the destination lacks with
        MSETNX, so a value dual-written after the scan is never
        clobbered by an older source read; repeat until a pass copies
        nothing.  If the drain never converges (e.g. the destination
        primary is unreachable, so the presence probe keeps failing)
        the migration aborts and rolls back instead of cutting over
        with keys still in flight. (3) Cutover: record the override,
        bump the epoch, publish — the destination window is now
        authoritative; the slots enter a *draining* state in which
        deletes tombstone both windows. (4) Drain stale routes: wait
        another refresh interval so writes issued under the pre-mark
        placement have landed. (5) Straggler pass: one more copy out of
        the old window catches any such late write before it can be
        pruned (the draining-state tombstones keep this pass from
        resurrecting keys deleted after cutover). (6) Cleanup: delete
        the source-side copies that no longer sit in any replica window
        and publish the final map.  A failure after cutover leaves the
        slots draining — re-running the same migration resumes at (5).
        """
        n = len(self._channels)
        dst = int(dst)
        if not 0 <= dst < n:
            raise StoreError(f"destination shard {dst} out of range 0..{n - 1}")
        requested = sorted({int(s) for s in slots})
        for s in requested:
            if not 0 <= s < _HASH_SLOTS:
                raise StoreError(f"slot {s} out of range 0..{_HASH_SLOTS - 1}")
        # Adopt the newest published map first: a fresh CLI process
        # must not publish epoch 1 over a daemon's epoch 40 state.
        self._refresh_route()
        with self._route_lock:
            if self._route_frozen:
                raise StoreError("a migration is already running here")
            stuck = [s for s in requested if s in self._migrating]
            if stuck:
                raise StoreError(f"slots already migrating: {stuck[:8]}")
            astray = [s for s in requested
                      if s in self._draining
                      and self._primary_for_slot(s) != dst]
            if astray:
                raise StoreError(
                    f"slots still draining toward another shard: "
                    f"{astray[:8]}; re-run that migration to finish it")
            # Slots already owned by dst but still draining: resume
            # their interrupted cleanup instead of re-copying.
            resume = {s: self._draining[s] for s in requested
                      if s in self._draining}
            moving = [s for s in requested
                      if s not in resume and self._primary_for_slot(s) != dst]
            src_primary = {s: self._primary_for_slot(s) for s in moving}
            src_primary.update(resume)
            for s in moving:
                self._migrating[s] = dst
            self._routing_epoch += 1
            epoch = self._routing_epoch
            self._route_frozen = bool(moving or resume)
        if not moving and not resume:
            return {"slots": 0, "keys_moved": 0, "epoch": epoch}
        trace.event("netkv.migrate_begin", slots=len(moving),
                    resuming=len(resume), dst=dst)
        moving_set = set(moving)
        all_moving = moving_set | set(resume)
        dst_window = self._window(dst)
        moved = 0
        try:
            if moving:
                # Phase 1: publish the mark. Not best-effort — a mark
                # nobody else can observe must not lead to a cleanup
                # that prunes copies other writers still route to.
                self._publish_route()
                self._route_grace()
                # Phase 2: copy + drain. Writes arriving after the mark
                # dual-write to the destination, so each pass only
                # chases keys that predate it; pass 2 is normally empty.
                copied = 0
                for _ in range(8):
                    copied = self._copy_pass(moving_set, dst, dst_window,
                                             self._replicas_for)
                    moved += copied
                    if copied == 0:
                        break
                if copied:
                    raise StoreUnavailable(
                        f"slot drain did not converge: the final copy "
                        f"pass still moved {copied} key(s) — is the "
                        f"destination primary (shard {dst}) reachable? "
                        f"Rolled back to the source placement.")
        except BaseException:
            # Abort: un-mark so routing falls back to the source window
            # (destination copies are surplus replicas, never stale
            # truth — the source kept receiving every dual-write).
            # Slots that were merely resuming cleanup stay draining.
            with self._route_lock:
                for s in moving:
                    self._migrating.pop(s, None)
                self._routing_epoch += 1
                self._route_frozen = False
            self._publish_route(best_effort=True)
            raise
        # Phase 3: cutover.
        with self._route_lock:
            for s in moving:
                if dst == s % n:
                    self._slot_owner.pop(s, None)  # back to default map
                else:
                    self._slot_owner[s] = dst
                self._migrating.pop(s, None)
                if src_primary[s] != dst:
                    self._draining[s] = src_primary[s]
            self._routing_epoch += 1
            epoch = self._routing_epoch
        try:
            # Publishes after cutover are best-effort: a client still
            # on the mark-epoch map keeps dual-writing/double-reading,
            # which stays correct against the new window — just slower.
            self._publish_route(best_effort=True)
            # Phase 4: wait out clients still routing under the
            # pre-mark placement; their in-flight writes land on the
            # old window within one refresh interval.
            self._route_grace()
            # Phase 5: straggler pass, reading the *old* window (the
            # override now routes to the new one).
            moved += self._copy_pass(
                all_moving, dst, dst_window,
                lambda k: self._window(src_primary[key_slot(k)]))
            # Phase 6: cleanup stale source copies.
            self._cleanup_moved(all_moving, set(src_primary.values()),
                                dst_window)
        except BaseException:
            # Post-cutover failure: ownership stands (the drain
            # converged) but the old copies were not fully reconciled.
            # Leave the slots draining — deletes keep tombstoning both
            # windows and repair leaves the old copies alone — and
            # publish that state; re-running the migration resumes it.
            with self._route_lock:
                self._routing_epoch += 1
                self._route_frozen = False
            self._publish_route(best_effort=True)
            raise
        with self._route_lock:
            for s in all_moving:
                self._draining.pop(s, None)
            self._routing_epoch += 1
            epoch = self._routing_epoch
            self._route_frozen = False
        self._publish_route(best_effort=True)
        self.stats.note_migration(len(moving), moved)
        trace.event("netkv.migrate_cutover", slots=len(moving), keys=moved,
                    dst=dst, epoch=epoch)
        return {"slots": len(moving), "keys_moved": moved, "epoch": epoch}

    def _copy_pass(self, moving: set, dst: int, dst_window: List[int],
                   read_window) -> int:
        """One copy pass: push live keys of ``moving`` slots that the
        destination primary does not hold yet, reading each from
        ``read_window(key)``. Returns keys copied."""
        candidates = [k for k in self.keys() if key_slot(k) in moving]
        copied = 0
        for chunk in _chunks(candidates, max(1, self.config.batch_keys // 2)):
            # Presence check against the destination primary — a key
            # already there came from an earlier pass or a dual-write
            # (fresher than anything the source can tell us), and a
            # tombstone there means it was deleted mid-migration.
            probe = chunk + [_TOMB + k for k in chunk]
            try:
                have = self._shard_op(dst, lambda c, ks=probe: c.mget(ks))
            except StoreError:
                have = [None] * len(probe)  # dst down: MSETNX is idempotent
            need = [k for k, v, t in zip(chunk, have[:len(chunk)],
                                         have[len(chunk):])
                    if v is None and t is None]
            items: List[Tuple[str, bytes]] = []
            for k in need:
                # Read the named window directly: a double-read via
                # get() would consult the destination window first and
                # read-repair the value onto it on overlap, making the
                # MSETNX below report nothing stored and the drain
                # accounting lie. Pre-cutover, _replicas_for still
                # routes to the source; the post-cutover straggler pass
                # passes the captured old window instead.
                try:
                    items.append((k, self._get_window(k, read_window(k))))
                except KeyNotFound:
                    continue  # deleted between the scan and this read
            if items:
                copied += self._msetnx_window(items, dst_window)
        return copied

    def _msetnx_window(self, items: List[Tuple[str, bytes]],
                       replicas: List[int]) -> int:
        """Replicated set-if-absent across a window; ack-on->=1 like
        :meth:`_mset_chunk`. Returns how many keys were actually new."""
        up, probe, rest = self._split_health(replicas)
        acked: List[int] = []
        stored = 0
        last_exc: Optional[BaseException] = None

        def attempt(idx: int) -> None:
            nonlocal stored, last_exc
            try:
                flags = self._shard_op(idx, lambda c, it=items: c.msetnx(it))
            except StoreUnavailable as exc:
                last_exc = exc
                return
            acked.append(idx)
            stored = max(stored, sum(flags))

        for idx in up:
            attempt(idx)
        if not acked:
            for idx in probe + rest:
                attempt(idx)
        else:
            for idx in probe:
                self._probe(idx)
        if not acked:
            raise StoreUnavailable(
                f"no replica of {len(replicas)} accepted a "
                f"{len(items)}-key migration copy"
            ) from last_exc
        return stored

    def _cleanup_moved(self, moving: set, sources: set,
                       dst_window: List[int]) -> None:
        """Post-cutover: drop copies of moved keys from shards that are
        no longer in the slot's replica window (a union key scan would
        otherwise resurrect them in listings after a later delete)."""
        old: set = set()
        for src in sources:
            old.update(self._window(src))
        for idx in sorted(old - set(dst_window)):
            try:
                held = self._shard_op(idx, lambda c: c.keys())
            except StoreError:
                continue  # down: fail-back repair prunes foreign copies
            doomed = [k for k in held if not k.startswith(_TOMB)
                      and k != _ROUTE_KEY and key_slot(k) in moving]
            for chunk in _chunks(doomed, self.config.batch_keys):
                try:
                    self._shard_op(idx, lambda c, ks=chunk: c.mdelete(ks))
                except StoreError:
                    break

    def snapshot_all(self) -> List[Dict[str, Any]]:
        """Ask every shard to write a snapshot and compact its WAL;
        returns one persistence-counter dict per shard."""
        return [self._shard_op(idx, lambda c: c.snapshot())
                for idx in range(len(self._channels))]

    # --- introspection ----------------------------------------------------

    def replica_health(self) -> Dict[str, Any]:
        """Per-shard health snapshot for telemetry and the CLI."""
        with self._health_lock:
            shards = [
                {"address": f"{addr[0]}:{addr[1]}", "up": st.up}
                for addr, st in zip(self.addresses, self._states)
            ]
            pending = len(self._repair_pending)
        with self._route_lock:
            epoch = self._routing_epoch
            overrides = len(self._slot_owner)
            migrating = len(self._migrating)
            draining = len(self._draining)
        return {
            "replication": self.replication,
            "nshards": len(shards),
            "up": sum(1 for s in shards if s["up"]),
            "shards": shards,
            "pending_repairs": pending,
            "routing_epoch": epoch,
            "slot_overrides": overrides,
            "migrating_slots": migrating,
            "draining_slots": draining,
        }

    def close(self) -> None:
        for channel in self._channels + self._probers:
            channel.close()
        with self._loop_lock:
            lt, self._loop_thread = self._loop_thread, None
        if lt is not None:
            lt.stop()


class NetKVStore(DataStore):
    """DataStore adapter over a :class:`NetKVCluster`.

    Drop-in for the in-process ``kv://`` backend when components run in
    separate processes; the feedback managers work against it unchanged.
    """

    def __init__(self, cluster: NetKVCluster) -> None:
        self.cluster = cluster

    @classmethod
    def connect(cls, addresses: List[Tuple[str, int]],
                config: Optional[TransportConfig] = None,
                rng: Optional[np.random.Generator] = None,
                replication: int = 1,
                probe_cooldown: float = 0.25,
                route_refresh: Optional[float] = None) -> "NetKVStore":
        return cls(NetKVCluster(addresses, config=config, rng=rng,
                                replication=replication,
                                probe_cooldown=probe_cooldown,
                                route_refresh=route_refresh))

    @property
    def transport_stats(self) -> TransportStats:
        """Wire-level counters across every shard of the cluster."""
        return self.cluster.stats

    def replica_health(self) -> Dict[str, Any]:
        """Per-shard health snapshot (see NetKVCluster.replica_health)."""
        return self.cluster.replica_health()

    def migrate_slots(self, slots: Iterable[int], dst: int) -> Dict[str, Any]:
        """Online resharding (see NetKVCluster.migrate_slots)."""
        return self.cluster.migrate_slots(slots, dst)

    def snapshot_all(self) -> List[Dict[str, Any]]:
        """Snapshot + WAL-compact every shard (persistent servers only)."""
        return self.cluster.snapshot_all()

    def write(self, key: str, data: bytes) -> None:
        self.cluster.set(validate_key(key), data)

    def read(self, key: str) -> bytes:
        return self.cluster.get(key)

    def delete(self, key: str) -> None:
        self.cluster.delete(key)

    def keys(self, prefix: str = "") -> List[str]:
        return self.cluster.keys(prefix)

    def move(self, src: str, dst: str) -> None:
        self.cluster.rename(src, validate_key(dst))

    # --- batched overrides (one MGET/MSET/MDEL round trip per shard) ------
    #
    # __init_subclass__ auto-instruments only the five primitives, so
    # these count their own IOStats and open their own trace spans.

    def read_present(self, keys: Iterable[str]) -> Dict[str, bytes]:
        keys = list(keys)
        with trace.span("store.read_many") as sp:
            values = self.cluster.mget(keys)
            out = {k: v for k, v in zip(keys, values) if v is not None}
            for v in out.values():
                self.stats.note("read", len(v))
            if sp:
                sp.set(keys=len(keys), found=len(out),
                       bytes=sum(len(v) for v in out.values()))
        return out

    def read_many(self, keys: Iterable[str]) -> Dict[str, bytes]:
        keys = list(keys)
        found = self.read_present(keys)
        for k in keys:
            if k not in found:
                raise KeyNotFound(k)
        return found

    def write_many(self, items: Union[Mapping[str, bytes],
                                      Iterable[Tuple[str, bytes]]]) -> None:
        pairs = list(items.items()) if hasattr(items, "items") else list(items)
        with trace.span("store.write_many") as sp:
            self.cluster.mset([(validate_key(k), v) for k, v in pairs])
            for _, v in pairs:
                self.stats.note("write", len(v))
            if sp:
                sp.set(keys=len(pairs), bytes=sum(len(v) for _, v in pairs))

    def delete_many(self, keys: Iterable[str]) -> int:
        keys = list(keys)
        with trace.span("store.delete_many") as sp:
            flags = self.cluster.mdelete(keys)
            for _ in keys:
                self.stats.note("delete")
            removed = sum(flags)
            if sp:
                sp.set(keys=len(keys), removed=removed)
        return removed

    def close(self) -> None:
        self.cluster.close()
