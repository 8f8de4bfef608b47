"""NetKV: the Redis substitute — cluster client, router and store.

:class:`NetKVCluster` is the one replicated, slot-routed KV client.
Over TCP shards (``netkv://``) components in different processes (the
paper's WM + thousands of simulation jobs) exercise a real wire
protocol; over in-process :class:`~repro.datastore.aio.LocalShard`
channels (``kv://``, the chaos harness) the same routing, replication
and listing code runs with no socket and no thread, and differs from
the TCP cluster only by the wire. The transport itself — shard
server, client channel, framing — lives in :mod:`repro.datastore.aio`;
``NetKVServer`` and ``NetKVClient`` are its
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

A :class:`NetKVCluster` client routes keys over several servers by
Redis Cluster's hash-slot rule (:func:`key_slot`), and can replicate
every hash slot across ``replication`` consecutive shards: writes go
to every replica at once, reads fail over to the first healthy copy,
and the slice of the keyspace a shard owns only becomes unavailable
when *all* of its replicas are down. Every op sends all of its
per-shard requests (replicas, batch windows and chunks, listing
shards) before it waits for any reply. Per-shard health is tracked
continuously (fail-over marks a shard down; a cooldown-gated probe
fails it back), and a read-repair pass re-synchronizes replicas after
a recovery. A rename within one
slot (keys sharing a ``{hash tag}``, as the WM's feedback keys do) is
one native RENAME per replica; a cross-slot rename is two-phase: the
destination copy is fully acknowledged before the source delete, so a
shard death between the phases can orphan a duplicate but never lose
the value.

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
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Tuple, Union)

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
    TransportConfig,
    WireProtocolError,
)
from repro.datastore.stats import TransportStats

__all__ = [
    "TransportConfig",
    "WireProtocolError",
    "NetKVServer",
    "NetKVClient",
    "NetKVCluster",
    "NetKVStore",
    "key_slot",
]

# The shard server and the single-shard client are the transport's
# classes under their public names.
NetKVServer = AsyncNetKVServer
NetKVClient = AsyncClientChannel


_HASH_SLOTS = 16384  # as in Redis Cluster


def _crc16_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
        table.append(crc)
    return table


_CRC16_TABLE = _crc16_table()


def _crc16(data: bytes) -> int:
    """CRC16-CCITT (XModem), the hash Redis Cluster uses for slotting.

    Table-driven (one lookup per byte): key_slot sits on the routing
    hot path of every cluster operation, and batched mget/mset hash
    each key of the batch, so the bit-by-bit loop showed up as the
    single largest cost in pipelined round trips.
    """
    crc = 0
    table = _CRC16_TABLE
    for byte in data:
        crc = ((crc << 8) & 0xFFFF) ^ table[(crc >> 8) ^ byte]
    return crc


def key_slot(key: str) -> int:
    """Hash slot for a key (honors Redis-style ``{hash tags}``)."""
    raw = key
    lb = key.find("{")
    if lb != -1:
        rb = key.find("}", lb + 1)
        if rb != -1 and rb > lb + 1:
            raw = key[lb + 1 : rb]
    return _crc16(raw.encode("utf-8")) % _HASH_SLOTS


def _chunks(seq: List, size: int) -> List[List]:
    return [seq[i:i + size] for i in range(0, len(seq), size)]


# Internal namespace for deletion markers. A delete that cannot reach
# every replica leaves a tombstone on the replicas it did reach, so the
# anti-entropy pass can tell "deleted while you were down" apart from
# "written while you were down" and does not resurrect tagged keys.
_TOMB = "__repro_tomb__/"

# Internal namespace for missed-write markers, the mirror image of
# tombstones. A write that cannot reach every replica leaves a marker
# (value: the write's stamp) on the replicas that took it, so fail-back
# repair can tell the returning replica's copy is stale and overwrite
# it — "lacks the key" is not the only way to have missed a write.
_MISSED = "__repro_missed__/"

# Reserved key holding the cluster's routing map (slot overrides plus
# in-flight migration state), written to *every* shard so any client —
# including one in a different process — can discover placement changes.
# Durable shards persist it through their WAL, so the map survives a
# full cluster restart.  Excluded from keys()/repair/migration sweeps.
_ROUTE_KEY = "__repro_route__"


def _stamp(raw: Optional[bytes]) -> int:
    """A marker's stamp: -1 for no marker, 0 for an unstamped one."""
    return -1 if raw is None else int(raw or b"0")


def _internal(key: str) -> bool:
    """Keys the cluster keeps for itself (markers, routing map)."""
    return key.startswith((_TOMB, _MISSED)) or key == _ROUTE_KEY


def _outcomes(got: List[Tuple[int, Any]]) -> Tuple[
        List[Tuple[int, Any]], List[int], Optional[StoreUnavailable]]:
    """Split one window's ``[(shard, outcome)]`` into (replies, shards
    that answered NF, the last StoreUnavailable). Any other error is
    raised, as the request itself would have raised it."""
    replies: List[Tuple[int, Any]] = []
    nf: List[int] = []
    down: Optional[StoreUnavailable] = None
    for idx, outcome in got:
        if isinstance(outcome, KeyNotFound):
            nf.append(idx)
        elif isinstance(outcome, StoreUnavailable):
            down = outcome
        elif isinstance(outcome, StoreError):
            raise outcome
        else:
            replies.append((idx, outcome))
    return replies, nf, down


def _answered(got: List[Tuple[int, Any]]) -> List[int]:
    """Shards of ``[(shard, outcome)]`` that answered at all."""
    return [idx for idx, o in got if not isinstance(o, StoreUnavailable)]


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
    over past dead copies, repairing replicas that lack the value. A
    slot's slice of the keyspace raises :class:`StoreUnavailable` only
    when no replica that can answer for it is up.

    An op that touches several shards sends all of its per-shard
    requests through :meth:`_gather`: every request is sent before any
    reply is awaited, so the replicas of a write, the windows and
    chunks of a batch and the shards of a listing cost one round trip
    together, not one each.
    Only failover (the next replica after a miss) is sequential.

    Per-shard health is tracked continuously: an operation that
    exhausts its retry budget marks the shard down, after which it is
    skipped until ``probe_cooldown`` elapses; then a single half-open
    probe (or a last-ditch attempt when no other replica is left) may
    fail it back. A recovered shard is queued for an anti-entropy
    repair pass — run automatically at the next operation — that
    settles keys a partial write or delete marked (``_MISSED``,
    ``_TOMB``), pulls the writes it missed and pushes acked writes only
    it holds. Until that pass has reached every peer it shares a window
    with, the shard takes writes but answers nothing for that window.

    Each shard gets one :class:`NetKVClient` channel for operations and
    one single-attempt channel for health probes; a channel sends and
    reads on the calling thread, so the cluster starts no thread. Every
    channel shares one :class:`TransportStats` and one
    :class:`TransportConfig`, so the cluster reports transport health
    for the store as a whole. With ``replication=1`` the behavior is
    exactly the old single-copy cluster.

    ``channels`` replaces the socket channels with given objects that
    speak the same ``_post``/``_wait``/``_discard`` calls (one per
    address; they also answer the health probes), such as
    :class:`~repro.datastore.aio.LocalShard`: ``kv://`` is this class
    over in-process shards, and the chaos harness runs it that way too,
    with ``clock`` replacing ``time.monotonic`` by virtual time.
    """

    def __init__(self, addresses: List[Tuple[str, int]],
                 config: Optional[TransportConfig] = None,
                 rng: Optional[np.random.Generator] = None,
                 replication: int = 1,
                 probe_cooldown: float = 0.25,
                 route_refresh: Optional[float] = None,
                 *, channels: Optional[List[Any]] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
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
        if channels is not None:
            if len(channels) != len(self.addresses):
                raise StoreError("need exactly one channel per address")
            self._channels = list(channels)
            self._probers = self._channels
        else:
            # One channel per shard; concurrent callers each use one of
            # its pooled connections while their request is out.
            self._channels = [
                NetKVClient(addr, self.config, stats=self.stats,
                            rng=self._spawn_rng())
                for addr in self.addresses
            ]
            # Probes must answer fast even when the shard is dead: one
            # attempt, no retry ladder.
            probe_cfg = dataclasses.replace(self.config, retries=0)
            self._probers = [
                NetKVClient(addr, probe_cfg, stats=self.stats,
                            rng=self._spawn_rng())
                for addr in self.addresses
            ]
        self._states = [_ShardState() for _ in self.addresses]
        self._health_lock = threading.Lock()
        self._repair_pending: set = set()
        # Shard -> peers it may still be missing writes from. Set in
        # full when a shard fails back; its repair narrows it to the
        # peers it could not reach. Such a shard takes writes, but its
        # answers do not count for a window holding one of those peers.
        self._behind: Dict[int, set] = {}
        self._repairing = False
        self._repair_gate = threading.Lock()
        self._tombstones = False
        self._markers = False  # tombstones or missed-write markers exist
        self._stamp = 0        # last missed-write stamp handed out
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
        self._now = clock or time.monotonic
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
        outcomes = self._gather([(idx, "set", (_ROUTE_KEY, self._route_doc()))
                                 for idx in range(len(self._channels))])
        if not best_effort and all(isinstance(o, StoreError)
                                   for o in outcomes):
            raise StoreUnavailable(
                "no shard accepted the routing map") from outcomes[-1]

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
        for idx, raw in zip(up + probe, self._gather(
                [(idx, "get", (_ROUTE_KEY,)) for idx in up + probe])):
            if isinstance(raw, KeyNotFound):
                seen[idx] = -1
                continue
            if isinstance(raw, StoreError):
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
        self._gather([(idx, "set", (_ROUTE_KEY, doc))
                      for idx, epoch in seen.items() if epoch < local_epoch])

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
            peers = self._peers(idx)
            if peers:
                self._behind[idx] = peers
            # Shards that could not reach this one in their own repair
            # can finish it now.
            self._repair_pending.update(
                s for s, missing in self._behind.items() if idx in missing)
        self.stats.note_shard_up()
        trace.event("netkv.shard_up", shard=idx,
                    downtime=self._now() - st.down_since)

    def _peers(self, s: int) -> set:
        """Shards that share a replica window with shard ``s``."""
        n = len(self._channels)
        r = self.replication
        return {(s + d) % n for d in range(-(r - 1), r)} - {s}

    def _suspect(self, idx: int, replicas: List[int]) -> bool:
        """Whether ``idx`` may lack writes a peer in ``replicas`` took:
        it failed back and has not been repaired against that peer."""
        missing = self._behind.get(idx)
        return bool(missing) and not missing.isdisjoint(replicas)

    def _probe(self, shards: List[int]) -> None:
        """Half-open check of down shards: one cheap PING each (no
        retries), all sent together."""
        if shards:
            self._gather([(idx, "ping", ()) for idx in shards], self._probers)

    def _gather(self, reqs: List[Tuple[int, str, tuple]],
                channels: Optional[List[Any]] = None) -> List[Any]:
        """Run the per-shard requests ``(shard, op, args)`` together.

        Every request is sent on its channel before any reply is
        awaited; then each reply is read. Each outcome, the reply or
        the :class:`StoreError` it raised, is folded into its shard's
        health in request order (StoreUnavailable marks the shard down;
        any answer, an error included, marks it up) and returned in
        that order. Any other exception releases the requests still
        unread (``_discard``) before it propagates.
        """
        chans = self._channels if channels is None else channels
        handles: List[Any] = []
        out: List[Any] = []
        try:
            for idx, op, args in reqs:
                try:
                    handles.append(chans[idx]._post(op, args))
                except StoreError as exc:
                    handles.append(exc)
            for (idx, _, _), handle in zip(reqs, handles):
                if isinstance(handle, StoreError):
                    outcome = handle
                else:
                    try:
                        outcome = chans[idx]._wait(handle)
                    except StoreError as exc:
                        outcome = exc
                if isinstance(outcome, StoreUnavailable):
                    self._mark_down(idx)
                else:
                    self._mark_up(idx)
                out.append(outcome)
        finally:
            for (idx, _, _), handle in zip(reqs[len(out):],
                                           handles[len(out):]):
                if not isinstance(handle, StoreError):
                    chans[idx]._discard(handle)
        return out

    def _shard_op(self, idx: int, op: str, *args):
        """One request to shard ``idx``: its reply, or its error raised."""
        outcome = self._gather([(idx, op, args)])[0]
        if isinstance(outcome, StoreError):
            raise outcome
        return outcome

    def _fan_out(self, calls: List[Tuple[List[int], str, tuple]],
                 last_ditch: bool = True, skip_suspect: bool = False
                 ) -> List[List[Tuple[int, Any]]]:
        """Send each call ``(replicas, op, args)`` to the up replicas of
        its window, every call in one :meth:`_gather`.

        A window that no replica answered then tries its down replicas
        as a last resort (one more gather for all such windows), or,
        without ``last_ditch``, only probes them; the other windows
        probe the down replicas whose cooldown is over. With
        ``skip_suspect``, replicas that may have missed writes sit the
        call out. Returns each call's ``[(shard, outcome)]``.
        """
        plans = []
        for replicas, _, _ in calls:
            up, probe, rest = self._split_health(replicas)
            if skip_suspect:
                up = [idx for idx in up if not self._suspect(idx, replicas)]
            plans.append((up, probe, rest))
        outcomes = iter(self._gather([
            (idx, op, args)
            for (_, op, args), (up, _, _) in zip(calls, plans) for idx in up]))
        results = [[(idx, next(outcomes)) for idx in up] for up, _, _ in plans]
        retry: List[Tuple[int, int, str, tuple]] = []
        probes: List[int] = []
        for n, ((_, op, args), (_, probe, rest)) in enumerate(zip(calls, plans)):
            if any(not isinstance(o, StoreUnavailable) for _, o in results[n]):
                probes += probe
            elif last_ditch:
                retry += [(n, idx, op, args) for idx in probe + rest]
            else:
                probes += probe + rest
        if retry:
            for (n, idx, _, _), o in zip(retry, self._gather(
                    [(idx, op, args) for _, idx, op, args in retry])):
                results[n].append((idx, o))
        self._probe(probes)
        return results

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
        (got,) = self._fan_out([(replicas, "set", (key, value))])
        acked, _, last_exc = _outcomes(got)
        if not acked:
            raise StoreUnavailable(
                f"no replica of {len(replicas)} accepted the write of {key!r}"
            ) from last_exc
        self._after_write([key], [idx for idx, _ in acked], replicas)

    def _after_write(self, keys: List[str], acked: List[int],
                     replicas: List[int]) -> None:
        """Mark a write the window did not fully take; drop tombstones
        it supersedes. Costs nothing when every replica acked and no
        tombstone exists."""
        if len(acked) < len(replicas):
            self._mark_missed(keys, acked)
        if self._tombstones:
            self._clear_tombstones(keys, acked)

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
                    value = self._shard_op(idx, "get", key)
                except KeyNotFound:
                    if not self._suspect(idx, replicas):
                        nf.append(idx)
                    continue
                except StoreUnavailable as exc:
                    last_exc = exc
                    continue
                if self._suspect(idx, replicas):
                    value = None  # possibly stale: not an answer
                    continue
                break
            if value is not None or nf:
                break
        self._probe([idx for idx in probe if idx not in attempted])
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
            repaired = sum(not isinstance(o, StoreError) for o in self._gather(
                [(idx, "set", (key, value)) for idx in nf]))
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
        (got,) = self._fan_out([(replicas, "delete", (key,))])
        deleted, _, last_exc = _outcomes(got)
        reached = _answered(got)
        if all(self._suspect(idx, replicas) for idx in reached):
            raise StoreUnavailable(
                f"no replica for {key!r} that can vouch for it is available"
            ) from last_exc
        if force_tombstone or len(reached) < len(replicas):
            self._write_tombstones([key], reached)
        if not deleted:
            raise KeyNotFound(key)

    def keys(self, prefix: str = "") -> List[str]:
        self._maybe_repair()
        self._maybe_refresh_route()
        n = len(self._channels)
        out: set = set()
        reached: set = set()
        last_exc: Optional[BaseException] = None
        up, probe, rest = self._split_health(list(range(n)))

        def scan(shards: List[int]) -> None:
            nonlocal last_exc
            for idx, o in zip(shards, self._gather(
                    [(idx, "keys", (prefix,)) for idx in shards])):
                if isinstance(o, StoreUnavailable):
                    last_exc = o
                elif isinstance(o, StoreError):
                    raise o
                else:
                    out.update(o)
                    reached.add(idx)

        def witnessed(window: List[int]) -> bool:
            return any(w in reached and not self._suspect(w, window)
                       for w in window)

        scan(up + probe)
        attempted = set(up) | set(probe)
        # Coverage check: a dead shard must not silently erase its slice
        # of the keyspace — every replica window needs a live witness
        # that is not missing writes another window member took.
        for p in range(n):
            window = [(p + r) % n for r in range(self.replication)]
            if witnessed(window):
                continue
            for idx in window:
                if idx in attempted:
                    continue
                attempted.add(idx)
                scan([idx])
                if witnessed(window):
                    break
            if not witnessed(window):
                raise StoreUnavailable(
                    f"replica window {window} is entirely unavailable; a key "
                    f"listing would silently lose its keyspace slice"
                ) from last_exc
        # A union scan may see stale keys on a just-recovered replica;
        # its peers' tombstones veto them until repair prunes for real.
        tombs = {k[len(_TOMB):] for k in out if k.startswith(_TOMB)}
        if prefix.startswith(_TOMB):  # explicit tombstone listing (GC)
            return sorted(k for k in out if k.startswith(prefix))
        return sorted(k for k in out if not _internal(k) and k not in tombs)

    def rename(self, src: str, dst: str) -> None:
        self._maybe_repair()
        self._maybe_refresh_route()
        special = self._migrating_slots()
        migrating = bool(special) and (key_slot(src) in special
                                       or key_slot(dst) in special)
        src_replicas = self._replicas_for(src)
        dst_replicas = self._replicas_for(dst)
        if src_replicas == dst_replicas and not migrating:
            self._rename_native(src, dst, src_replicas)
            return
        # Two-phase cross-shard move: the destination copy is fully
        # acknowledged before the source delete, so a shard death
        # between the phases leaves a duplicate (counted below), never
        # a lost value. Keys that share a hash tag never take this path.
        # A migrating slot needs the public paths, which know both of
        # its windows; otherwise one window per key is the whole story.
        if migrating:
            self.set(dst, self.get(src))
        else:
            self._set_window(dst, self._get_window(src, src_replicas),
                             dst_replicas)
        try:
            if migrating:
                self.delete(src)
            else:
                self._delete_window(src, src_replicas)
        except KeyNotFound:
            pass  # a concurrent mover finished the delete first
        except StoreUnavailable:
            self.stats.note_rename_orphan()
            trace.event("netkv.rename_orphan", src=src, dst=dst)

    def _rename_native(self, src: str, dst: str, replicas: List[int]) -> None:
        """Same-window rename: one RENAME per replica, all sent together.

        Replicas that may have missed writes sit it out (they could move
        a stale ``src``); the tombstone and marker below catch them up
        at repair. A down replica with peers is only probed, since it
        would fail back unrepaired.
        """
        (got,) = self._fan_out([(replicas, "rename", (src, dst))],
                               last_ditch=self.replication == 1,
                               skip_suspect=True)
        renamed, _, last_exc = _outcomes(got)
        reached = _answered(got)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for {src!r} are unavailable"
            ) from last_exc
        if not renamed:
            raise KeyNotFound(src)
        if len(reached) < len(replicas):
            self._write_tombstones([src], reached)
        if len(renamed) < len(replicas):
            self._mark_missed([dst], [idx for idx, _ in renamed])

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

    def _batches(self, keys: List[str], migrating: Optional[Dict[int, int]]
                 ) -> List[Tuple[List[int], List[int]]]:
        """``(replica window, key positions)`` per batch round trip."""
        return [(self._window(primary), chunk)
                for primary, positions in sorted(
                    self._group_positions(keys, migrating).items())
                for chunk in _chunks(positions, self.config.batch_keys)]

    def mget(self, keys: List[str]) -> List[Optional[bytes]]:
        """Values for ``keys`` in order (None where missing), batching
        up to ``config.batch_keys`` keys per round trip with per-key
        replica failover and read repair. Each batch's first-choice
        replica is asked in one gather for all batches."""
        self._maybe_repair()
        self._maybe_refresh_route()
        keys = list(keys)
        out: List[Optional[bytes]] = [None] * len(keys)
        migrating = self._migrating_slots()
        batches = self._batches(keys, migrating)
        plans = [self._split_health(replicas) for replicas, _ in batches]
        firsts = iter(self._gather([
            (up[0], "mget", ([keys[p] for p in chunk],))
            for (_, chunk), (up, _, _) in zip(batches, plans) if up]))
        for (replicas, chunk), plan in zip(batches, plans):
            self._mget_chunk(keys, chunk, replicas, out, plan,
                             next(firsts) if plan[0] else None)
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
                    replicas: List[int], out: List[Optional[bytes]],
                    plan: Tuple[List[int], List[int], List[int]],
                    first: Any) -> None:
        """Finish one batch read given its first-choice replica's
        outcome ``first``: fail over, one replica at a time, for the
        keys still missing, then read-repair the replicas that lacked
        them."""
        up, probe, rest = plan
        remaining = list(positions)
        reached: List[Tuple[int, List[int]]] = []  # (shard, positions it lacked)
        last_exc: Optional[BaseException] = None
        nattempt = 0

        def attempt(idx: int) -> None:
            nonlocal remaining, last_exc, nattempt
            nattempt += 1
            if nattempt == 1 and up:
                values = first  # asked together with the other batches
            else:
                values = self._gather(
                    [(idx, "mget", ([keys[p] for p in remaining],))])[0]
            if isinstance(values, StoreUnavailable):
                last_exc = values
                return
            if isinstance(values, StoreError):
                raise values
            if self._suspect(idx, replicas):
                return  # possibly stale: its answers do not count
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
            self._probe(probe)
        if not reached:
            raise StoreUnavailable(
                f"all {len(replicas)} replica(s) for a {len(positions)}-key "
                f"batch read are unavailable"
            ) from last_exc
        # Read repair: replicas that answered but lacked keys a peer had.
        repairs = [(idx, [(keys[p], out[p]) for p in missed
                          if out[p] is not None])
                   for idx, missed in reached]
        repairs = [(idx, items) for idx, items in repairs if items]
        repaired = sum(len(items) for (_, items), o in zip(
            repairs, self._gather([(idx, "mset", (items,))
                                   for idx, items in repairs]))
                       if not isinstance(o, StoreError))
        if repaired:
            self.stats.note_read_repair(repaired)

    def mset(self, items: List[Tuple[str, bytes]]) -> None:
        """Write many key/value pairs, batching per primary shard and
        replicating each batch, every batch and replica sent together;
        raises :class:`StoreUnavailable` if any batch gets zero
        acknowledgements (the other batches may have landed — writes
        are at-least-once, as with single-key retries)."""
        self._maybe_repair()
        self._maybe_refresh_route()
        items = list(items)
        migrating = self._migrating_slots()
        keys = [k for k, _ in items]
        batches = [(replicas, [items[p] for p in chunk])
                   for replicas, chunk in self._batches(keys, migrating)]
        results = self._fan_out([(replicas, "mset", (chunk,))
                                 for replicas, chunk in batches])
        failed = None
        for (replicas, chunk), got in zip(batches, results):
            acked, _, last_exc = _outcomes(got)
            if not acked:
                failed = failed or (
                    f"no replica of {len(replicas)} accepted a "
                    f"{len(chunk)}-key batch write", last_exc)
                continue
            self._after_write([k for k, _ in chunk],
                              [idx for idx, _ in acked], replicas)
        if failed:
            raise StoreUnavailable(failed[0]) from failed[1]
        if migrating:
            for k, v in items:
                if key_slot(k) in migrating:
                    self.set(k, v)  # dual-writes while the slot migrates

    def mdelete(self, keys: List[str]) -> List[bool]:
        """Delete many keys; per-key flags say which existed on any
        replica. Batched per primary shard like :meth:`mset`."""
        self._maybe_repair()
        self._maybe_refresh_route()
        keys = list(keys)
        flags = [False] * len(keys)
        migrating = self._migrating_slots()
        batches = self._batches(keys, migrating)
        results = self._fan_out([
            (replicas, "mdelete", ([keys[p] for p in chunk],))
            for replicas, chunk in batches])
        failed = None
        for (replicas, chunk), got in zip(batches, results):
            answered, _, last_exc = _outcomes(got)
            for _, fl in answered:
                for p, f in zip(chunk, fl):
                    if f:
                        flags[p] = True
            reached = [idx for idx, _ in answered]
            if all(self._suspect(idx, replicas) for idx in reached):
                failed = failed or (
                    f"no replica for a {len(chunk)}-key batch delete that "
                    f"can vouch for it is available", last_exc)
                continue
            if len(reached) < len(replicas):
                self._write_tombstones([keys[p] for p in chunk], reached)
        if failed:
            raise StoreUnavailable(failed[0]) from failed[1]
        if migrating:
            for i, k in enumerate(keys):
                if key_slot(k) in migrating:
                    try:
                        self.delete(k)  # both windows + copier tombstone
                        flags[i] = True
                    except KeyNotFound:
                        flags[i] = False
        return flags

    # --- tombstones -------------------------------------------------------

    def _write_markers(self, prefix: str, marks: Dict[int, List[str]],
                       value: bytes) -> None:
        """Write marker ``prefix + key`` = ``value`` for each shard's keys."""
        self._gather([(idx, "mset", ([(prefix + k, value) for k in keys],))
                      for idx, keys in marks.items() if keys])
        self._markers = True

    def _next_stamp(self) -> bytes:
        """Order of markers for one key: this client's clock in µs,
        strictly increasing, so repair can tell which one is newest."""
        self._stamp = max(self._stamp + 1, int(self._now() * 1e6))
        return b"%d" % self._stamp

    def _write_tombstones(self, keys: List[str], reached: List[int]) -> None:
        """Mark deletions a down replica missed, on the replicas reached."""
        self._write_markers(_TOMB, dict.fromkeys(reached, keys),
                            self._next_stamp())
        self._tombstones = True
        trace.event("netkv.tombstone", keys=len(keys))

    def _mark_missed(self, keys: List[str], reached: List[int]) -> None:
        """Mark writes a replica missed, on the replicas that took them."""
        self._write_markers(_MISSED, dict.fromkeys(reached, keys),
                            self._next_stamp())
        trace.event("netkv.missed_write", keys=len(keys))

    def _clear_tombstones(self, keys: List[str], reached: List[int]) -> None:
        """A re-write supersedes any pending deletion marker."""
        tomb_keys = [_TOMB + k for k in keys]
        self._gather([(idx, "mdelete", (tomb_keys,)) for idx in reached])

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
        self._probe(down)
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
            if self._markers:
                with self._health_lock:
                    all_up = (not self._repair_pending
                              and all(st.up for st in self._states))
                if all_up:
                    self._gc_markers()
        finally:
            self._repairing = False

    def _repair_shard(self, s: int) -> None:
        """Anti-entropy for a recovered shard: settle every key a partial
        write or delete marked, pull writes it missed, and push acked
        writes only it holds."""
        if self.replication < 2:
            return
        with trace.span("netkv.repair") as sp:
            peers = sorted(self._peers(s))
            listed = [s] + [d for d in peers if self._states[d].up]
            held: Dict[int, set] = {
                x: set(got) - {_ROUTE_KEY}  # the map lives on every shard
                for x, got in zip(listed, self._gather(
                    [(x, "keys", ()) for x in listed]))
                if not isinstance(got, StoreError)}
            if s not in held:
                return  # went down again; re-queued at the next fail-back
            skeys = held[s]
            # 1) settle: the newest tombstone or missed-write marker of
            # a key decides it on every replica reached
            copied, pruned, settled = self._settle_marked(s, held)
            # 2) pull: live keys peers hold for windows that include s,
            # each from the first peer holding it
            claimed = skeys | settled
            pulls = []
            for d, dk in held.items():
                ks = [k for k in dk if not _internal(k) and k not in claimed
                      and s in self._replicas_for(k)]
                claimed.update(ks)
                pulls.append((d, s, ks))
            got = self._copy_keys(pulls)
            copied += len(got)
            skeys.update(got)
            # 3) push: acked writes only s holds (its peers were down too)
            copied += len(self._copy_keys([
                (s, d, [k for k in skeys if not _internal(k) and k not in dk
                        and k not in settled and d in self._replicas_for(k)])
                for d, dk in held.items()]))
            # s stays behind the peers this pass could not reach
            unreached = {d for d in peers
                         if d not in held or not self._states[d].up}
            with self._health_lock:
                if unreached:
                    self._behind[s] = unreached
                elif self._states[s].up:
                    self._behind.pop(s, None)
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
                           if not _internal(k)
                           and key_slot(k) not in migrating
                           and s not in self._replicas_for(k)]
                self._gather([(s, "mdelete", (chunk,)) for chunk in
                              _chunks(foreign, self.config.batch_keys)])
            if copied:
                self.stats.note_read_repair(copied)
            if sp:
                sp.set(shard=s, copied=copied, pruned=pruned + len(foreign))

    def _copy_keys(self, jobs: List[Tuple[int, int, List[str]]]
                   ) -> List[str]:
        """Copy each job's keys from shard ``src`` to shard ``dst``: every
        batch read in one gather, then every write in another. Returns
        the keys copied."""
        batches = [(src, dst, chunk) for src, dst, keys in jobs
                   for chunk in _chunks(keys, self.config.batch_keys)]
        writes = []
        for (_, dst, chunk), values in zip(batches, self._gather(
                [(src, "mget", (chunk,)) for src, _, chunk in batches])):
            if not isinstance(values, StoreError):
                items = [(k, v) for k, v in zip(chunk, values)
                         if v is not None]
                if items:
                    writes.append((dst, "mset", (items,)))
        return [k for (_, _, (items,)), o in zip(writes, self._gather(writes))
                if not isinstance(o, StoreError) for k, _ in items]

    def _settle_marked(self, s: int, held: Dict[int, set]
                       ) -> Tuple[int, int, set]:
        """Decide each marked key in a window holding ``s`` by its newest
        marker on the reachable replicas (``held``: shard -> keys).

        A newest tombstone deletes the key wherever it is held; a newest
        missed-write marker copies its replica's value, marker included,
        over every other copy and clears stale tombstones. Returns
        ``(copied, pruned, keys settled)``.
        """
        marked = set()
        for keys in held.values():
            for k in keys:
                if k.startswith(_TOMB):
                    marked.add(k[len(_TOMB):])
                elif k.startswith(_MISSED):
                    marked.add(k[len(_MISSED):])
        windows = {k: w for k in sorted(marked)
                   for w in (self._replicas_for(k),) if s in w}
        # shard -> key -> (value, marker stamp, tombstone stamp), -1 = none
        views: Dict[int, Dict[str, Tuple[Optional[bytes], int, int]]] = {
            x: {} for x in held}
        asks = [(x, chunk) for x in held for chunk in _chunks(
            [k for k, w in windows.items() if x in w],
            max(1, self.config.batch_keys // 3))]
        for (x, chunk), got in zip(asks, self._gather([
                (x, "mget", (chunk + [_MISSED + k for k in chunk]
                             + [_TOMB + k for k in chunk],))
                for x, chunk in asks])):
            if x not in views:
                continue
            if isinstance(got, StoreError):
                del views[x]  # a partial view could not be trusted
                continue
            n = len(chunk)
            for i, k in enumerate(chunk):
                views[x][k] = (got[i], _stamp(got[n + i]),
                               _stamp(got[2 * n + i]))
        # newest event per key: (stamp, 1, value) for a marked copy,
        # (stamp, 0, None) for a tombstone
        best: Dict[str, Tuple[int, int, Optional[bytes]]] = {}
        for view in views.values():
            for k, (value, mark, tomb) in view.items():
                events = [(tomb, 0, None)] if tomb >= 0 else []
                if mark >= 0 and value is not None:
                    events.append((mark, 1, value))
                for ev in events:
                    if k not in best or ev > best[k]:
                        best[k] = ev
        writes: List[Tuple[int, str, tuple]] = []
        for x, view in views.items():
            doomed: List[str] = []
            items: List[Tuple[str, bytes]] = []
            for k, (value, mark, tomb) in view.items():
                if k not in best:
                    continue
                stamp, is_copy, newest = best[k]
                if not is_copy:
                    if value is not None:
                        doomed.append(k)
                    continue
                if (mark, value) != (stamp, newest):
                    items += [(k, newest), (_MISSED + k, b"%d" % stamp)]
                if tomb >= 0:
                    doomed.append(_TOMB + k)  # older than the write
            writes += [(x, "mset", (chunk,)) for chunk in
                       _chunks(items, self.config.batch_keys)]
            writes += [(x, "mdelete", (chunk,)) for chunk in
                       _chunks(doomed, self.config.batch_keys)]
        copied = pruned = 0
        for (_, op, (chunk,)), got in zip(writes, self._gather(writes)):
            if isinstance(got, StoreError):
                continue
            if op == "mset":
                copied += sum(not k.startswith(_MISSED) for k, _ in chunk)
            else:
                pruned += sum(not k.startswith(_TOMB) for k in chunk)
        return copied, pruned, set(windows)

    def _gc_markers(self) -> None:
        """Drop tombstones and missed-write markers once every shard is
        healthy and repaired again."""
        n = len(self._channels)
        listed = self._gather([(idx, "keys", (prefix,)) for idx in range(n)
                               for prefix in (_TOMB, _MISSED)])
        if any(isinstance(o, StoreError) for o in listed):
            return  # a shard vanished again; keep markers, retry later
        deletes = [(idx, "mdelete", (chunk,)) for idx in range(n)
                   for chunk in _chunks(listed[2 * idx] + listed[2 * idx + 1],
                                        self.config.batch_keys)]
        if any(isinstance(o, StoreError) for o in self._gather(deletes)):
            return
        self._tombstones = False
        self._markers = False

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
                have = self._shard_op(dst, "mget", probe)
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
        :meth:`mset`. Returns how many keys were actually new."""
        (got,) = self._fan_out([(replicas, "msetnx", (items,))])
        replies, _, last_exc = _outcomes(got)
        # replica -> keys it took
        stored = {idx: [k for (k, _), f in zip(items, flags) if f]
                  for idx, flags in replies}
        if not stored:
            raise StoreUnavailable(
                f"no replica of {len(replicas)} accepted a "
                f"{len(items)}-key migration copy"
            ) from last_exc
        if (len(stored) < len(replicas)
                or any(len(ks) < len(items) for ks in stored.values())):
            # A replica that missed or declined the copy may hold a
            # stale value. A copy only fills gaps, so it is older than
            # any write: its markers carry stamp 0, which beats an
            # unmarked copy at repair but never a marked write.
            self._write_markers(_MISSED, stored, b"0")
        return max(len(ks) for ks in stored.values())

    def _cleanup_moved(self, moving: set, sources: set,
                       dst_window: List[int]) -> None:
        """Post-cutover: drop copies of moved keys from shards that are
        no longer in the slot's replica window (a union key scan would
        otherwise resurrect them in listings after a later delete)."""
        old: set = set()
        for src in sources:
            old.update(self._window(src))
        stale = sorted(old - set(dst_window))
        deletes = [
            (idx, "mdelete", (chunk,))
            for idx, held in zip(stale, self._gather(
                [(idx, "keys", ()) for idx in stale]))
            # a down shard's copies are pruned by its fail-back repair
            if not isinstance(held, StoreError)
            for chunk in _chunks([k for k in held if not _internal(k)
                                  and key_slot(k) in moving],
                                 self.config.batch_keys)]
        self._gather(deletes)

    def snapshot_all(self) -> List[Dict[str, Any]]:
        """Ask every shard to write a snapshot and compact its WAL;
        returns one persistence-counter dict per shard."""
        out = self._gather([(idx, "snapshot", ())
                            for idx in range(len(self._channels))])
        for outcome in out:
            if isinstance(outcome, StoreError):
                raise outcome
        return out

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


class NetKVStore(DataStore):
    """DataStore adapter over a :class:`NetKVCluster`: what both
    ``kv://`` (in-process shards) and ``netkv://`` (TCP shards) open, so
    the feedback managers run the same store either way.
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
