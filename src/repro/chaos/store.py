"""ChaosStore: the production NetKV cluster over shards the harness can break.

Every replication decision (placement, failover, read repair, markers,
fail-back repair, slot migration) is made by the production
:class:`~repro.datastore.netkv.NetKVCluster`, built here over
in-process :class:`~repro.datastore.aio.LocalShard` shards (the ones
``kv://`` runs on) on the campaign's clock, with no socket or thread.
When durable each shard logs to a real ``ShardWAL`` and acks only once
the record is written. The driver adds the faults, an *ack log* (the
last value or deletion acked per key) that
:meth:`ChaosStore.verify_acked` reads back through the cluster, and wire
delay/garble faults that cost deterministic virtual time, as the
hardened transport would retry them.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.datastore.aio import LocalShard
from repro.datastore.base import (DataStore, KeyNotFound, StoreError,
                                  StoreUnavailable, validate_key)
from repro.datastore.netkv import NetKVCluster, key_slot
from repro.datastore.stats import TransportStats
from repro.datastore.wal import ShardWAL
from repro.util.faults import NetworkFaultInjector

__all__ = ["ChaosStore"]


def _release(shards: List[LocalShard], directory: Optional[str]) -> None:
    for shard in shards:
        shard.close()
    if directory is not None:
        shutil.rmtree(directory, ignore_errors=True)


class ChaosStore(DataStore):
    """``NetKVCluster`` over deterministic in-process shards."""

    def __init__(self, nshards: int = 4, replication: int = 2,
                 injector: Optional[NetworkFaultInjector] = None,
                 rng: Optional[np.random.Generator] = None,
                 durable: bool = True,
                 clock: Optional[Callable[[], float]] = None) -> None:
        if not 1 <= replication <= nshards:
            raise StoreError(f"need 1 <= replication ({replication}) <= "
                             f"shards ({nshards})")
        self.nshards = nshards
        self.replication = replication
        self.injector = injector if injector is not None else NetworkFaultInjector(
            rng=rng if rng is not None else np.random.default_rng(0))
        self.directory = (tempfile.mkdtemp(prefix="repro-chaos-")
                          if durable else None)
        self.shards = [LocalShard(("chaos", i), self.directory and
                                  os.path.join(self.directory, f"shard{i}"))
                       for i in range(nshards)]
        self._release = weakref.finalize(self, _release, self.shards,
                                         self.directory)
        # No clock: time stands still, so probe cooldowns never lapse.
        self.cluster = NetKVCluster(
            [s.address for s in self.shards], replication=replication,
            route_refresh=0.0,
            channels=self.shards, clock=clock or (lambda: 0.0))
        self.transport_stats: TransportStats = self.cluster.stats
        self.acked: Dict[str, Optional[bytes]] = {}
        self.fault_counts = {"delayed": 0, "garbled": 0, "unavailable": 0}
        self._virtual_delay = 0.0

    def _touch(self, nbytes: int = 0) -> None:
        """One logical op hits the wire: account it, maybe misbehave."""
        self.transport_stats.note_request(nbytes)
        fate = self.injector.request_fate()
        if fate == "delay":
            self._virtual_delay += self.injector.delay_duration()
            self.fault_counts["delayed"] += 1
        elif fate in ("close", "garbage"):
            # The hardened transport retries these; charge the retry.
            self.transport_stats.note_retry(
                timed_out=(fate == "close"), protocol=(fate == "garbage"))
            self._virtual_delay += self.injector.delay_duration()
            self.fault_counts["garbled"] += 1

    def _op(self, fn, *args):
        try:
            return fn(*args)
        except StoreUnavailable:
            self.transport_stats.note_exhausted()
            self.fault_counts["unavailable"] += 1
            raise

    # --- DataStore primitives ---------------------------------------------

    def write(self, key: str, data: bytes) -> None:
        self._touch(len(data))
        self._op(self.cluster.set, validate_key(key), bytes(data))
        self.acked[key] = bytes(data)

    def read(self, key: str) -> bytes:
        value = self._op(self.cluster.get, key)
        self._touch(len(value))
        return value

    def delete(self, key: str) -> None:
        self._touch()
        self._op(self.cluster.delete, key)
        self.acked[key] = None

    def move(self, src: str, dst: str) -> None:
        self._touch()
        self._op(self.cluster.rename, src, validate_key(dst))
        self.acked[dst] = self.acked.get(src)
        self.acked[src] = None

    def keys(self, prefix: str = "") -> List[str]:
        self._touch()
        return self._op(self.cluster.keys, prefix)

    # --- failure control ----------------------------------------------------

    def shard_down(self, index: int) -> None:
        self.shards[index % self.nshards].up = False

    def shard_up(self, index: int) -> None:
        self.shards[index % self.nshards].up = True
        self.cluster.repair()

    def crash_restart(self, index: int) -> None:
        """Kill a shard process; restart it from its WAL directory."""
        shard = self.shards[index % self.nshards]
        shard.close()
        shard.start()
        self.cluster.repair()

    def reshard(self, index: int) -> int:
        """Migrate every other slot of acked keys whose primary is shard
        ``index`` to its successor; returns the number of slots moved."""
        src = index % self.nshards
        dst = (src + 1) % self.nshards
        owned = sorted({key_slot(k) for k in self.acked
                        if self.cluster._replicas_for(k)[0] == src})
        if dst == src or not owned:
            return 0
        return self._op(self.cluster.migrate_slots, owned[::2], dst)["slots"]

    def heal_all(self) -> None:
        """Revive every shard and run the cluster's fail-back repair."""
        for shard in self.shards:
            shard.up = True
        self.cluster.repair()

    def close(self) -> None:
        """Close every shard's WAL and delete the WAL directory."""
        self._release()

    # --- invariant hooks ------------------------------------------------------

    def verify_acked(self, strict: bool = False) -> List[str]:
        """Read the ack log back through the cluster; returns problems.
        Unreadable keys count only when ``strict`` (after a heal)."""
        problems: List[str] = []
        for key in sorted(self.acked):
            expect = self.acked[key]
            try:
                got = self.cluster.get(key)
            except KeyNotFound:
                if expect is not None:
                    problems.append(f"acked write lost: {key}")
                continue
            except StoreUnavailable:
                if strict:
                    problems.append(f"unverifiable after heal: {key}")
                continue
            if expect is None:
                problems.append(f"tombstone resurrected delete: {key}")
            elif got != expect:
                problems.append(f"stale read (not the acked value): {key}")
        return problems

    def verify_durable(self) -> List[str]:
        """Check every durable shard's memory equals a replay of its WAL,
        i.e. a restart recovers exactly what it serves."""
        problems: List[str] = []
        for i, shard in enumerate(self.shards):
            if shard.wal is None:
                continue
            # What a restart reads.
            replay = ShardWAL(shard.directory, shard.durability)
            replay.close()
            replayed = replay.recovered
            held = dict(shard.backend.items())
            for key in sorted(replayed.keys() | held.keys()):
                if replayed.get(key) != held.get(key):
                    problems.append(
                        f"shard {i} memory differs from its WAL replay: {key}")
        return problems

    def replica_health(self) -> Dict[str, object]:
        return self.cluster.replica_health()

    def drain_virtual_delay(self) -> float:
        """Return and reset virtual seconds lost to injected wire faults."""
        t, self._virtual_delay = self._virtual_delay, 0.0
        return t
