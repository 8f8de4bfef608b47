"""Seeded FaultSchedule campaign against the *async* NetKV transport.

The chaos harness normally drives the production NetKV cluster over
in-process shards on a virtual clock. This suite points the same
fault-schedule DSL at live asyncio servers instead: ``shard_down``/``shard_up`` stop and rebind real
event-loop shards, ``delay``/``garble`` set rates on each shard's
:class:`~repro.util.faults.NetworkFaultInjector`. Two invariants from
CHAOS.md must survive the transport rewrite:

- **durability** — every write the client saw acked reads back byte
  for byte once the campaign heals, through replication failover;
- **replay** — two campaigns from the same seed ack the same key set
  and end in the identical surviving key->value state (same digest),
  while a different seed produces a different state.

Events are pinned to *round indices* rather than virtual seconds: a
round here is one batch of writes against the live cluster, so
``at=2`` means "before the third write batch".
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional

import pytest

from repro.chaos.schedule import FaultSchedule
from repro.datastore.base import StoreError
from repro.datastore.netkv import NetKVServer, NetKVStore, TransportConfig
from repro.util.faults import NetworkFaultInjector
from repro.util.rng import RngStream

pytestmark = [pytest.mark.multi_server, pytest.mark.async_transport,
              pytest.mark.timeout(90)]

NSHARDS = 3
ROUNDS = 8
KEYS_PER_ROUND = 12


def _schedule() -> FaultSchedule:
    """One kill-heavy campaign: congestion, a shard loss under garble,
    a second loss after the first revives, then heal everything."""
    return (FaultSchedule()
            .delay(at=1, rate=0.2)
            .shard_down(at=2, shard=1)
            .garble(at=3, rate=0.25)
            .shard_up(at=4, shard=1)
            .shard_down(at=5, shard=2)
            .heal(at=6)
            .shard_up(at=7, shard=2))


def _run_campaign(seed: int) -> Dict[str, object]:
    stream = RngStream(seed)
    injectors = [
        NetworkFaultInjector(rng=stream.child(f"shard{i}"),
                             delay_seconds=0.002)
        for i in range(NSHARDS)
    ]
    servers: List[Optional[NetKVServer]] = [
        NetKVServer(fault_injector=injectors[i]).start()
        for i in range(NSHARDS)
    ]
    addresses = [srv.address for srv in servers]
    payload_rng = stream.child("payloads")
    # Generous retry budget: scheduled faults must degrade the campaign,
    # not the ack contract. Replication 2 keeps every key writable with
    # one shard down.
    config = TransportConfig(retries=8, backoff_base=0.001,
                             backoff_max=0.01, op_timeout=5.0,
                             connect_timeout=2.0)
    store = NetKVStore.connect(addresses, config=config, replication=2,
                               probe_cooldown=0.05)
    schedule = _schedule()
    acked: Dict[str, bytes] = {}

    def scrub() -> None:
        # Anti-entropy pass after a revival: a shard that comes back at
        # the same address starts *empty*, so until something re-reads
        # its keys the cluster is one more failure away from real data
        # loss. Reading every acked key triggers the cluster's read
        # repair, restoring the replication factor — the scrub an
        # operator runs after failover, and the reason the schedule may
        # kill a *second* shard later without losing acked writes.
        # Repairs only land once the health prober has re-marked the
        # shard up, so sweep until the cluster is whole and a full pass
        # repairs nothing.
        for _ in range(5):
            time.sleep(2 * 0.05)  # let the probe cooldown lapse
            before = store.transport_stats.as_dict()["read_repairs"]
            for key in sorted(acked):
                store.read(key)
            health = store.replica_health()
            stable = (health["up"] == health["nshards"]
                      and store.transport_stats.as_dict()["read_repairs"]
                      == before)
            if stable:
                return
        raise AssertionError("scrub did not converge in 5 passes")

    try:
        for rnd in range(ROUNDS):
            for event in schedule:
                if int(event.at) != rnd:
                    continue
                if event.kind == "shard_down":
                    idx = int(event.arg) % NSHARDS
                    if servers[idx] is not None:
                        servers[idx].stop()
                        servers[idx] = None
                elif event.kind == "shard_up":
                    idx = int(event.arg) % NSHARDS
                    if servers[idx] is None:
                        host, port = addresses[idx]
                        servers[idx] = NetKVServer(
                            host=host, port=port,
                            fault_injector=injectors[idx]).start()
                        scrub()
                elif event.kind == "delay":
                    for inj in injectors:
                        inj.rates["delay"] = event.arg
                elif event.kind == "garble":
                    for inj in injectors:
                        inj.rates["garbage"] = event.arg
                elif event.kind == "heal":
                    for inj in injectors:
                        inj.rates.update(drop=0.0, delay=0.0,
                                         close=0.0, garbage=0.0)
            for i in range(KEYS_PER_ROUND):
                key = f"chaos/r{rnd}/k{i}"
                size = int(payload_rng.integers(8, 200))
                value = payload_rng.bytes(size)
                try:
                    store.write(key, value)
                except StoreError:
                    continue  # unacked: allowed to be lost
                acked[key] = value

        # Campaign over: revive any shard the schedule left down, then
        # check the invariants against the healed cluster.
        for idx in range(NSHARDS):
            if servers[idx] is None:
                host, port = addresses[idx]
                servers[idx] = NetKVServer(
                    host=host, port=port,
                    fault_injector=injectors[idx]).start()
                scrub()

        digest = hashlib.sha256()
        for key in sorted(acked):
            got = store.read(key)  # raises if an acked write was lost
            assert got == acked[key], f"acked write {key!r} corrupted"
            digest.update(key.encode())
            digest.update(b"\x00")
            digest.update(got)
            digest.update(b"\x00")
        stats = store.transport_stats.as_dict()
        return {
            "digest": digest.hexdigest(),
            "acked": len(acked),
            "injected": sum(inj.total_injected() for inj in injectors),
            "shard_down_events": stats["shard_down_events"],
            "retries": stats["retries"],
        }
    finally:
        store.close()
        for srv in servers:
            if srv is not None:
                srv.stop()


def test_acked_writes_survive_scheduled_faults():
    """Durability: every acked write reads back after shard kills,
    delay congestion, and garbled responses."""
    result = _run_campaign(seed=1207)
    # With retries=8 and replication=2 no scheduled fault may cost an
    # ack: the campaign writes ROUNDS * KEYS_PER_ROUND keys and all of
    # them must have been acknowledged (the assert inside _run_campaign
    # already proved each one reads back byte-identically).
    assert result["acked"] == ROUNDS * KEYS_PER_ROUND
    # The campaign must actually have been degraded, or this test
    # proves nothing: the injectors fired and the client paid retries.
    assert result["injected"] > 0
    assert result["retries"] > 0


def test_same_seed_campaign_replays_byte_identical():
    """Replay: the surviving state is a pure function of the seed."""
    first = _run_campaign(seed=4242)
    second = _run_campaign(seed=4242)
    assert first["digest"] == second["digest"]
    assert first["acked"] == second["acked"]
    other = _run_campaign(seed=4243)
    assert other["digest"] != first["digest"]


def test_schedule_round_trips_through_json():
    """The campaign schedule itself serializes and replays exactly —
    the handle an operator saves when a live campaign fails."""
    sched = _schedule()
    assert FaultSchedule.from_json(sched.to_json()) == sched
