"""The seeded fault-schedule DSL.

A chaos campaign is a normal Workflow Manager run plus a
:class:`FaultSchedule`: a sorted list of :class:`FaultEvent`\\ s, each
pinned to an exact *virtual* time on the campaign's
:class:`~repro.util.clock.VirtualClock`. The harness registers every
event on the campaign's :class:`~repro.util.clock.EventLoop`, so faults
fire between WM rounds in a fully deterministic order — the same
schedule always produces the same campaign, byte for byte.

Fault kinds (``arg`` meaning in parentheses):

- ``shard_down`` / ``shard_up`` — one ChaosStore shard refuses every
  request / answers again and the cluster runs its fail-back repair
  (shard index; taken modulo the shard count).
- ``delay`` / ``garble`` — set the transport injector's delay /
  garbage rate (probability in [0, 1]); modeled as retried wire-level
  faults that cost virtual time, as the hardened NetKV transport
  absorbs them in production.
- ``heal`` — zero all transport fault rates.
- ``stall`` — the adapter's worker pool stops draining for the next
  ``arg`` rounds (a wedged node; jobs stay in flight across rounds).
- ``checkpoint_restore`` — checkpoint the WM mid-campaign, build a
  fresh WM against the same store, restore, and swap it in (the
  restart-heavy operations of the Mini-MuMMI report).
- ``clock_skip`` — insert ``arg`` seconds of dead virtual time before
  the next round (an allocation gap).
- ``crash_restart`` — kill one shard *process* (shard index) and
  restart it immediately from its WAL directory: it holds exactly what
  the WAL replays (everything acked, for a durable store; nothing, for
  an in-memory one).
- ``reshard`` — live slot migration: ``NetKVCluster.migrate_slots``
  moves half of one shard's owned hash slots (shard index) to its
  successor mid-campaign.

Schedules serialize to plain JSON so a failing campaign can be saved
and replayed with ``repro chaos --replay FILE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["FaultEvent", "FaultSchedule", "FAULT_KINDS"]

FAULT_KINDS = (
    "shard_down",
    "shard_up",
    "delay",
    "garble",
    "heal",
    "stall",
    "checkpoint_restore",
    "clock_skip",
    "crash_restart",
    "reshard",
)


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One fault at one virtual time. Ordered by (at, kind, arg)."""

    at: float
    kind: str
    arg: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0, got {self.at}")

    def to_json(self) -> Dict[str, object]:
        return {"at": self.at, "kind": self.kind, "arg": self.arg}

    @classmethod
    def from_json(cls, row: Dict[str, object]) -> "FaultEvent":
        return cls(at=float(row["at"]), kind=str(row["kind"]),
                   arg=float(row.get("arg", 0.0)))


class FaultSchedule:
    """An immutable-ish, sorted sequence of fault events.

    Builder methods return ``self`` so schedules read as a DSL::

        sched = (FaultSchedule()
                 .shard_down(at=90.0, shard=1)
                 .delay(at=150.0, rate=0.3)
                 .shard_up(at=400.0, shard=1)
                 .heal(at=450.0))
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(events)

    # --- DSL builders -----------------------------------------------------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self._events.append(event)
        self._events.sort()
        return self

    def shard_down(self, at: float, shard: int) -> "FaultSchedule":
        return self.add(FaultEvent(at, "shard_down", float(shard)))

    def shard_up(self, at: float, shard: int) -> "FaultSchedule":
        return self.add(FaultEvent(at, "shard_up", float(shard)))

    def delay(self, at: float, rate: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "delay", float(rate)))

    def garble(self, at: float, rate: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "garble", float(rate)))

    def heal(self, at: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "heal"))

    def stall(self, at: float, rounds: int = 1) -> "FaultSchedule":
        return self.add(FaultEvent(at, "stall", float(rounds)))

    def checkpoint_restore(self, at: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "checkpoint_restore"))

    def clock_skip(self, at: float, seconds: float) -> "FaultSchedule":
        return self.add(FaultEvent(at, "clock_skip", float(seconds)))

    def crash_restart(self, at: float, shard: int) -> "FaultSchedule":
        return self.add(FaultEvent(at, "crash_restart", float(shard)))

    def reshard(self, at: float, shard: int) -> "FaultSchedule":
        return self.add(FaultEvent(at, "reshard", float(shard)))

    # --- views ------------------------------------------------------------

    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self._events == other._events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{e.kind}@{e.at:g}" for e in self._events)
        return f"FaultSchedule([{inner}])"

    def without(self, index: int) -> "FaultSchedule":
        """A copy with the event at ``index`` removed (shrinking step)."""
        return FaultSchedule(e for i, e in enumerate(self._events) if i != index)

    def replaced(self, index: int, event: FaultEvent) -> "FaultSchedule":
        """A copy with the event at ``index`` replaced (relaxing step)."""
        events = list(self._events)
        events[index] = event
        return FaultSchedule(events)

    # --- (de)serialization ------------------------------------------------

    def to_json(self) -> List[Dict[str, object]]:
        return [e.to_json() for e in self._events]

    @classmethod
    def from_json(cls, rows: Sequence[Dict[str, object]]) -> "FaultSchedule":
        return cls(FaultEvent.from_json(row) for row in rows)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    # --- seeded sampling ----------------------------------------------------

    @classmethod
    def sample(
        cls,
        rng: np.random.Generator,
        rounds: int,
        round_seconds: float = 60.0,
        nshards: int = 4,
        max_events: int = 8,
    ) -> "FaultSchedule":
        """Draw a random schedule for a ``rounds``-round campaign.

        Shard kills are paired with a later revival most of the time so
        sampled campaigns usually recover mid-run; the harness heals
        everything before the final invariant pass either way. All
        randomness comes from ``rng``, so the same seed always samples
        the same schedule.
        """
        horizon = rounds * round_seconds
        sched = cls()
        nevents = int(rng.integers(1, max_events + 1))
        kinds = ("shard_down", "delay", "garble", "stall",
                 "checkpoint_restore", "clock_skip", "heal")
        # Frozen mix — newer kinds (crash_restart, reshard) are left out
        # on purpose: adding them here would re-deal every schedule that
        # saved seeds and replay files already pin down. Campaigns opt
        # into them through the DSL builders instead.
        # Kill-heavy mix: shard faults are the paper's headline failure mode.
        weights = np.array([0.3, 0.15, 0.1, 0.12, 0.13, 0.1, 0.1])
        for _ in range(nevents):
            if len(sched) >= max_events:
                break
            at = float(rng.uniform(0.0, horizon))
            kind = str(rng.choice(kinds, p=weights / weights.sum()))
            if kind == "shard_down":
                shard = int(rng.integers(nshards))
                sched.shard_down(at, shard)
                if rng.random() < 0.8 and len(sched) < max_events:
                    up_at = float(rng.uniform(at, horizon))
                    sched.shard_up(up_at, shard)
            elif kind == "delay":
                sched.delay(at, rate=float(rng.uniform(0.05, 0.5)))
            elif kind == "garble":
                sched.garble(at, rate=float(rng.uniform(0.05, 0.4)))
            elif kind == "stall":
                sched.stall(at, rounds=int(rng.integers(1, 4)))
            elif kind == "checkpoint_restore":
                sched.checkpoint_restore(at)
            elif kind == "clock_skip":
                sched.clock_skip(at, seconds=float(rng.uniform(10.0, 600.0)))
            else:
                sched.heal(at)
        return sched
