"""The chaos campaign: a real WM run broken on a virtual-time schedule.

A :class:`ChaosCampaign` builds the full three-scale pipeline (real
continuum, encoder, selectors, CG/AA sims, both feedback loops) against
a :class:`~repro.chaos.store.ChaosStore` (the production NetKV cluster
over in-process shards, on the campaign's clock) and a synchronous
:class:`ChaosAdapter`, registers every :class:`FaultEvent` on a
:class:`~repro.util.clock.EventLoop`, and then alternates

    run faults due by the round's virtual start  →  wm.round()  →
    check the invariant catalog

for the configured number of rounds. At campaign end all faults are
healed, the adapter is drained, and the suite runs one strict final
pass (nothing is excusably unverifiable once the cluster is whole).

Determinism is the whole point: one seed fixes the WM's rng tree, the
wire-fault draws, and the schedule, and the tracer is driven by the
campaign's VirtualClock — so two runs of the same campaign produce
byte-identical invariant reports *and* byte-identical trace exports.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import trace
from repro.app.feedback import AAToCGFeedback, CGToContinuumFeedback
from repro.chaos.invariants import InvariantSuite, Violation, selector_equivalence
from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.chaos.store import ChaosStore
from repro.core.patches import PatchCreator
from repro.core.wm import WorkflowConfig, WorkflowManager
from repro.datastore.base import StoreError, StoreUnavailable
from repro.ml.encoder import PatchEncoder
from repro.sched.adapter import SchedulerAdapter
from repro.sched.jobspec import JobRecord, JobState
from repro.sims.cg.forcefield import martini_like
from repro.sims.continuum.ddft import ContinuumConfig, ContinuumSim
from repro.util.clock import EventLoop, VirtualClock
from repro.util.faults import NetworkFaultInjector
from repro.util.rng import RngStream

__all__ = ["ChaosAdapter", "ChaosConfig", "ChaosCampaign", "CampaignReport"]


class ChaosAdapter(SchedulerAdapter):
    """Synchronous scheduler adapter: a FIFO drained on ``wait_all``.

    Job bodies run inline, in submission order, on the caller's thread —
    the determinism backbone of a chaos campaign (no thread scheduling
    in the replay path). Completion callbacks may submit follow-up jobs
    (tracker retries); those drain in the same pass.

    A *stall* fault (``stalled = True``) wedges the pool: ``wait_all``
    returns without draining and jobs stay in flight across rounds,
    exactly like a hung node. :meth:`flush` drains regardless — it is
    the checkpoint quiesce barrier.
    """

    def __init__(self) -> None:
        self._queue: deque = deque()
        self._records: Dict[int, JobRecord] = {}
        self._callbacks: Dict[int, Callable[[JobRecord], None]] = {}
        self.stalled = False

    def submit(self, spec, fn=None, on_complete=None) -> JobRecord:
        record = JobRecord(spec=spec)
        self._records[record.job_id] = record
        if on_complete is not None:
            self._callbacks[record.job_id] = on_complete
        self._queue.append((record, fn))
        return record

    def cancel(self, job_id: int) -> None:
        record = self._records[job_id]
        if record.state is not JobState.PENDING:
            return
        for i, (queued, _) in enumerate(self._queue):
            if queued.job_id == job_id:
                del self._queue[i]
                break
        record.state = JobState.CANCELLED
        callback = self._callbacks.pop(job_id, None)
        if callback is not None:
            callback(record)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        if self.stalled:
            return
        self.flush()

    def flush(self) -> None:
        """Drain every queued job inline, stall or no stall."""
        while self._queue:
            record, fn = self._queue.popleft()
            record.state = JobState.RUNNING
            try:
                record.result = fn() if fn is not None else None
                record.state = JobState.COMPLETED
            except Exception as exc:  # job failure is data, not a crash
                record.result = exc
                record.state = JobState.FAILED
            callback = self._callbacks.pop(record.job_id, None)
            if callback is not None:
                callback(record)

    def pending(self) -> int:
        return len(self._queue)

    def records(self) -> List[JobRecord]:
        return list(self._records.values())


@dataclass(frozen=True)
class ChaosConfig:
    """Shape of one chaos campaign (small enough to run in tests)."""

    seed: int = 0
    rounds: int = 10
    round_seconds: float = 60.0
    nshards: int = 4
    replication: int = 2
    durable: bool = True
    """Shards keep a durable log; ``crash_restart`` replays it."""

    advance_us: float = 1.0
    grid: int = 16
    trace_capacity: int = 0
    """Tracer ring size; 0 sizes it so no span is ever dropped."""

    def resolved_trace_capacity(self) -> int:
        return self.trace_capacity or max(65536, self.rounds * 4096)


@dataclass
class CampaignReport:
    """Deterministic summary of one campaign (JSON-stable)."""

    seed: int
    rounds: int
    schedule: List[Dict[str, Any]]
    violations: List[Violation]
    counters: Dict[str, int]
    chaos: Dict[str, int]
    store: Dict[str, Any]
    nspans: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "rounds": self.rounds,
            "schedule": self.schedule,
            "violations": [v.to_json() for v in self.violations],
            "counters": dict(sorted(self.counters.items())),
            "chaos": dict(sorted(self.chaos.items())),
            "store": self.store,
            "nspans": self.nspans,
            "ok": self.ok,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


class ChaosCampaign:
    """One seeded WM campaign with faults injected at exact virtual times."""

    def __init__(self, schedule: FaultSchedule,
                 config: Optional[ChaosConfig] = None) -> None:
        self.config = config or ChaosConfig()
        self.schedule = schedule
        self.clock = VirtualClock()
        self.loop = EventLoop(self.clock)
        self.rngs = RngStream(self.config.seed)
        self.injector = NetworkFaultInjector(
            delay_seconds=0.05, rng=self.rngs.child("chaos-wire")
        )
        self.store = ChaosStore(
            nshards=self.config.nshards,
            replication=self.config.replication,
            injector=self.injector,
            durable=self.config.durable,
            clock=lambda: self.clock.now,
        )
        self.suite = InvariantSuite()
        self.tracer: Optional[trace.Tracer] = None
        self.adapter = ChaosAdapter()
        self.wm = self._build_wm(self.adapter)
        self.violations: List[Violation] = []
        self.chaos_counters: Dict[str, int] = {
            "faults_applied": 0,
            "rounds_aborted": 0,
            "checkpoints": 0,
            "checkpoint_skipped": 0,
            "restores": 0,
            "stall_rounds": 0,
            "clock_skips": 0,
            "crash_restarts": 0,
            "reshards": 0,
            "slots_moved": 0,
        }
        self._stall_rounds = 0
        self._pending_skip = 0.0
        self._round_no = 0

    # --- construction -----------------------------------------------------

    def _build_wm(self, adapter: ChaosAdapter,
                  macro: Optional[ContinuumSim] = None,
                  encoder: Optional[PatchEncoder] = None,
                  forcefield=None) -> WorkflowManager:
        seed = self.config.seed
        macro = macro or ContinuumSim(ContinuumConfig(
            grid=self.config.grid, n_inner=2, n_outer=2, n_proteins=3,
            dt=0.25, seed=seed))
        encoder = encoder or PatchEncoder(
            input_dim=2 * 81, latent_dim=9, hidden=(16,),
            rng=np.random.default_rng(seed + 1))
        forcefield = forcefield or martini_like(n_lipid_types=2, seed=seed)
        wm_config = WorkflowConfig(
            beads_per_type=8, cg_chunks_per_job=2, cg_steps_per_chunk=8,
            aa_chunks_per_job=1, aa_steps_per_chunk=8, seed=seed)
        return WorkflowManager(
            macro=macro,
            encoder=encoder,
            forcefield=forcefield,
            store=self.store,
            adapter=adapter,
            config=wm_config,
            patch_creator=PatchCreator(patch_grid=9, store=self.store),
            feedback_managers=[
                CGToContinuumFeedback(self.store, macro),
                AAToCGFeedback(self.store, forcefield),
            ],
        )

    # --- fault application ------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.chaos_counters["faults_applied"] += 1
        with trace.span("chaos.fault", kind=event.kind, at=event.at,
                        arg=event.arg):
            if event.kind == "shard_down":
                self.store.shard_down(int(event.arg))
            elif event.kind == "shard_up":
                self.store.shard_up(int(event.arg))
            elif event.kind == "delay":
                self.injector.rates["delay"] = min(max(event.arg, 0.0), 1.0)
            elif event.kind == "garble":
                self.injector.rates["garbage"] = min(max(event.arg, 0.0), 1.0)
            elif event.kind == "heal":
                for mode in self.injector.rates:
                    self.injector.rates[mode] = 0.0
            elif event.kind == "stall":
                self._stall_rounds = max(self._stall_rounds, int(event.arg))
            elif event.kind == "clock_skip":
                self._pending_skip += max(event.arg, 0.0)
                self.chaos_counters["clock_skips"] += 1
            elif event.kind == "checkpoint_restore":
                self._checkpoint_restore()
            elif event.kind == "crash_restart":
                self.store.crash_restart(int(event.arg))
                self.chaos_counters["crash_restarts"] += 1
            elif event.kind == "reshard":
                try:
                    moved = self.store.reshard(int(event.arg))
                except StoreUnavailable:
                    moved = 0  # the migration aborted and rolled back
                self.chaos_counters["reshards"] += 1
                self.chaos_counters["slots_moved"] += moved

    def _checkpoint_restore(self) -> None:
        """Checkpoint, rebuild the WM from persistent state, swap it in.

        Shares the *live* macro/encoder/forcefield objects (they live
        outside the WM, as in the real application) but gets fresh
        selectors, trackers, and adapter — everything the checkpoint
        claims to capture. If the store cannot take or serve the
        checkpoint right now, the restart is skipped, as a real
        operator would wait out the outage.
        """
        old_wm = self.wm
        try:
            old_wm.checkpoint()
            self.chaos_counters["checkpoints"] += 1
            adapter = ChaosAdapter()
            adapter.stalled = self.adapter.stalled
            new_wm = self._build_wm(adapter, macro=old_wm.macro,
                                    encoder=old_wm.encoder,
                                    forcefield=old_wm.forcefield)
            new_wm.restore()
        except (StoreUnavailable, StoreError):
            self.chaos_counters["checkpoint_skipped"] += 1
            return
        self.violations += selector_equivalence(old_wm, new_wm, self._round_no)
        self.wm = new_wm
        self.adapter = adapter
        self.chaos_counters["restores"] += 1

    # --- the campaign loop --------------------------------------------------

    def run(self) -> CampaignReport:
        previous_tracer = trace.get_tracer()
        self.tracer = trace.Tracer(
            capacity=self.config.resolved_trace_capacity(), clock=self.clock)
        trace.configure(self.tracer)
        try:
            return self._run_rounds()
        finally:
            trace.configure(previous_tracer)
            self.store.close()

    def _run_rounds(self) -> CampaignReport:
        for event in self.schedule:
            self.loop.schedule_at(event.at, (lambda e: lambda: self._apply(e))(event),
                                  label=event.kind)
        t = 0.0
        for r in range(self.config.rounds):
            self._round_no = r
            self.loop.run_until(t)
            self.adapter.stalled = self._stall_rounds > 0
            try:
                self.wm.round(self.config.advance_us)
            except StoreUnavailable:
                self.chaos_counters["rounds_aborted"] += 1
            if self._stall_rounds > 0:
                self._stall_rounds -= 1
                self.chaos_counters["stall_rounds"] += 1
            self.violations += self.suite.check_round(self, r)
            t += self.config.round_seconds + self._pending_skip
            t += self.store.drain_virtual_delay()
            self._pending_skip = 0.0
        # Fire any faults scheduled past the last round, then heal
        # everything and drain: the final pass is strict.
        self.loop.run()
        for mode in self.injector.rates:
            self.injector.rates[mode] = 0.0
        self._stall_rounds = 0
        self.adapter.stalled = False
        self.store.heal_all()
        self.adapter.flush()
        self.violations += self.suite.check_final(self, self.config.rounds)
        return self._report()

    # --- outputs ------------------------------------------------------------

    def _report(self) -> CampaignReport:
        health = self.store.replica_health()
        tstats = self.store.transport_stats.as_dict()
        return CampaignReport(
            seed=self.config.seed,
            rounds=self.config.rounds,
            schedule=self.schedule.to_json(),
            violations=list(self.violations),
            counters=self.wm.counters_snapshot(),
            chaos=dict(self.chaos_counters),
            store={
                "nshards": self.store.nshards,
                "replication": self.store.replication,
                "up": health["up"],
                "pending_repairs": health["pending_repairs"],
                "acked_keys": len(self.store.acked),
                "faults": dict(sorted(self.store.fault_counts.items())),
                "injector": dict(sorted(self.injector.injected.items())),
                "transport": tstats,
            },
            nspans=len(self.tracer.rows()) if self.tracer else 0,
        )

    def export_trace(self, path: str) -> int:
        """Write the campaign's (virtual-time, seq-ordered) trace."""
        if self.tracer is None:
            raise RuntimeError("campaign has not run yet")
        return self.tracer.export_jsonl(path)

    def telemetry(self):
        """The standard telemetry report over the chaos-wired WM."""
        from repro.core.telemetry import collect_telemetry

        return collect_telemetry(self.wm)
