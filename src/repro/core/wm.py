"""The Workflow Manager: the four concurrent coordination tasks.

§4.4 defines the WM's job: consume coarse-scale data (Task 1), select
important configurations (Task 2), schedule and manage jobs (Task 3),
and facilitate feedback (Task 4) — while tracking everything for
checkpoint/restore.

This WM runs the *real* three-scale pipeline at laptop scale: an actual
DDFT continuum simulation feeds the Patch Creator; patches are encoded
by the (NumPy) ML encoder and ranked by the farthest-point Patch
Selector; selected patches become CG systems via createsim and run on
the CG engine whose online analysis streams RDFs into the feedback
store and frame candidates into the binned Frame Selector; selected
frames are backmapped and refined at the AA scale; and the two feedback
paths update the continuum couplings and the CG force field in situ.

Scale-out behaviour (occupancy, 24k jobs, TBs/day) is the campaign
simulator's job (:mod:`repro.core.campaign`); this class is the
functional workflow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import trace
from repro.core.feedback import FeedbackManager
from repro.core.jobs import JobTracker, JobTypeConfig
from repro.core.patches import Patch, PatchCreator
from repro.datastore.base import DataStore
from repro.ml.encoder import PatchEncoder
from repro.sampling.binned import BinnedSampler, BinSpec
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.points import Point
from repro.sched.adapter import SchedulerAdapter
from repro.sched.jobspec import JobState
from repro.sched.shares import FairShareAdapter
from repro.util.locks import SharedState
from repro.sims.aa.analysis import SecondaryStructureAnalysis
from repro.sims.aa.engine import AAConfig, AASim
from repro.sims.cg.analysis import CGAnalysis, FrameCandidate
from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import CGForceField
from repro.sims.continuum.ddft import ContinuumSim
from repro.sims.mapping.backmap import backmap
from repro.sims.mapping.createsim import createsim
from repro.sims.mapping.systems import AASystem, CGSystem

__all__ = ["WorkflowConfig", "WorkflowManager"]


def _feedback_key(loop: str, sim_id: str, chunk: int) -> str:
    """Live key of one analysis chunk, e.g. ``rdf/live/{cg00001-000}``.

    The braces are a Redis hash tag: the key hashes on the tag alone,
    so tagging moves it to ``<loop>/done/{...}`` within its slot, a
    native rename on each replica instead of a get + set + delete.
    """
    return f"{loop}/live/{{{sim_id}-{chunk:03d}}}"


@dataclass(frozen=True)
class WorkflowConfig:
    """Tunable knobs of the functional workflow."""

    max_cg_sims: int = 2
    """Concurrent CG simulations (GPU-job stand-ins)."""

    max_aa_sims: int = 1
    cg_ready_target: int = 2
    """Prepared CG systems kept in anticipation (§4.4 Task 3: 'sets of CG
    and AA simulations are kept prepared ... a trade-off between
    readiness ... and simulating stale configurations')."""

    aa_ready_target: int = 1
    beads_per_type: int = 25
    """Lipid beads per type in createsim (small for laptop scale)."""

    cg_chunks_per_job: int = 3
    cg_steps_per_chunk: int = 40
    aa_chunks_per_job: int = 2
    aa_steps_per_chunk: int = 30
    patch_queue_cap: int = 1000
    frame_bins: int = 6
    frame_randomness: float = 0.1
    seed: int = 0


class WorkflowManager:
    """Coordinates the three scales over real (small) simulations.

    Parameters
    ----------
    macro:
        The running continuum simulation.
    encoder:
        Patch encoder producing the 9-D novelty space. Its input dim
        must match ``n_inner_types * patch_grid**2``.
    forcefield:
        The shared CG force field (AA→CG feedback mutates it).
    store:
        DataStore for patches, RDFs and SS patterns (one store, three
        namespaces; any backend).
    adapter:
        Scheduler adapter executing job bodies. By default the WM builds
        a two-worker :class:`~repro.sched.shares.FairShareAdapter`, runs
        on one tenant view of it, and shuts it down in :meth:`close`.
    feedback_managers:
        Managers whose ``run_iteration`` the WM drives each round.
    """

    def __init__(
        self,
        macro: ContinuumSim,
        encoder: PatchEncoder,
        forcefield: CGForceField,
        store: DataStore,
        adapter: Optional[SchedulerAdapter] = None,
        config: Optional[WorkflowConfig] = None,
        patch_creator: Optional[PatchCreator] = None,
        feedback_managers: Sequence[FeedbackManager] = (),
        patch_queues: Optional[Sequence[str]] = None,
        queue_router: Optional[Callable[[Patch], str]] = None,
    ) -> None:
        self.config = config or WorkflowConfig()
        self.macro = macro
        self.encoder = encoder
        self.forcefield = forcefield
        self.store = store
        # A WM owns only the pool it created itself. Shared pools (the
        # control plane's) belong to their daemon: close() must not shut
        # them down under other tenants.
        self._own_pool: Optional[FairShareAdapter] = None
        if adapter is None:
            self._own_pool = FairShareAdapter(max_workers=2)
            adapter = self._own_pool.view("wm")
        self.adapter = adapter
        self.patch_creator = patch_creator or PatchCreator(patch_grid=9, store=store)
        self.feedback_managers = list(feedback_managers)
        self.rng = np.random.default_rng(self.config.seed)

        # Task 2 state: the two selectors. Queue layout + routing are
        # application choices (§4.4 Task 2: the production Patch Selector
        # keeps five queues for different protein configurations); the
        # default is the two-state layout.
        if queue_router is None:
            queue_router = lambda patch: (  # noqa: E731 - tiny default
                "ras-raf" if patch.protein_state == 1 else "ras"
            )
            patch_queues = patch_queues or ("ras", "ras-raf")
        elif patch_queues is None:
            raise ValueError("queue_router requires an explicit patch_queues list")
        self.queue_router = queue_router
        self.patch_selector = FarthestPointSampler(
            dim=encoder.latent_dim,
            queues=list(patch_queues),
            queue_cap=self.config.patch_queue_cap,
        )
        self.frame_selector = BinnedSampler(
            [
                BinSpec(0.0, 4.0, self.config.frame_bins),   # RAS-RAF separation
                BinSpec(0.0, np.pi, self.config.frame_bins),  # orientation
                BinSpec(0.0, 3.0, self.config.frame_bins),   # radius of gyration
            ],
            randomness=self.config.frame_randomness,
            rng=np.random.default_rng(self.config.seed + 1),
        )
        # Only the thread that drives the rounds writes WM state; it holds
        # this guard while writing, so readers on other threads (status(),
        # counters_snapshot(), telemetry) see whole updates (§4.4
        # "Parallelism and Locking").
        self._guard = SharedState(None)

        # Task 3 state: ready buffers and trackers per job type.
        self.cg_ready: List[CGSystem] = []
        self.aa_ready: List[AASystem] = []
        self._patch_by_id: Dict[str, Patch] = {}
        self._frame_by_id: Dict[str, FrameCandidate] = {}
        self._frame_systems: Dict[str, CGSystem] = {}

        self.trackers = {
            name: JobTracker(JobTypeConfig(name=name, ncores=cores, ngpus=gpus),
                             self.adapter, rng=np.random.default_rng(self.config.seed + i))
            for i, (name, cores, gpus) in enumerate(
                [("createsim", 24, 0), ("cg-sim", 2, 1), ("backmap", 18, 0), ("aa-sim", 2, 1)]
            )
        }
        # (tracker name, tag) of launched jobs not yet applied, in launch order.
        self._launched: List[Tuple[str, str]] = []

        # Counters mirrored into the checkpoint.
        self.counters: Dict[str, int] = {
            "snapshots": 0,
            "patches": 0,
            "patches_selected": 0,
            "cg_spawned": 0,
            "cg_finished": 0,
            "frames_seen": 0,
            "frames_selected": 0,
            "aa_spawned": 0,
            "aa_finished": 0,
            "feedback_iterations": 0,
            # Candidates discarded at restore because their side-table
            # entry did not survive; without these the pipeline
            # conservation invariant (created = selected + queued +
            # dropped + duplicates + pruned) cannot balance.
            "patches_pruned": 0,
            "frames_pruned": 0,
        }
        self.rounds = 0

    def counters_snapshot(self) -> Dict[str, int]:
        """Consistent copy of the pipeline counters (any thread)."""
        with self._guard.locked():
            return dict(self.counters)

    # ------------------------------------------------------------------
    # Task 1: process coarse-scale data
    # ------------------------------------------------------------------

    def task1_process_macro(self, advance_us: float = 1.0) -> int:
        """Advance the continuum, cut and encode patches (on the adapter's
        executor), then enqueue the candidates on this thread."""
        patches, encodings = self._offload(
            functools.partial(self._cut_patches, advance_us))
        # Encoding already ran in batch; feed the selector in batch too:
        # one add_batch per queue.
        by_queue: Dict[str, List[Point]] = {}
        for patch, z in zip(patches, encodings):
            by_queue.setdefault(self.queue_router(patch), []).append(
                Point(id=patch.patch_id, coords=z))
        with self._guard.locked():
            self._patch_by_id.update((p.patch_id, p) for p in patches)
            for queue, points in by_queue.items():
                self.patch_selector.add_batch(points, queue=queue)
            self.counters["snapshots"] += 1
            self.counters["patches"] += len(patches)
        return len(patches)

    def _cut_patches(self, advance_us: float) -> Tuple[List[Patch], Any]:
        with trace.span("wm.task1") as sp:
            self.macro.step(max(1, int(round(advance_us / self.macro.config.dt))))
            patches = self.patch_creator.create(self.macro.snapshot())
            encodings = (self.encoder.encode(np.stack([p.flat() for p in patches]))
                         if patches else [])
            if sp:
                sp.set(patches=len(patches))
        return patches, encodings

    # ------------------------------------------------------------------
    # Task 3: schedule and manage jobs (which triggers Task 2 selections)
    # ------------------------------------------------------------------

    def _launch_seed(self) -> int:
        """A job's seed, drawn when it is launched on the WM thread, so the
        seed a system gets does not depend on which worker runs first."""
        return int(self.rng.integers(2**31))

    def _launch(self, kind: str, tag: str, fn: Callable[[], Any]) -> None:
        self.trackers[kind].launch(tag, fn=trace.wrap(fn))
        self._launched.append((kind, tag))

    def _unapplied(self, kind: str) -> int:
        """Launched jobs of ``kind`` whose output is not yet applied."""
        return sum(1 for k, _ in self._launched if k == kind)

    def _fill_cg_buffer(self) -> int:
        """Launch createsim jobs until the ready buffer will hit target."""
        launched = 0
        while (
            len(self.cg_ready) + self._unapplied("createsim") < self.config.cg_ready_target
            and self.patch_selector.ncandidates() > 0
        ):
            with trace.span("wm.select") as sp:
                with self._guard.locked():
                    selected = self.patch_selector.select(1, now=float(self.rounds))
                    if not selected:
                        break
                    patch = self._patch_by_id.pop(selected[0].id)
                    self.counters["patches_selected"] += 1
                if sp:
                    sp.set(patch=patch.patch_id)
            seed = self._launch_seed()

            def setup_job(patch=patch, seed=seed) -> CGSystem:
                with trace.span("wm.createsim", patch=patch.patch_id):
                    return createsim(
                        patch.densities,
                        box=patch.box_nm / 10.0,  # nm -> engine units
                        with_raf=patch.protein_state == 1,
                        patch_id=patch.patch_id,
                        forcefield=self.forcefield,
                        beads_per_type=self.config.beads_per_type,
                        seed=seed,
                    )

            self._launch("createsim", patch.patch_id, setup_job)
            launched += 1
        return launched

    def _spawn_sims(self, kind: str, ready: List, prefix: str, limit: int,
                    body: Callable[..., Any]) -> int:
        """Start simulation jobs of ``kind`` from its ready buffer."""
        spawned = 0
        while ready and self._unapplied(kind) < limit:
            with self._guard.locked():
                system = ready.pop(0)
                sim_id = f"{prefix}{self.counters[prefix + '_spawned']:05d}"
                self.counters[prefix + "_spawned"] += 1
            self._launch(kind, sim_id, functools.partial(
                body, system, sim_id, self._launch_seed()))
            spawned += 1
        return spawned

    def _spawn_cg_sims(self) -> int:
        return self._spawn_sims("cg-sim", self.cg_ready, "cg",
                                self.config.max_cg_sims, self._run_cg_sim)

    def _run_cg_sim(self, system: CGSystem, sim_id: str,
                    seed: int) -> List[Tuple[FrameCandidate, CGSystem]]:
        """The CG simulation + co-scheduled analysis job body; returns
        each chunk's frame candidate with its system."""
        frames = []
        with trace.span("wm.cg_sim", sim=sim_id):
            cfg = CGConfig(box=system.box, n_lipids=1, seed=seed)
            sim = CGSim(system.positions, system.type_ids, self.forcefield, cfg,
                        bonds=system.bonds)
            analysis = CGAnalysis(sim, sim_id=sim_id)
            for chunk in range(self.config.cg_chunks_per_job):
                sim.step(self.config.cg_steps_per_chunk)
                out = analysis.analyze()
                self.store.write(
                    _feedback_key("rdf", sim_id, chunk), out["rdf"].to_bytes()
                )
                frames.append((out["candidate"], CGSystem(
                    positions=sim.positions.copy(),
                    type_ids=sim.type_ids.copy(),
                    bonds=sim.bonds.copy(),
                    box=system.box,
                    source_patch=system.source_patch,
                )))
        return frames

    def _fill_aa_buffer(self) -> int:
        """Select frames and launch backmapping jobs."""
        launched = 0
        while (
            len(self.aa_ready) + self._unapplied("backmap") < self.config.aa_ready_target
            and self.frame_selector.ncandidates() > 0
        ):
            with trace.span("wm.select") as sp:
                with self._guard.locked():
                    selected = self.frame_selector.select(1, now=float(self.rounds))
                    if not selected:
                        break
                    frame_id = selected[0].id
                    self._frame_by_id.pop(frame_id, None)
                    system = self._frame_systems.pop(frame_id)
                    self.counters["frames_selected"] += 1
                if sp:
                    sp.set(frame=frame_id)
            seed = self._launch_seed()

            def backmap_job(system=system, frame_id=frame_id, seed=seed) -> AASystem:
                with trace.span("wm.backmap", frame=frame_id):
                    return backmap(system, self.forcefield, frame_id=frame_id, seed=seed)

            self._launch("backmap", frame_id, backmap_job)
            launched += 1
        return launched

    def _spawn_aa_sims(self) -> int:
        return self._spawn_sims("aa-sim", self.aa_ready, "aa",
                                self.config.max_aa_sims, self._run_aa_sim)

    def _run_aa_sim(self, system: AASystem, sim_id: str, seed: int) -> None:
        with trace.span("wm.aa_sim", sim=sim_id):
            sim = AASim(system.positions, system.bonds, system.backbone,
                        config=AAConfig(box=system.box, seed=seed))
            analysis = SecondaryStructureAnalysis(system.backbone, box=system.box)
            for chunk in range(self.config.aa_chunks_per_job):
                sim.step(self.config.aa_steps_per_chunk)
                pattern = analysis.analyze_frame(sim.positions)
                self.store.write(
                    _feedback_key("ss", sim_id, chunk),
                    pattern.encode("utf-8"),
                )

    def _apply_settled(self) -> None:
        """Apply settled jobs' outputs to WM state in launch order: a
        createsim's system joins ``cg_ready``, a CG sim's frames the
        Frame Selector, a backmap's system ``aa_ready``. An abandoned or
        cancelled job applies nothing; one in flight stays in the ledger."""
        pending = []
        with self._guard.locked():
            for kind, tag in self._launched:
                settled = self.trackers[kind].take(tag)
                if settled is None:
                    pending.append((kind, tag))
                    continue
                state, output = settled
                if state is not JobState.COMPLETED:
                    continue
                if kind == "createsim":
                    self.cg_ready.append(output)
                elif kind == "cg-sim":
                    for candidate, system in output:
                        self.frame_selector.add(
                            Point(id=candidate.frame_id, coords=candidate.encoding))
                        self._frame_by_id[candidate.frame_id] = candidate
                        self._frame_systems[candidate.frame_id] = system
                    self.counters["frames_seen"] += len(output)
                    self.counters["cg_finished"] += 1
                elif kind == "backmap":
                    self.aa_ready.append(output)
                else:
                    self.counters["aa_finished"] += 1
            self._launched = pending

    def task3_manage_jobs(self) -> Dict[str, int]:
        """One scan-and-replace pass over all four job types, after
        applying whatever jobs have settled since the last pass."""
        self._apply_settled()
        with trace.span("schedule.manage") as sp:
            launched = {
                "createsim": self._fill_cg_buffer(),
                "cg": self._spawn_cg_sims(),
                "backmap": self._fill_aa_buffer(),
                "aa": self._spawn_aa_sims(),
            }
            if sp:
                sp.set(**launched)
        return launched

    # ------------------------------------------------------------------
    # Task 4: feedback
    # ------------------------------------------------------------------

    def task4_feedback(self) -> int:
        """One iteration of every feedback manager, on the adapter's executor."""
        n = self._offload(self._feedback_iteration)
        with self._guard.locked():
            self.counters["feedback_iterations"] += n
        return n

    def _feedback_iteration(self) -> int:
        with trace.span("wm.task4"):
            for manager in self.feedback_managers:
                manager.run_iteration(now=float(self.rounds))
        return len(self.feedback_managers)

    def lock_stats(self) -> Dict[str, int]:
        """State-guard contention counters (profiling, §4.4)."""
        return self._guard.stats.as_dict()

    # ------------------------------------------------------------------
    # The round driver
    # ------------------------------------------------------------------

    def round(self, advance_us: float = 1.0) -> Dict[str, int]:
        """One coordination round across all four tasks.

        Task 1 → Task 3 → barrier → Task 3 → barrier → Task 4. The
        barrier is ``adapter.wait_all()``: it returns once every job
        this adapter submitted has settled, retries included. The
        settled jobs' outputs are then applied in launch order, so the
        round is fixed by its seed. The second scan starts sims on the
        buffers the setup jobs just filled. A round ends with no job in
        flight, unless a stalled chaos adapter's barrier returned early;
        those jobs are applied by a later round's scans.

        Task 1's patch cutting and Task 4's feedback run on
        ``adapter.executor`` when the adapter has one (billed to the
        tenant's fair share as ``wm-offload`` jobs), else inline. Both
        start after a barrier, with this WM's jobs settled.
        """
        with trace.span("wm.round", round=self.rounds):
            self.task1_process_macro(advance_us)
            self.task3_manage_jobs()
            self.adapter.wait_all()
            self.task3_manage_jobs()
            self.adapter.wait_all()
            self._apply_settled()
            self.task4_feedback()
        self.rounds += 1
        return self.counters_snapshot()

    def _offload(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` on the adapter's executor (inline if none)."""
        executor = self.adapter.executor
        if executor is None:
            return fn()
        return executor.submit(trace.wrap(fn)).result()

    def run(self, nrounds: int, advance_us: float = 1.0) -> Dict[str, int]:
        for _ in range(nrounds):
            self.round(advance_us)
        return self.counters_snapshot()

    def status(self) -> Dict[str, object]:
        """One addressable snapshot of this workflow's coordination state.

        The control plane's :class:`~repro.service.registry.CampaignHandle`
        serves this over HTTP; it is also handy interactively. Everything
        here is owned by *this* instance — no module or process globals —
        which is what lets one daemon host many WMs side by side.
        """
        with self._guard.locked():
            ready = {"cg": len(self.cg_ready), "aa": len(self.aa_ready)}
            selectors = {
                "patch_candidates": self.patch_selector.ncandidates(),
                "frame_candidates": self.frame_selector.ncandidates(),
            }
            counters = dict(self.counters)
        return {
            "rounds": self.rounds,
            "counters": counters,
            "ready_buffers": ready,
            "selectors": selectors,
            "active_jobs": {name: t.nactive() for name, t in self.trackers.items()},
            "macro_time_us": self.macro.time_us,
            "coupling_version": self.macro.coupling_version,
            "ff_version": self.forcefield.version,
        }

    def close(self) -> None:
        """Drain in-flight jobs and shut down the pool if this WM owns it.

        Campaigns used to die with their process, leaking pool threads on
        abnormal exits; a service-hosted WM must instead shut down cleanly
        while its shared substrate (adapter pool, store) keeps serving
        other tenants.
        """
        self._quiesce()
        if self._own_pool is not None:
            self._own_pool.shutdown()

    # ------------------------------------------------------------------
    # Checkpoint / restore (§4.4 resilience)
    # ------------------------------------------------------------------

    def _quiesce(self) -> None:
        """Settle in-flight jobs and apply their outputs before a snapshot.

        A stalled chaos adapter leaves a round's jobs in flight, their
        patches already popped from the side tables; a checkpoint must
        not strand that work. ``adapter.flush()`` is the round barrier
        for thread-pool adapters, a drain that ignores stalls for the
        chaos adapter, and a no-op for virtual-time adapters.
        """
        self.adapter.flush()
        self._apply_settled()

    def checkpoint(self, key: str = "wm/checkpoint") -> None:
        """Persist WM counters, selector state, histories — and the
        patch/frame side tables the selectors' candidate ids resolve
        against, so a restored WM can actually materialize the
        candidates its selectors still hold. In-flight jobs are flushed
        first and the resulting ready buffers persisted, so nothing the
        pipeline already paid for is stranded by a restore."""
        from repro.sampling.persistence import save_sampler

        self._quiesce()
        save_sampler(self.store, f"{key}/patch-selector", self.patch_selector)
        save_sampler(self.store, f"{key}/frame-selector", self.frame_selector)
        frames = [c.to_json() for c in self._frame_by_id.values()]
        side = {f"{key}/patch-table/{pid}": p.to_bytes()
                for pid, p in self._patch_by_id.items()}
        side.update({f"{key}/frame-table/{fid}": s.to_bytes()
                     for fid, s in self._frame_systems.items()})
        side.update({f"{key}/ready/cg/{i:04d}": s.to_bytes()
                     for i, s in enumerate(self.cg_ready)})
        side.update({f"{key}/ready/aa/{i:04d}": s.to_bytes()
                     for i, s in enumerate(self.aa_ready)})
        stale = [
            k
            for prefix in (f"{key}/patch-table/", f"{key}/frame-table/",
                           f"{key}/ready/")
            for k in self.store.keys(prefix)
            if k not in side
        ]
        if stale:
            self.store.delete_many(stale)
        if side:
            self.store.write_many(side)
        self.store.write_json(f"{key}/frame-candidates", frames)
        payload = {
            "rounds": self.rounds,
            "counters": dict(self.counters),
            "patch_history": self.patch_selector.history_rows(),
            "frame_history": self.frame_selector.history_rows(),
            "macro_time_us": self.macro.time_us,
            "coupling_version": self.macro.coupling_version,
            "ff_version": self.forcefield.version,
            "ss_pattern": self.forcefield.ss_pattern,
        }
        self.store.write_json(key, payload)

    def restore(self, key: str = "wm/checkpoint") -> Dict:
        """Reload counters, selector state, and side tables; returns the
        payload. Selector candidates whose side-table entry did not
        survive (e.g. a checkpoint written by an older version) are
        pruned — selecting one would otherwise KeyError the round
        driver instead of producing a job."""
        from repro.sampling.persistence import load_sampler

        payload = self.store.read_json(key)
        patch_prefix = f"{key}/patch-table/"
        patch_table = {
            k[len(patch_prefix):]: Patch.from_bytes(v)
            for k, v in self.store.read_present(self.store.keys(patch_prefix)).items()
        }
        frame_prefix = f"{key}/frame-table/"
        frame_table = {
            k[len(frame_prefix):]: CGSystem.from_bytes(v)
            for k, v in self.store.read_present(self.store.keys(frame_prefix)).items()
        }
        candidates = {}
        if self.store.exists(f"{key}/frame-candidates"):
            candidates = {
                row["frame_id"]: FrameCandidate.from_json(row)
                for row in self.store.read_json(f"{key}/frame-candidates")
            }
        cg_rows = self.store.read_present(sorted(self.store.keys(f"{key}/ready/cg/")))
        aa_rows = self.store.read_present(sorted(self.store.keys(f"{key}/ready/aa/")))
        with self._guard.locked():
            self.rounds = int(payload["rounds"])
            self.counters.update({k: int(v) for k, v in payload["counters"].items()})
            # Patch ids number snapshots: resume the numbering, or the
            # next snapshot re-mints ids of selected and queued patches.
            self.patch_creator.snapshots_processed = self.counters["snapshots"]
            self.cg_ready = [CGSystem.from_bytes(cg_rows[k]) for k in sorted(cg_rows)]
            self.aa_ready = [AASystem.from_bytes(aa_rows[k]) for k in sorted(aa_rows)]
            if self.store.exists(f"{key}/patch-selector"):
                load_sampler(self.store, f"{key}/patch-selector", self.patch_selector)
            if self.store.exists(f"{key}/frame-selector"):
                load_sampler(self.store, f"{key}/frame-selector", self.frame_selector)
            self._patch_by_id = patch_table
            self._frame_systems = frame_table
            self._frame_by_id = candidates
            for pid in self.patch_selector.candidate_ids() - set(patch_table):
                self.patch_selector.remove(pid)
                self.counters["patches_pruned"] += 1
            for fid in self.frame_selector.candidate_ids() - set(frame_table):
                self.frame_selector.discard(fid)
                self._frame_by_id.pop(fid, None)
                self.counters["frames_pruned"] += 1
        return payload
