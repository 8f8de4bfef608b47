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
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

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
from repro.sched.adapter import SchedulerAdapter, ThreadAdapter
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
        Scheduler adapter executing job bodies (ThreadAdapter by
        default).
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
        # A WM owns only the adapter it created itself. Shared adapters
        # (the control plane's fair-share pool) belong to their daemon:
        # close() must not shut them down under other tenants.
        self._owns_adapter = adapter is None
        self.adapter = adapter if adapter is not None else ThreadAdapter(max_workers=2)
        self.patch_creator = patch_creator or PatchCreator(patch_grid=9, store=store)
        self.feedback_managers = list(feedback_managers)
        self.rng = np.random.default_rng(self.config.seed)

        # Task 2 state: the two selectors, shared across tasks -> locked.
        # Queue layout + routing are application choices (§4.4 Task 2:
        # the production Patch Selector keeps five queues for different
        # protein configurations); the default is the two-state layout.
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
        # Shared across WM tasks and analysis threads; blocking lock
        # with contention counters (§4.4 "Parallelism and Locking").
        self._selector_guard = SharedState(None)

        # Task 3 state: ready buffers and trackers per job type.
        self.cg_ready: List[CGSystem] = []
        self.aa_ready: List[AASystem] = []
        self._buffer_lock = threading.Lock()
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

        # Counters mirrored into the checkpoint. Job bodies run in
        # adapter worker threads and bump cg_finished / aa_finished /
        # frames_seen concurrently with the round driver's own updates,
        # so every mutation goes through _bump under this lock.
        self._counters_lock = threading.Lock()
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

    def _bump(self, name: str, n: int = 1) -> None:
        """Thread-safe counter increment (job bodies run in worker threads)."""
        with self._counters_lock:
            self.counters[name] += n

    def counters_snapshot(self) -> Dict[str, int]:
        """Consistent copy of the pipeline counters."""
        with self._counters_lock:
            return dict(self.counters)

    # ------------------------------------------------------------------
    # Task 1: process coarse-scale data
    # ------------------------------------------------------------------

    def task1_process_macro(self, advance_us: float = 1.0) -> int:
        """Advance the continuum, cut patches, encode, enqueue candidates."""
        with trace.span("wm.task1") as sp:
            steps = max(1, int(round(advance_us / self.macro.config.dt)))
            self.macro.step(steps)
            snapshot = self.macro.snapshot()
            patches = self.patch_creator.create(snapshot)
            if patches:
                encodings = self.encoder.encode(np.stack([p.flat() for p in patches]))
                # Encoding already ran in batch; feed the selector in batch
                # too — grouped per queue, one add_batch per group, under a
                # single lock acquisition.
                by_queue: Dict[str, List[Point]] = {}
                for patch, z in zip(patches, encodings):
                    queue = self.queue_router(patch)
                    by_queue.setdefault(queue, []).append(
                        Point(id=patch.patch_id, coords=z)
                    )
                    self._patch_by_id[patch.patch_id] = patch
                with self._selector_guard.locked():
                    for queue, points in by_queue.items():
                        self.patch_selector.add_batch(points, queue=queue)
            if sp:
                sp.set(patches=len(patches))
        self._bump("snapshots")
        self._bump("patches", len(patches))
        return len(patches)

    # ------------------------------------------------------------------
    # Task 3: schedule and manage jobs (which triggers Task 2 selections)
    # ------------------------------------------------------------------

    def _fill_cg_buffer(self) -> int:
        """Launch createsim jobs until the ready buffer will hit target."""
        launched = 0
        tracker = self.trackers["createsim"]
        while (
            len(self.cg_ready) + tracker.nactive() < self.config.cg_ready_target
            and self.patch_selector.ncandidates() > 0
        ):
            with trace.span("wm.select") as sp:
                with self._selector_guard.locked():
                    selected = self.patch_selector.select(1, now=float(self.rounds))
                if sp and selected:
                    sp.set(patch=selected[0].id)
            if not selected:
                break
            patch = self._patch_by_id.pop(selected[0].id)
            self._bump("patches_selected")

            def setup_job(patch=patch):
                with trace.span("wm.createsim", patch=patch.patch_id):
                    system = createsim(
                        patch.densities,
                        box=patch.box_nm / 10.0,  # nm -> engine units
                        with_raf=patch.protein_state == 1,
                        patch_id=patch.patch_id,
                        forcefield=self.forcefield,
                        beads_per_type=self.config.beads_per_type,
                        seed=int(self.rng.integers(2**31)),
                    )
                    with self._buffer_lock:
                        self.cg_ready.append(system)
                return system.nparticles

            tracker.launch(patch.patch_id, fn=trace.wrap(setup_job))
            launched += 1
        return launched

    def _spawn_cg_sims(self) -> int:
        """Start CG simulation jobs from the ready buffer."""
        spawned = 0
        tracker = self.trackers["cg-sim"]
        while tracker.nactive() < self.config.max_cg_sims:
            with self._buffer_lock:
                if not self.cg_ready:
                    break
                system = self.cg_ready.pop(0)
            with self._counters_lock:
                sim_id = f"cg{self.counters['cg_spawned']:05d}"
                self.counters["cg_spawned"] += 1

            def cg_job(system=system, sim_id=sim_id):
                return self._run_cg_sim(system, sim_id)

            tracker.launch(sim_id, fn=trace.wrap(cg_job))
            spawned += 1
        return spawned

    def _run_cg_sim(self, system: CGSystem, sim_id: str) -> float:
        """The CG simulation + co-scheduled analysis job body."""
        with trace.span("wm.cg_sim", sim=sim_id):
            cfg = CGConfig(box=system.box, n_lipids=1, seed=int(self.rng.integers(2**31)))
            sim = CGSim(system.positions, system.type_ids, self.forcefield, cfg,
                        bonds=system.bonds)
            analysis = CGAnalysis(sim, sim_id=sim_id)
            for chunk in range(self.config.cg_chunks_per_job):
                sim.step(self.config.cg_steps_per_chunk)
                out = analysis.analyze()
                self.store.write(
                    _feedback_key("rdf", sim_id, chunk), out["rdf"].to_bytes()
                )
                candidate = out["candidate"]
                with self._selector_guard.locked():
                    self.frame_selector.add(
                        Point(id=candidate.frame_id, coords=candidate.encoding)
                    )
                    self._frame_by_id[candidate.frame_id] = candidate
                    self._frame_systems[candidate.frame_id] = CGSystem(
                        positions=sim.positions.copy(),
                        type_ids=sim.type_ids.copy(),
                        bonds=sim.bonds.copy(),
                        box=system.box,
                        source_patch=system.source_patch,
                    )
                    self._bump("frames_seen")
        self._bump("cg_finished")
        return sim.time

    def _fill_aa_buffer(self) -> int:
        """Select frames and launch backmapping jobs."""
        launched = 0
        tracker = self.trackers["backmap"]
        while (
            len(self.aa_ready) + tracker.nactive() < self.config.aa_ready_target
            and self.frame_selector.ncandidates() > 0
        ):
            with trace.span("wm.select") as sp:
                with self._selector_guard.locked():
                    selected = self.frame_selector.select(1, now=float(self.rounds))
                    if not selected:
                        break
                    frame_id = selected[0].id
                    self._frame_by_id.pop(frame_id, None)
                    system = self._frame_systems.pop(frame_id)
                if sp:
                    sp.set(frame=frame_id)
            self._bump("frames_selected")

            def backmap_job(system=system, frame_id=frame_id):
                with trace.span("wm.backmap", frame=frame_id):
                    aa = backmap(system, self.forcefield, frame_id=frame_id,
                                 seed=int(self.rng.integers(2**31)))
                    with self._buffer_lock:
                        self.aa_ready.append(aa)
                return aa.natoms

            tracker.launch(frame_id, fn=trace.wrap(backmap_job))
            launched += 1
        return launched

    def _spawn_aa_sims(self) -> int:
        spawned = 0
        tracker = self.trackers["aa-sim"]
        while tracker.nactive() < self.config.max_aa_sims:
            with self._buffer_lock:
                if not self.aa_ready:
                    break
                system = self.aa_ready.pop(0)
            with self._counters_lock:
                sim_id = f"aa{self.counters['aa_spawned']:05d}"
                self.counters["aa_spawned"] += 1

            def aa_job(system=system, sim_id=sim_id):
                return self._run_aa_sim(system, sim_id)

            tracker.launch(sim_id, fn=trace.wrap(aa_job))
            spawned += 1
        return spawned

    def _run_aa_sim(self, system: AASystem, sim_id: str) -> float:
        with trace.span("wm.aa_sim", sim=sim_id):
            sim = AASim(system.positions, system.bonds, system.backbone,
                        config=AAConfig(box=system.box, seed=int(self.rng.integers(2**31))))
            analysis = SecondaryStructureAnalysis(system.backbone, box=system.box)
            for chunk in range(self.config.aa_chunks_per_job):
                sim.step(self.config.aa_steps_per_chunk)
                pattern = analysis.analyze_frame(sim.positions)
                self.store.write(
                    _feedback_key("ss", sim_id, chunk),
                    pattern.encode("utf-8"),
                )
        self._bump("aa_finished")
        return sim.time

    def task3_manage_jobs(self) -> Dict[str, int]:
        """One scan-and-replace pass over all four job types."""
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
        """Run one iteration of every registered feedback manager."""
        n = 0
        with trace.span("wm.task4"):
            for manager in self.feedback_managers:
                manager.run_iteration(now=float(self.rounds))
                n += 1
        self._bump("feedback_iterations", n)
        return n

    def lock_stats(self) -> Dict[str, int]:
        """Selector-lock contention counters (profiling, §4.4)."""
        return self._selector_guard.stats.as_dict()

    # ------------------------------------------------------------------
    # The round driver
    # ------------------------------------------------------------------

    def round(self, advance_us: float = 1.0, wait: bool = True) -> Dict[str, int]:
        """One coordination round across all four tasks.

        Task 1 → Task 3 → barrier → Task 3 → barrier → Task 4. The
        barrier is ``adapter.wait_all()``: it returns once every job
        this adapter submitted has settled, retries included — the
        deterministic laptop mode. The second scan starts sims on the
        buffers the setup jobs just filled. With ``wait=False`` both
        the barrier and the second scan are skipped, so jobs overlap
        rounds like the production WM.

        Task 1 and Task 4 run on ``adapter.executor`` when the adapter
        has one (a tenant's are billed to its fair share as
        ``wm-offload`` jobs) and inline otherwise.
        """
        with trace.span("wm.round", round=self.rounds):
            self._offload(functools.partial(self.task1_process_macro, advance_us))
            self.task3_manage_jobs()
            if wait:
                self.adapter.wait_all()
                self.task3_manage_jobs()
                self.adapter.wait_all()
            self._offload(self.task4_feedback)
        self.rounds += 1
        return self.counters_snapshot()

    def _offload(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` on the adapter's executor (inline if none) and wait."""
        executor = self.adapter.executor
        if executor is None:
            fn()
        else:
            executor.submit(trace.wrap(fn)).result()

    def run(self, nrounds: int, advance_us: float = 1.0,
            wait: bool = True) -> Dict[str, int]:
        for _ in range(nrounds):
            self.round(advance_us, wait=wait)
        return self.counters_snapshot()

    def status(self) -> Dict[str, object]:
        """One addressable snapshot of this workflow's coordination state.

        The control plane's :class:`~repro.service.registry.CampaignHandle`
        serves this over HTTP; it is also handy interactively. Everything
        here is owned by *this* instance — no module or process globals —
        which is what lets one daemon host many WMs side by side.
        """
        with self._buffer_lock:
            ready = {"cg": len(self.cg_ready), "aa": len(self.aa_ready)}
        with self._selector_guard.locked():
            selectors = {
                "patch_candidates": self.patch_selector.ncandidates(),
                "frame_candidates": self.frame_selector.ncandidates(),
            }
        return {
            "rounds": self.rounds,
            "counters": self.counters_snapshot(),
            "ready_buffers": ready,
            "selectors": selectors,
            "active_jobs": {name: t.nactive() for name, t in self.trackers.items()},
            "macro_time_us": self.macro.time_us,
            "coupling_version": self.macro.coupling_version,
            "ff_version": self.forcefield.version,
        }

    def close(self) -> None:
        """Drain in-flight jobs and release the adapter if this WM owns it.

        Campaigns used to die with their process, leaking pool threads on
        abnormal exits; a service-hosted WM must instead shut down cleanly
        while its shared substrate (adapter pool, store) keeps serving
        other tenants.
        """
        self._quiesce()
        if self._owns_adapter:  # always the ThreadAdapter built in __init__
            self.adapter.shutdown()

    # ------------------------------------------------------------------
    # Checkpoint / restore (§4.4 resilience)
    # ------------------------------------------------------------------

    def _quiesce(self) -> None:
        """Flush in-flight jobs before snapshotting state.

        ``run(wait=False)`` (and the production WM generally) leaves the
        final round's jobs in flight; a checkpoint taken at that moment
        used to strand them — their patches were already popped from the
        side tables, their outputs not yet in the ready buffers, so a
        restore silently lost that work. ``adapter.flush()`` drains
        them: the round barrier for thread-pool adapters, a drain that
        ignores stalls for the chaos adapter, and a no-op for
        virtual-time adapters, which have nothing to flush.
        """
        self.adapter.flush()

    def checkpoint(self, key: str = "wm/checkpoint") -> None:
        """Persist WM counters, selector state, histories — and the
        patch/frame side tables the selectors' candidate ids resolve
        against, so a restored WM can actually materialize the
        candidates its selectors still hold. In-flight jobs are flushed
        first and the resulting ready buffers persisted, so nothing the
        pipeline already paid for is stranded by a restore."""
        from repro.sampling.persistence import save_sampler

        self._quiesce()
        with self._selector_guard.locked():
            save_sampler(self.store, f"{key}/patch-selector", self.patch_selector)
            save_sampler(self.store, f"{key}/frame-selector", self.frame_selector)
            patches = dict(self._patch_by_id)
            frames = [c.to_json() for c in self._frame_by_id.values()]
            systems = dict(self._frame_systems)
        side = {f"{key}/patch-table/{pid}": p.to_bytes()
                for pid, p in patches.items()}
        side.update({f"{key}/frame-table/{fid}": s.to_bytes()
                     for fid, s in systems.items()})
        with self._buffer_lock:
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
            "counters": self.counters_snapshot(),
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
        self.rounds = int(payload["rounds"])
        with self._counters_lock:
            self.counters.update({k: int(v) for k, v in payload["counters"].items()})
            # Patch ids number snapshots: resume the numbering, or the
            # next snapshot re-mints ids of selected and queued patches.
            self.patch_creator.snapshots_processed = self.counters["snapshots"]
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
        with self._buffer_lock:
            self.cg_ready = [CGSystem.from_bytes(cg_rows[k]) for k in sorted(cg_rows)]
            self.aa_ready = [AASystem.from_bytes(aa_rows[k]) for k in sorted(aa_rows)]
        with self._selector_guard.locked():
            if self.store.exists(f"{key}/patch-selector"):
                load_sampler(self.store, f"{key}/patch-selector", self.patch_selector)
            if self.store.exists(f"{key}/frame-selector"):
                load_sampler(self.store, f"{key}/frame-selector", self.frame_selector)
            self._patch_by_id = patch_table
            self._frame_systems = frame_table
            self._frame_by_id = candidates
            for pid in self.patch_selector.candidate_ids() - set(patch_table):
                self.patch_selector.remove(pid)
                self._bump("patches_pruned")
            for fid in self.frame_selector.candidate_ids() - set(frame_table):
                self.frame_selector.discard(fid)
                self._frame_by_id.pop(fid, None)
                self._bump("frames_pruned")
        return payload
