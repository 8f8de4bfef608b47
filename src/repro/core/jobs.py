"""Task 3: the generic, configurable Job Tracker.

§4.3/§4.4: "to support handling arbitrary types of jobs, we provide a
generic and abstract Job Tracker that can be customized using a
combination of inherited classes and configuration files. ... the WM
regularly scans all running jobs to determine completion (either
success or failure) and submits new jobs (or resubmits failed ones) to
re-engage resources as soon as they become available."

One :class:`JobTracker` manages one job *type* (the campaign has four:
CG setup, CG sim/analysis, AA setup, AA sim/analysis). The tracker
owns the explicit simulation-to-job mapping (§4.3): every submission
carries a simulation tag, and retries keep the tag.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.sched.adapter import SchedulerAdapter
from repro.sched.jobspec import JobRecord, JobSpec, JobState

__all__ = ["JobTypeConfig", "JobTracker"]


@dataclass(frozen=True)
class JobTypeConfig:
    """Resource/runtime template for one job type (the config-file part).

    The paper's placements on Summit (§4.3): both simulation types use
    1 GPU + 2 cache-sharing cores with analysis on cores near the PCIe
    bus; setup jobs are CPU-only with 24 cores on one node.
    """

    name: str
    ncores: int = 1
    ngpus: int = 0
    nnodes: int = 1
    max_retries: int = 2
    duration_sampler: Optional[Callable[[np.random.Generator], float]] = None
    """Samples the job's virtual-time duration; None = runs until cancelled."""

    def make_spec(self, tag: str, rng: np.random.Generator,
                  duration: Optional[float] = None) -> JobSpec:
        if duration is None and self.duration_sampler is not None:
            duration = float(self.duration_sampler(rng))
        return JobSpec(
            name=self.name,
            ncores=self.ncores,
            ngpus=self.ngpus,
            nnodes=self.nnodes,
            duration=duration,
            tag=tag,
        )


class JobTracker:
    """Tracks all jobs of one type through an adapter.

    Completion callbacks fire with the record; failures are retried up
    to ``max_retries`` with the same tag (the "resubmits failed ones"
    path), then surrendered to :attr:`abandoned`.
    """

    def __init__(
        self,
        config: JobTypeConfig,
        adapter: SchedulerAdapter,
        rng: Optional[np.random.Generator] = None,
        on_success: Optional[Callable[[JobRecord], None]] = None,
        on_abandon: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.config = config
        self.adapter = adapter
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.on_success = on_success
        self.on_abandon = on_abandon
        self.active: Dict[int, JobRecord] = {}
        self.completed = 0  # jobs that ended COMPLETED
        self.abandoned: List[str] = []  # tags that exhausted retries
        self._retries: Dict[str, int] = {}
        self._tag_hooks: Dict[str, List[Callable[[JobRecord], None]]] = {}
        # Each tag's final record until take() hands it over.
        self._settled: Dict[str, JobRecord] = {}
        # A threaded adapter may finish a job before launch() records it
        # in ``active``; such early settles are parked here so launch()
        # does not then track a finished job forever.
        self._active_lock = threading.Lock()
        self._settled_untracked: Set[int] = set()

    # --- submission ------------------------------------------------------

    def launch(
        self,
        tag: str,
        fn: Optional[Callable[[], Any]] = None,
        duration: Optional[float] = None,
    ) -> JobRecord:
        """Submit one job for simulation ``tag``.

        A failed job's retry runs the same ``fn`` and is submitted from
        inside the adapter's completion callback, so an adapter's
        ``wait_all`` — which counts a job until that callback returns —
        also covers the retry.
        """
        spec = self.config.make_spec(tag, self.rng, duration=duration)
        record = self.adapter.submit(
            spec, fn=fn, on_complete=lambda done: self._job_done(done, fn))
        with self._active_lock:
            if record.job_id in self._settled_untracked:
                self._settled_untracked.discard(record.job_id)
            else:
                self.active[record.job_id] = record
        return record

    def when_done(self, tag: str, callback: Callable[[JobRecord], None]) -> None:
        """Fire ``callback(record)`` when job ``tag`` completes successfully.

        This is how job interdependence is expressed (§4.4 Task 3: "the
        interdependence of jobs" is a Job Tracker configuration): chain
        a dependent launch onto its prerequisite, across trackers::

            setup.when_done("patch-7", lambda rec: cg.launch("sim-7"))

        Hooks fire once, after the tracker's own bookkeeping.
        """
        self._tag_hooks.setdefault(tag, []).append(callback)

    def take(self, tag: str) -> Optional[Tuple[JobState, Any]]:
        """``tag``'s final state and result, once: completed, failed with
        retries exhausted, or cancelled; None while it is in flight. The
        result moves out of the record, so an adapter that keeps its
        records (the chaos adapter's table) does not keep outputs alive."""
        with self._active_lock:
            record = self._settled.pop(tag, None)
        if record is None:
            return None
        result, record.result = record.result, None
        return record.state, result

    def _job_done(self, record: JobRecord, fn: Optional[Callable[[], Any]]) -> None:
        with self._active_lock:
            if self.active.pop(record.job_id, None) is None:
                self._settled_untracked.add(record.job_id)
        tag = record.spec.tag or ""
        tries = self._retries.get(tag, 0)
        if record.state is JobState.FAILED and tries < self.config.max_retries:
            # Retry with the same tag and the same body.
            self._retries[tag] = tries + 1
            self.launch(tag, fn=fn, duration=record.spec.duration)
            return
        with self._active_lock:
            self._settled[tag] = record
            if record.state is JobState.COMPLETED:
                self.completed += 1
        if record.state is JobState.COMPLETED:
            self._retries.pop(tag, None)
            if self.on_success is not None:
                self.on_success(record)
            for hook in self._tag_hooks.pop(tag, []):
                hook(record)
        elif record.state is JobState.FAILED:
            self.abandoned.append(tag)
            if self.on_abandon is not None:
                self.on_abandon(tag)

    # --- scanning -------------------------------------------------------------

    def nactive(self) -> int:
        return len(self.active)

    def nrunning(self) -> int:
        return sum(1 for r in self.active.values() if r.state is JobState.RUNNING)

    def npending(self) -> int:
        return sum(1 for r in self.active.values() if r.state is JobState.PENDING)

    def tags_active(self) -> List[str]:
        return [r.spec.tag or "" for r in self.active.values()]

    def retries_used(self, tag: str) -> int:
        return self._retries.get(tag, 0)

    def cancel_all(self) -> int:
        """Cancel every active job (controlled shutdown); returns count."""
        n = 0
        for record in list(self.active.values()):
            self.adapter.cancel(record.job_id)
            n += 1
        return n
