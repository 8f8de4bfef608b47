"""Maestro-like scheduler adapter: one API, any backend (paper §4.3).

"To achieve portability in job scheduling, the MuMMI workflow
interfaces with Maestro, which provides a consistent API to schedule
and monitor jobs. ... By absorbing the changes and peculiarities of
different job schedulers, Maestro allows MuMMI to be agnostic to the
specific choice of scheduler."

Two adapters ship here:

- :class:`FluxAdapter` — the virtual-time scheduler used by campaign
  simulations and benchmarks.
- :class:`ThreadAdapter` — real execution: runs a Python callable per
  job in a thread pool, which is how the examples run actual (small)
  simulations on a laptop.

Every adapter also serves the WM round: :meth:`~SchedulerAdapter.wait_all`
is its barrier and :attr:`~SchedulerAdapter.executor` (None = inline)
runs its Task 1/Task 4 work.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobRecord, JobSpec, JobState

__all__ = ["SchedulerAdapter", "FluxAdapter", "ThreadAdapter", "InFlight"]


class SchedulerAdapter(abc.ABC):
    """Scheduler-agnostic submit/poll/cancel plus the WM round hooks."""

    #: ``concurrent.futures``-style executor for the WM's Task 1/Task 4
    #: offloads; None runs them inline on the round's thread.
    executor: Optional[Any] = None

    @abc.abstractmethod
    def submit(
        self,
        spec: JobSpec,
        fn: Optional[Callable[[], Any]] = None,
        on_complete: Optional[Callable[[JobRecord], None]] = None,
    ) -> JobRecord:
        """Submit a job. ``fn`` is the job body for adapters that really
        execute work; virtual adapters ignore it and complete after
        ``spec.duration`` of virtual time."""

    @abc.abstractmethod
    def poll(self, job_id: int) -> JobState:
        """Current lifecycle state of a submitted job."""

    @abc.abstractmethod
    def cancel(self, job_id: int) -> None:
        """Best-effort cancellation."""

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """The WM round barrier: block until submitted jobs settled.

        Virtual time never blocks, so the default returns at once.
        """

    def flush(self) -> None:
        """Checkpoint quiesce barrier; the round barrier unless overridden."""
        self.wait_all()


class InFlight:
    """Jobs between submit and the return of their ``on_complete``.

    :meth:`wait` blocks until the count is zero. A callback that
    resubmits (a tracker retry) tracks the new job before its own job
    is counted out, so the count never touches zero between the two.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._n = 0

    def track(self, on_complete: Optional[Callable[[JobRecord], None]]
              ) -> Callable[[JobRecord], None]:
        """Count one job in; returns the completion callback that runs
        ``on_complete`` and then counts the job out."""
        with self._cond:
            self._n += 1

        def settled(record: JobRecord) -> None:
            try:
                if on_complete is not None:
                    on_complete(record)
            finally:
                self.done()

        return settled

    def done(self) -> None:
        with self._cond:
            self._n -= 1
            if self._n == 0:
                self._cond.notify_all()

    def wait(self, timeout: Optional[float] = None) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: self._n == 0, timeout):
                raise TimeoutError(f"{self._n} jobs still in flight")


class FluxAdapter(SchedulerAdapter):
    """Adapter over the virtual-time :class:`FluxInstance`."""

    def __init__(self, flux: FluxInstance) -> None:
        self.flux = flux

    def submit(self, spec, fn=None, on_complete=None) -> JobRecord:
        return self.flux.submit(spec, on_complete=on_complete)

    def poll(self, job_id: int) -> JobState:
        return self.flux.poll(job_id)

    def cancel(self, job_id: int) -> None:
        self.flux.cancel(job_id)


class ThreadAdapter(SchedulerAdapter):
    """Adapter that actually runs job bodies in a thread pool.

    Resource modeling is trivial (max_workers concurrent jobs); this
    adapter exists so the same Workflow Manager code drives both the
    campaign simulator and real laptop-scale runs. Every job settles
    exactly once — it runs, fails, or is cancelled while queued — and
    its ``on_complete`` fires on settle.
    """

    def __init__(self, max_workers: int = 4) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self._records: Dict[int, JobRecord] = {}
        # Unsettled jobs only: (future, counted callback), popped on settle.
        self._live: Dict[int, Tuple[Future, Callable[[JobRecord], None]]] = {}
        self._lock = threading.Lock()
        self._inflight = InFlight()

    def submit(self, spec, fn=None, on_complete=None) -> JobRecord:
        record = JobRecord(spec=spec)
        settled = self._inflight.track(on_complete)

        def body():
            record.state = JobState.RUNNING
            try:
                record.result = fn() if fn is not None else None
                record.state = JobState.COMPLETED
            except Exception as exc:  # job failure is data, not a crash
                record.result = exc
                record.state = JobState.FAILED
            self._settle(record)
            return record.result

        try:
            # Held across pool.submit so a fast body cannot settle
            # before its entry exists.
            with self._lock:
                self._records[record.job_id] = record
                self._live[record.job_id] = (self._pool.submit(body), settled)
        except BaseException:
            self._inflight.done()
            raise
        return record

    def _settle(self, record: JobRecord) -> None:
        with self._lock:
            _future, settled = self._live.pop(record.job_id)
        settled(record)

    def poll(self, job_id: int) -> JobState:
        return self._records[job_id].state

    def cancel(self, job_id: int) -> None:
        with self._lock:
            entry = self._live.get(job_id)
        if entry is not None and entry[0].cancel():
            record = self._records[job_id]
            record.state = JobState.CANCELLED
            self._settle(record)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job settled, retries included."""
        self._inflight.wait(timeout)

    @property
    def executor(self) -> ThreadPoolExecutor:
        """The job pool itself: WM offloads and job bodies share one
        substrate instead of spawning side pools."""
        return self._pool

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)
