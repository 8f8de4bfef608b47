"""Maestro-like scheduler adapter: one API, any backend (paper §4.3).

"To achieve portability in job scheduling, the MuMMI workflow
interfaces with Maestro, which provides a consistent API to schedule
and monitor jobs. ... By absorbing the changes and peculiarities of
different job schedulers, Maestro allows MuMMI to be agnostic to the
specific choice of scheduler."

Two adapters ship:

- :class:`FluxAdapter` — the virtual-time scheduler used by campaign
  simulations and benchmarks.
- :class:`~repro.sched.shares.TenantAdapter` — real execution: one
  tenant's view of a :class:`~repro.sched.shares.FairShareAdapter`
  thread pool, which runs a Python callable per job. A WM built without
  an adapter runs on a one-tenant pool of its own; the control plane
  gives each campaign a view of one shared pool.

Every adapter also serves the WM round: :meth:`~SchedulerAdapter.wait_all`
is its barrier and :attr:`~SchedulerAdapter.executor` (None = inline)
runs its Task 1/Task 4 work. There is no ``poll``: ``submit`` returns
the live :class:`~repro.sched.jobspec.JobRecord`, whose ``state`` is
the answer, so a pool need not keep a table of settled jobs.
"""

from __future__ import annotations

import abc
import threading
from typing import Any, Callable, Optional

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobRecord, JobSpec

__all__ = ["SchedulerAdapter", "FluxAdapter", "InFlight"]


class SchedulerAdapter(abc.ABC):
    """Scheduler-agnostic submit/cancel plus the WM round hooks."""

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

    def cancel(self, job_id: int) -> None:
        self.flux.cancel(job_id)
