"""Weighted fair sharing of one execution substrate across tenants.

The control plane multiplexes many campaigns onto *one* worker pool the
way the production WM multiplexed many simulations onto one Flux
allocation. Without an arbiter, whichever tenant submits fastest owns
the pool (FCFS is trivially starvable). :class:`FairShareAdapter` puts
a stride scheduler in front of the pool: each tenant holds a *share*
(weight), queued jobs wait in per-tenant queues, and every free worker
slot goes to the backlogged tenant with the smallest virtual *pass*
value. A tenant's pass advances by ``stride = K / weight`` per dispatch,
so over any busy interval tenants receive worker slots proportionally
to their weights — weight 2 gets twice the throughput of weight 1 —
while an idle tenant's unused share flows to the others (work
conservation).

Campaigns talk to the arbiter through :meth:`FairShareAdapter.view`,
which returns a :class:`TenantAdapter` implementing the standard
:class:`~repro.sched.adapter.SchedulerAdapter` API. ``wait_all`` — the
WM's round barrier — waits only on jobs submitted through that view,
and the registry builds one view per campaign, so one campaign's
barrier never waits on another campaign's work.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.sched.adapter import InFlight, SchedulerAdapter
from repro.sched.jobspec import JobRecord, JobSpec, JobState

__all__ = ["StrideScheduler", "FairShareAdapter", "TenantAdapter",
           "TenantExecutor"]

#: Stride numerator; any constant works, this keeps passes readable.
_STRIDE_K = 1 << 16

#: A queued job: (record, body, on_complete).
_Queued = Tuple[JobRecord, Optional[Callable[[], Any]],
                Optional[Callable[[JobRecord], None]]]


def _settle_cancelled(entry: _Queued) -> None:
    """A queued job that will never run still settles, as CANCELLED."""
    record, _fn, on_complete = entry
    record.state = JobState.CANCELLED
    if on_complete is not None:
        on_complete(record)


class StrideScheduler:
    """Pure stride-scheduling arbiter: who gets the next slot?

    Tracks a virtual ``pass`` per tenant. :meth:`pick` returns the
    backlogged tenant with the smallest pass and advances it by the
    tenant's stride (``K / weight``). Newly seen tenants join at the
    current minimum pass so they cannot monopolize the pool by arriving
    late with a zero pass ("pass catch-up", the classic stride fix).
    """

    def __init__(self) -> None:
        self._weights: Dict[str, float] = {}
        self._pass: Dict[str, float] = {}

    def set_weight(self, tenant: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError(f"share weight must be > 0, got {weight}")
        self._weights[tenant] = float(weight)

    def weight(self, tenant: str) -> float:
        return self._weights.get(tenant, 1.0)

    def _ensure(self, tenant: str) -> None:
        if tenant not in self._pass:
            floor = min(self._pass.values()) if self._pass else 0.0
            self._pass[tenant] = floor

    def pick(self, backlogged: Dict[str, int]) -> Optional[str]:
        """Choose among tenants with queued work; None if all idle."""
        candidates = [t for t, n in backlogged.items() if n > 0]
        if not candidates:
            return None
        for tenant in candidates:
            self._ensure(tenant)
        winner = min(candidates, key=lambda t: (self._pass[t], t))
        self._pass[winner] += _STRIDE_K / self.weight(winner)
        return winner

    def passes(self) -> Dict[str, float]:
        """Current virtual pass per tenant (telemetry)."""
        return dict(self._pass)


class TenantExecutor:
    """``concurrent.futures``-style view over a tenant's fair share.

    The WM runs Task 1 and Task 4 through its adapter's ``executor``;
    handing it this object (instead of a private thread pool) routes
    that work through the arbiter as ordinary ``wm-offload`` jobs, so a
    tenant's coordination work is charged against the same share as its
    simulation jobs and cannot starve other tenants.
    """

    def __init__(self, shared: "FairShareAdapter", tenant: str) -> None:
        self.shared = shared
        self.tenant = tenant

    def submit(self, fn: Callable[..., Any], *args: Any,
               **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()

        def body() -> Any:
            return fn(*args, **kwargs)

        def done(record: JobRecord) -> None:
            if record.state is JobState.COMPLETED:
                future.set_result(record.result)
            elif isinstance(record.result, BaseException):
                future.set_exception(record.result)
            else:
                future.set_exception(
                    RuntimeError(f"offload job ended {record.state.name}")
                )

        spec = JobSpec(name="wm-offload", ncores=1, tag=f"{self.tenant}-offload")
        self.shared.submit_for(self.tenant, spec, fn=body, on_complete=done)
        return future


class TenantAdapter(SchedulerAdapter):
    """One campaign's scoped handle on a :class:`FairShareAdapter`.

    The pool fires ``on_complete`` for every job it settles (run,
    failure, or cancel while queued); this view counts its own jobs
    from submit until that callback returns, and :meth:`wait_all`
    waits on that count alone.
    """

    def __init__(self, shared: "FairShareAdapter", tenant: str) -> None:
        self.shared = shared
        self.tenant = tenant
        self._inflight = InFlight()

    @property
    def executor(self) -> TenantExecutor:
        """Offload executor scoped — and fair-share billed — to this tenant."""
        return TenantExecutor(self.shared, self.tenant)

    def submit(self, spec: JobSpec,
               fn: Optional[Callable[[], Any]] = None,
               on_complete: Optional[Callable[[JobRecord], None]] = None,
               ) -> JobRecord:
        settled = self._inflight.track(on_complete)
        try:
            return self.shared.submit_for(self.tenant, spec, fn, settled)
        except BaseException:
            self._inflight.done()
            raise

    def cancel(self, job_id: int) -> None:
        self.shared.cancel(job_id)

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every job *this view* submitted settled."""
        self._inflight.wait(timeout)


class FairShareAdapter:
    """A shared thread pool arbitrated by stride scheduling.

    The pool holds a job only while it is queued or running: once it
    settles, the caller's :class:`JobRecord` (returned by
    :meth:`submit_for`) is its only trace, so a long-running daemon's
    memory follows its live work, not its history.

    Parameters
    ----------
    max_workers:
        Concurrent job slots shared by every tenant.
    shares:
        Initial ``{tenant: weight}`` map; unknown tenants default to
        weight 1.0 and may be (re)weighted live via :meth:`set_share`.
    """

    def __init__(self, max_workers: int = 4,
                 shares: Optional[Dict[str, float]] = None) -> None:
        self._pool = ThreadPoolExecutor(max_workers=max_workers)
        self.max_workers = max_workers
        self._lock = threading.Lock()
        self._stride = StrideScheduler()
        for tenant, weight in (shares or {}).items():
            self._stride.set_weight(tenant, weight)
        self._queues: Dict[str, Deque[_Queued]] = {}
        self._active = 0
        self._dispatched: Dict[str, int] = {}
        self._completed: Dict[str, int] = {}
        self._closed = False

    # --- tenant plumbing --------------------------------------------------

    def view(self, tenant: str) -> TenantAdapter:
        """A fresh per-tenant adapter for one campaign's WM; its barrier
        covers only the jobs submitted through it."""
        return TenantAdapter(self, tenant)

    def set_share(self, tenant: str, weight: float) -> None:
        with self._lock:
            self._stride.set_weight(tenant, weight)

    # --- submission and dispatch -----------------------------------------

    def submit_for(self, tenant: str, spec: JobSpec,
                   fn: Optional[Callable[[], Any]] = None,
                   on_complete: Optional[Callable[[JobRecord], None]] = None,
                   ) -> JobRecord:
        record = JobRecord(spec=spec)
        with self._lock:
            if self._closed:
                raise RuntimeError("FairShareAdapter is shut down")
            self._queues.setdefault(tenant, deque()).append(
                (record, fn, on_complete)
            )
        self._dispatch()
        return record

    def _dispatch(self) -> None:
        """Fill free slots with queued jobs in stride order."""
        while True:
            with self._lock:
                if self._active >= self.max_workers:
                    return
                backlog = {t: len(q) for t, q in self._queues.items()}
                tenant = self._stride.pick(backlog)
                if tenant is None:
                    return
                record, fn, on_complete = self._queues[tenant].popleft()
                self._active += 1
                self._dispatched[tenant] = self._dispatched.get(tenant, 0) + 1
            self._pool.submit(self._run, tenant, record, fn, on_complete)

    def _run(self, tenant: str, record: JobRecord,
             fn: Optional[Callable[[], Any]],
             on_complete: Optional[Callable[[JobRecord], None]]) -> None:
        record.state = JobState.RUNNING
        try:
            record.result = fn() if fn is not None else None
            record.state = JobState.COMPLETED
        except Exception as exc:  # job failure is data, not a crash
            record.result = exc
            record.state = JobState.FAILED
        with self._lock:
            self._active -= 1
            self._completed[tenant] = self._completed.get(tenant, 0) + 1
        try:
            if on_complete is not None:
                on_complete(record)
        finally:
            self._dispatch()

    # --- SchedulerAdapter surface ----------------------------------------

    def cancel(self, job_id: int) -> None:
        """Best-effort: only jobs still queued can be cancelled.

        A cancelled job settles like any other: its ``on_complete``
        fires (outside the pool lock) with state CANCELLED.
        """
        with self._lock:
            entry = self._unqueue(job_id)
        if entry is not None:
            _settle_cancelled(entry)

    def _unqueue(self, job_id: int) -> Optional[_Queued]:
        for queue in self._queues.values():
            for i, entry in enumerate(queue):
                if entry[0].job_id == job_id:
                    del queue[i]
                    return entry
        return None

    def shutdown(self) -> None:
        """Refuse new work, cancel every queued job, drain running ones."""
        with self._lock:
            self._closed = True
            cancelled = [entry for queue in self._queues.values()
                         for entry in queue]
            for queue in self._queues.values():
                queue.clear()
        for entry in cancelled:
            _settle_cancelled(entry)
        self._pool.shutdown(wait=True)

    # --- telemetry --------------------------------------------------------

    def share_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant dispatch accounting for the service telemetry."""
        with self._lock:
            backlog = {t: len(q) for t, q in self._queues.items()}
            tenants = (set(self._queues) | set(self._dispatched)
                       | set(self._completed))
            return {
                tenant: {
                    "weight": self._stride.weight(tenant),
                    "queued": backlog.get(tenant, 0),
                    "dispatched": self._dispatched.get(tenant, 0),
                    "completed": self._completed.get(tenant, 0),
                    "pass": self._stride.passes().get(tenant, 0.0),
                }
                for tenant in sorted(tenants)
            }
