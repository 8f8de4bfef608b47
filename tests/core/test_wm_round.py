"""The WM's one round and the barrier contract behind it.

``WorkflowManager.round`` is task1 → task3 → barrier → task3 → barrier →
task4, and the barrier is ``adapter.wait_all()``. A FairShareAdapter's
per-campaign TenantAdapter view makes it exact by counting each job
from submit until its ``on_complete`` returns. Every barrier case here
runs on a view of a pool of its own and on a view of a pool shared with
a sibling tenant whose job holds a worker throughout; the ChaosAdapter
keeps its own inline, stallable drain.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.chaos.harness import ChaosAdapter
from repro.core.jobs import JobTracker, JobTypeConfig
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.shares import FairShareAdapter, TenantExecutor
from tests.core.test_wm import make_wm


@pytest.fixture(params=["tenant", "shared"])
def make_adapter(request):
    """Factory for pool views with ``max_workers`` slots free to them.

    ``shared`` adds one worker to the pool and holds it with a sibling
    tenant's job until the test ends, so the view's barrier must ignore
    work it did not submit. The pools shut down after the test.
    """
    pools = []
    release = threading.Event()

    def make(max_workers=2):
        if request.param == "tenant":
            pool = FairShareAdapter(max_workers=max_workers)
            pools.append(pool)
            return pool.view("acme")
        pool = FairShareAdapter(max_workers=max_workers + 1)
        pools.append(pool)
        # submit_for takes the free slot before it returns.
        pool.view("sibling").submit(JobSpec(name="hog"),
                                    fn=lambda: release.wait(30))
        return pool.view("acme")

    yield make
    release.set()
    for pool in pools:
        pool.shutdown()


def _tracker(adapter, max_retries=2):
    return JobTracker(JobTypeConfig(name="probe", max_retries=max_retries),
                      adapter)


def _boom():
    raise ValueError("job dies")


class TestBarrier:
    def test_completion_fires_once_before_wait_all_returns(self, make_adapter):
        adapter = make_adapter()
        tracker = _tracker(adapter)
        tracker.launch("t1", fn=lambda: 42)
        adapter.wait_all(timeout=10)
        assert tracker.nactive() == 0
        assert tracker.completed == 1
        assert tracker.take("t1") == (JobState.COMPLETED, 42)

    def test_covers_a_job_submitted_from_a_completion_callback(self, make_adapter):
        adapter = make_adapter()
        followups = []

        def resubmit(record):
            adapter.submit(JobSpec(name="follow-up"),
                           fn=lambda: time.sleep(0.2),
                           on_complete=followups.append)

        adapter.submit(JobSpec(name="first"), fn=lambda: None,
                       on_complete=resubmit)
        adapter.wait_all(timeout=10)
        assert [r.state for r in followups] == [JobState.COMPLETED]

    def test_covers_a_tracker_retry(self, make_adapter):
        adapter = make_adapter(max_workers=1)
        tracker = _tracker(adapter, max_retries=2)
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("first try dies")
            return "second try"

        tracker.launch("t1", fn=flaky)
        adapter.wait_all(timeout=10)
        # The failure was resubmitted, with its body, from its completion
        # callback; the barrier held until the resubmission settled too.
        assert len(calls) == 2
        assert tracker.nactive() == 0
        assert tracker.completed == 1
        assert tracker.abandoned == []
        assert tracker.take("t1") == (JobState.COMPLETED, "second try")
        assert tracker.take("t1") is None

    def test_retries_rerun_the_body_until_abandoned(self, make_adapter):
        adapter = make_adapter(max_workers=1)
        tracker = _tracker(adapter, max_retries=2)
        calls = []

        def boom():
            calls.append(1)
            _boom()

        tracker.launch("t1", fn=boom)
        adapter.wait_all(timeout=10)
        assert len(calls) == 3  # the first run and two retries
        assert tracker.completed == 0
        assert tracker.abandoned == ["t1"]
        state, error = tracker.take("t1")
        assert state is JobState.FAILED and isinstance(error, ValueError)

    def test_exhausted_retries_end_abandoned(self, make_adapter):
        adapter = make_adapter()
        tracker = _tracker(adapter, max_retries=0)
        tracker.launch("t1", fn=_boom)
        adapter.wait_all(timeout=10)
        assert tracker.nactive() == 0
        assert tracker.completed == 0
        assert tracker.abandoned == ["t1"]

    def test_queued_cancel_releases_wait_all(self, make_adapter):
        adapter = make_adapter(max_workers=1)
        tracker = _tracker(adapter)
        release = threading.Event()
        try:
            # The only worker is busy, so the second job stays queued.
            tracker.launch("blocker", fn=lambda: release.wait(10))
            queued = tracker.launch("t1", fn=lambda: None)
            adapter.cancel(queued.job_id)
            assert queued.state is JobState.CANCELLED
            assert tracker.tags_active() == ["blocker"]
        finally:
            release.set()
        adapter.wait_all(timeout=10)
        assert tracker.nactive() == 0
        assert tracker.completed == 1
        assert tracker.take("blocker")[0] is JobState.COMPLETED
        assert tracker.take("t1") == (JobState.CANCELLED, None)

    def test_wait_all_times_out_on_a_blocked_job(self, make_adapter):
        adapter = make_adapter()
        release = threading.Event()
        try:
            adapter.submit(JobSpec(name="slow"), fn=lambda: release.wait(10))
            with pytest.raises(TimeoutError):
                adapter.wait_all(timeout=0.05)
        finally:
            release.set()
        adapter.wait_all(timeout=10)


class TestViews:
    def test_one_views_barrier_ignores_a_sibling_view(self):
        # Two campaigns of the same tenant: each gets its own view.
        shared = FairShareAdapter(max_workers=2)
        mine, sibling = shared.view("acme"), shared.view("acme")
        release = threading.Event()
        done = []
        try:
            blocked = sibling.submit(JobSpec(name="slow"),
                                     fn=lambda: release.wait(10))
            mine.submit(JobSpec(name="fast"), fn=lambda: done.append(1))
            mine.wait_all(timeout=5)
            assert done == [1]
            assert blocked.state is not JobState.COMPLETED
            with pytest.raises(TimeoutError):
                sibling.wait_all(timeout=0.05)
        finally:
            release.set()
            shared.shutdown()


class TestRound:
    def test_round_leaves_no_job_in_flight(self, make_adapter):
        wm, store = make_wm(adapter=make_adapter())
        try:
            for _ in range(2):
                wm.round(advance_us=1.0)
                assert all(t.nactive() == 0 for t in wm.trackers.values())
            c = wm.counters
            assert c["patches_selected"] > 0
            assert c["cg_finished"] > 0
            assert len(store.keys("rdf/live/")) > 0
        finally:
            wm.close()

    def test_task1_and_task4_work_runs_on_the_adapter_executor(self, make_adapter):
        wm, _ = make_wm(adapter=make_adapter())
        threads = []

        def spy(task):
            def run(*args):
                threads.append(threading.current_thread())
                return task(*args)
            return run

        wm._cut_patches = spy(wm._cut_patches)
        wm._feedback_iteration = spy(wm._feedback_iteration)
        try:
            wm.round()
        finally:
            wm.close()
        assert len(threads) == 2
        assert threading.current_thread() not in threads

    def test_close_leaves_a_passed_pool_serving(self):
        # The pool belongs to the caller (a service's shared substrate):
        # closing one campaign's WM must not shut it down for the others.
        shared = FairShareAdapter(max_workers=2)
        try:
            wm, _ = make_wm(adapter=shared.view("acme"))
            wm.round()
            wm.close()
            other = shared.view("other")
            rec = other.submit(JobSpec(name="after"), fn=lambda: 42)
            other.wait_all(timeout=10)
            assert (rec.state, rec.result) == (JobState.COMPLETED, 42)
        finally:
            shared.shutdown()

    def test_tenant_offloads_are_billed_as_wm_offload_jobs(self):
        shared = FairShareAdapter(max_workers=2)
        names = []
        submit_for = shared.submit_for

        def spy(tenant, spec, *args, **kwargs):
            names.append((tenant, spec.name))
            return submit_for(tenant, spec, *args, **kwargs)

        shared.submit_for = spy
        wm, _ = make_wm(adapter=shared.view("acme"))
        try:
            wm.round()
        finally:
            wm.close()
            shared.shutdown()
        assert names.count(("acme", "wm-offload")) == 2  # task1 + task4


class TestChaosAdapterRound:
    def test_round_drains_inline(self):
        adapter = ChaosAdapter()
        wm, _ = make_wm(adapter=adapter)
        wm.round()
        assert adapter.pending() == 0
        assert all(t.nactive() == 0 for t in wm.trackers.values())
        assert wm.counters["cg_finished"] > 0

    def test_stalled_round_returns_with_jobs_pending(self):
        adapter = ChaosAdapter()
        adapter.stalled = True
        wm, _ = make_wm(adapter=adapter)
        wm.round()
        assert adapter.pending() > 0
        assert sum(t.nactive() for t in wm.trackers.values()) == adapter.pending()
        adapter.flush()  # the checkpoint quiesce drains regardless
        assert adapter.pending() == 0
        assert all(t.nactive() == 0 for t in wm.trackers.values())

    def test_counters_never_go_backwards_while_stalled(self):
        adapter = ChaosAdapter()
        adapter.stalled = True
        wm, _ = make_wm(adapter=adapter)
        prev = dict(wm.counters)
        for _ in range(3):
            now = wm.round()
            for key in prev:
                assert now[key] >= prev[key]
            prev = now
        adapter.flush()

    def test_stalled_rounds_converge_after_a_flush(self):
        # Jobs left in flight across stalled rounds settle at the next
        # drain, and the next task3 applies what they produced: the
        # createsims first, then the CG sims launched from their output.
        adapter = ChaosAdapter()
        adapter.stalled = True
        wm, store = make_wm(adapter=adapter)
        for _ in range(3):
            wm.round()
        assert adapter.pending() > 0
        for _ in range(2):
            adapter.flush()
            wm.task3_manage_jobs()
        adapter.flush()
        assert all(t.nactive() == 0 for t in wm.trackers.values())
        c = wm.counters
        assert c["snapshots"] == 3
        assert c["patches_selected"] > 0
        assert c["cg_finished"] > 0
        assert len(store.keys("rdf/live/")) + len(store.keys("rdf/done/")) > 0


class TestTenantExecutor:
    def test_offload_result_round_trips(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")
            assert ex.submit(lambda a, b: a + b, 40, 2).result(10) == 42
        finally:
            shared.shutdown()

    def test_offload_exception_propagates(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")

            def boom():
                raise RuntimeError("offload died")

            with pytest.raises(RuntimeError, match="offload died"):
                ex.submit(boom).result(10)
        finally:
            shared.shutdown()

    def test_offloads_are_billed_to_the_tenant(self):
        shared = FairShareAdapter(max_workers=2)
        try:
            ex = TenantExecutor(shared, "acme")
            ex.submit(lambda: None).result(10)
            stats = shared.share_stats()
            assert stats["acme"]["dispatched"] >= 1
        finally:
            shared.shutdown()
