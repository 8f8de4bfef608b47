"""Tests for the queue manager and the Flux-like instance."""

import pytest

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobRecord, JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.queue import QueueCosts, QueueManager, QueueMode
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop

GPU_JOB = JobSpec(name="cg-sim", ncores=3, ngpus=1, duration=100.0)


def make_queue(nnodes=2, mode=QueueMode.SYNC, costs=None):
    matcher = Matcher(summit_like(nnodes), MatchPolicy.FIRST_MATCH)
    return QueueManager(matcher, mode=mode, costs=costs or QueueCosts())


class TestQueueManager:
    def test_submit_lands_in_inbox(self):
        q = make_queue()
        q.submit(JobRecord(spec=GPU_JOB))
        assert q.backlog == 1

    def test_cycle_intakes_then_matches(self):
        q = make_queue()
        rec = JobRecord(spec=GPU_JOB)
        q.submit(rec)
        report = q.cycle(now=5.0, budget=10.0)
        assert report.intaken == 1
        assert report.started == [rec]
        assert rec.state is JobState.RUNNING
        assert rec.start_time == 5.0

    def test_fcfs_no_backfill(self):
        # Head job needs 3 whole nodes on a 2-node machine; the 1-GPU job
        # behind it must NOT jump the queue.
        q = make_queue(nnodes=2)
        big = JobRecord(spec=JobSpec(name="big", nnodes=3, ncores=1))
        small = JobRecord(spec=GPU_JOB)
        q.submit(big)
        q.submit(small)
        report = q.cycle(now=0.0, budget=100.0)
        assert report.started == []
        assert small.state is JobState.PENDING

    def test_unblocked_head_lets_rest_flow(self):
        q = make_queue(nnodes=3)
        jobs = [JobRecord(spec=GPU_JOB) for _ in range(5)]
        for j in jobs:
            q.submit(j)
        report = q.cycle(now=0.0, budget=100.0)
        assert len(report.started) == 5

    def test_intake_budget_limits_throughput(self):
        costs = QueueCosts(submit_cost=1.0)
        q = make_queue(costs=costs)
        for _ in range(10):
            q.submit(JobRecord(spec=GPU_JOB))
        report = q.cycle(now=0.0, budget=3.0)
        assert report.intaken == 3  # only what the budget allows

    def test_sync_mode_starves_matching(self):
        # Sync: intake uses the whole budget, nothing gets matched.
        costs = QueueCosts(submit_cost=1.0)
        q = make_queue(mode=QueueMode.SYNC, costs=costs)
        for _ in range(20):
            q.submit(JobRecord(spec=GPU_JOB))
        report = q.cycle(now=0.0, budget=5.0)
        assert report.intaken == 5
        assert report.started == []

    def test_async_mode_matches_despite_intake_pressure(self):
        costs = QueueCosts(submit_cost=1.0)
        q = make_queue(mode=QueueMode.ASYNC, costs=costs)
        for _ in range(20):
            q.submit(JobRecord(spec=GPU_JOB))
        report = q.cycle(now=0.0, budget=5.0)
        assert report.intaken == 5
        assert len(report.started) > 0  # matcher got its own budget

    def test_finish_releases_resources(self):
        q = make_queue(nnodes=1)
        rec = JobRecord(spec=GPU_JOB)
        q.submit(rec)
        q.cycle(now=0.0, budget=10.0)
        q.finish(rec, now=100.0)
        assert rec.state is JobState.COMPLETED
        assert rec.end_time == 100.0
        assert q.matcher.graph.used_gpus == 0

    def test_finish_unknown_job_raises(self):
        q = make_queue()
        with pytest.raises(KeyError):
            q.finish(JobRecord(spec=GPU_JOB), now=0.0)

    def test_cancel_pending(self):
        q = make_queue()
        rec = JobRecord(spec=GPU_JOB)
        q.submit(rec)
        assert q.cancel_pending(rec, now=1.0)
        assert rec.state is JobState.CANCELLED
        assert q.backlog == 0

    def test_cancel_not_queued_returns_false(self):
        q = make_queue()
        assert not q.cancel_pending(JobRecord(spec=GPU_JOB), now=1.0)


class TestFluxInstance:
    def test_job_lifecycle(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop, policy=MatchPolicy.FIRST_MATCH)
        rec = flux.submit(GPU_JOB)
        assert flux.poll(rec.job_id) is JobState.PENDING
        loop.run_until(10.0)
        assert flux.poll(rec.job_id) is JobState.RUNNING
        loop.run_until(200.0)
        assert flux.poll(rec.job_id) is JobState.COMPLETED
        assert rec.run_time == pytest.approx(100.0)

    def test_completion_callback_fires(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        done = []
        flux.submit(GPU_JOB, on_complete=done.append)
        loop.run_until(500.0)
        assert len(done) == 1
        assert done[0].state is JobState.COMPLETED

    def test_many_jobs_fill_and_turn_over(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(2), loop)  # 12 GPUs
        recs = [flux.submit(GPU_JOB) for _ in range(20)]
        loop.run_until(2000.0)
        assert all(r.state is JobState.COMPLETED for r in recs)
        # With 12 GPUs, the last 8 jobs had to wait for turnover.
        waits = [r.wait_time for r in recs]
        assert max(waits) > min(waits)

    def test_cancel_pending_job(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        recs = [flux.submit(GPU_JOB) for _ in range(10)]
        flux.cancel(recs[-1].job_id)
        loop.run_until(1000.0)
        assert recs[-1].state is JobState.CANCELLED

    def test_cancel_running_job_releases_gpu(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        rec = flux.submit(JobSpec(name="forever", ncores=1, ngpus=1, duration=None))
        loop.run_until(10.0)
        assert rec.state is JobState.RUNNING
        flux.cancel(rec.job_id)
        assert rec.state is JobState.CANCELLED
        assert flux.graph.used_gpus == 0

    def test_cancel_terminal_is_noop(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        rec = flux.submit(GPU_JOB)
        loop.run_until(500.0)
        flux.cancel(rec.job_id)
        assert rec.state is JobState.COMPLETED

    def test_drain_keeps_running_jobs(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(2), loop, policy=MatchPolicy.LOW_ID_FIRST)
        rec = flux.submit(GPU_JOB)
        loop.run_until(10.0)
        node = rec.allocation.node_ids()[0]
        flux.drain_node(node)
        assert rec.state is JobState.RUNNING  # existing job keeps running
        rec2 = flux.submit(GPU_JOB)
        loop.run_until(20.0)
        assert rec2.allocation.node_ids()[0] != node  # new work avoids it

    def test_fail_node_kills_jobs_and_notifies(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        failures = []
        rec = flux.submit(GPU_JOB, on_complete=failures.append)
        loop.run_until(10.0)
        victims = flux.fail_node(0)
        assert victims == [rec]
        assert rec.state is JobState.FAILED
        assert failures and failures[0].state is JobState.FAILED

    def test_counts_snapshot(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        for _ in range(8):
            flux.submit(GPU_JOB)
        loop.run_until(10.0)
        counts = flux.counts()
        assert counts["running"] == 6  # machine has 6 GPUs
        assert counts["pending"] == 2

    def test_running_by_name(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        flux.submit(GPU_JOB)
        flux.submit(JobSpec(name="aa-sim", ncores=3, ngpus=1, duration=50.0))
        loop.run_until(10.0)
        assert flux.running_by_name() == {"cg-sim": 1, "aa-sim": 1}

    def test_start_log_accumulates(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        for _ in range(3):
            flux.submit(GPU_JOB)
        loop.run_until(20.0)
        assert len(flux.start_log) == 3

    def test_history_rows_replayable(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        flux.submit(GPU_JOB)
        loop.run_until(500.0)
        rows = flux.history_rows()
        assert len(rows) == 1
        assert rows[0]["state"] == "completed"
        assert rows[0]["start"] is not None

    def test_invalid_cycle_interval(self):
        with pytest.raises(ValueError):
            FluxInstance(summit_like(1), cycle_interval=0)


def test_identical_runs_log_identical_start_logs(monkeypatch):
    """The instance numbers its own jobs: a second identical load run in
    the same process logs the same ``(time, job_id, name)`` start log,
    ids included, whatever ran before it."""
    from repro.sched import loadtest

    instances = []

    class Recording(FluxInstance):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            instances.append(self)

    monkeypatch.setattr(loadtest, "FluxInstance", Recording)
    for _ in range(2):
        loadtest.run_load_experiment(20, 50, max_hours=0.5)
    first, second = (flux.start_log for flux in instances)
    assert len(first) == 50
    assert first == second
