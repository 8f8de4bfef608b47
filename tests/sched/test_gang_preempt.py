"""Queue-level tests for gang co-placement and priority preemption.

The matcher-level all-or-nothing invariants live in
``test_matcher_properties.py``; these tests cover the queue manager's
side of the contract — gang heads wait for their whole ensemble, gang
members never backfill individually, the BACKFILL policy auto-enables
the window, and preempted jobs are requeued directly behind the head
and restart from the beginning (stale completion events are dropped).
"""

import numpy as np
import pytest

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobRecord, JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.queue import DEFAULT_BACKFILL_WINDOW, QueueManager
from repro.sched.resources import summit_like
from tests.sched.oracles import assert_running_counts


def make_queue(policy=MatchPolicy.GANG, nnodes=2, **kwargs):
    matcher = Matcher(summit_like(nnodes), policy)
    return QueueManager(matcher, **kwargs)


class TestGangPlacement:
    def test_gang_starts_together(self):
        q = make_queue(nnodes=3)
        members = [JobRecord(spec=JobSpec(name=f"m{i}", ncores=4, ngpus=1,
                                          gang_id="ens"))
                   for i in range(3)]
        for rec in members:
            q.submit(rec)
        report = q.cycle(now=0.0, budget=100.0)
        assert len(report.started) == 3
        assert all(r.state is JobState.RUNNING for r in members)
        assert q.gangs_placed == 1
        assert q.matcher.stats.gang_matched == 1

    def test_gang_waits_for_members_still_in_inbox(self):
        q = make_queue()
        first = JobRecord(spec=JobSpec(name="m0", ncores=1, gang_id="ens"))
        second = JobRecord(spec=JobSpec(name="m1", ncores=1, gang_id="ens"))
        q.pending.append(first)   # already ingested
        q.submit(second)          # still in the inbox
        # Budget too small to ingest the second member: the head must
        # defer rather than start a partial ensemble.
        report = q.cycle(now=0.0, budget=0.1)
        assert report.started == []
        assert first.state is JobState.PENDING
        # Once the whole gang is ingested, it places atomically.
        report = q.cycle(now=1.0, budget=100.0)
        assert len(report.started) == 2
        assert q.gangs_placed == 1

    def test_infeasible_gang_never_partially_starts(self):
        q = make_queue(nnodes=2)
        members = [JobRecord(spec=JobSpec(name=f"m{i}", exclusive=True,
                                          gang_id="big"))
                   for i in range(3)]  # needs 3 vacant nodes, machine has 2
        for rec in members:
            q.submit(rec)
        report = q.cycle(now=0.0, budget=100.0)
        assert report.started == []
        assert all(r.state is JobState.PENDING for r in members)
        g = q.matcher.graph
        assert g.free_cores == g.total_cores  # rollback left nothing claimed
        assert q.matcher.stats.gang_rollbacks == 1

    def test_gang_members_do_not_backfill(self):
        q = make_queue(nnodes=2, backfill_window=4)
        blocked = JobRecord(spec=JobSpec(name="huge", nnodes=5, ncores=24))
        gang = [JobRecord(spec=JobSpec(name=f"m{i}", ncores=1, gang_id="ens"))
                for i in range(2)]
        loner = JobRecord(spec=JobSpec(name="solo", ncores=1))
        q.submit(blocked)
        for rec in gang:
            q.submit(rec)
        q.submit(loner)
        report = q.cycle(now=0.0, budget=100.0)
        # Only the non-gang job jumps the blocked head.
        assert report.started == [loner]
        assert all(r.state is JobState.PENDING for r in gang)
        assert q.backfilled == 1

    def test_gang_id_without_gang_policy_places_individually(self):
        # The gang_id tag only binds under the GANG policy; other
        # policies treat members as independent jobs.
        q = make_queue(policy=MatchPolicy.FIRST_MATCH)
        members = [JobRecord(spec=JobSpec(name=f"m{i}", ncores=1, gang_id="ens"))
                   for i in range(2)]
        q.pending.append(members[0])
        q.submit(members[1])  # inbox occupancy would stall a GANG head
        report = q.cycle(now=0.0, budget=100.0)
        assert len(report.started) == 2
        assert q.gangs_placed == 0

    def test_record_serializes_gang_and_priority(self):
        rec = JobRecord(spec=JobSpec(name="m", ncores=1, gang_id="ens", priority=3))
        row = rec.to_dict()
        assert row["gang_id"] == "ens"
        assert row["priority"] == 3


class TestBackfillPolicyKnob:
    def test_backfill_policy_auto_enables_window(self):
        q = make_queue(policy=MatchPolicy.BACKFILL)
        assert q.backfill_window == DEFAULT_BACKFILL_WINDOW

    def test_explicit_window_wins_over_default(self):
        q = make_queue(policy=MatchPolicy.BACKFILL, backfill_window=2)
        assert q.backfill_window == 2

    def test_other_policies_stay_strict_fcfs(self):
        q = make_queue(policy=MatchPolicy.FIRST_MATCH)
        assert q.backfill_window == 0

    def test_backfill_policy_backfills_without_explicit_window(self):
        q = make_queue(policy=MatchPolicy.BACKFILL)
        q.submit(JobRecord(spec=JobSpec(name="huge", nnodes=5, ncores=24)))
        small = JobRecord(spec=JobSpec(name="small", ncores=1))
        q.submit(small)
        report = q.cycle(now=0.0, budget=100.0)
        assert report.started == [small]
        assert q.backfilled == 1


class TestPreemption:
    def test_higher_priority_head_evicts_lowest_priority(self):
        q = make_queue(policy=MatchPolicy.FIRST_MATCH, nnodes=1, preemption=True)
        low = JobRecord(spec=JobSpec(name="low", ncores=44, priority=0))
        q.submit(low)
        q.cycle(now=0.0, budget=100.0)
        assert low.state is JobState.RUNNING

        high = JobRecord(spec=JobSpec(name="high", ncores=1, priority=2))
        q.submit(high)
        report = q.cycle(now=1.0, budget=100.0)
        assert high.state is JobState.RUNNING
        assert low.state is JobState.PENDING
        assert low.allocation is None and low.start_time is None
        assert report.preempted == [low]
        assert q.preempted == 1
        # The victim is requeued at the front: it restarts as soon as
        # capacity allows (here, once the preemptor finishes).
        assert q.pending[0] is low
        q.finish(high, now=2.0)
        report = q.cycle(now=3.0, budget=100.0)
        assert low in report.started

    def test_equal_priority_never_preempts(self):
        q = make_queue(policy=MatchPolicy.FIRST_MATCH, nnodes=1, preemption=True)
        first = JobRecord(spec=JobSpec(name="a", ncores=44, priority=1))
        q.submit(first)
        q.cycle(now=0.0, budget=100.0)
        rival = JobRecord(spec=JobSpec(name="b", ncores=1, priority=1))
        q.submit(rival)
        q.cycle(now=1.0, budget=100.0)
        assert first.state is JobState.RUNNING
        assert rival.state is JobState.PENDING
        assert q.preempted == 0

    def test_preemption_is_off_by_default(self):
        q = make_queue(policy=MatchPolicy.FIRST_MATCH, nnodes=1)
        q.submit(JobRecord(spec=JobSpec(name="low", ncores=44, priority=0)))
        q.cycle(now=0.0, budget=100.0)
        blocked = JobRecord(spec=JobSpec(name="high", ncores=1, priority=5))
        q.submit(blocked)
        q.cycle(now=1.0, budget=100.0)
        assert blocked.state is JobState.PENDING
        assert q.preempted == 0

    def test_preempted_job_restarts_from_the_beginning(self):
        """End-to-end through FluxInstance: the evicted run's scheduled
        completion is stale and must not complete the restarted run
        early — the restart serves its full duration again."""
        flux = FluxInstance(summit_like(1), policy=MatchPolicy.FIRST_MATCH,
                            preemption=True)
        done = []
        low = flux.submit(JobSpec(name="low", ncores=44, priority=0, duration=12.0),
                          on_complete=lambda r: done.append((r.spec.name, r.end_time)))
        flux.loop.run_until(6.0)
        assert low.state is JobState.RUNNING and low.start_time == 5.0

        high = flux.submit(JobSpec(name="high", ncores=1, priority=1, duration=4.0),
                           on_complete=lambda r: done.append((r.spec.name, r.end_time)))
        flux.loop.run_until(30.0)
        assert high.state is JobState.COMPLETED
        assert low.state is JobState.COMPLETED
        # high preempted low at t=10 and finished at 14; low restarted at
        # t=15 and served its full 12s again. The stale completion event
        # from the first run (t=5+12=17) was dropped, not honored.
        assert ("high", 14.0) in done
        assert ("low", 27.0) in done
        assert low.start_time == 15.0


class TestRunningCounts:
    @pytest.mark.parametrize("seed", range(4))
    def test_counts_match_recount_under_gang_churn(self, seed):
        """Gang co-placement, backfill, preemption, finish and
        cancel_pending keep the per-type running counts equal to a
        recount after every cycle and every finish."""
        rng = np.random.default_rng(seed)
        q = make_queue(nnodes=3, backfill_window=4, preemption=True)
        now = 0.0
        for step in range(400):
            action = rng.random()
            if action < 0.3:
                q.submit(JobRecord(spec=JobSpec(
                    name=str(rng.choice(["cg", "aa", "setup"])),
                    ncores=int(rng.integers(1, 30)), ngpus=int(rng.integers(0, 3)),
                    priority=int(rng.integers(0, 3)))))
            elif action < 0.4:
                size = int(rng.integers(2, 4))
                for i in range(size):
                    q.submit(JobRecord(spec=JobSpec(
                        name=f"member{i}", ncores=8, ngpus=2,
                        priority=int(rng.integers(0, 3)), gang_id=f"g{step}")))
            elif action < 0.6 and q.running:
                running = list(q.running.values())
                q.finish(running[int(rng.integers(len(running)))], now)
                assert_running_counts(q)
            elif action < 0.7 and q.pending:
                assert q.cancel_pending(q.pending[int(rng.integers(len(q.pending)))], now)
            else:
                now += 1.0
                q.cycle(now, budget=float(rng.uniform(0.5, 20.0)))
                assert_running_counts(q)
        assert q.gangs_placed and q.backfilled and q.preempted
