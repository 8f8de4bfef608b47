"""Regression tests for coordination-layer scheduler bugs.

- The first-match matcher advanced its round-robin cursor on *partial*
  multi-node hits, so a string of failed placements rotated the scan
  start away from nodes that were never used, breaking round-robin
  fairness once capacity freed up.
- ``FluxInstance.cancel`` fired the completion callback with a record
  still in PENDING state when the queue no longer held it
  (``cancel_pending`` returning False), so trackers observed a
  live-looking job that would never run.
- ``Matcher._match_exclusive`` never re-checked the per-node
  ncores/ngpus request against what the vacant node actually owns, so
  an exclusive request larger than a node silently got the whole
  (smaller) node — an under-provisioned allocation instead of a failed
  match.
"""

import pytest

from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobSpec, JobState
from repro.sched.matcher import Matcher, MatchPolicy
from repro.sched.resources import ResourceGraph, summit_like
from tests.sched.oracles import FlatMatcher


class TestFirstMatchCursor:
    def test_failed_multi_node_match_does_not_advance_cursor(self):
        g = summit_like(4)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        # Occupy nodes 2 and 3 so only 0 and 1 are feasible.
        m._rr_cursor = 2
        blockers = [m.match(JobSpec(name="blk", exclusive=True)) for _ in range(2)]
        assert all(a is not None for a in blockers)
        assert m._rr_cursor == 0

        # Partial hit: 2 feasible nodes for a 3-node request -> no match.
        assert m.match(JobSpec(name="big", nnodes=3, ncores=1)) is None
        assert m._rr_cursor == 0  # regression: used to jump to 2

        # Once the blockers release, round-robin resumes where it left
        # off — at node 0, which has never run anything.
        for a in blockers:
            m.release(a)
        alloc = m.match(JobSpec(name="one", ncores=1))
        assert alloc.node_ids() == [0]

    def test_successful_matches_still_rotate(self):
        g = summit_like(4)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        spec = JobSpec(name="cg-sim", ncores=3, ngpus=1)
        assert [m.match(spec).node_ids()[0] for _ in range(4)] == [0, 1, 2, 3]

    def test_fully_infeasible_match_leaves_cursor_alone(self):
        g = summit_like(2)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        assert m.match(JobSpec(name="huge", nnodes=3, ncores=1)) is None
        assert m._rr_cursor == 0


class TestCancelRaceWindow:
    def test_cancel_forces_terminal_state_when_queue_lost_the_record(self):
        flux = FluxInstance(summit_like(1))
        seen = []
        record = flux.submit(
            JobSpec(name="x", ncores=1, duration=10.0),
            on_complete=lambda r: seen.append(r.state),
        )
        # Simulate the race: a cycle in flight popped the record from
        # the queue's books but has not started it yet.
        flux.queue.inbox.remove(record)

        flux.cancel(record.job_id)
        # Regression: the callback used to observe a PENDING record.
        assert seen == [JobState.CANCELLED]
        assert record.state is JobState.CANCELLED
        assert record.end_time is not None
        assert flux.counts()["cancelled"] == 1

    def test_cancel_pending_and_running_still_work(self):
        flux = FluxInstance(summit_like(1))
        states = []
        rec1 = flux.submit(JobSpec(name="a", ncores=1, duration=10.0),
                           on_complete=lambda r: states.append(r.state))
        flux.cancel(rec1.job_id)
        assert rec1.state is JobState.CANCELLED

        rec2 = flux.submit(JobSpec(name="b", ncores=1, duration=10.0),
                           on_complete=lambda r: states.append(r.state))
        flux.loop.run_until(6.0)  # one cycle: rec2 starts
        assert rec2.state is JobState.RUNNING
        flux.cancel(rec2.job_id)
        assert rec2.state is JobState.CANCELLED
        assert states == [JobState.CANCELLED, JobState.CANCELLED]


class TestExclusiveOverRequest:
    """Exclusive means "the whole node" — but the node must still cover
    the per-node request. Summit-like nodes own 44 cores / 6 GPUs."""

    @pytest.mark.parametrize("policy", list(MatchPolicy))
    @pytest.mark.parametrize("matcher_cls", [Matcher, FlatMatcher], ids=["matcher", "flat_oracle"])
    def test_exclusive_request_larger_than_node_fails(self, policy, matcher_cls):
        g = summit_like(4)
        m = matcher_cls(g, policy=policy)
        # Regression: this used to hand back a 44-core node for a
        # 100-core exclusive request.
        assert m.match(JobSpec(name="too-big", ncores=100, exclusive=True)) is None
        assert m.match(JobSpec(name="too-gpu", ncores=1, ngpus=7, exclusive=True)) is None
        # The failed attempts must not have claimed anything.
        assert g.free_cores == g.total_cores
        assert g.free_gpus == g.total_gpus

    def test_exclusive_at_exact_node_size_still_takes_whole_node(self):
        g = summit_like(2)
        m = Matcher(g, MatchPolicy.FIRST_MATCH)
        alloc = m.match(JobSpec(name="fits", ncores=44, ngpus=6, exclusive=True))
        assert alloc is not None
        assert alloc.ncores == 44 and alloc.ngpus == 6

    def test_exclusive_under_node_size_gets_all_resources(self):
        # An exclusive 1-core request still receives the full node.
        g = ResourceGraph(nnodes=1, cores_per_node=8, gpus_per_node=2)
        m = Matcher(g, MatchPolicy.LOW_ID_FIRST)
        alloc = m.match(JobSpec(name="whole", ncores=1, exclusive=True))
        assert alloc is not None
        assert alloc.ncores == 8 and alloc.ngpus == 2

    def test_feasibility_mask_agrees_with_match(self):
        g = summit_like(3)
        assert not g.feasible_mask(100, 0, exclusive=True).any()
        assert len(g.feasible_ids(45, 0, True)) == 0
        ids, scanned, skipped = g.first_feasible(0, 1, 45, 0, True)
        assert ids == [] and scanned == 0
