"""Tests for the Job Tracker and the abstract Feedback Manager."""

import numpy as np
import pytest

from repro.core.feedback import FeedbackManager, StoreFeedbackMixin
from repro.core.jobs import JobTracker, JobTypeConfig
from repro.datastore import FSStore, TaridxStore, open_store
from repro.sched.adapter import FluxAdapter
from repro.sched.flux import FluxInstance
from repro.sched.jobspec import JobState
from repro.sched.resources import summit_like
from repro.util.clock import EventLoop


class TestJobTypeConfig:
    def test_make_spec_carries_tag(self):
        cfg = JobTypeConfig(name="cg-sim", ncores=3, ngpus=1)
        spec = cfg.make_spec("sim42", np.random.default_rng(0))
        assert spec.tag == "sim42"
        assert spec.ngpus == 1
        assert spec.duration is None

    def test_duration_sampler_used(self):
        cfg = JobTypeConfig(name="x", ncores=1,
                            duration_sampler=lambda rng: 123.0)
        spec = cfg.make_spec("t", np.random.default_rng(0))
        assert spec.duration == 123.0

    def test_explicit_duration_wins(self):
        cfg = JobTypeConfig(name="x", ncores=1,
                            duration_sampler=lambda rng: 123.0)
        spec = cfg.make_spec("t", np.random.default_rng(0), duration=5.0)
        assert spec.duration == 5.0


class TestJobTrackerVirtual:
    def _tracker(self, nnodes=1, **kwargs):
        loop = EventLoop()
        flux = FluxInstance(summit_like(nnodes), loop)
        cfg = JobTypeConfig(name="cg-sim", ncores=3, ngpus=1,
                            duration_sampler=lambda rng: 100.0, **kwargs)
        return loop, JobTracker(cfg, FluxAdapter(flux))

    def test_launch_and_complete(self):
        loop, tracker = self._tracker()
        done = []
        tracker.on_success = done.append
        tracker.launch("sim1")
        assert tracker.nactive() == 1
        loop.run_until(500.0)
        assert tracker.nactive() == 0
        assert tracker.completed == 1
        assert done[0].spec.tag == "sim1"

    def test_counts_split_running_pending(self):
        loop, tracker = self._tracker()
        for i in range(8):  # machine holds only 6 GPU jobs
            tracker.launch(f"s{i}")
        loop.run_until(20.0)
        assert tracker.nrunning() == 6
        assert tracker.npending() == 2
        assert sorted(tracker.tags_active()) == [f"s{i}" for i in range(8)]

    def test_cancel_all(self):
        loop, tracker = self._tracker()
        for i in range(3):
            tracker.launch(f"s{i}")
        loop.run_until(20.0)
        assert tracker.cancel_all() == 3
        assert tracker.nactive() == 0


class TestJobTrackerRetries:
    def test_failed_jobs_are_retried_with_same_tag(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        tracker = JobTracker(
            JobTypeConfig(name="cg-sim", ncores=1, ngpus=1, max_retries=2,
                          duration_sampler=lambda rng: 50.0),
            FluxAdapter(flux),
        )
        rec = tracker.launch("simX")
        loop.run_until(10.0)
        flux.fail_node(0)  # kills the running job -> FAILED -> retry
        assert tracker.retries_used("simX") == 1
        # The retried job cannot run (node drained) but is tracked.
        assert tracker.nactive() == 1

    def test_abandon_after_max_retries(self):
        loop = EventLoop()
        flux = FluxInstance(summit_like(1), loop)
        abandoned = []
        tracker = JobTracker(
            JobTypeConfig(name="cg-sim", ncores=1, ngpus=1, max_retries=1,
                          duration_sampler=lambda rng: 1e9),
            FluxAdapter(flux),
            on_abandon=abandoned.append,
        )
        tracker.launch("simY")
        loop.run_until(10.0)
        flux.fail_node(0)  # attempt 1 fails -> retry queued
        loop.run_until(20.0)
        # Drained node: retry sits pending; undrain, let it run, fail again.
        flux.graph.undrain(0)
        loop.run_until(40.0)
        flux.fail_node(0)
        assert abandoned == ["simY"]
        assert tracker.abandoned == ["simY"]


class RdfAggregator(StoreFeedbackMixin, FeedbackManager):
    """Minimal concrete manager: sums payload bytes as 'aggregation'."""

    def __init__(self, store):
        FeedbackManager.__init__(self)
        StoreFeedbackMixin.__init__(self, store, "rdf/live/", "rdf/done/")
        self.reported = []

    def process(self, items):
        return sum(len(v) for _, v in items)

    def report(self, result):
        self.reported.append(result)


class TestFeedbackManager:
    @pytest.fixture(params=["fs", "kv", "taridx"])
    def store(self, request, tmp_path):
        if request.param == "fs":
            return FSStore(str(tmp_path / "fs"))
        if request.param == "taridx":
            return TaridxStore(str(tmp_path / "tar"))
        return open_store("kv://3")

    def test_iteration_processes_and_tags(self, store):
        for i in range(5):
            store.write(f"rdf/live/f{i}", b"x" * 10)
        mgr = RdfAggregator(store)
        report = mgr.run_iteration(now=1.0)
        assert report.n_items == 5
        assert mgr.reported == [50]
        assert store.keys("rdf/live/") == []
        assert len(store.keys("rdf/done/")) == 5

    def test_cost_scales_with_new_items_only(self, store):
        # After tagging, reprocessing shouldn't see old frames — the
        # §4.4 scalability property.
        for i in range(5):
            store.write(f"rdf/live/f{i}", b"x")
        mgr = RdfAggregator(store)
        mgr.run_iteration()
        store.write("rdf/live/new", b"y")
        report = mgr.run_iteration()
        assert report.n_items == 1

    def test_empty_iteration_reports_zero(self, store):
        mgr = RdfAggregator(store)
        report = mgr.run_iteration()
        assert report.n_items == 0
        assert mgr.reported == []  # nothing aggregated

    def test_reports_accumulate(self, store):
        mgr = RdfAggregator(store)
        mgr.run_iteration()
        mgr.run_iteration()
        assert len(mgr.reports) == 2
        assert mgr.total_items == 0

    def test_timing_fields_sane(self, store):
        for i in range(3):
            store.write(f"rdf/live/f{i}", b"abc")
        mgr = RdfAggregator(store)
        rep = mgr.run_iteration(now=7.0)
        assert rep.time == 7.0
        assert rep.total_seconds >= 0
        assert rep.total_seconds == pytest.approx(
            rep.collect_seconds + rep.process_seconds + rep.tag_seconds
        )

    def test_prefix_validation(self, store):
        with pytest.raises(ValueError):
            StoreFeedbackMixin(store, "rdf/live", "rdf/done/")
