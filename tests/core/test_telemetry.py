"""Tests for workflow telemetry collection and rendering."""

import pytest

from repro.app.builder import build_application
from repro.core.telemetry import TelemetryReport, collect_telemetry, render_report
from repro.core.wm import WorkflowConfig


@pytest.fixture(scope="module")
def app():
    application = build_application(
        store_url="kv://2",
        workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=2,
                                cg_steps_per_chunk=10, aa_chunks_per_job=1,
                                aa_steps_per_chunk=10, seed=0),
        seed=0,
    )
    application.run(nrounds=2)
    return application


class TestCollect:
    def test_snapshot_fields(self, app):
        rep = collect_telemetry(app.wm)
        assert rep.rounds == 2
        assert rep.counters["snapshots"] == 2
        assert set(rep.trackers) == {"createsim", "cg-sim", "backmap", "aa-sim"}

    def test_io_volume_positive(self, app):
        rep = collect_telemetry(app.wm)
        assert rep.data_written() > 0
        assert rep.store_io["writes"] > 0

    def test_jobs_completed_matches_trackers(self, app):
        rep = collect_telemetry(app.wm)
        assert rep.jobs_completed() == sum(
            t.completed for t in app.wm.trackers.values()
        )
        assert rep.jobs_completed() > 0

    def test_feedback_rows_per_manager(self, app):
        rep = collect_telemetry(app.wm)
        names = {row["manager"] for row in rep.feedback}
        assert names == {"CGToContinuumFeedback", "AAToCGFeedback"}
        assert rep.feedback_items() >= 0

    def test_selector_summary(self, app):
        rep = collect_telemetry(app.wm)
        assert rep.selectors["patch_selected"] > 0
        assert 0 <= rep.selectors["frame_bin_coverage"] <= 1

    def test_lock_stats_present(self, app):
        rep = collect_telemetry(app.wm)
        assert rep.lock_stats["acquisitions"] > 0


class TestPartialSnapshots:
    """The reducers tolerate snapshots from backends/trackers that don't
    report every key (e.g. a custom store whose stats dict is minimal)."""

    @staticmethod
    def _report(store_io, trackers):
        return TelemetryReport(
            rounds=0, counters={}, lock_stats={}, trackers=trackers,
            store_io=store_io, feedback=[], selectors={},
        )

    def test_data_written_missing_key_is_zero(self):
        rep = self._report(store_io={"writes": 3}, trackers={})
        assert rep.data_written() == 0

    def test_data_written_present_key(self):
        rep = self._report(store_io={"bytes_written": 123}, trackers={})
        assert rep.data_written() == 123

    def test_jobs_completed_missing_key_counts_zero(self):
        rep = self._report(
            store_io={},
            trackers={"cg-sim": {"completed": 4}, "custom": {"active": 1}},
        )
        assert rep.jobs_completed() == 4

    def test_empty_report_reducers(self):
        rep = self._report(store_io={}, trackers={})
        assert rep.data_written() == 0
        assert rep.jobs_completed() == 0
        assert rep.feedback_items() == 0
        assert rep.trace == {}


class TestRender:
    def test_render_contains_key_sections(self, app):
        text = render_report(collect_telemetry(app.wm))
        for token in ("pipeline counters", "job trackers", "store I/O",
                      "feedback", "selectors", "locking"):
            assert token in text

    def test_render_is_multiline_prose(self, app):
        text = render_report(collect_telemetry(app.wm))
        assert len(text.splitlines()) > 10
