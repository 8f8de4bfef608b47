"""End-to-end tracing: WM rounds, cross-thread ancestry, fault events."""

import numpy as np
import pytest

from repro import trace
from repro.app.builder import build_application
from repro.core.telemetry import collect_telemetry, render_report
from repro.core.wm import WorkflowConfig
from repro.datastore.base import StoreUnavailable
from repro.datastore.netkv import NetKVServer, NetKVStore, TransportConfig
from repro.util.faults import NetworkFaultInjector


@pytest.fixture(autouse=True)
def reset_global_tracer():
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def traced_run():
    """Two traced workflow rounds; yields (rows, telemetry report)."""
    trace.disable()
    tracer = trace.enable()
    app = build_application(
        store_url="kv://2",
        workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=2,
                                cg_steps_per_chunk=10, aa_chunks_per_job=1,
                                aa_steps_per_chunk=10, seed=0),
        seed=0,
    )
    app.run(nrounds=2)
    report = collect_telemetry(app.wm)
    rows = tracer.rows()
    trace.disable()
    return rows, report


class TestWorkflowTrace:
    def test_stage_set_covers_the_pipeline(self, traced_run):
        rows, _ = traced_run
        stages = {r["stage"] for r in rows}
        assert {"wm", "select", "schedule", "store", "feedback"} <= stages

    def test_rounds_are_root_spans(self, traced_run):
        rows, _ = traced_run
        rounds = [r for r in rows if r["name"] == "wm.round"]
        assert len(rounds) == 2
        assert all(r["parent"] is None for r in rounds)
        assert sorted(r["attrs"]["round"] for r in rounds) == [0, 1]

    def test_worker_thread_store_ops_parent_into_job_spans(self, traced_run):
        """trace.wrap carries context into the WM's thread-pool jobs."""
        rows, _ = traced_run
        by_id = {r["span"]: r for r in rows}
        sim_spans = [r for r in rows
                     if r["name"] in ("wm.cg_sim", "wm.aa_sim", "wm.createsim")]
        assert sim_spans
        # Job bodies run on worker threads yet still have a parent chain.
        parented = [r for r in sim_spans if r["parent"] is not None]
        assert parented
        # And store writes issued inside a job parent to that job's span.
        cg_ids = {r["span"] for r in rows if r["name"] == "wm.cg_sim"}
        store_children = [r for r in rows
                          if r["stage"] == "store" and r["parent"] in cg_ids]
        assert store_children
        for child in store_children:
            assert by_id[child["parent"]]["thread"] == child["thread"]

    def test_selection_spans_nest_under_wm_select(self, traced_run):
        rows, _ = traced_run
        wm_select = {r["span"] for r in rows if r["name"] == "wm.select"}
        inner = [r for r in rows if r["stage"] == "select"]
        assert inner
        assert any(r["parent"] in wm_select for r in inner)

    def test_feedback_phases_nest_under_iteration(self, traced_run):
        rows, _ = traced_run
        iters = {r["span"] for r in rows if r["name"] == "feedback.iteration"}
        phases = [r for r in rows if r["name"].startswith("feedback.")
                  and r["name"] != "feedback.iteration"]
        assert phases
        assert all(r["parent"] in iters for r in phases)

    def test_telemetry_carries_trace_summary(self, traced_run):
        _, report = traced_run
        assert report.trace["spans"] > 0
        assert report.trace["dropped"] == 0
        assert "store" in report.trace["stages"]
        assert "trace:" in render_report(report)

    def test_breakdown_renders_from_live_rows(self, traced_run):
        rows, _ = traced_run
        text = trace.render_breakdown(rows)
        assert "critical path" in text
        assert "wm.round" in text


class TestTelemetryWithoutTracing:
    def test_trace_section_empty_when_disabled(self):
        app = build_application(
            store_url="kv://2",
            workflow=WorkflowConfig(beads_per_type=8, cg_chunks_per_job=1,
                                    cg_steps_per_chunk=5, aa_chunks_per_job=1,
                                    aa_steps_per_chunk=5, seed=0),
            seed=0,
        )
        app.run(nrounds=1)
        report = collect_telemetry(app.wm)
        assert report.trace == {}
        assert "trace:" not in render_report(report)


class TestFaultInjectionTrace:
    def test_injected_faults_become_retry_events(self):
        """§ tentpole: a degraded-network run shows retries in the trace."""
        tracer = trace.enable()
        injector = NetworkFaultInjector(close=0.4, rng=np.random.default_rng(7))
        server = NetKVServer(fault_injector=injector).start()
        try:
            store = NetKVStore.connect(
                [server.address],
                config=TransportConfig(retries=8, backoff_base=0.001,
                                       backoff_max=0.01, op_timeout=2.0),
            )
            for i in range(20):
                store.write(f"k/{i:02d}", b"payload")
                assert store.read(f"k/{i:02d}") == b"payload"
            store.close()
        finally:
            server.stop()
        rows = tracer.rows()
        assert injector.injected["close"] > 0  # faults actually fired
        counts = trace.event_counts(rows)
        assert counts.get("retry", 0) > 0
        # Retry events are attached to the store op that paid for them.
        retried = [r for r in rows if any(e["name"] == "retry" for e in r["events"])]
        assert retried
        assert all(r["stage"] == "store" for r in retried)
        for r in retried:
            ev = next(e for e in r["events"] if e["name"] == "retry")
            assert ev["attrs"]["kind"] in {"timeout", "protocol", "connection"}
            # A single-key write or read is a one-key batch on the wire.
            assert ev["attrs"]["op"] in {"MSET", "MGET"}

    def test_exhausted_budget_annotates_the_failing_span(self):
        tracer = trace.enable()
        server = NetKVServer().start()
        address = server.address
        server.stop()  # dead server: every attempt fails
        store = NetKVStore.connect(
            [address],
            config=TransportConfig(retries=1, backoff_base=0.0,
                                   backoff_max=0.0, connect_timeout=0.2,
                                   op_timeout=0.2),
        )
        with pytest.raises(StoreUnavailable):
            store.read("missing")
        store.close()
        counts = trace.event_counts(tracer.rows())
        assert counts.get("exhausted", 0) == 1
        (row,) = [r for r in tracer.rows() if r["name"] == "store.read"]
        assert row["attrs"]["error"] == "StoreUnavailable"

    def test_server_side_handle_spans_record_commands(self):
        tracer = trace.enable()
        server = NetKVServer().start()
        try:
            store = NetKVStore.connect([server.address])
            store.write("a", b"1")
            store.read("a")
            store.close()
        finally:
            server.stop()
        handles = [r for r in tracer.rows() if r["name"] == "netkv.handle"]
        cmds = {r["attrs"].get("cmd") for r in handles}
        assert {"MSET", "MGET"} <= cmds
