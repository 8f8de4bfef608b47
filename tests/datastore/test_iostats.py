"""Tests for automatic I/O accounting on every backend."""

import pytest

from repro.datastore import FSStore, TaridxStore, open_store
from repro.datastore.stats import IOStats, LatencyHistogram, TransportStats


@pytest.fixture(params=["fs", "taridx", "kv"])
def store(request, tmp_path):
    if request.param == "fs":
        s = FSStore(str(tmp_path / "fs"))
    elif request.param == "taridx":
        s = TaridxStore(str(tmp_path / "tar"))
    else:
        s = open_store("kv://2")
    yield s
    s.close()


class TestAutomaticInstrumentation:
    def test_writes_counted_with_bytes(self, store):
        store.write("a", b"12345")
        store.write("b", b"1234567890")
        assert store.stats.writes == 2
        assert store.stats.bytes_written == 15

    def test_reads_counted_with_bytes(self, store):
        store.write("a", b"12345")
        store.read("a")
        store.read("a")
        assert store.stats.reads == 2
        assert store.stats.bytes_read == 10

    def test_deletes_moves_scans(self, store):
        store.write("a", b"x")
        store.write("b", b"y")
        store.keys()
        store.move("a", "c")
        store.delete("b")
        assert store.stats.scans == 1
        assert store.stats.moves == 1
        assert store.stats.deletes == 1

    def test_typed_helpers_flow_through(self, store):
        import numpy as np

        store.write_arrays("arr", {"x": np.arange(10)})
        store.read_arrays("arr")
        assert store.stats.writes == 1
        assert store.stats.reads == 1
        assert store.stats.bytes_written > 0
        assert store.stats.bytes_written == store.stats.bytes_read

    def test_stats_are_per_instance(self, tmp_path):
        a = open_store("kv://1")
        b = open_store("kv://1")
        a.write("k", b"xxx")
        assert a.stats.writes == 1
        assert b.stats.writes == 0

    def test_ops_total_and_reset(self, store):
        store.write("a", b"x")
        store.keys()
        assert store.stats.ops() == 2
        store.stats.reset()
        assert store.stats.ops() == 0
        assert store.stats.as_dict()["bytes_written"] == 0


class TestIOStatsUnit:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            IOStats().note("frobnicate")

    def test_as_dict_fields(self):
        s = IOStats()
        s.note("write", 100)
        d = s.as_dict()
        assert d["writes"] == 1 and d["bytes_written"] == 100


class TestLatencyHistogram:
    def test_buckets_and_moments(self):
        h = LatencyHistogram()
        h.observe(0.001)   # 1 ms
        h.observe(0.001)
        h.observe(0.2)     # 200 ms
        assert h.count == 3
        assert 0.9 * 67 < h.mean_ms() < 1.1 * 67
        assert h.max_ms == pytest.approx(200.0)
        d = h.as_dict()
        assert sum(d["buckets"].values()) == 3
        assert d["p50_ms"] <= d["p99_ms"]

    def test_overflow_bucket(self):
        h = LatencyHistogram()
        h.observe(30.0)  # 30 s — beyond the last edge
        assert h.as_dict()["buckets"][">5000ms"] == 1

    def test_empty_histogram(self):
        d = LatencyHistogram().as_dict()
        assert d["count"] == 0 and d["p99_ms"] == 0.0

    def test_reset(self):
        h = LatencyHistogram()
        h.observe(0.5)
        h.reset()
        assert h.count == 0 and h.max_ms == 0.0


class TestTransportStatsUnit:
    def test_counters_accumulate(self):
        t = TransportStats()
        t.note_request(100)
        t.note_response(50, 0.002)
        t.note_retry(timed_out=True)
        t.note_retry(timed_out=False, protocol=True)
        t.note_reconnect()
        t.note_exhausted()
        d = t.as_dict()
        assert d["requests"] == 1 and d["bytes_sent"] == 100
        assert d["bytes_received"] == 50
        assert d["retries"] == 2 and d["timeouts"] == 1
        assert d["protocol_errors"] == 1
        assert d["reconnects"] == 1 and d["exhausted"] == 1
        assert d["latency"]["count"] == 1

    def test_reset(self):
        t = TransportStats()
        t.note_request(10)
        t.note_retry(timed_out=True)
        t.reset()
        d = t.as_dict()
        assert d["requests"] == 0 and d["retries"] == 0
        assert d["latency"]["count"] == 0

    def test_thread_safety_smoke(self):
        import threading

        t = TransportStats()

        def hammer():
            for _ in range(1000):
                t.note_request(1)
                t.note_response(1, 0.0001)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        d = t.as_dict()
        assert d["requests"] == 8000
        assert d["latency"]["count"] == 8000


class TestWorkflowDataVolume:
    def test_wm_round_accumulates_io(self):
        """The WM's data production is visible through store stats —
        the per-day TB accounting the campaign reports."""
        from tests.core.test_wm import make_wm

        wm, store = make_wm()
        wm.round()
        assert store.stats.bytes_written > 1000  # patches + RDFs + SS
        assert store.stats.writes > 5
