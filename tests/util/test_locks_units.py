"""Tests for shared-state locking helpers and unit formatting."""

import threading

from repro.util import units
from repro.util.locks import SharedState


class TestSharedState:
    def test_locked_yields_object(self):
        s = SharedState({"n": 0})
        with s.locked() as d:
            d["n"] = 7
        with s.locked() as d:
            assert d["n"] == 7

    def test_contention_counted_when_held_by_other_thread(self):
        s = SharedState({})
        holding = threading.Event()
        release = threading.Event()

        def holder():
            with s.locked():
                holding.set()
                release.wait(timeout=5)

        t = threading.Thread(target=holder)
        t.start()
        holding.wait(timeout=5)
        threading.Timer(0.05, release.set).start()
        with s.locked():
            pass
        assert s.stats.contentions == 1
        t.join()

    def test_reentrant_from_same_thread(self):
        s = SharedState({"n": 0})
        with s.locked() as d1:
            with s.locked() as d2:
                assert d1 is d2

    def test_concurrent_increments_are_serialized(self):
        s = SharedState({"n": 0})

        def bump():
            for _ in range(1000):
                with s.locked() as d:
                    d["n"] += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with s.locked() as d:
            assert d["n"] == 4000

    def test_stats_counts_acquisitions(self):
        s = SharedState({})
        with s.locked():
            pass
        with s.locked():
            pass
        assert s.stats.acquisitions == 2
        assert s.stats.as_dict()["acquisitions"] == 2


class TestUnits:
    def test_time_constants(self):
        assert units.HOUR == 60 * units.MINUTE
        assert units.DAY == 24 * units.HOUR

    def test_format_duration_ranges(self):
        assert units.format_duration(0.005) == "5.0 ms"
        assert units.format_duration(30) == "30.0 s"
        assert units.format_duration(90) == "1.5 min"
        assert units.format_duration(2 * units.HOUR) == "2.00 h"
        assert units.format_duration(3 * units.DAY) == "3.00 d"
        assert units.format_duration(-30).startswith("-")

    def test_format_bytes_ranges(self):
        assert units.format_bytes(512) == "512 B"
        assert units.format_bytes(2 * units.MB) == "2.00 MiB"
        assert units.format_bytes(3 * units.GB) == "3.00 GiB"

    def test_format_sim_time(self):
        assert units.format_sim_time(0.5) == "0.500 ns"
        assert units.format_sim_time(1500) == "1.500 us"
        assert units.format_sim_time(2e6) == "2.000 ms"
