"""Keeps OBSERVABILITY.md and the telemetry code in sync.

Same spirit as ``tests/test_extending_doc.py``: the guide documents the
telemetry surface field by field, so these assertions fail whenever a
field is added, renamed, or dropped without the docs (or docstrings)
following.
"""

import dataclasses
import os
import re

from repro.core.telemetry import TelemetryReport
from repro.datastore.stats import IOStats, LatencyHistogram, TransportStats
from repro.sched.matcher import MatchStats
from repro.util.locks import LockStats

DOC = os.path.join(os.path.dirname(__file__), "..", "OBSERVABILITY.md")

with open(DOC, encoding="utf-8") as fh:
    GUIDE = fh.read()


def backticked(text):
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", text))


GUIDE_TOKENS = backticked(GUIDE)


class TestGuideCoversCode:
    def test_every_telemetry_report_field_is_documented(self):
        fields = {f.name for f in dataclasses.fields(TelemetryReport)}
        assert fields <= GUIDE_TOKENS

    def test_every_iostats_counter_is_documented(self):
        assert set(IOStats().as_dict()) <= GUIDE_TOKENS

    def test_every_transport_counter_is_documented(self):
        assert set(TransportStats().as_dict()) <= GUIDE_TOKENS

    def test_latency_summary_keys_are_documented(self):
        keys = set(LatencyHistogram().as_dict()) - {"count"}  # count is generic
        assert keys <= GUIDE_TOKENS

    def test_every_lockstats_counter_is_documented(self):
        assert set(LockStats().as_dict()) <= GUIDE_TOKENS

    def test_every_match_stats_counter_is_documented(self):
        # The telemetry ``scheduler`` section carries every field.
        assert {f.name for f in dataclasses.fields(MatchStats)} <= GUIDE_TOKENS

    def test_trace_stages_are_documented(self):
        for stage in ("wm", "select", "schedule", "store", "feedback", "netkv"):
            assert f"`{stage}`" in GUIDE, f"stage {stage} missing from the guide"


class TestDocstringsCoverFields:
    """Every public counter field is named in its class docstring."""

    def test_iostats_docstring(self):
        doc = IOStats.__doc__
        for name in IOStats().as_dict():
            assert name in doc, f"IOStats docstring misses {name}"

    def test_transport_stats_docstring(self):
        doc = TransportStats.__doc__
        for name in TransportStats().as_dict():
            assert name in doc, f"TransportStats docstring misses {name}"

    def test_latency_histogram_docstring(self):
        doc = LatencyHistogram.__doc__
        for name in LatencyHistogram().as_dict():
            assert name in doc, f"LatencyHistogram docstring misses {name}"

    def test_lockstats_docstring(self):
        doc = LockStats.__doc__
        for name in LockStats().as_dict():
            assert name in doc, f"LockStats docstring misses {name}"

    def test_telemetry_report_docstring(self):
        doc = TelemetryReport.__doc__
        for f in dataclasses.fields(TelemetryReport):
            assert f.name in doc, f"TelemetryReport docstring misses {f.name}"

    def test_docstrings_state_units(self):
        for cls in (IOStats, LatencyHistogram, TransportStats, LockStats):
            text = cls.__doc__.lower()
            assert any(u in text for u in ("bytes", "count", "millisecond")), (
                f"{cls.__name__} docstring must state units"
            )
