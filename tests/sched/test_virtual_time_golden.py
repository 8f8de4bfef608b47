"""Exactness goldens: the virtual time the matcher's visit charges produce.

``QueueManager`` bills ``vertices_visited × vertex_cost`` as virtual
time, so the matcher's visit charge is part of every Fig. 6 load curve
and every Table 1 campaign run. The literals below were recorded from
the matcher as it stood before its scan paths were merged; a refactor
of the scan must reproduce them exactly. Re-record them only for an
intended change to the charge, and say so in CHANGES.md.

The hashed start logs keep start times and job names; ids, which each
``FluxInstance`` numbers from 1, are pinned by
``tests/sched/test_queue_flux.py::test_identical_runs_log_identical_start_logs``.
"""

import hashlib
import json

import pytest

from repro.core.campaign import CampaignConfig, CampaignSimulator, RunSpec
from repro.sched.emulator import run_policy_emulation
from repro.sched.loadtest import run_load_experiment
from repro.sched.matcher import MatchPolicy
from repro.sched.queue import QueueMode

EMULATION_VISITS = {
    MatchPolicy.LOW_ID_FIRST: 6_526_768,
    MatchPolicy.FIRST_MATCH: 6_175,
}
LOAD_START_LOG_SHA256 = "7302b0353415e59168e7ccf4cfdae2d8795be678539563536b688acf97e1804f"
CAMPAIGN_SHA256 = "d71d46f016d69aa2af924593417a2de7d73862dac87c19fee3f97369a4441d2a"


def digest(payload) -> str:
    # json.dumps writes floats with repr(), which round-trips exactly.
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("policy", list(EMULATION_VISITS), ids=lambda p: p.value)
def test_policy_emulation_visits(policy):
    result = run_policy_emulation(policy, scale=0.05)
    assert result.vertices_visited == EMULATION_VISITS[policy]


def test_low_id_load_curve():
    result = run_load_experiment(300, 2000, policy=MatchPolicy.LOW_ID_FIRST,
                                 mode=QueueMode.SYNC, max_hours=1.0)
    assert digest([result.start_times, result.submit_times]) == LOAD_START_LOG_SHA256


def test_campaign_run():
    config = CampaignConfig(ledger=(RunSpec(40, 3, 1),), seed=34,
                            node_failures_per_1000node_day=200.0)
    result = CampaignSimulator(config).run()
    payload = {
        "table1": result.table1,
        "start_log": result.load_curves[40],
        "profile_events": [
            [e.time, e.gpu_occupancy, e.cpu_occupancy, e.running, e.pending]
            for e in result.profile_events
        ],
        "counters": result.counters,
    }
    assert digest(payload) == CAMPAIGN_SHA256
