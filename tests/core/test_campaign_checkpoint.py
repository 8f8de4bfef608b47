"""Tests for campaign checkpoint/restore: crash-resume equivalence."""

import json

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig, CampaignSimulator, RunSpec
from repro.datastore import open_store

LEDGER = (RunSpec(15, 2, 2), RunSpec(30, 3, 2))
CFG = CampaignConfig(ledger=LEDGER, seed=17)


class TestIncrementalRun:
    def test_max_runs_pauses(self):
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=1)
        assert sim.runs_completed == 1
        assert sim.result.table1 == []  # not finalized yet

    def test_resume_completes(self):
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=1)
        result = sim.run()
        assert sim.runs_completed == 4
        assert result.total_node_hours() == 15 * 2 * 2 + 30 * 3 * 2

    def test_run_after_completion_is_idempotent(self):
        sim = CampaignSimulator(CFG)
        r1 = sim.run()
        n = len(r1.cg_lengths_us)
        r2 = sim.run()
        assert len(r2.cg_lengths_us) == n  # not double-finalized


class TestCheckpointEquivalence:
    def test_resume_reproduces_uninterrupted_campaign(self):
        """Crash after run 2, restore into a fresh simulator, finish —
        the result must equal the uninterrupted campaign exactly."""
        straight = CampaignSimulator(CFG).run()

        first = CampaignSimulator(CFG)
        first.run(max_runs=2)
        state = first.state_dict()

        resumed = CampaignSimulator(CFG)
        resumed.load_state_dict(state)
        result = resumed.run()

        assert result.cg_lengths_us == straight.cg_lengths_us
        assert result.aa_lengths_ns == straight.aa_lengths_ns
        assert result.counters == straight.counters
        gpu_a = [e.gpu_occupancy for e in result.profile_events]
        gpu_b = [e.gpu_occupancy for e in straight.profile_events]
        assert gpu_a == gpu_b

    def test_state_is_json_serializable(self):
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=1)
        payload = json.dumps(sim.state_dict())
        assert len(payload) > 100

    def test_checkpoint_roundtrips_through_a_store(self):
        store = open_store("kv://2")
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=2)
        store.write_json("campaign/ckpt", sim.state_dict())

        resumed = CampaignSimulator(CFG)
        resumed.load_state_dict(store.read_json("campaign/ckpt"))
        result = resumed.run()
        assert result.total_node_hours() == 240

    def test_wrong_seed_rejected(self):
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=1)
        other = CampaignSimulator(CampaignConfig(ledger=LEDGER, seed=99))
        with pytest.raises(ValueError, match="seed"):
            other.load_state_dict(sim.state_dict())

    def test_inflight_sims_survive_checkpoint(self):
        sim = CampaignSimulator(CFG)
        sim.run(max_runs=1)
        state = sim.state_dict()
        inflight = sum(len(v) for v in state["inflight"].values())
        assert inflight > 0  # 2h run: most sims were checkpointed mid-flight
        resumed = CampaignSimulator(CFG)
        resumed.load_state_dict(state)
        assert sum(len(v) for v in resumed._inflight.values()) == inflight
