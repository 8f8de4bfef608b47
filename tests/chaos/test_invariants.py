"""InvariantSuite: each checker fires on seeded corruption, not on health."""

import types

import pytest

from repro.chaos import ChaosCampaign, ChaosConfig, FaultSchedule, InvariantSuite
from repro.chaos.invariants import selector_equivalence
from repro.sched.jobspec import JobSpec


@pytest.fixture
def campaign():
    """A fault-free campaign driven two rounds by hand, so its store is
    still open (``run()`` closes it) for the checkers to inspect."""
    campaign = ChaosCampaign(FaultSchedule(), ChaosConfig(seed=1, rounds=2))
    for _ in range(2):
        campaign.wm.round(campaign.config.advance_us)
    campaign.adapter.flush()
    yield campaign
    campaign.store.close()


def first_live_key(store):
    return sorted(k for k, v in store.acked.items() if v is not None)[0]


def test_healthy_campaign_has_no_violations(campaign):
    suite = InvariantSuite()
    assert suite.check_final(campaign, 99) == []


def test_counter_conservation_catches_tampering(campaign):
    suite = InvariantSuite()
    campaign.wm.counters["patches"] += 1
    out = suite.check_round(campaign, 0)
    assert any(v.invariant == "counter_conservation" for v in out)
    campaign.wm.counters["patches"] -= 1
    campaign.wm.counters["frames_seen"] += 2
    out = suite.check_round(campaign, 0)
    assert any("frames" in v.detail for v in out
               if v.invariant == "counter_conservation")


def test_acked_write_loss_maps_to_invariant_names(campaign):
    suite = InvariantSuite()
    key = first_live_key(campaign.store)
    for shard in campaign.store.shards:
        shard.mdelete([key])
    out = suite.check_round(campaign, 3)
    assert any(v.invariant == "acked_write_lost" and v.round == 3 for v in out)


def test_stale_read_maps_to_invariant_name(campaign):
    suite = InvariantSuite()
    key = first_live_key(campaign.store)
    for shard in campaign.store.shards:
        if shard.mget([key]) != [None]:
            shard.set(key, b"stale-bytes")
    out = suite.check_round(campaign, 0)
    assert any(v.invariant == "stale_read" for v in out)


def test_durability_maps_to_invariant_name(campaign):
    suite = InvariantSuite()
    shard = campaign.store.shards[0]
    shard.data["never-logged"] = b"x"  # memory ahead of the WAL
    out = suite.check_round(campaign, 2)
    assert [v.invariant for v in out] == ["durability_after_crash"]


def test_jobs_terminal_catches_stuck_jobs(campaign):
    suite = InvariantSuite()
    campaign.adapter.submit(JobSpec(name="wedged", tag="wedged#0"))
    out = suite.check_final(campaign, 5)
    assert any(v.invariant == "jobs_terminal" and "wedged" in v.detail
               for v in out)
    campaign.adapter.flush()
    assert not any(v.invariant == "jobs_terminal"
                   for v in suite.check_final(campaign, 5))


def test_trace_tree_catches_orphans_and_time_travel():
    suite = InvariantSuite()

    def fake_tracer(rows, dropped=0):
        return types.SimpleNamespace(
            rows=lambda: rows, dropped=dropped,
            _local=types.SimpleNamespace(stack=[]))

    ok_rows = [
        {"seq": 0, "span": 1, "parent": None, "name": "root", "t0": 0.0, "t1": 2.0},
        {"seq": 1, "span": 2, "parent": 1, "name": "child", "t0": 0.5, "t1": 1.0},
    ]
    assert suite._trace_tree(fake_tracer(ok_rows), 0) == []

    orphan = [{"seq": 0, "span": 2, "parent": 99, "name": "lost",
               "t0": 0.0, "t1": 1.0}]
    out = suite._trace_tree(fake_tracer(orphan), 0)
    assert any("orphan parent" in v.detail for v in out)

    backwards = [{"seq": 0, "span": 1, "parent": None, "name": "x",
                  "t0": 5.0, "t1": 1.0}]
    out = suite._trace_tree(fake_tracer(backwards), 0)
    assert any("ends before it starts" in v.detail for v in out)

    out = suite._trace_tree(fake_tracer(ok_rows, dropped=3), 0)
    assert any("dropped" in v.detail for v in out)


def test_selector_equivalence_detects_divergence(campaign):
    other = ChaosCampaign(FaultSchedule(), ChaosConfig(seed=1, rounds=1))
    # Same seed, never run: selectors differ from the 2-round campaign's.
    out = selector_equivalence(campaign.wm, other.wm, 0)
    other.store.close()
    assert any(v.invariant == "selector_equivalence" for v in out)
