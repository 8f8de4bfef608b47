"""CampaignFuzzer: sampling, crash capture, shrinking, replay files.

The centrepiece is the planted-bug test. It breaks the production
``NetKVCluster`` the chaos store runs on, in two ways:

- ``_mark_missed`` does nothing, so an overwrite a downed replica
  missed leaves no missed-write marker, and fail-back repair cannot
  tell the replica's copy is stale (``stale_read``);
- ``_write_tombstones`` does nothing, so a delete a downed replica
  missed leaves no tombstone, and the replica's copy comes back
  (``tombstone_resurrection``).

For each, the fuzzer must (a) catch the violation, (b) shrink the
failing schedule to a handful of fault events, and (c) save a replay
file that still reproduces it, and that passes once the bug is gone.
"""

import pytest

from repro.chaos import (CampaignFuzzer, ChaosCampaign, FaultSchedule,
                         load_replay, save_replay)
from repro.datastore.netkv import NetKVCluster


def forgets(self, keys, reached):
    """The planted bug: a marker writer that writes nothing."""


def test_sampled_schedules_are_stable_and_distinct():
    fuzzer = CampaignFuzzer(seed=7, rounds=6)
    again = CampaignFuzzer(seed=7, rounds=6)
    schedules = [fuzzer.sample_schedule(i) for i in range(4)]
    assert schedules == [again.sample_schedule(i) for i in range(4)]
    assert len({s.dumps() for s in schedules}) > 1


def test_crash_becomes_violation_not_exception():
    def exploding_factory(schedule, config):
        raise RuntimeError("harness blew up")

    fuzzer = CampaignFuzzer(seed=0, rounds=2, campaign_factory=exploding_factory)
    report = fuzzer.run_one(FaultSchedule().heal(0.0))
    assert not report.ok
    assert report.violations[0].invariant == "crash"
    assert "harness blew up" in report.violations[0].detail


def test_replay_file_round_trip(tmp_path):
    fuzzer = CampaignFuzzer(seed=3, rounds=6)
    schedule = fuzzer.sample_schedule(0)
    path = tmp_path / "replay.json"
    save_replay(str(path), schedule, fuzzer._config())
    loaded_schedule, loaded_config = load_replay(str(path))
    assert loaded_schedule == schedule
    assert loaded_config == fuzzer._config()
    with pytest.raises(ValueError):
        path.write_text(path.read_text().replace('"version": 1', '"version": 9'))
        load_replay(str(path))


@pytest.mark.chaos
@pytest.mark.timeout(600)
@pytest.mark.parametrize("method, invariant", [
    ("_mark_missed", "stale_read"),
    ("_write_tombstones", "tombstone_resurrection"),
])
def test_planted_bug_is_caught_and_shrunk(tmp_path, monkeypatch, method,
                                          invariant):
    monkeypatch.setattr(NetKVCluster, method, forgets)
    # seed 3 trips both bugs in its second campaign.
    fuzzer = CampaignFuzzer(seed=3, rounds=4)
    result = fuzzer.run(2)
    assert not result.ok, f"planted {method} bug went undetected"

    failure = result.failures[0]
    assert invariant in {v.invariant for v in failure.violations}
    # The reproducer must be minimal: a handful of events, not a storm.
    assert len(failure.shrunk) <= 5
    assert len(failure.shrunk) <= len(failure.schedule)

    # The shrunk schedule still reproduces through a saved replay file.
    path = tmp_path / "shrunk.json"
    save_replay(str(path), failure.shrunk, fuzzer._config())
    schedule, config = load_replay(str(path))
    replayed = ChaosCampaign(schedule, config).run()
    assert invariant in {v.invariant for v in replayed.violations}

    # And the unbroken cluster passes the very same replay.
    monkeypatch.undo()
    healthy = ChaosCampaign(*load_replay(str(path))).run()
    assert healthy.ok, [v.to_json() for v in healthy.violations]


@pytest.mark.chaos
def test_back_to_back_restores_keep_every_patch_candidate():
    """The shrunk reproducer of seed 29's ``selector_equivalence``
    failure: the first restore restarted patch numbering, so the next
    snapshot re-minted live candidates' ids, and the second restore
    pruned the candidate whose side-table entry had been overwritten."""
    fuzzer = CampaignFuzzer(seed=29, rounds=6)
    report = fuzzer.run_one(
        FaultSchedule().checkpoint_restore(7.19).checkpoint_restore(140.81))
    assert report.ok, [v.to_json() for v in report.violations]
