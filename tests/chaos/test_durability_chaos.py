"""Crash/restart and reshard chaos campaigns over the production cluster.

The issue's acceptance bar: a campaign that crash-restarts *every*
shard under load and reshards mid-campaign must complete with zero
acked-write loss, no tombstone resurrection, and no stale reads — and
the negative control (no durable log, replication=1) must actually
*trip* the ``acked_write_lost`` invariant, proving the checkers watch
what the positive tests claim they watch.
"""

import os
import threading

import pytest

from repro.chaos import (
    ChaosCampaign,
    ChaosConfig,
    FaultSchedule,
    load_replay,
    save_replay,
)

pytestmark = pytest.mark.chaos


def run(schedule, rounds=5, seed=11, **cfg):
    campaign = ChaosCampaign(
        schedule, ChaosConfig(seed=seed, rounds=rounds, **cfg))
    return campaign, campaign.run()


def test_crash_restart_every_shard_under_load():
    # Default config has 4 shards; crash each one in turn mid-campaign.
    sched = FaultSchedule()
    for shard in range(4):
        sched.crash_restart(35.0 + 60.0 * shard, shard)
    campaign, report = run(sched, rounds=6)
    assert report.ok, [v.to_json() for v in report.violations]
    assert report.chaos["crash_restarts"] == 4
    assert report.chaos["faults_applied"] == 4
    assert campaign.store.replica_health()["up"] == 4


def test_reshard_during_writes():
    campaign, report = run(FaultSchedule().reshard(95.0, 1), rounds=5)
    assert report.ok, [v.to_json() for v in report.violations]
    assert report.chaos["reshards"] == 1
    assert report.chaos["slots_moved"] > 0
    assert campaign.store.replica_health()["slot_overrides"] > 0


def test_reshard_then_crash_both_ends():
    """The acceptance scenario in one campaign: reshard mid-run, then
    crash-restart both the migration source and destination (and every
    other shard for good measure). Replay must land each moved key in
    its *new* home with no loss and no resurrection."""
    sched = FaultSchedule().reshard(65.0, 1)
    for shard in range(4):
        sched.crash_restart(125.0 + 30.0 * shard, shard)
    campaign, report = run(sched, rounds=7)
    assert report.ok, [v.to_json() for v in report.violations]
    assert report.chaos["reshards"] == 1
    assert report.chaos["crash_restarts"] == 4
    assert report.chaos["slots_moved"] > 0


def test_campaign_starts_no_thread_and_leaves_no_wal_directory():
    """Crash-restart replays real WALs and reshard runs migrate_slots,
    all inline: no cluster event loop, no WAL executor, and the WAL
    directory is gone once the campaign ends."""
    before = set(threading.enumerate())
    sched = FaultSchedule().reshard(65.0, 1).crash_restart(125.0, 2)
    campaign, report = run(sched, rounds=4)
    assert report.ok, [v.to_json() for v in report.violations]
    assert report.chaos["slots_moved"] > 0
    assert report.chaos["crash_restarts"] == 1
    assert set(threading.enumerate()) - before == set()
    assert campaign.store.directory is not None
    assert not os.path.exists(campaign.store.directory)


def test_crash_restart_with_concurrent_shard_outage():
    # One shard dark while another crash-restarts: replication plus the
    # durable log together must still cover every acked write.
    sched = (FaultSchedule()
             .shard_down(30.0, 3)
             .crash_restart(65.0, 0)
             .crash_restart(95.0, 1)
             .shard_up(155.0, 3))
    _, report = run(sched, rounds=5)
    assert report.ok, [v.to_json() for v in report.violations]
    assert report.chaos["crash_restarts"] == 2


def test_nondurable_crash_loses_acked_writes():
    """Negative control: durable=False + replication=1 means a crash
    wipes the only copy — the invariant checkers must catch it."""
    sched = FaultSchedule().crash_restart(95.0, 0).crash_restart(95.0, 1)
    _, report = run(sched, rounds=4, durable=False, replication=1)
    assert not report.ok
    names = {v.invariant for v in report.violations}
    assert "acked_write_lost" in names


def test_durable_campaign_is_byte_identical_via_replay(tmp_path):
    """`repro chaos --replay` byte-reproducibility for the new events:
    save the schedule+config, reload, rerun, compare serialized reports."""
    sched = (FaultSchedule()
             .reshard(65.0, 2)
             .crash_restart(95.0, 0)
             .crash_restart(155.0, 2))
    config = ChaosConfig(seed=23, rounds=6)
    path = str(tmp_path / "replay.json")
    save_replay(path, sched, config)

    first = ChaosCampaign(sched, config).run().dumps()
    loaded_sched, loaded_config = load_replay(path)
    assert loaded_config == config
    second = ChaosCampaign(loaded_sched, loaded_config).run().dumps()
    assert first == second
