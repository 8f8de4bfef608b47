"""Extension bench: chaos-harness overhead per simulated round.

CHAOS.md promises the chaos layer is cheap enough to run by default.
This bench prices what the harness adds around a WM round — fault
scheduling, the per-round invariant pass (which re-verifies the full
ack log), virtual-time bookkeeping, and the always-on tracer — by
timing the same seeded pipeline two ways:

- *bare*: the identical WM/ChaosStore/ChaosAdapter wiring driven by a
  plain ``wm.round()`` loop with no faults, no invariant checks, no
  tracer;
- *campaign*: the full ``ChaosCampaign`` with a representative fault
  schedule (one shard bounce, wire faults, a mid-run restart).

Both run on virtual time, so the difference is pure harness cost. The
per-round wall-clock numbers land in ``BENCH_chaos.json`` at the repo
root via the merge-on-write ledger helper.
"""

import time

from conftest import record_json, report

from repro.chaos import ChaosCampaign, ChaosConfig, FaultSchedule

ROUNDS = 8
REPEATS = 3


def _bare_rounds(config):
    """The same wiring as ChaosCampaign, driven without the harness."""
    campaign = ChaosCampaign(FaultSchedule().heal(0.0), config)
    t0 = time.perf_counter()
    for _ in range(config.rounds):
        campaign.wm.round(config.advance_us)
    elapsed = time.perf_counter() - t0
    campaign.store.close()
    return elapsed


def _full_campaign(config):
    sched = (FaultSchedule()
             .shard_down(61.0, 1)
             .delay(65.0, 0.2)
             .checkpoint_restore(185.0)
             .shard_up(245.0, 1)
             .heal(300.0))
    campaign = ChaosCampaign(sched, config)
    t0 = time.perf_counter()
    rep = campaign.run()
    elapsed = time.perf_counter() - t0
    assert rep.ok, [v.to_json() for v in rep.violations]
    return elapsed


def test_harness_overhead_per_round():
    config = ChaosConfig(seed=11, rounds=ROUNDS)
    bare = min(_bare_rounds(config) for _ in range(REPEATS))
    full = min(_full_campaign(config) for _ in range(REPEATS))
    bare_ms = 1e3 * bare / ROUNDS
    full_ms = 1e3 * full / ROUNDS
    overhead_ms = full_ms - bare_ms

    report("ext_chaos_overhead", [
        f"rounds per campaign        {ROUNDS}",
        f"bare WM round              {bare_ms:8.2f} ms",
        f"chaos campaign round       {full_ms:8.2f} ms",
        f"harness overhead per round {overhead_ms:8.2f} ms "
        f"({100.0 * overhead_ms / bare_ms:+.1f}%)",
    ])
    record_json("BENCH_chaos.json", "harness_overhead", {
        "rounds": ROUNDS,
        "bare_ms_per_round": round(bare_ms, 3),
        "campaign_ms_per_round": round(full_ms, 3),
        "overhead_ms_per_round": round(overhead_ms, 3),
    })
    # Guard rail, not a microbenchmark: the harness (faults + invariant
    # sweep + tracing) must stay within 3x of the bare pipeline round.
    # The checkpoint/restore round legitimately pays for two full WM
    # builds, amortized across ROUNDS here.
    assert full < 3.0 * bare + 1.0
