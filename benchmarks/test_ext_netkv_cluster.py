"""Extension bench: pipelined cluster batches vs per-key round trips.

The feedback managers' hot shape is hundreds of tiny reads and writes
per iteration (§4.4, Fig. 7/8). Against a networked store each per-key
call pays a full round trip; the cluster's mset/mget pack a shard's
whole batch into one MSET/MGET exchange. This bench measures that win
on loopback TCP — the most pessimistic setting for pipelining, since
round trips are already as cheap as they get — against shards in a
child process (so the per-key loops measure the wire, not GIL
hand-offs with a shard loop thread), and records it to the repo-root
ledger ``BENCH_netkv_cluster.json``.
"""

import time

import pytest
from conftest import record_json, report, shard_child

from repro.datastore.netkv import NetKVCluster, TransportConfig

BENCH_JSON = "BENCH_netkv_cluster.json"
NKEYS = 600
PAYLOAD = b"x" * 64


@pytest.mark.multi_server
class TestPipeliningWin:
    def test_batched_ops_beat_per_key_loops(self):
        with shard_child(2) as addresses:
            self._batched_vs_loops(
                NetKVCluster(addresses, config=TransportConfig()))

    def _batched_vs_loops(self, cluster):
        items = [(f"bench/{i:04d}", PAYLOAD) for i in range(NKEYS)]
        keys = [k for k, _ in items]
        try:
            t0 = time.perf_counter()
            for k, v in items:
                cluster.set(k, v)
            t_set_loop = time.perf_counter() - t0

            t0 = time.perf_counter()
            for k, v in items:
                assert cluster.get(k) == v
            t_get_loop = time.perf_counter() - t0

            t0 = time.perf_counter()
            cluster.mset(items)
            t_mset = time.perf_counter() - t0

            t0 = time.perf_counter()
            values = cluster.mget(keys)
            t_mget = time.perf_counter() - t0
            assert values == [v for _, v in items]

            write_speedup = t_set_loop / t_mset
            read_speedup = t_get_loop / t_mget
            report("ext_netkv_cluster_pipelining", [
                f"keys                 {NKEYS} x {len(PAYLOAD)} B",
                f"per-key set loop     {t_set_loop:.3f} s "
                f"({NKEYS / t_set_loop:,.0f} ops/s)",
                f"pipelined mset       {t_mset:.3f} s "
                f"({NKEYS / t_mset:,.0f} ops/s)",
                f"per-key get loop     {t_get_loop:.3f} s "
                f"({NKEYS / t_get_loop:,.0f} ops/s)",
                f"pipelined mget       {t_mget:.3f} s "
                f"({NKEYS / t_mget:,.0f} ops/s)",
                f"write speedup        {write_speedup:.1f}x (need >=5x)",
                f"read speedup         {read_speedup:.1f}x (need >=5x)",
                f"batched requests     {cluster.stats.batched_requests} "
                f"({cluster.stats.batched_keys} keys, max "
                f"{cluster.stats.max_batch_keys}/req)",
            ])
            record_json(BENCH_JSON, "pipelining_600x64B", {
                "nkeys": NKEYS,
                "payload_bytes": len(PAYLOAD),
                "set_loop_s": t_set_loop,
                "mset_s": t_mset,
                "get_loop_s": t_get_loop,
                "mget_s": t_mget,
                "write_speedup": write_speedup,
                "read_speedup": read_speedup,
                "batched_requests": cluster.stats.batched_requests,
                "max_batch_keys": cluster.stats.max_batch_keys,
            })
            # Acceptance: one round trip per shard-batch instead of one
            # per key must be worth at least 5x even on loopback.
            assert write_speedup >= 5.0
            assert read_speedup >= 5.0
        finally:
            cluster.close()

    def test_replication_write_amplification_is_bounded(self):
        """Replicated batch writes pay one extra exchange per extra
        copy, not one per key: replication=2 mset should cost well
        under the 2x of naively doubled per-key writes."""
        items = [(f"amp/{i:04d}", PAYLOAD) for i in range(NKEYS)]
        timings = {}
        with shard_child(3) as addresses:
            for repl in (1, 2):
                cluster = NetKVCluster(addresses,
                                       config=TransportConfig(),
                                       replication=repl)
                t0 = time.perf_counter()
                cluster.mset(items)
                timings[repl] = time.perf_counter() - t0
                cluster.mdelete([k for k, _ in items])
                cluster.close()
        amplification = timings[2] / timings[1]
        report("ext_netkv_cluster_replication_cost", [
            f"mset {NKEYS} keys, replication=1: {timings[1]:.3f} s",
            f"mset {NKEYS} keys, replication=2: {timings[2]:.3f} s",
            f"write amplification: {amplification:.2f}x (2 copies)",
        ])
        record_json(BENCH_JSON, "replication_write_amplification", {
            "nkeys": NKEYS,
            "mset_r1_s": timings[1],
            "mset_r2_s": timings[2],
            "amplification": amplification,
        })
        assert amplification < 4.0  # sanity: batches stay batched
