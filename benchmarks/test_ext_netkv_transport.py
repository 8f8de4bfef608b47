"""Extension bench: many small NetKV GETs, end to end.

One blocking client reads small values one round trip at a time, so
every GET pays the full client -> shard -> client path: the request
header parse at the server, the response frame parse at the client,
and the event-loop handoffs on both sides.

The paper's >12x CG→continuum feedback speed-up (§5.1, Fig. 7) rides
on exactly this workload shape — thousands of tiny key reads per
iteration — so the per-request overhead must not dominate the round
trip.
"""

import time

from conftest import report

from repro.datastore.netkv import NetKVClient, NetKVServer


class TestSmallGets:
    def test_many_small_gets_end_to_end(self):
        nkeys, nreads = 500, 4000
        server = NetKVServer().start()
        client = NetKVClient(server.address)
        try:
            for i in range(nkeys):
                client.set(f"small/{i:04d}", b"v" * 24)
            t0 = time.perf_counter()
            for i in range(nreads):
                client.get(f"small/{i % nkeys:04d}")
            elapsed = time.perf_counter() - t0
            lat = client.stats.latency
            report("ext_netkv_small_gets", [
                f"reads                {nreads}",
                f"elapsed              {elapsed:.3f} s",
                f"throughput           {nreads / elapsed:,.0f} GETs/s",
                f"round-trip p50       <= {lat.quantile_ms(0.5):.2f} ms",
                f"round-trip p99       <= {lat.quantile_ms(0.99):.2f} ms",
            ])
            assert nreads / elapsed > 500  # sanity floor, loopback TCP
        finally:
            client.close()
            server.stop()
