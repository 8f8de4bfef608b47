"""Extension bench: in-process vs networked KV for the feedback path.

The paper's Redis cluster is a networked service; our default ``kv://``
backend runs the same ``NetKVCluster`` over in-process shards, so the
two rows below differ only by the wire. This bench quantifies what the
wire costs: the same frame stream through both, using real TCP sockets
for the networked side.
"""

import time

from conftest import report

from repro.datastore import open_store
from repro.datastore.netkv import NetKVServer, NetKVStore

N_FRAMES = 2_000
PAYLOAD = b"x" * 850


def _drive(store):
    t0 = time.perf_counter()
    for i in range(N_FRAMES):
        store.write(f"rdf/live/f{i:06d}", PAYLOAD)
    t_write = time.perf_counter() - t0
    keys = store.keys("rdf/live/")
    t0 = time.perf_counter()
    for k in keys:
        store.read(k)
    t_read = time.perf_counter() - t0
    t0 = time.perf_counter()
    for k in keys:
        store.move(k, k.replace("live", "done"))
    t_move = time.perf_counter() - t0
    return t_write, t_read, t_move


def test_network_overhead(benchmark):
    def run_both():
        inproc_store = open_store("kv://4")
        inproc = _drive(inproc_store)
        inproc_store.close()
        servers = [NetKVServer().start() for _ in range(4)]
        net_store = NetKVStore.connect([s.address for s in servers])
        net = _drive(net_store)
        net_store.close()
        for s in servers:
            s.stop()
        return inproc, net

    (inw, inr, inm), (nw, nr, nm) = benchmark.pedantic(run_both, rounds=1, iterations=1)
    lines = [
        f"{N_FRAMES:,} frames (850 B each), 4 shards:",
        f"  in-process: write {N_FRAMES/inw:>9,.0f}/s  read {N_FRAMES/inr:>9,.0f}/s  "
        f"move {N_FRAMES/inm:>9,.0f}/s",
        f"  TCP       : write {N_FRAMES/nw:>9,.0f}/s  read {N_FRAMES/nr:>9,.0f}/s  "
        f"move {N_FRAMES/nm:>9,.0f}/s",
        f"  wire overhead: {nw/inw:.0f}x / {nr/inr:.0f}x / {nm/inm:.0f}x "
        "(write/read/move)",
    ]
    report("ext_network_overhead", lines)
    # The semantics are identical; the wire only costs time.
    assert nw > inw
    assert N_FRAMES / nw > 500  # still serviceable for feedback loops
