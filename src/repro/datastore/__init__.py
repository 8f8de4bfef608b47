"""Generic data management (paper Section 4.2).

One abstract byte-stream interface, three interchangeable backends:

- :class:`~repro.datastore.fsstore.FSStore` — plain filesystem, with I/O
  armoring and backups. Best for small checkpoint/log-style files and
  files that must interoperate with external tools.
- :class:`~repro.datastore.taridx.TaridxStore` — our re-implementation
  of ``pytaridx``: append-only indexed tar archives with random access,
  collapsing millions of inodes into a handful of standard tar files.
- :class:`~repro.datastore.netkv.NetKVStore` — the key-value cluster
  modeled on Redis, used as the high-throughput backend for in situ
  feedback: ``kv://N`` runs it over N in-process shards (no socket, no
  thread), ``netkv://`` over TCP shards in other processes. Both run
  the same routing, replication and listing code.

"Save a Numpy archive into a byte stream that can be redirected
effortlessly to a file, an archive, or a database — all with a single
configuration switch": that switch is :func:`open_store`.
"""

from repro.datastore.base import (
    DataStore, StoreError, StoreUnavailable, KeyNotFound, open_store,
)
from repro.datastore.fsstore import FSStore, FaultInjector
from repro.datastore.taridx import IndexedTar, TaridxStore, recover_index
from repro.datastore.netkv import (
    NetKVServer, NetKVClient, NetKVCluster, NetKVStore, TransportConfig,
    WireProtocolError,
)
from repro.datastore.namespaced import NamespacedStore
from repro.datastore.tiered import TieredStore
from repro.datastore.stats import IOStats, TransportStats
from repro.datastore import serial

__all__ = [
    "DataStore",
    "StoreError",
    "StoreUnavailable",
    "KeyNotFound",
    "open_store",
    "FSStore",
    "FaultInjector",
    "IndexedTar",
    "TaridxStore",
    "recover_index",
    "NetKVServer",
    "NetKVClient",
    "NetKVCluster",
    "NetKVStore",
    "TransportConfig",
    "TransportStats",
    "WireProtocolError",
    "NamespacedStore",
    "TieredStore",
    "IOStats",
    "serial",
]
