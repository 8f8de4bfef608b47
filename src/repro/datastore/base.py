"""The abstract data interface every backend implements.

Keys are slash-separated strings (``"rdf/frame-000123"``); the segment
before the final component acts as a *namespace*. Feedback "tags"
processed data by moving it out of its namespace (paper §4.4 Task 4) —
:meth:`DataStore.move` is that operation, implemented natively by every
backend (file rename / key rename / archive tombstone + re-append).
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro import trace
from repro.datastore import serial
from repro.datastore.stats import IOStats

__all__ = [
    "DataStore", "StoreError", "StoreUnavailable", "KeyNotFound",
    "open_store", "validate_key",
]


class StoreError(RuntimeError):
    """Base error for data-interface failures."""


class StoreUnavailable(StoreError):
    """The store could not be reached within its retry budget.

    Raised by networked backends once timeouts, reconnects, and backoff
    are exhausted. Distinct from plain :class:`StoreError` so callers
    (feedback managers, tiered stores) can degrade gracefully on an
    outage while still treating protocol/application errors as bugs.
    """


class KeyNotFound(StoreError, KeyError):
    """Requested key does not exist in the store."""


def validate_key(key: str) -> str:
    """Reject keys that could escape a namespace or collide with internals.

    Returns the key unchanged when valid so call sites can chain it.
    """
    if not key or not isinstance(key, str):
        raise StoreError(f"invalid key: {key!r}")
    if key.startswith("/") or key.endswith("/"):
        raise StoreError(f"key may not start or end with '/': {key!r}")
    parts = key.split("/")
    if any(p in ("", ".", "..") for p in parts):
        raise StoreError(f"key contains empty or relative segments: {key!r}")
    if any("\x00" in p for p in parts):
        raise StoreError(f"key contains NUL: {key!r}")
    return key


def _instrument(op: str, fn):
    """Wrap a primitive so every call lands in the store's IOStats.

    The same wrapper opens a ``store.<op>`` trace span around the call
    (``store.scan`` for key listings) when tracing is enabled, carrying
    the key and payload size — the store leg of the end-to-end latency
    attribution OBSERVABILITY.md describes.
    """
    span_name = "store." + ("scan" if op == "keys" else op)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        with trace.span(span_name) as sp:
            if sp and args:
                sp.set(key=args[0])
            result = fn(self, *args, **kwargs)
            if op == "write":
                nbytes = len(args[1]) if len(args) > 1 else 0
                self.stats.note("write", nbytes)
                if sp:
                    sp.set(bytes=nbytes)
            elif op == "read":
                self.stats.note("read", len(result))
                if sp:
                    sp.set(bytes=len(result))
            elif op == "keys":
                self.stats.note("scan")
            else:
                self.stats.note(op)
        return result

    wrapper._io_instrumented = True
    return wrapper


class DataStore(abc.ABC):
    """Abstract byte-stream store with namespace semantics.

    Subclasses implement the five primitive operations; the typed
    convenience methods (`*_npz`, `*_json`) are shared, which is what
    makes payloads portable across backends. Every concrete backend is
    automatically instrumented: byte/operation counts accumulate in
    :attr:`stats` (see :class:`~repro.datastore.stats.IOStats`).
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name, op in (("write", "write"), ("read", "read"),
                         ("delete", "delete"), ("move", "move"), ("keys", "keys")):
            fn = cls.__dict__.get(name)
            if fn is not None and not getattr(fn, "_io_instrumented", False):
                setattr(cls, name, _instrument(op, fn))

    @property
    def stats(self) -> IOStats:
        """I/O counters for this store instance (created lazily)."""
        existing = getattr(self, "_io_stats", None)
        if existing is None:
            existing = IOStats()
            self._io_stats = existing
        return existing

    # --- primitives -----------------------------------------------------

    @abc.abstractmethod
    def write(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, overwriting any previous value."""

    @abc.abstractmethod
    def read(self, key: str) -> bytes:
        """Return the bytes stored under ``key``; raise :class:`KeyNotFound`."""

    @abc.abstractmethod
    def delete(self, key: str) -> None:
        """Remove ``key``; raise :class:`KeyNotFound` if absent."""

    @abc.abstractmethod
    def keys(self, prefix: str = "") -> List[str]:
        """All live keys starting with ``prefix``, sorted."""

    @abc.abstractmethod
    def move(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` to ``dst`` (namespace tagging)."""

    # --- defaults built on the primitives --------------------------------

    def exists(self, key: str) -> bool:
        """Whether ``key`` currently holds a value."""
        try:
            self.read(key)
            return True
        except KeyNotFound:
            return False

    def read_many(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Read several keys; missing keys raise like :meth:`read`."""
        return {k: self.read(k) for k in keys}

    def read_present(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Read several keys, silently skipping those that are missing.

        Feedback collectors race concurrent taggers, so a key listed a
        moment ago may legitimately be gone; batching backends override
        this with one pipelined round trip per shard.
        """
        out: Dict[str, bytes] = {}
        for k in keys:
            try:
                out[k] = self.read(k)
            except KeyNotFound:
                pass
        return out

    def write_many(self, items: Union[Mapping[str, bytes],
                                      Iterable[Tuple[str, bytes]]]) -> None:
        """Write several key/value pairs (backends may batch)."""
        pairs = items.items() if hasattr(items, "items") else items
        for k, v in pairs:
            self.write(k, v)

    def delete_many(self, keys: Iterable[str]) -> int:
        """Delete several keys; returns the number actually removed."""
        n = 0
        for k in keys:
            try:
                self.delete(k)
                n += 1
            except KeyNotFound:
                pass
        return n

    def close(self) -> None:
        """Flush and release resources (default: nothing to do)."""

    def __enter__(self) -> "DataStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # --- typed convenience ------------------------------------------------

    def write_npz(self, key: str, arrays: Mapping[str, np.ndarray]) -> None:
        """Store a dict of NumPy arrays as one payload."""
        self.write(key, serial.npz_to_bytes(arrays))

    def read_npz(self, key: str) -> Dict[str, np.ndarray]:
        """Read back a payload written by :meth:`write_npz`."""
        return serial.bytes_to_npz(self.read(key))

    def write_json(self, key: str, obj: Any) -> None:
        """Store a JSON-serializable object."""
        self.write(key, serial.json_to_bytes(obj))

    def read_json(self, key: str) -> Any:
        """Read back a payload written by :meth:`write_json`."""
        return serial.bytes_to_json(self.read(key))


def open_store(url: str, **kwargs: Any) -> DataStore:
    """Open a backend from a URL — the paper's "single configuration switch".

    Supported schemes::

        fs://<directory>          filesystem backend
        taridx://<directory>      indexed-tar archive backend
        kv://[nshards]            the NetKV cluster over in-process
                                  shards (default 1): no socket, no thread
        netkv://host:port[,...][?replication=N&route_refresh=S]
                                  networked KV cluster (live servers);
                                  ``replication`` places every hash slot
                                  on N consecutive shards for failover,
                                  ``route_refresh`` is how often (s) the
                                  client polls the shared routing map
                                  for migrations done by other processes

    Extra keyword arguments are forwarded to the backend constructor.
    """
    from repro.datastore.fsstore import FSStore
    from repro.datastore.taridx import TaridxStore

    scheme, sep, rest = url.partition("://")
    if not sep:
        raise StoreError(f"store URL must look like 'scheme://target': {url!r}")
    if scheme == "fs":
        return FSStore(rest, **kwargs)
    if scheme == "taridx":
        return TaridxStore(rest, **kwargs)
    if scheme == "kv":
        from repro.datastore.aio import LocalShard
        from repro.datastore.netkv import NetKVCluster, NetKVStore

        count = rest or "1"
        if not (count.isascii() and count.isdigit()) or int(count) < 1:
            raise StoreError(f"kv URL must be kv://N with N >= 1 shards: {url!r}")
        shards = [LocalShard(("kv", i)) for i in range(int(count))]
        # Nothing outside this process can migrate these shards' slots,
        # so there is no shared routing map to poll.
        return NetKVStore(NetKVCluster([s.address for s in shards],
                                       route_refresh=0.0, channels=shards),
                          **kwargs)
    if scheme == "netkv":
        from repro.datastore.netkv import NetKVStore

        rest, qsep, query = rest.partition("?")
        if qsep:
            for pair in filter(None, query.split("&")):
                name, eq, value = pair.partition("=")
                if name == "replication" and eq and value.isdigit():
                    kwargs.setdefault("replication", int(value))
                elif name == "route_refresh" and eq:
                    try:
                        kwargs.setdefault("route_refresh", float(value))
                    except ValueError:
                        raise StoreError(
                            f"bad netkv route_refresh value {value!r}")
                else:
                    raise StoreError(f"unknown netkv URL option {pair!r}")
        addresses = []
        for part in filter(None, (p.strip() for p in rest.split(","))):
            host, sep2, port = part.rpartition(":")
            if not sep2 or not port.isdigit():
                raise StoreError(f"netkv address must be host:port, got {part!r}")
            addresses.append((host, int(port)))
        if not addresses:
            raise StoreError(f"netkv URL needs at least one host:port: {url!r}")
        return NetKVStore.connect(addresses, **kwargs)
    raise StoreError(f"unknown store scheme {scheme!r} in {url!r}")
