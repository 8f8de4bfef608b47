"""Differential test: the in-process and the socket channel agree.

Random sequences of every wire command (missing keys, empty batches,
repeated keys included) run through a ``LocalShard`` and through an
``AsyncClientChannel`` on a live ``AsyncNetKVServer``. Both encode,
serve and parse through the same command table, so each call must give
the same reply, or raise the same exception type (naming the same key
for ``KeyNotFound``), and both shards must end with the same key space.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datastore import aio
from repro.datastore.aio import AsyncClientChannel, LocalShard
from repro.datastore.base import KeyNotFound, StoreError
from repro.datastore.netkv import NetKVServer, TransportConfig

pytestmark = pytest.mark.async_transport

KEYS = st.sampled_from(["a", "b", "c", "{t}d", "e/f"])
VALUES = st.binary(max_size=6)
ITEMS = st.lists(st.tuples(KEYS, VALUES), max_size=4)

# Arguments per channel method; a command missing here fails the test.
ARGS = {
    "ping": st.just(()),
    "set": st.tuples(KEYS, VALUES),
    "get": st.tuples(KEYS),
    "delete": st.tuples(KEYS),
    "keys": st.one_of(st.just(()),
                      st.tuples(st.sampled_from(["a", "e/", "{t}", "z"]))),
    "rename": st.tuples(KEYS, KEYS),
    "mget": st.tuples(st.lists(KEYS, max_size=4)),
    "mset": st.tuples(ITEMS),
    "mdelete": st.tuples(st.lists(KEYS, max_size=4)),
    "msetnx": st.tuples(ITEMS),
    "len": st.just(()),
    "snapshot": st.just(()),  # both shards are memory-only: an error
}

OPS = st.lists(st.one_of(*(st.tuples(st.just(c.name), ARGS[c.name])
                           for c in aio._COMMANDS)), max_size=25)


def _outcome(channel, name, args):
    try:
        return "reply", getattr(channel, name)(*args)
    except StoreError as exc:
        key = exc.args[0] if isinstance(exc, KeyNotFound) else None
        return "error", type(exc), key


@pytest.fixture
def socket_shard():
    """One live shard for every example of a test (hypothesis runs a
    function-scoped fixture once per test)."""
    server = NetKVServer().start()
    channel = AsyncClientChannel(
        server.address, TransportConfig(op_timeout=2.0, retries=0))
    yield server, channel
    channel.close()
    server.stop()


def test_every_command_has_arguments():
    assert set(ARGS) == {c.name for c in aio._COMMANDS}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_local_and_socket_channels_agree(socket_shard, ops):
    server, channel = socket_shard
    channel.mdelete(channel.keys())  # a fresh key space per example
    local = LocalShard(("local", 0))
    for name, args in ops:
        assert _outcome(local, name, args) == _outcome(channel, name, args), (
            name, args)
    assert local.data == server.data
