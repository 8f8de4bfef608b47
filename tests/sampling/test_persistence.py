"""Tests for sampler checkpoint/restore."""

import numpy as np
import pytest

from repro.datastore import open_store
from repro.sampling.binned import BinnedSampler, BinSpec
from repro.sampling.fps import FarthestPointSampler
from repro.sampling.persistence import (
    binned_state,
    fps_state,
    load_sampler,
    restore_binned,
    restore_fps,
    save_sampler,
)
from repro.sampling.points import Point


def P(pid, *coords):
    return Point(id=pid, coords=np.array(coords, dtype=float))


def make_fps(seed=0, nadd=30, nselect=4):
    s = FarthestPointSampler(dim=2, queues=["ras", "ras-raf"], queue_cap=100)
    rng = np.random.default_rng(seed)
    for i in range(nadd):
        s.add(Point(id=f"p{i}", coords=rng.random(2)),
              queue="ras" if i % 2 else "ras-raf")
    if nselect:
        s.select(nselect)
    return s


def make_binned(seed=0, nadd=50, nselect=5):
    s = BinnedSampler([BinSpec(0, 1, 4)] * 3, randomness=0.2,
                      rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for i in range(nadd):
        s.add(Point(id=f"p{i}", coords=rng.random(3)))
    if nselect:
        s.select(nselect)
    return s


class TestFPSPersistence:
    def test_restore_reproduces_future_selections(self):
        original = make_fps()
        state = fps_state(original)
        fresh = FarthestPointSampler(dim=2, queues=["ras", "ras-raf"], queue_cap=100)
        restore_fps(fresh, state)
        # Continue both identically: the restored sampler makes the
        # exact same future picks.
        a = [p.id for p in original.select(5)]
        b = [p.id for p in fresh.select(5)]
        assert a == b

    def test_restore_preserves_counts(self):
        original = make_fps()
        fresh = FarthestPointSampler(dim=2, queues=["ras", "ras-raf"], queue_cap=100)
        restore_fps(fresh, fps_state(original))
        assert fresh.ncandidates() == original.ncandidates()
        assert fresh.nselected() == original.nselected()
        assert fresh.queue_sizes() == original.queue_sizes()

    def test_dim_mismatch_rejected(self):
        state = fps_state(make_fps())
        with pytest.raises(ValueError, match="dim"):
            restore_fps(FarthestPointSampler(dim=3, queues=["ras", "ras-raf"]), state)

    def test_queue_mismatch_rejected(self):
        state = fps_state(make_fps())
        with pytest.raises(ValueError, match="queue"):
            restore_fps(FarthestPointSampler(dim=2, queues=["other"]), state)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="fps"):
            restore_fps(make_fps(), binned_state(make_binned()))


class TestBinnedPersistence:
    def test_restore_reproduces_future_selections(self):
        original = make_binned()
        fresh = BinnedSampler([BinSpec(0, 1, 4)] * 3, randomness=0.2,
                              rng=np.random.default_rng(999))
        restore_binned(fresh, binned_state(original))
        a = [p.id for p in original.select(8)]
        b = [p.id for p in fresh.select(8)]
        assert a == b  # includes the RNG state

    def test_restore_preserves_histogram(self):
        original = make_binned()
        fresh = BinnedSampler([BinSpec(0, 1, 4)] * 3, randomness=0.2)
        restore_binned(fresh, binned_state(original))
        np.testing.assert_array_equal(fresh.selected_counts, original.selected_counts)
        assert fresh.occupancy() == original.occupancy()

    def test_spec_mismatch_rejected(self):
        state = binned_state(make_binned())
        other = BinnedSampler([BinSpec(0, 2, 4)] * 3)
        with pytest.raises(ValueError, match="specs"):
            restore_binned(other, state)


class TestStoreRoundtrip:
    @pytest.mark.parametrize("maker,factory", [
        (make_fps, lambda: FarthestPointSampler(dim=2, queues=["ras", "ras-raf"],
                                                queue_cap=100)),
        (make_binned, lambda: BinnedSampler([BinSpec(0, 1, 4)] * 3, randomness=0.2)),
    ])
    def test_save_load_through_store(self, maker, factory):
        store = open_store("kv://2")
        original = maker()
        save_sampler(store, "wm/selector", original)
        fresh = factory()
        load_sampler(store, "wm/selector", fresh)
        assert [p.id for p in fresh.select(3)] == [p.id for p in original.select(3)]

    def test_unsupported_type(self):
        store = open_store("kv://1")
        with pytest.raises(TypeError):
            save_sampler(store, "x", object())
