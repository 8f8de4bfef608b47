"""The CG engine's periodic tree pair search against the oracle searches
(linked-cell lists and brute force, kept in ``tests/sims/oracles.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import martini_like
from tests.sims import oracles


def pair_set(pairs):
    ii, jj = pairs
    return {(min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist())}


def search(sim, method):
    return oracles.SEARCHES[method](sim.positions, sim.config.box, sim.ff.cutoff)


def make_sim(n=120, box=12.0, seed=0):
    return CGSim.random_system(config=CGConfig(box=box, n_lipids=n, seed=seed))


class TestCellListCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pairs_match_brute_force(self, seed):
        sim = make_sim(seed=seed)
        assert pair_set(search(sim, "cells")) == pair_set(search(sim, "brute"))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_pairs_match_tree(self, seed):
        sim = make_sim(seed=seed)
        assert pair_set(search(sim, "cells")) == pair_set(sim._pairs())

    def test_no_duplicate_pairs(self):
        sim = make_sim(seed=4)
        for ii, jj in (search(sim, "cells"), sim._pairs()):
            normalized = [(min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist())]
            assert len(normalized) == len(set(normalized))

    def test_forces_identical_across_methods(self):
        sim = make_sim(seed=5)
        ref_F, ref_E = oracles.cg_forces(sim, search="brute")
        F, E = oracles.cg_forces(sim, search="cells")
        np.testing.assert_allclose(F, ref_F, atol=1e-9)
        assert E == pytest.approx(ref_E)
        F, E = sim.forces()
        np.testing.assert_allclose(F, ref_F, atol=1e-9)
        assert E == pytest.approx(ref_E)

    def test_small_box_falls_back_to_brute(self):
        # Box barely larger than 2 cutoffs: < 3 cells per side.
        ff = martini_like()
        sim = make_sim(n=20, box=2.5 * ff.cutoff, seed=6)
        assert pair_set(search(sim, "cells")) == pair_set(search(sim, "brute"))

    def test_dynamics_identical(self):
        a = make_sim(seed=7, n=60)
        b = make_sim(seed=7, n=60)
        oracles.step(a, 20, forces=lambda: oracles.cg_forces(a, search="cells"))
        b.step(20)
        np.testing.assert_allclose(a.positions, b.positions, atol=1e-9)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(10, 80))
def test_property_cells_equals_brute(seed, n):
    sim = make_sim(n=n, box=10.0, seed=seed)
    assert pair_set(search(sim, "cells")) == pair_set(search(sim, "brute"))
    assert pair_set(sim._pairs()) == pair_set(search(sim, "brute"))
