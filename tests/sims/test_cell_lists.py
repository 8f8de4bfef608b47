"""The pair searches kept in ``tests/sims/oracles.py`` (periodic tree,
linked-cell lists, brute force) against each other and against the CG
engine's Verlet list: all give the same pairs in the same sorted order."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import martini_like
from repro.sims.mapping.createsim import createsim
from tests.sims import oracles


def pair_set(pairs):
    ii, jj = pairs
    return {(min(a, b), max(a, b)) for a, b in zip(ii.tolist(), jj.tolist())}


def search(sim, method):
    return oracles.SEARCHES[method](sim.positions, sim.config.box, sim.ff.cutoff)


def engine_pairs(sim):
    """The engine list's candidates inside the cutoff, in list order."""
    box, rc = sim.config.box, sim.ff.cutoff
    nl = sim.nlist.update(sim.positions, box, rc)
    _, r = nl.separations(sim.positions, box)
    keep = r[:nl.npair] < rc
    return nl.ii[keep], nl.jj[keep]


def same_pairs(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


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
        assert pair_set(search(sim, "cells")) == pair_set(search(sim, "tree"))
        assert same_pairs(engine_pairs(sim), oracles.cg_pairs(sim, "cells"))

    def test_no_duplicate_pairs(self):
        sim = make_sim(seed=4)
        for ii, jj in (search(sim, "cells"), search(sim, "tree")):
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
    assert pair_set(search(sim, "tree")) == pair_set(search(sim, "brute"))


def laptop_positions(seed):
    """A createsim system at the registry's laptop scale (18 beads)."""
    densities = 1.0 + np.random.default_rng(seed).random((2, 8, 8))
    ff = martini_like(n_lipid_types=2, seed=seed)
    system = createsim(densities, box=3.0, with_raf=True, forcefield=ff,
                       beads_per_type=6, seed=seed)
    return system.positions, system.box, ff.cutoff


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 80), box=st.floats(2.5, 12.0),
       laptop=st.booleans())
def test_property_searches_give_identical_sorted_pairs(seed, n, box, laptop):
    """Canonical order makes the pair arrays, not just the pair sets,
    independent of the search method."""
    if laptop:
        positions, box, rc = laptop_positions(seed)
    else:
        positions, rc = np.random.default_rng(seed).random((n, 2)) * box, 1.2
    tree, brute, cells = (oracles.neighbours(positions, box, rc, m) for m in ("tree", "brute", "cells"))
    assert same_pairs(tree, brute) and same_pairs(tree, cells)
    ii, jj = tree
    keys = ii * positions.shape[0] + jj
    assert np.all(ii < jj) and np.all(np.diff(keys) > 0)
