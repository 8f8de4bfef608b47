"""The fused force pass over a kept neighbour list is bitwise identical
to the oracle passes, which search afresh on every call.

Positions, forces, energies and ``minimize()`` return values are
compared with ``tobytes()``: both sides sum in the canonical pair order
and candidates beyond the cutoff add exactly ±0.0, so not even the last
bit may move.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sims import pairwise
from repro.sims.aa.engine import AAConfig, AASim
from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import martini_like
from repro.sims.mapping.backmap import backmap
from repro.sims.mapping.createsim import createsim
from tests.sims import oracles


def same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_forces_same(sim):
    F, E = sim.forces()
    F_ref, E_ref = oracles.forces_of(sim)()
    assert same(F, F_ref)
    assert same(E, E_ref)


def assert_steps_same(a, b, nsteps):
    a.step(nsteps)
    oracles.step(b, nsteps)
    assert same(a.positions, b.positions)
    assert_forces_same(a)


def laptop_pipeline(seed):
    """createsim -> CG job -> backmap -> AA job at the registry's laptop
    scale (2 lipid types x 6 beads + 6 protein beads, 3 atoms per bead)."""
    densities = 1.0 + np.random.default_rng(seed).random((2, 8, 8))
    ff = martini_like(n_lipid_types=2, seed=seed)
    system = createsim(densities, box=3.0, with_raf=True, forcefield=ff,
                       beads_per_type=6, seed=seed)
    cg = CGSim(system.positions, system.type_ids, ff,
               CGConfig(box=3.0, n_lipids=1, seed=seed), bonds=system.bonds)
    cg.step(8)
    frame = dataclasses.replace(system, positions=cg.positions.copy())
    aa_system = backmap(frame, ff, seed=seed)
    aa = AASim(aa_system.positions, aa_system.bonds, aa_system.backbone,
               config=AAConfig(box=aa_system.box, seed=seed))
    aa.step(8)
    return [system.positions, cg.positions, aa_system.positions, aa.positions,
            *aa.forces(), *cg.forces()]


def use_oracles(monkeypatch):
    monkeypatch.setattr(CGSim, "forces", oracles.cg_forces)
    monkeypatch.setattr(AASim, "forces", oracles.aa_forces)
    monkeypatch.setattr(CGSim, "step", lambda self, nsteps=1: oracles.step(self, nsteps))
    monkeypatch.setattr(AASim, "step", lambda self, nsteps=1: oracles.step(self, nsteps))
    monkeypatch.setattr(AASim, "minimize", oracles.minimize)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_laptop_pipeline_matches_oracle(seed, monkeypatch):
    engine = laptop_pipeline(seed)
    use_oracles(monkeypatch)
    reference = laptop_pipeline(seed)
    assert len(engine) == len(reference)
    for got, want in zip(engine, reference):
        assert same(got, want)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n_lipids=st.integers(1, 40),
       n_protein=st.integers(1, 7), box=st.floats(2.5, 12.0))
def test_cg_matches_oracle(seed, n_lipids, n_protein, box):
    cfg = CGConfig(n_lipids=n_lipids, seed=seed, box=box)
    a = CGSim.random_system(config=cfg, n_protein_beads=n_protein)
    b = CGSim.random_system(config=cfg, n_protein_beads=n_protein)
    assert_forces_same(a)
    assert_steps_same(a, b, 4)
    a.apply_feedback("HCE")
    b.apply_feedback("HCE")
    assert_steps_same(a, b, 4)


def test_306_bead_system_matches_oracle():
    """``CGSim.random_system`` defaults, the size where pair arithmetic
    starts to matter; long enough to reuse the list and rebuild it."""
    a, b = (CGSim.random_system(config=CGConfig(seed=0)) for _ in range(2))
    assert_forces_same(a)
    assert_steps_same(a, b, 30)
    assert 1 < a.nlist.builds < a.nlist.calls


def random_aa(seed, n, restrained):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2)) * 3.0
    m = int(rng.integers(0, n))
    bi = rng.integers(0, n, m)
    bj = (bi + 1 + rng.integers(0, n - 1, m)) % n
    bonds = np.column_stack([bi, bj, rng.random(m)]) if m else np.empty((0, 3))
    mask = rng.random(n) < 0.3 if restrained else None
    return [AASim(positions, bonds, np.arange(min(n, 4)), restrained=mask,
                  config=AAConfig(box=3.0, seed=seed)) for _ in range(2)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(2, 60), nsteps=st.integers(0, 6))
def test_aa_restrained_then_released_matches_oracle(seed, n, nsteps):
    a, b = random_aa(seed, n, restrained=True)
    assert_forces_same(a)
    assert same(a.minimize(nsteps), oracles.minimize(b, nsteps))
    assert same(a.positions, b.positions)
    assert_steps_same(a, b, 3)
    a.release_restraints()
    b.release_restraints()
    assert_steps_same(a, b, 3)


def test_zero_temperature_step_draws_no_noise():
    """createsim's relaxation runs at T = 0, where the noise would be
    exactly ±0.0: the engine draws none, and its positions still match
    the oracle's, which draws and adds it."""
    cfg = CGConfig(n_lipids=30, seed=6, box=5.0, temperature=0.0)
    a, b = (CGSim.random_system(config=cfg) for _ in range(2))
    untouched = a.rng.bit_generator.state
    assert_steps_same(a, b, 5)
    assert a.rng.bit_generator.state == untouched
    assert b.rng.bit_generator.state != untouched


def test_list_follows_a_larger_cutoff():
    cfg = CGConfig(n_lipids=30, seed=4, box=5.0)
    a, b = (CGSim.random_system(config=cfg) for _ in range(2))
    assert_steps_same(a, b, 3)
    builds = a.nlist.builds
    a.ff.cutoff = b.ff.cutoff = 1.6 * a.ff.cutoff
    assert_steps_same(a, b, 3)
    assert a.nlist.builds > builds


def test_planted_stale_list_is_caught(monkeypatch):
    """The fresh-search oracle catches a neighbour list that is never
    rebuilt once particles have moved. In the laptop pipeline (seed 0)
    createsim's relaxation and the CG job never let a pair in from
    beyond the skin, so their outputs still match; backmap's
    steepest-descent minimization does, and its sixth force call is the
    first to differ (the fifth for seed 2, the seventh for seed 1)."""
    monkeypatch.setattr(pairwise.NeighbourList, "_drifted", lambda self, positions, box: False)
    engine = laptop_pipeline(0)
    use_oracles(monkeypatch)
    reference = laptop_pipeline(0)
    matches = [same(got, want) for got, want in zip(engine, reference)]
    assert matches[:3] == [True, True, False]  # createsim, CG job, backmap


def test_systems_without_bonds_or_pairs():
    ff = martini_like()
    rng = np.random.default_rng(5)
    # No bonds; then no pairs either (beads far apart in a big box).
    for positions in (rng.random((30, 2)) * 4.0, np.arange(10)[:, None] * [5.0, 0.0]):
        n = positions.shape[0]
        cfg = CGConfig(box=60.0, n_lipids=n, seed=5)
        a = CGSim(positions, np.zeros(n, int), ff, cfg)
        b = CGSim(positions, np.zeros(n, int), ff, cfg)
        assert_steps_same(a, b, 3)
        x = AASim(positions, np.empty((0, 3)), np.arange(3), config=AAConfig(box=60.0))
        y = AASim(positions, np.empty((0, 3)), np.arange(3), config=AAConfig(box=60.0))
        assert same(x.minimize(3), oracles.minimize(y, 3))
        assert_steps_same(x, y, 3)
    # Bonds but no non-bonded pairs.
    positions = np.arange(6)[:, None] * [5.0, 0.0]
    bonds = np.array([[0, 1, 4.0], [2, 3, 5.5]])
    a, b = (CGSim(positions, np.zeros(6, int), ff, CGConfig(box=60.0, n_lipids=6), bonds=bonds)
            for _ in range(2))
    a.forces()
    assert a.nlist.npair == 0
    assert_steps_same(a, b, 3)


def test_cg_after_load_state_dict_with_other_bonds():
    cfg = CGConfig(n_lipids=20, seed=9, box=5.0)
    donor = CGSim.random_system(config=cfg, n_protein_beads=6)
    donor.step(5)
    state = donor.state_dict()
    state["bonds"] = np.array([[0, 3, 0.5], [4, 7, 0.6], [20, 25, 0.9]])
    a = CGSim.random_system(config=cfg, n_protein_beads=6)
    b = CGSim.random_system(config=cfg, n_protein_beads=6)
    a.load_state_dict(state)
    b.load_state_dict(state)
    assert_steps_same(a, b, 5)


def test_planted_scatter_swap_is_caught(monkeypatch):
    """The comparison has teeth: adding the jj block before the ii block
    changes only the summation order, and that alone must show."""

    scatter = pairwise.NeighbourList.scatter

    def swapped(nl, fvec):
        flipped = copy.copy(nl)
        # Two interleaved (x, y) bins per row: the pair rows fill the
        # first 4 * npair entries, ii's block and then jj's.
        pairs = 2 * nl.npair
        flipped.bins = np.concatenate(
            [nl.bins[pairs:2 * pairs], nl.bins[:pairs], nl.bins[2 * pairs:]])
        return scatter(flipped, np.concatenate([-fvec[:nl.npair], fvec[nl.npair:]]))

    monkeypatch.setattr(pairwise.NeighbourList, "scatter", swapped)
    a = CGSim.random_system(config=CGConfig(n_lipids=40, seed=1, box=4.0))
    b = CGSim.random_system(config=CGConfig(n_lipids=40, seed=1, box=4.0))
    F, _ = a.forces()
    F_ref, _ = oracles.cg_forces(b)
    np.testing.assert_allclose(F, F_ref, rtol=1e-12, atol=1e-9)
    assert not same(F, F_ref)
