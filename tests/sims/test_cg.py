"""Tests for the CG force field, engine, and online analysis."""

import numpy as np
import pytest

from repro.sims.cg.analysis import CGAnalysis, FrameCandidate, RDFResult
from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import BeadType, CGForceField, martini_like
from tests.sims import oracles


class TestForceField:
    def test_martini_like_composition(self):
        ff = martini_like(n_lipid_types=4)
        assert ff.lipid_type_names() == ["L0", "L1", "L2", "L3"]
        assert ff.protein_type_names() == ["RAS", "RAF"]

    def test_eps_must_be_symmetric(self):
        types = [BeadType("A"), BeadType("B")]
        with pytest.raises(ValueError):
            CGForceField(types, eps=np.array([[1.0, 0.5], [0.9, 1.0]]))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CGForceField([BeadType("A"), BeadType("A")])

    def test_pair_potential_vanishes_at_cutoff(self):
        ff = martini_like()
        r = np.array([ff.cutoff, ff.cutoff * 1.5])
        U, F = ff.pair_energy_force(r, np.zeros(2, int), np.zeros(2, int))
        np.testing.assert_allclose(U, 0.0)
        np.testing.assert_allclose(F, 0.0)

    def test_pair_potential_repulsive_at_contact(self):
        ff = martini_like()
        U, F = ff.pair_energy_force(np.array([0.01]), np.zeros(1, int), np.zeros(1, int))
        assert U[0] > 0
        assert F[0] > 0  # pushes apart

    def test_force_is_minus_derivative(self):
        ff = martini_like()
        r = np.linspace(0.1, ff.cutoff - 0.01, 50)
        t = np.zeros_like(r, dtype=int)
        U, F = ff.pair_energy_force(r, t, t)
        dU = np.gradient(U, r)
        np.testing.assert_allclose(F, -dU, atol=0.5)  # FD tolerance

    def test_ss_update_changes_bond_stiffness(self):
        ff = martini_like()
        ff.update_secondary_structure("HHH")
        k_helix = ff.bond_stiffness()
        ff.update_secondary_structure("CCC")
        k_coil = ff.bond_stiffness()
        assert np.all(k_helix > k_coil)
        assert ff.version == 2

    def test_ss_update_rejects_bad_codes(self):
        ff = martini_like()
        with pytest.raises(ValueError):
            ff.update_secondary_structure("HXZ")


class TestCGSim:
    def test_random_system_composition(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=100, seed=0))
        assert sim.positions.shape == (106, 2)  # 100 lipids + 6 protein beads
        assert sim.protein_mask().sum() == 6
        assert sim.bonds.shape[0] == 5

    def test_positions_stay_in_box(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=50, seed=1))
        sim.step(50)
        assert np.all(sim.positions >= 0)
        assert np.all(sim.positions < sim.config.box)

    def test_deterministic(self):
        a = CGSim.random_system(config=CGConfig(n_lipids=50, seed=2))
        b = CGSim.random_system(config=CGConfig(n_lipids=50, seed=2))
        a.step(30)
        b.step(30)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_tree_and_brute_forces_agree(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=60, seed=3))
        Fa, Ea = sim.forces()
        Fb, Eb = oracles.cg_forces(sim, search="brute")
        np.testing.assert_allclose(Fa, Fb, atol=1e-9)
        assert Ea == pytest.approx(Eb)

    def test_zero_temperature_descends_energy(self):
        cfg = CGConfig(n_lipids=80, temperature=0.0, seed=4)
        sim = CGSim.random_system(config=cfg)
        _, e0 = sim.forces()
        sim.step(100)
        _, e1 = sim.forces()
        assert e1 < e0

    def test_bonds_hold_protein_chain_together(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=40, seed=5))
        sim.step(300)
        prot = sim.positions[sim.protein_mask()]
        rel = sim._min_image(prot - prot[0])
        chain_span = np.linalg.norm(rel, axis=1).max()
        assert chain_span < 5.0  # chain never dissociates

    def test_feedback_changes_dynamics_parameters(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=20, seed=6))
        k_before = sim._bond_k.copy()
        sim.apply_feedback("CCCCCC")
        assert not np.array_equal(k_before, sim._bond_k)

    def test_checkpoint_restore_resumes_exactly(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=30, seed=7))
        sim.step(20)
        state = sim.state_dict()
        sim.step(20)
        after = sim.positions.copy()
        fresh = CGSim.random_system(config=CGConfig(n_lipids=30, seed=7))
        fresh.load_state_dict(state)
        fresh.step(20)
        np.testing.assert_array_equal(fresh.positions, after)
        assert fresh.time == sim.time

    def test_checkpoint_shape_mismatch(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=30, seed=8))
        other = CGSim.random_system(config=CGConfig(n_lipids=40, seed=8))
        with pytest.raises(ValueError):
            sim.load_state_dict(other.state_dict())

    def test_validation(self):
        with pytest.raises(ValueError):
            CGConfig(box=-1)


class TestCGAnalysis:
    @pytest.fixture
    def sim(self):
        sim = CGSim.random_system(config=CGConfig(n_lipids=200, seed=9))
        sim.step(50)
        return sim

    def test_rdf_shape(self, sim):
        an = CGAnalysis(sim, sim_id="cg000", rdf_bins=16)
        rdf = an.compute_rdf()
        assert rdf.g.shape == (4, 16)
        assert rdf.edges.shape == (17,)

    def test_rdf_normalization_far_field(self, sim):
        # Far from the protein, g(r) should hover around 1.
        an = CGAnalysis(sim, sim_id="cg000", rdf_rmax=5.0, rdf_bins=20)
        rdf = an.compute_rdf()
        outer_bins = rdf.g[:, -5:]
        assert 0.3 < outer_bins.mean() < 2.0

    def test_rdf_bytes_roundtrip(self, sim):
        an = CGAnalysis(sim, sim_id="cg042")
        rdf = an.compute_rdf()
        back = RDFResult.from_bytes(rdf.to_bytes())
        assert back.sim_id == "cg042"
        assert back.time == rdf.time
        np.testing.assert_array_equal(back.g, rdf.g)

    def test_frame_encoding_is_3d(self, sim):
        an = CGAnalysis(sim, sim_id="cg000")
        enc = an.encode_frame()
        assert enc.shape == (3,)
        sep, angle, rg = enc
        assert sep >= 0
        assert 0 <= angle < np.pi
        assert rg > 0

    def test_frame_candidate_ids_increment(self, sim):
        an = CGAnalysis(sim, sim_id="cg007")
        c0 = an.frame_candidate()
        c1 = an.frame_candidate()
        assert c0.frame_id == "cg007/f000000"
        assert c1.frame_id == "cg007/f000001"

    def test_candidate_json_roundtrip(self, sim):
        an = CGAnalysis(sim, sim_id="cg007")
        cand = an.frame_candidate()
        back = FrameCandidate.from_json(cand.to_json())
        assert back.frame_id == cand.frame_id
        np.testing.assert_allclose(back.encoding, cand.encoding)

    def test_analyze_bundle(self, sim):
        out = CGAnalysis(sim, sim_id="x").analyze()
        assert isinstance(out["rdf"], RDFResult)
        assert isinstance(out["candidate"], FrameCandidate)

    def test_encoding_needs_protein(self):
        ff = martini_like()
        sim = CGSim(
            np.random.default_rng(0).random((10, 2)) * 5,
            np.zeros(10, dtype=int),
            ff,
            CGConfig(box=5.0, n_lipids=10),
        )
        with pytest.raises(ValueError):
            CGAnalysis(sim, "x").encode_frame()
