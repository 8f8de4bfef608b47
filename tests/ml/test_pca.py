"""Tests for the PCA patch encoder."""

import numpy as np
import pytest

from repro.ml.pca import PCAEncoder


def clustered_data(rng, n_per=50, dim=20, sep=5.0):
    a = rng.normal(0.0, 0.2, size=(n_per, dim))
    b = rng.normal(0.0, 0.2, size=(n_per, dim))
    b[:, 0] += sep
    return np.vstack([a, b])


class TestFitEncode:
    def test_shapes(self):
        rng = np.random.default_rng(0)
        enc = PCAEncoder(input_dim=20, latent_dim=4).fit(rng.random((30, 20)))
        z = enc.encode(rng.random((7, 20)))
        assert z.shape == (7, 4)

    def test_encode_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            PCAEncoder(10, 2).encode(np.zeros((1, 10)))

    def test_validation(self):
        with pytest.raises(ValueError):
            PCAEncoder(input_dim=5, latent_dim=6)
        with pytest.raises(ValueError):
            PCAEncoder(input_dim=5, latent_dim=0)
        enc = PCAEncoder(10, 3)
        with pytest.raises(ValueError):
            enc.fit(np.zeros((2, 10)))  # fewer samples than components
        enc.fit(np.random.default_rng(0).random((20, 10)))
        with pytest.raises(ValueError):
            enc.encode(np.zeros((1, 9)))

    def test_first_component_captures_separation(self):
        rng = np.random.default_rng(1)
        data = clustered_data(rng)
        enc = PCAEncoder(20, 3).fit(data)
        z = enc.encode(data)
        # The dominant direction separates the two clusters.
        za, zb = z[:50, 0], z[50:, 0]
        assert abs(za.mean() - zb.mean()) > 5 * (za.std() + zb.std()) / 2

    def test_explained_variance_sorted_and_dominant(self):
        rng = np.random.default_rng(2)
        enc = PCAEncoder(20, 5).fit(clustered_data(rng))
        evr = enc.explained_variance_ratio
        assert np.all(np.diff(evr) <= 1e-12)
        assert evr[0] > 0.5  # the separation axis dominates

    def test_projection_preserves_distances_better_than_random(self):
        rng = np.random.default_rng(3)
        data = rng.random((100, 30))
        enc = PCAEncoder(30, 10).fit(data)
        z = enc.encode(data)
        d_full = np.linalg.norm(data[:50] - data[50:], axis=1)
        d_pca = np.linalg.norm(z[:50] - z[50:], axis=1)
        corr = np.corrcoef(d_full, d_pca)[0, 1]
        assert corr > 0.7

    def test_mean_centering(self):
        rng = np.random.default_rng(4)
        data = rng.random((40, 12)) + 100.0  # big offset
        enc = PCAEncoder(12, 3).fit(data)
        z = enc.encode(data)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)


class TestPersistence:
    def test_state_roundtrip(self):
        rng = np.random.default_rng(5)
        data = rng.random((30, 15))
        enc = PCAEncoder(15, 4).fit(data)
        other = PCAEncoder(15, 4)
        other.load_state_dict(enc.state_dict())
        np.testing.assert_array_equal(enc.encode(data), other.encode(data))

    def test_unfitted_checkpoint_rejected(self):
        with pytest.raises(RuntimeError):
            PCAEncoder(10, 2).state_dict()

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        enc = PCAEncoder(15, 4).fit(rng.random((30, 15)))
        other = PCAEncoder(15, 3)
        with pytest.raises(ValueError):
            other.load_state_dict(enc.state_dict())


class TestWorkflowIntegration:
    def test_pca_encoder_drives_the_wm(self):
        """Duck-type compatibility: the WM runs with a PCA encoder."""
        from repro.core.patches import PatchCreator
        from repro.core.wm import WorkflowConfig, WorkflowManager
        from repro.datastore import open_store
        from repro.sims.cg.forcefield import martini_like
        from repro.sims.continuum import ContinuumConfig, ContinuumSim

        macro = ContinuumSim(ContinuumConfig(grid=16, n_inner=2, n_outer=2,
                                             n_proteins=3, dt=0.25, seed=0))
        # Fit the PCA on a burn-in crop of patches.
        burn = ContinuumSim(macro.config)
        creator = PatchCreator(patch_grid=9)
        flats = []
        for _ in range(4):
            burn.step(4)
            flats.extend(p.flat() for p in creator.create(burn.snapshot()))
        enc = PCAEncoder(input_dim=2 * 81, latent_dim=9).fit(np.stack(flats))

        wm = WorkflowManager(
            macro=macro,
            encoder=enc,
            forcefield=martini_like(2),
            store=open_store("kv://2"),
            config=WorkflowConfig(beads_per_type=6, cg_chunks_per_job=1,
                                  cg_steps_per_chunk=5, seed=0),
            patch_creator=PatchCreator(patch_grid=9),
        )
        counters = wm.round()
        assert counters["patches"] == 3
        assert counters["cg_finished"] > 0
