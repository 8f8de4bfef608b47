"""The whole-array continuum step is bitwise identical to the per-layer
``np.roll`` step kept in ``tests/sims/oracles.py``.

Both sides start from the same seed and are compared with ``tobytes()``
on the inner and outer fields and the protein positions: the engine
only regroups elementwise operations (one array per leaflet, shift
indices in place of ``np.roll``), so not even the last bit may move.
"""

import dataclasses

import numpy as np
import pytest

from repro.sims.continuum import ContinuumConfig, ContinuumSim
from tests.sims import oracles

CONFIGS = {
    "registry": ContinuumConfig(grid=12, n_inner=2, n_outer=2, n_proteins=3, dt=0.25),
    "grid16": ContinuumConfig(grid=16, n_inner=2, n_outer=2, n_proteins=3, dt=0.05),
    "grid64": ContinuumConfig(grid=64, n_inner=8, n_outer=6, n_proteins=20, dt=0.05),
    "odd13": ContinuumConfig(grid=13, n_inner=3, n_outer=2, n_proteins=4, dt=0.25),
    "one_layer": ContinuumConfig(grid=12, n_inner=1, n_outer=1, n_proteins=3, dt=0.25),
}


def state(sim):
    return [sim.inner.tobytes(), sim.outer.tobytes(), sim.proteins.positions.tobytes(),
            sim.proteins.states.tobytes()]


def pair(config, seed):
    cfg = dataclasses.replace(config, seed=seed)
    return ContinuumSim(cfg), ContinuumSim(cfg)


def run_both(engine, oracle, nsteps=30, feedback_at=None):
    """Step both sides; at ``feedback_at`` swap in new couplings."""
    rng = np.random.default_rng(99)
    for k in range(nsteps):
        if k == feedback_at:
            g_inner = rng.normal(0.0, 0.5, engine.g_inner.shape)
            g_outer = rng.normal(0.0, 0.5, engine.g_outer.shape)
            engine.update_couplings(g_inner, g_outer)
            oracle.update_couplings(g_inner, g_outer)
        engine.step(1)
        oracles.continuum_step(oracle, 1)
    return state(engine) == state(oracle)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [0, 1])
def test_engine_matches_oracle(name, seed):
    engine, oracle = pair(CONFIGS[name], seed)
    assert run_both(engine, oracle)
    assert engine.time_us == oracle.time_us


def test_initial_fields_match_oracle():
    for name, config in CONFIGS.items():
        sim = ContinuumSim(config)
        rng = np.random.default_rng(config.seed)
        inner = oracles.init_fields(rng, config.n_inner, config.grid)
        outer = oracles.init_fields(rng, config.n_outer, config.grid)
        assert sim.inner.tobytes() == inner.tobytes(), name
        assert sim.outer.tobytes() == outer.tobytes(), name


@pytest.mark.parametrize("name", ["registry", "odd13"])
def test_update_couplings_mid_run_matches_oracle(name):
    engine, oracle = pair(CONFIGS[name], 3)
    assert run_both(engine, oracle, feedback_at=12)
    assert engine.coupling_version == oracle.coupling_version == 1


def test_run_with_snapshots_matches_oracle(monkeypatch):
    """The WM's path: snapshots of a run, not bare steps."""
    engine, oracle = pair(CONFIGS["registry"], 5)
    snaps = engine.run_with_snapshots(3.0)
    monkeypatch.setattr(ContinuumSim, "step", oracles.continuum_step)
    ref = oracle.run_with_snapshots(3.0)
    assert len(snaps) == len(ref) == 4
    for a, b in zip(snaps, ref):
        assert a.inner.tobytes() == b.inner.tobytes()
        assert a.outer.tobytes() == b.outer.tobytes()
        assert a.protein_positions.tobytes() == b.protein_positions.tobytes()


def test_planted_reversed_shift_is_caught():
    """Swapping the up and down shifts flips every difference's sign."""
    engine, oracle = pair(CONFIGS["registry"], 0)
    engine._up, engine._dn = engine._dn, engine._up
    assert not run_both(engine, oracle, nsteps=1)


def test_planted_layer_coupling_swap_is_caught(monkeypatch):
    """Each layer must see its own row of ``g``: applying layer 1's row
    to layer 0 (and back) must show in one step."""
    step_fd = ContinuumSim._step_fields_fd

    def swapped(self, fields, g, kernels):
        step_fd(self, fields, g[::-1], kernels)

    monkeypatch.setattr(ContinuumSim, "_step_fields_fd", swapped)
    engine, oracle = pair(CONFIGS["registry"], 0)
    assert not run_both(engine, oracle, nsteps=1)
