"""Extension bench: the fused force pass against the oracle passes.

The sim bodies are the largest layer of the traced ``serve_campaign``
run, and at the registry's laptop scale (18 CG beads, 54 AA atoms) a
force evaluation is numpy call overhead, not arithmetic. This bench
prices one ``step(1)`` of each engine against the same step driven by
the reference passes in ``tests/sims/oracles.py`` (separate pair and
bond passes, one ``np.add.at`` per block, energy always summed):

- laptop CG (createsim: 2 lipid types x 6 beads + 6 protein beads);
- laptop AA (its backmap, 54 atoms), backbone-restrained and free;
- a 306-bead CG system (``CGSim.random_system`` defaults), where pair
  arithmetic starts to matter;
- the registry's continuum (grid 12, 2+2 lipid layers, 3 proteins,
  dt 0.25): the whole-array DDFT step against the per-layer ``np.roll``
  step (``oracles.continuum_step``).

Each case runs an oracle copy and an engine copy of one system in
alternating blocks, so both see the same states (their trajectories
are bitwise identical, which is checked at the end), and keeps the
best block per side. The oracle searches afresh on every step; the
engine keeps its Verlet list, and each particle case also records the
fraction of its force calls that rebuilt the list (rebuilds / force
calls; null for the continuum).
Results go to ``BENCH_sims.json`` (``n`` is particles, or grid points
per layer for the continuum). The guard: engine <= 0.85x oracle at the
laptop sizes.
"""

import time

import numpy as np
from conftest import record_json, report

from repro.sims.aa.engine import AAConfig, AASim
from repro.sims.cg.engine import CGConfig, CGSim
from repro.sims.cg.forcefield import martini_like
from repro.sims.continuum import ContinuumConfig, ContinuumSim
from repro.sims.mapping.backmap import backmap
from repro.sims.mapping.createsim import createsim
from tests.sims import oracles

MAX_RATIO = 0.85
LAPTOP = ("cg_18", "aa_54_restrained", "aa_54_free", "ddft_12")


def laptop_cg(seed=1):
    ff = martini_like(n_lipid_types=2, seed=seed)
    densities = 1.0 + np.random.default_rng(seed).random((2, 8, 8))
    system = createsim(densities, box=3.0, with_raf=True, forcefield=ff,
                       beads_per_type=6, seed=seed)
    return ff, system


def particle_state(sim):
    return sim.positions.tobytes()


def continuum_state(sim):
    return b"".join(a.tobytes() for a in (sim.inner, sim.outer, sim.proteins.positions))


PARTICLE = (oracles.step, particle_state)
CONTINUUM = (oracles.continuum_step, continuum_state)


def cases():
    """name -> (factory returning a fresh sim, oracle step and state
    bytes, steps per block, rounds); every factory call gives the same
    system."""
    ff, system = laptop_cg()
    aa = backmap(system, ff, seed=1)
    backbone = np.zeros(aa.natoms, dtype=bool)
    backbone[aa.backbone] = True

    def cg_laptop():
        return CGSim(system.positions, system.type_ids, martini_like(n_lipid_types=2, seed=1),
                     CGConfig(box=system.box, n_lipids=1, seed=2), bonds=system.bonds)

    def aa_laptop(restrained):
        return lambda: AASim(aa.positions, aa.bonds, aa.backbone,
                             config=AAConfig(box=aa.box, seed=3),
                             restrained=backbone.copy() if restrained else None)

    def ddft_registry():
        return ContinuumSim(ContinuumConfig(grid=12, n_inner=2, n_outer=2, n_proteins=3,
                                            dt=0.25, seed=0))

    return {
        "cg_18": (cg_laptop, PARTICLE, 40, 30),
        "aa_54_restrained": (aa_laptop(True), PARTICLE, 40, 30),
        "aa_54_free": (aa_laptop(False), PARTICLE, 40, 30),
        "cg_306": (lambda: CGSim.random_system(config=CGConfig(seed=0)), PARTICLE, 4, 10),
        "ddft_12": (ddft_registry, CONTINUUM, 40, 30),
    }


def best_block_us(steps_per_block, rounds, make, oracle):
    """Best-of-``rounds`` µs per step(1) for oracle and engine copies."""
    oracle_step, state = oracle
    ref, eng = make(), make()
    best_ref = best_eng = float("inf")
    for k in range(rounds):
        order = ((ref, True), (eng, False)) if k % 2 == 0 else ((eng, False), (ref, True))
        for sim, is_ref in order:
            t0 = time.perf_counter()
            for _ in range(steps_per_block):
                if is_ref:
                    oracle_step(sim, 1)
                else:
                    sim.step(1)
            us = (time.perf_counter() - t0) / steps_per_block * 1e6
            if is_ref:
                best_ref = min(best_ref, us)
            else:
                best_eng = min(best_eng, us)
    assert state(ref) == state(eng)
    if hasattr(eng, "nlist"):
        return best_ref, best_eng, eng.positions.shape[0], eng.nlist.builds / eng.nlist.calls
    return best_ref, best_eng, eng.inner[0].size, None


def test_sim_kernels():
    rows = {}
    lines = [f"{'case':>18} {'n':>5} {'oracle us':>10} {'engine us':>10} {'ratio':>6} "
             f"{'rebuilds':>8}"]
    for name, (make, oracle, steps, rounds) in cases().items():
        oracle_us, engine_us, n, rebuilds = best_block_us(steps, rounds, make, oracle)
        rows[name] = {"n": n, "oracle_us_per_step": oracle_us,
                      "engine_us_per_step": engine_us, "ratio": engine_us / oracle_us,
                      "rebuild_fraction": rebuilds, "steps_per_block": steps,
                      "rounds": rounds}
        lines.append(f"{name:>18} {n:>5} {oracle_us:>10.1f} {engine_us:>10.1f} "
                     f"{engine_us / oracle_us:>6.2f} "
                     f"{'-' if rebuilds is None else f'{rebuilds:.3f}':>8}")
    lines.append(f"guard: engine <= {MAX_RATIO}x oracle for {', '.join(LAPTOP)}")
    report("ext_sim_kernels", lines)
    record_json("BENCH_sims.json", "sim_kernels", {"max_ratio": MAX_RATIO, "cases": rows})
    for name in LAPTOP:
        assert rows[name]["ratio"] <= MAX_RATIO, (name, rows[name])
