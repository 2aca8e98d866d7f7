"""End-to-end acceptance gate.

Each test prints a single PASS/FAIL line for its criterion; the expensive
coupled runs (the dt study, whose dt_0 run is the base run) are shared
through a module-scoped fixture and timed for the runtime budget check.
"""

import os
import time

import numpy as np
import pytest

import sprayflow.run as srun
from sprayflow import studies
from sprayflow.config import load_config
from sprayflow.coupling import LEDGER_RTOL, EnergyLedger, ledger_differences
from sprayflow.exponent import build_covering, required_s_min, sinusoidal_field
from sprayflow.fluid import FluidOps, VelocityField
from sprayflow.grid import DIM, Grid
from sprayflow.kinetic import advance, sample_initial
from sprayflow.orlicz import luxemburg_norm, modular
from sprayflow.pressure import (
    PaddedBox,
    PressureProblem,
    residual as pressure_residual,
    solve as pressure_solve,
    verify_bounds,
)
from sprayflow.rheology import StressLaw, certify_coercive, certify_monotone
from sprayflow.run import build_scene
from sprayflow.exponent import constant_field

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.ini")
# the ledger `sprayflow run --config configs/acceptance.ini` wrote with the
# sparse-matrix symmetric gradient; refactors and reorderings must stay
# within LEDGER_RTOL of each column's maximum
GOLDEN_LEDGER = os.path.join(os.path.dirname(__file__), "data", "acceptance_ledger.csv")
# the ledger `sprayflow run --config configs/two_phase.ini` wrote with the
# exponent stored as a tuple of per-slab grids
TWO_PHASE_LEDGER = os.path.join(os.path.dirname(__file__), "data", "two_phase_ledger.csv")

def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {status} — {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def acceptance(tmp_path_factory):
    """The dt study of the acceptance scenario; its dt_0 run is the base run.

    Every coupled step goes through a wrapper around sprayflow.run.coupled_step
    that records, for the steps of the first ledger it sees (the dt_0 run),
    the particles after the step and the relative error of the sup-norm
    growth law e^{d t}.
    """
    cfg = load_config(CONFIG)
    _, law, _, p0 = build_scene(cfg)
    f0max = p0.fval.max()
    base = {"fval_err": []}
    inner = srun.coupled_step

    def recording(ops, state, particles, law, dt, ledger, **kwargs):
        out = inner(ops, state, particles, law, dt, ledger, **kwargs)
        if base.setdefault("ledger", ledger) is ledger:
            _, base["particles"], row = out
            base["fval_err"].append(
                abs(base["particles"].fval.max() / (f0max * np.exp(DIM * row.t)) - 1.0))
        return out

    t0 = time.perf_counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(srun, "coupled_step", recording)
        dts, residuals, _ = studies.dt_study(cfg, tmp_path_factory.mktemp("dt_study"))
    return dict(cfg=cfg, p0=p0, law=law, particles=base["particles"],
                ledger=base["ledger"], fval_err=max(base["fval_err"]),
                dts=dts, residuals=residuals, runs_s=time.perf_counter() - t0)


def test_criterion_01_mass_conservation(acceptance):
    drift = abs(acceptance["particles"].mass - acceptance["p0"].mass) / acceptance["p0"].mass
    _report(1, "mass conservation", drift <= 1e-13, f"relative drift {drift:.3e}")


def test_criterion_02_sup_growth_law(acceptance):
    err = acceptance["fval_err"]
    _report(2, "sup-norm growth law", err <= 1e-12, f"worst relative error {err:.3e}")


def test_criterion_03_free_kinetic_decay():
    grid = Grid(64, 64)
    p = sample_initial(grid, "uniform", 4096, mass=0.05, vmax=0.5, seed=3)
    rest = VelocityField.zeros(grid)
    e0 = p.kinetic_energy()
    dt, nsteps = 2e-3, 500
    for _ in range(nsteps):
        p = advance(p, rest, dt)
    err = abs(p.kinetic_energy() / (e0 * np.exp(-2.0 * dt * nsteps)) - 1.0)
    _report(3, "free kinetic decay", err <= 1e-10, f"relative error {err:.3e}")


def test_criterion_04_drag_antisymmetry(acceptance):
    worst = max(
        r.antisymmetry_defect / (r.E_fluid + r.E_kin) for r in acceptance["ledger"].rows
    )
    _report(4, "drag antisymmetry", worst <= 1e-12, f"worst normalized defect {worst:.3e}")


def test_criterion_05_energy_audit_convergence(acceptance):
    dts, residuals = acceptance["dts"], acceptance["residuals"]
    order = studies.fitted_order(dts, residuals)
    rows = acceptance["ledger"].rows
    e_tot = [r.E_fluid + r.E_kin for r in rows]
    bounded = all(
        b - a <= r.residual_step + 1e-15
        for a, b, r in zip(e_tot, e_tot[1:], rows[1:])
    )
    ok = order >= 0.9 and bounded
    _report(5, "energy-audit convergence",
            ok, f"fitted order {order:.3f}, residuals {[f'{r:.2e}' for r in residuals]}, "
                f"energy bounded by residual: {bounded}")


def test_energy_audit_convergence_across_exponent_switch(tmp_path):
    # criterion 5's order on two_phase.ini, whose exponent jumps at t = 0.25:
    # the energy budget needs no time regularity of s
    cfg = load_config(os.path.join(os.path.dirname(CONFIG), "two_phase.ini"))
    dts, residuals, ledger_paths = studies.dt_study(cfg, tmp_path)
    order = studies.fitted_order(dts, residuals)
    print(f"two_phase dt study: fitted order {order:.3f}, "
          f"residuals {[f'{r:.2e}' for r in residuals]}")
    assert order >= 0.9
    # the dt_0 run is `sprayflow run --config configs/two_phase.ini`
    diffs = ledger_differences(EnergyLedger.read_csv(TWO_PHASE_LEDGER),
                               EnergyLedger.read_csv(ledger_paths[0]))
    beyond = {col: rel for col, (_, rel) in diffs.items() if not rel <= LEDGER_RTOL}
    assert not beyond, f"ledger columns beyond {LEDGER_RTOL:g} relative: {beyond}"


def test_criterion_06_stress_certificates(acceptance):
    mono = certify_monotone(acceptance["law"], n_samples=100_000, seed=0)
    mono_ok = mono.worst >= -1e-13 * mono.scale
    cert = certify_coercive(acceptance["law"])
    grid = acceptance["cfg"].grid
    pure = StressLaw(0.0, 1.0, constant_field(grid, 1.0, 3.0))
    pcert = certify_coercive(pure)
    pure_ok = pcert.c == 2.0 and pcert.h_bar == 0.0 and pcert.worst_margin >= -1e-12
    ok = mono_ok and cert.ok and pure_ok
    _report(6, "stress certificates", ok,
            f"monotone worst {mono.worst:.2e} (scale {mono.scale:.2e}), "
            f"coercive c={cert.c:g} h_bar={cert.h_bar:g} margin {cert.worst_margin:.2e}, "
            f"pure power law c={pcert.c:g} h_bar={pcert.h_bar:g}")


def test_cfl_limit_unchanged_on_the_acceptance_initial_state():
    # theta = 0: the law's own viscosity gives the bound the hand-derived
    # formula of earlier versions gave (value recorded from such a version)
    cfg = load_config(CONFIG)
    field, law, state, _ = build_scene(cfg)
    limit = FluidOps(cfg.grid).cfl_limit(state.velocity, law, field.values_at(0.0))
    assert limit == pytest.approx(0.00219492364701181, rel=1e-15, abs=0.0)


def test_two_phase_coercivity_constants():
    # `sprayflow stress-audit --config configs/two_phase.ini` prints these; the
    # S^theta search doubles on from c, so c_theta is not below c
    _, law, _, _ = build_scene(load_config(os.path.join(os.path.dirname(CONFIG), "two_phase.ini")))
    cert = certify_coercive(law)
    assert (cert.c, cert.h_bar) == (256.0, 0.0)
    assert (cert.theta.c, cert.theta.h_bar) == (256.0, 1.0)
    assert cert.ok


def test_criterion_07_luxemburg_norm():
    rng = np.random.default_rng(0)
    w = np.ones((8, 8)) / 64.0
    vals = rng.standard_normal((8, 8))
    errs = []
    for p in (2.0, 3.0):
        classical = float(np.sum(w * np.abs(vals) ** p)) ** (1.0 / p)
        errs.append(abs(luxemburg_norm(vals, p, w) / classical - 1.0))
    two_cell = luxemburg_norm(np.array([2.0, 2.0]), np.array([2.0, 4.0]),
                              np.array([0.5, 0.5]))
    s = rng.uniform(2.0, 4.0, size=(8, 8))
    lam = luxemburg_norm(vals, s, w)
    unit = abs(modular(vals / lam, s, w) - 1.0)
    ok = max(errs) <= 1e-8 and abs(two_cell - 2.0) <= 1e-8 and unit <= 1e-8
    _report(7, "Luxemburg norm", ok,
            f"classical err {max(errs):.2e}, two-cell {two_cell:.10f}, unit-ball {unit:.2e}")


def test_criterion_08_covering():
    grid = Grid(64, 64)
    field = sinusoidal_field(grid, 1.0, base=2.0, amplitude=0.4)
    cov = build_covering(field)
    gap_ok = bool(np.all(cov.big_r - cov.r_sup >= required_s_min(DIM) / DIM))
    pou = float(np.abs(cov.partition_of_unity(grid).sum(axis=0) - 1.0).max())
    ok = gap_ok and pou <= 1e-12
    _report(8, "covering invariants", ok,
            f"gap holds: {gap_ok}, partition-of-unity defect {pou:.2e}")


def test_criterion_09_manufactured_solution():
    errors = studies.manufactured_errors()
    orders = [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]
    ok = min(orders) >= 1.5
    _report(9, "manufactured solution", ok,
            f"L2 errors {[f'{e:.2e}' for e in errors]}, orders {[f'{o:.2f}' for o in orders]}")


def test_criterion_10_pressure_toolkit():
    grid = Grid(64, 64)
    box = PaddedBox(grid)
    xc, yc = grid.cell_centers()
    zeta = np.clip(1.0 - ((xc - 0.5) ** 2 + (yc - 0.5) ** 2) / 0.04, 0.0, None) ** 3
    src1 = np.stack([zeta, zeta, np.zeros_like(zeta)], axis=-1)
    prob1 = PressureProblem("p1", box.embed(src1), box)
    p1 = pressure_solve(prob1)
    t1 = -box.embed(zeta)
    e1 = float(np.abs((p1 - p1.mean()) - (t1 - t1.mean())).max())
    r1 = pressure_residual(prob1, p1) / np.abs(src1).max()

    sig = 0.05
    g = np.exp(-((xc - 0.5) ** 2 + (yc - 0.5) ** 2) / (2 * sig**2))
    F = np.stack([-(xc - 0.5) / sig**2 * g, -(yc - 0.5) / sig**2 * g], axis=-1)
    prob3 = PressureProblem("p3", box.embed(F), box)
    p3 = pressure_solve(prob3)
    t3 = -box.embed(g)
    e3 = float(np.abs((p3 - p3.mean()) - (t3 - t3.mean())).max())
    r3 = pressure_residual(prob3, p3) / np.abs(F).max()

    rep64 = verify_bounds(Grid(64, 64), n_samples=10, seed=0)
    rep128 = verify_bounds(Grid(128, 128), n_samples=10, seed=0)
    drift = max(
        max(rep64[k].worst, rep128[k].worst) / min(rep64[k].worst, rep128[k].worst)
        for k in ("p1", "p2", "p3")
    )
    ok = e1 <= 1e-8 and e3 <= 1e-8 and drift <= 2.0 and r1 <= 1e-10 and r3 <= 1e-10
    _report(10, "pressure toolkit", ok,
            f"p1 err {e1:.2e}, p3 err {e3:.2e}, ratio drift x{drift:.3f}, "
            f"residuals {r1:.1e}/{r3:.1e}")


def test_criterion_11_projection():
    grid = Grid(64, 64)
    ops = FluidOps(grid)
    rng = np.random.default_rng(2)
    vel = VelocityField(grid, rng.standard_normal((grid.nx + 1, grid.ny)),
                        rng.standard_normal((grid.nx, grid.ny + 1)))
    vel.enforce_walls()
    proj, _ = ops.project(vel)
    div = float(np.abs(ops.divergence(proj)).max()) / (proj.max_speed() / grid.h)
    again, _ = ops.project(proj)
    idem = max(float(np.abs(again.u - proj.u).max()),
               float(np.abs(again.v - proj.v).max())) / max(proj.max_speed(), 1.0)
    ok = div <= 1e-10 and idem <= 1e-10
    _report(11, "projection", ok, f"normalized divergence {div:.2e}, idempotence {idem:.2e}")


def test_acceptance_ledger_matches_golden(acceptance):
    diffs = ledger_differences(EnergyLedger.read_csv(GOLDEN_LEDGER), acceptance["ledger"])
    beyond = {col: rel for col, (_, rel) in diffs.items() if not rel <= LEDGER_RTOL}
    assert not beyond, f"ledger columns beyond {LEDGER_RTOL:g} relative: {beyond}"


def test_criterion_12_runtime(acceptance):
    total = acceptance["runs_s"]
    _report(12, "runtime budget", total < 120.0,
            f"coupled acceptance runs took {total:.1f} s (< 120 s)")
