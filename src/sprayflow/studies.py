"""Convergence studies behind acceptance criteria 5 and 9.

* The manufactured-solution study of the Newtonian fluid solver.  The exact
  steady field is u = curl psi with psi = 0.1 sin^2(pi x) sin^2(pi y); the
  forcing g = (u . grad) u - (nu0 / 2) lap u is derived symbolically (the
  viscous term of the solver is div(nu0 Du) = (nu0/2) lap u for
  divergence-free u).  Each run starts from the projected exact field and
  marches to MMS_T_END with dt ~ h^2, so the measured error is spatial.
* The dt-halving study of the accumulated energy-budget residual of a
  coupled scenario, with the fitted order of the residual in dt.

The acceptance tests, the scripts and `sprayflow energy-report` call these;
they hold the only copy of each study.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from .config import ScenarioConfig
from .exponent import constant_field
from .fluid import FluidOps, FluidState, VelocityField, fluid_step, stream_function_field
from .grid import Grid
from .rheology import StressLaw
from .run import run_scenario

MMS_MESHES = (32, 64, 128)
MMS_NU0 = 0.1
MMS_T_END = 0.2


def manufactured_errors() -> list[float]:
    """L2 velocity error at MMS_T_END on each mesh of MMS_MESHES."""
    import sympy as sp  # a dev extra: importing sprayflow must not need it

    nu0 = MMS_NU0
    x, y = sp.symbols("x y")
    psi = sp.Rational(1, 10) * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2
    u = sp.diff(psi, y)
    v = -sp.diff(psi, x)
    lap = lambda f: sp.diff(f, x, 2) + sp.diff(f, y, 2)
    fu = u * sp.diff(u, x) + v * sp.diff(u, y) - nu0 / 2 * lap(u)
    fv = u * sp.diff(v, x) + v * sp.diff(v, y) - nu0 / 2 * lap(v)
    psi_f, u_f, v_f, fu_f, fv_f = (sp.lambdify((x, y), f, "numpy") for f in (psi, u, v, fu, fv))

    errors = []
    for n in MMS_MESHES:
        grid = Grid(n, n)
        ops = FluidOps(grid)
        h = grid.h
        law = StressLaw(nu0, 0.0, constant_field(grid, 1.0, 2.0))
        vel, _ = ops.project(stream_function_field(grid, psi_f))
        state = FluidState(vel, 0.0)
        xu, yu = np.meshgrid(np.arange(n + 1) * h, (np.arange(n) + 0.5) * h, indexing="ij")
        xv, yv = np.meshgrid((np.arange(n) + 0.5) * h, np.arange(n + 1) * h, indexing="ij")
        forcing = VelocityField(grid, fu_f(xu, yu), fv_f(xv, yv))
        forcing.enforce_walls()
        dt = 0.2 * h * h / (2.0 * nu0)
        nsteps = int(np.ceil(MMS_T_END / dt))
        dt = MMS_T_END / nsteps
        for _ in range(nsteps):
            state, _ = fluid_step(ops, state, law, dt, forcing)
        eu = state.velocity.u - u_f(xu, yu)
        ev = state.velocity.v - v_f(xv, yv)
        errors.append(float(np.sqrt(grid.cell_volume * (np.sum(eu**2) + np.sum(ev**2)))))
    return errors


def dt_study(cfg: ScenarioConfig, outdir) -> tuple[list[float], list[float], list[str]]:
    """Run cfg at dt, dt/2 and dt/4 into outdir/dt_0, dt_1, dt_2.

    Returns the dts, the accumulated residual at t_end of each run and the
    paths of the ledgers, which `sprayflow energy-report` can fit again.
    """
    dts, residuals, ledger_paths = [], [], []
    for k in range(3):
        sub = dataclasses.replace(cfg, dt=cfg.dt / 2**k)
        result = run_scenario(sub, outdir=os.path.join(outdir, f"dt_{k}"))
        dts.append(sub.dt)
        residuals.append(result.ledger.last.residual_cum)
        ledger_paths.append(result.ledger_path)
    return dts, residuals, ledger_paths


def fitted_order(dts, residuals) -> float:
    """Least-squares slope of log |residual| against log dt.

    Raises ValueError unless every dt is finite and positive, the dts are not
    all equal and every residual is finite.
    """
    dts = np.asarray(dts, dtype=float)
    res = np.abs(np.asarray(residuals, dtype=float))
    if not np.all(np.isfinite(dts) & (dts > 0)):
        raise ValueError(f"time steps must be finite and positive, got {dts.tolist()}")
    if np.unique(dts).size < 2:
        raise ValueError(f"need two distinct time steps, got {dts.tolist()}")
    if not np.all(np.isfinite(res)):
        raise ValueError("a residual is not finite")
    if np.any(res == 0):
        return np.inf
    slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    return float(slope)
