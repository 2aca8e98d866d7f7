"""Two-way drag coupling and the per-step energy ledger.

The coupling is a Lie splitting: deposit particle moments, form the drag
force, advance the fluid one explicit step with it, then push the particles
through the *new* fluid velocity with the exact frozen-u integrator, whose
wall reflection works in place.  The dissipation and the exchange audit come
before the push, so all four particle calls share one CIC operator.

The ledger is the step's one energy record: it tracks, per step, both phase
energies, the accumulated stress and drag dissipation, and the signed
energy-budget residual
    residual = (E^{n+1} - E^n) + D_stress_step + D_drag_step,
which for the explicit scheme is O(dt^2) per step / O(dt) accumulated.  E^n
is read from the ledger's last row (or, before the first step, from the
initial state), so each step evaluates the energies of its new state only.
The residual is reported, never enforced: the sharp budget is an inequality
at the continuous level, and the convergence study checks the order instead.

Velocity interpolation at particles is the CIC operator P and moment
deposition is its transpose P^T, which makes the drag energy exchange
antisymmetric to roundoff (exchange_audit); this identity is the checkable
core of the energy inequality the scheme shadows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .fluid import FluidOps, FluidState, VelocityField, fluid_step
from .kinetic import (
    MomentFields,
    ParticleEnsemble,
    advance,
    deposit,
    drag_dissipation_exact,
    interpolate_velocity,
    row_dot,
)
from .rheology import StressLaw

LEDGER_COLUMNS = ("t", "E_fluid", "E_kin", "D_stress_cum", "D_drag_cum", "residual_cum")


@dataclass
class LedgerRow:
    t: float
    E_fluid: float
    E_kin: float
    D_stress_cum: float
    D_drag_cum: float
    residual_cum: float
    # in-memory diagnostics, not part of the CSV schema
    residual_step: float = 0.0
    antisymmetry_defect: float = 0.0


@dataclass
class EnergyLedger:
    rows: list[LedgerRow] = field(default_factory=list)

    def append(self, row: LedgerRow) -> None:
        self.rows.append(row)

    @property
    def last(self) -> LedgerRow:
        return self.rows[-1]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(LEDGER_COLUMNS)
            for r in self.rows:
                wr.writerow([repr(float(getattr(r, c))) for c in LEDGER_COLUMNS])

    @staticmethod
    def read_csv(path) -> "EnergyLedger":
        led = EnergyLedger()
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = tuple(next(rd, ()))
            if header != LEDGER_COLUMNS:
                raise ValueError(f"unexpected ledger columns: {header}")
            for rec in rd:
                if len(rec) != len(LEDGER_COLUMNS):
                    raise ValueError(f"ledger row {rd.line_num} has {len(rec)} fields")
                led.append(LedgerRow(*(float(v) for v in rec)))
        return led


LEDGER_RTOL = 1e-12


def ledger_differences(a: EnergyLedger, b: EnergyLedger) -> dict[str, tuple[float, float]]:
    """Per ledger column, (max|a - b|, that divided by max|a|).

    The relative value is NaN when either column holds a NaN, so it fails
    any ``<= tolerance`` test.  Raises ValueError when the row counts differ.
    """
    if len(a.rows) != len(b.rows):
        raise ValueError(f"row counts differ: {len(a.rows)} and {len(b.rows)}")
    out = {}
    for col in LEDGER_COLUMNS:
        ca = np.array([getattr(r, col) for r in a.rows])
        cb = np.array([getattr(r, col) for r in b.rows])
        diff = float(np.max(np.abs(ca - cb), initial=0.0))
        scale = float(np.max(np.abs(ca), initial=0.0))
        out[col] = (diff, diff / scale if scale > 0 else (0.0 if diff == 0 else np.inf))
    return out


def drag_force(moments: MomentFields, vel: VelocityField) -> VelocityField:
    """Face-centered drag force density F = -(rho u - j).

    rho and j live at cell centers; interior faces take the two-cell average.
    Wall-normal faces carry zero velocity, so their force is set to zero.
    """
    if moments.grid != vel.grid:
        raise ValueError("moments and velocity live on different meshes")
    # -(avg(rho) u - avg(j)) is formed as -(sum(rho) u - sum(j)) / 2, which
    # rounds to the same values
    rho, jx, jy = moments.rho, moments.jx, moments.jy
    out = VelocityField.zeros(vel.grid)
    f = rho[:-1, :] + rho[1:, :]
    f *= vel.u[1:-1, :]
    f -= jx[:-1, :] + jx[1:, :]
    np.multiply(f, -0.5, out=out.u[1:-1, :])
    f = rho[:, :-1] + rho[:, 1:]
    f *= vel.v[:, 1:-1]
    f -= jy[:, :-1] + jy[:, 1:]
    np.multiply(f, -0.5, out=out.v[:, 1:-1])
    return out


def exchange_audit(
    particles: ParticleEnsemble, vel: VelocityField, dt: float
) -> tuple[float, float, float]:
    """(fluid-side work, particle-side work, -dissipation) of the drag.

    W_f = -sum w (u_k - V_k) . u_k dt, W_p = sum w (u_k - V_k) . V_k dt; their
    sum telescopes to -sum w |u_k - V_k|^2 dt algebraically, so the identity
    holds to roundoff whatever the state.
    """
    p = particles
    uk = interpolate_velocity(vel, p.stencil)
    rel = uk - p.V
    w_f = -float(np.sum(p.w * row_dot(rel, uk))) * dt
    w_p = float(np.sum(p.w * row_dot(rel, p.V))) * dt
    dissipation = -float(np.sum(p.w * row_dot(rel, rel))) * dt
    return w_f, w_p, dissipation


def coupled_step(
    ops: FluidOps,
    state: FluidState,
    particles: ParticleEnsemble,
    law: StressLaw,
    dt: float,
    ledger: EnergyLedger,
    cfl_factor: float = 1.0,
) -> tuple[FluidState, ParticleEnsemble, LedgerRow]:
    """One Lie-split step: deposit, drag, fluid step, audit, particle push.

    E^n is the ledger's last row, so that row must belong to state and
    particles, as its cumulative columns already assume; an empty ledger
    stands for the initial state, whose energies are evaluated here.  The
    step's row is appended to the ledger and returned.  The fluid step is
    refused when dt exceeds cfl_factor times its CFL bound.
    """
    drag = drag_force(deposit(particles), state.velocity)
    new_state, d_stress = fluid_step(ops, state, law, dt, drag, cfl_factor=cfl_factor)
    d_drag = drag_dissipation_exact(particles, new_state.velocity, dt)
    w_f, w_p, dis = exchange_audit(particles, new_state.velocity, dt)
    defect = abs(w_f + w_p - dis)
    new_particles = advance(particles, new_state.velocity, dt)

    prev = ledger.last if ledger.rows else LedgerRow(
        state.time, state.velocity.energy(), particles.kinetic_energy(), 0.0, 0.0, 0.0)
    e_fluid = new_state.velocity.energy()
    e_kin = new_particles.kinetic_energy()
    # residual = (E^{n+1} - E^n) + D_stress + D_drag, summed in that order
    res = (e_fluid + e_kin) - (prev.E_fluid + prev.E_kin) + d_stress + d_drag

    row = LedgerRow(
        t=new_state.time,
        E_fluid=e_fluid,
        E_kin=e_kin,
        D_stress_cum=prev.D_stress_cum + d_stress,
        D_drag_cum=prev.D_drag_cum + d_drag,
        residual_cum=prev.residual_cum + res,
        residual_step=res,
        antisymmetry_defect=defect,
    )
    ledger.append(row)
    return new_state, new_particles, row
