"""Two-way drag coupling and the per-step energy ledger.

The coupling is a Lie splitting: deposit particle moments, form the drag
force, advance the fluid one explicit step, then push the particles through
the *new* fluid velocity with the exact frozen-u integrator.

The ledger tracks, per step, both phase energies, the accumulated stress and
drag dissipation, and the signed energy-budget residual
    residual = dE_total + D_stress_step + D_drag_step,
which for the explicit scheme is O(dt^2) per step / O(dt) accumulated.  The
residual is reported, never enforced: the sharp budget is an inequality at
the continuous level, and the convergence study checks the order instead.

Velocity interpolation at particles and moment deposition use the same
bilinear kernel, which makes the drag energy exchange antisymmetric to
roundoff (exchange_audit); this identity is the checkable core of the energy
inequality the scheme shadows.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .fluid import FluidOps, FluidState, StepDiagnostics, VelocityField, fluid_step
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
    exchange_work: float = 0.0


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
            header = tuple(next(rd))
            if header != LEDGER_COLUMNS:
                raise ValueError(f"unexpected ledger columns: {header}")
            for rec in rd:
                led.append(LedgerRow(*(float(v) for v in rec)))
        return led


def drag_force(moments: MomentFields, vel: VelocityField) -> VelocityField:
    """Face-centered drag force density F = -(rho u - j).

    rho and j live at cell centers; interior faces take the two-cell average.
    Wall-normal faces carry zero velocity, so their force is set to zero.
    """
    if moments.grid != vel.grid:
        raise ValueError("moments and velocity live on different meshes")
    out = VelocityField.zeros(vel.grid)
    rho_fx = 0.5 * (moments.rho[:-1, :] + moments.rho[1:, :])
    jx_fx = 0.5 * (moments.j[:-1, :, 0] + moments.j[1:, :, 0])
    out.u[1:-1, :] = -(rho_fx * vel.u[1:-1, :] - jx_fx)
    rho_fy = 0.5 * (moments.rho[:, :-1] + moments.rho[:, 1:])
    jy_fy = 0.5 * (moments.j[:, :-1, 1] + moments.j[:, 1:, 1])
    out.v[:, 1:-1] = -(rho_fy * vel.v[:, 1:-1] - jy_fy)
    return out


def exchange_audit(
    particles: ParticleEnsemble, vel: VelocityField | None, dt: float
) -> tuple[float, float, float]:
    """(fluid-side work, particle-side work, -dissipation) of the drag.

    W_f = -sum w (u_k - V_k) . u_k dt, W_p = sum w (u_k - V_k) . V_k dt; their
    sum telescopes to -sum w |u_k - V_k|^2 dt algebraically, so the identity
    holds to roundoff whatever the state.
    """
    p = particles
    if p.n == 0:
        return 0.0, 0.0, 0.0
    uk = np.zeros_like(p.V) if vel is None else interpolate_velocity(vel, p.X)
    rel = uk - p.V
    w_f = -float(np.sum(p.w * row_dot(rel, uk))) * dt
    w_p = float(np.sum(p.w * row_dot(rel, p.V))) * dt
    dissipation = -float(np.sum(p.w * row_dot(rel, rel))) * dt
    return w_f, w_p, dissipation


def audit_step(
    energy_before: float,
    energy_after: float,
    d_stress_step: float,
    d_drag_step: float,
) -> float:
    """Signed energy-budget residual for one completed coupled step."""
    return energy_after - energy_before + d_stress_step + d_drag_step


def coupled_step(
    ops: FluidOps,
    state: FluidState,
    particles: ParticleEnsemble,
    law: StressLaw,
    dt: float,
    ledger: EnergyLedger | None = None,
    forcing: VelocityField | None = None,
    cfl_factor: float = 1.0,
) -> tuple[FluidState, ParticleEnsemble, LedgerRow]:
    """One Lie-split step: deposit, drag, fluid step, particle push (new u).

    The fluid step is refused when dt exceeds cfl_factor times its CFL bound.
    """
    e_before = state.velocity.energy() + particles.kinetic_energy()

    moments = deposit(particles)
    drag = drag_force(moments, state.velocity)
    new_state, diag = fluid_step(
        ops, state, law, dt, drag=drag, forcing=forcing, cfl_factor=cfl_factor
    )
    d_drag = drag_dissipation_exact(particles, new_state.velocity, dt)
    new_particles = advance(particles, new_state.velocity, dt)

    e_fluid = new_state.velocity.energy()
    e_kin = new_particles.kinetic_energy()
    res = audit_step(e_before, e_fluid + e_kin, diag.stress_dissipation, d_drag)

    w_f, w_p, dis = exchange_audit(particles, new_state.velocity, dt)
    defect = abs(w_f + w_p - dis)

    prev = ledger.last if ledger and ledger.rows else None
    row = LedgerRow(
        t=new_state.time,
        E_fluid=e_fluid,
        E_kin=e_kin,
        D_stress_cum=(prev.D_stress_cum if prev else 0.0) + diag.stress_dissipation,
        D_drag_cum=(prev.D_drag_cum if prev else 0.0) + d_drag,
        residual_cum=(prev.residual_cum if prev else 0.0) + res,
        residual_step=res,
        antisymmetry_defect=defect,
        exchange_work=w_f,
    )
    if ledger is not None:
        ledger.append(row)
    return new_state, new_particles, row
