"""Deterministic run orchestration: config in, ledger + snapshots out."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import ScenarioConfig, module_rng
from .coupling import EnergyLedger, coupled_step
from .exponent import CoveringError, build_covering, validate
from .fluid import FluidOps, FluidState, initial_velocity
from .kinetic import ParticleEnsemble, sample_initial
from .rheology import CoercivityError, StressLaw, certify_coercive, certify_monotone
from .snapshots import (
    KIND_SCALAR,
    KIND_U_FACE,
    KIND_V_FACE,
    Snapshot,
    write_particles,
    write_snapshot,
)

_MONOTONE_SAMPLES_RUN = 20_000


class CertificateFailure(RuntimeError):
    pass


@dataclass
class RunResult:
    state: FluidState
    particles: ParticleEnsemble
    ledger: EnergyLedger
    ledger_path: str


def build_scene(cfg: ScenarioConfig):
    """(exponent field, stress law, fluid state, particles) for a scenario."""
    field = cfg.exponent.build(cfg.grid, cfg.t_end)
    law = StressLaw(cfg.nu0, cfg.nu1, field, cfg.theta)
    state = FluidState(initial_velocity(cfg.grid, cfg.fluid.initial, cfg.fluid.amplitude))
    particles = sample_initial(
        cfg.grid,
        cfg.kinetic.preset,
        cfg.kinetic.n_particles,
        mass=cfg.kinetic.mass,
        vmax=cfg.kinetic.vmax,
        temperature=cfg.kinetic.temperature,
        seed=module_rng(cfg.seed, "kinetic"),
    )
    return field, law, state, particles


def certify(field, law) -> None:
    """Pre-run gate: exponent bounds, covering, monotonicity, coercivity."""
    report = validate(field)
    if not report.passed:
        raise CertificateFailure(
            f"exponent field invalid: s_min {report.s_min} < required {report.s_min_required}"
        )
    try:
        build_covering(field)
    except CoveringError as exc:
        raise CertificateFailure(str(exc)) from exc
    mono = certify_monotone(law, n_samples=_MONOTONE_SAMPLES_RUN, seed=0)
    if not mono.ok:
        raise CertificateFailure(f"stress law not monotone: worst {mono.worst}")
    try:
        cert = certify_coercive(law)
    except CoercivityError as exc:
        raise CertificateFailure(str(exc)) from exc
    if not cert.ok:
        raise CertificateFailure(f"coercivity margin negative: {cert.worst_margin}")


def _write_state(outdir: str, tag: str, state: FluidState, particles: ParticleEnsemble):
    t = state.time
    write_snapshot(os.path.join(outdir, f"u_{tag}.vkf"),
                   Snapshot(KIND_U_FACE, t, state.velocity.u))
    write_snapshot(os.path.join(outdir, f"v_{tag}.vkf"),
                   Snapshot(KIND_V_FACE, t, state.velocity.v))
    if state.pressure is not None:
        write_snapshot(os.path.join(outdir, f"p_{tag}.vkf"),
                       Snapshot(KIND_SCALAR, t, state.pressure))
    write_particles(os.path.join(outdir, f"particles_{tag}.vkf"), t,
                    particles.X, particles.V, particles.w, particles.fval)


def run_scenario(cfg: ScenarioConfig, outdir: str | None = None) -> RunResult:
    """Full deterministic run; raises CertificateFailure / BlowUp / CFLViolation."""
    outdir = outdir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    field, law, state, particles = build_scene(cfg)
    certify(field, law)
    ops = FluidOps(cfg.grid)
    ledger = EnergyLedger()
    n_steps = int(round(cfg.t_end / cfg.dt))
    try:
        for step in range(n_steps):
            state, particles, _ = coupled_step(
                ops, state, particles, law, cfg.dt, ledger, cfl_factor=cfg.cfl_factor
            )
            if cfg.output_every and (step + 1) % cfg.output_every == 0:
                _write_state(outdir, f"{step + 1:06d}", state, particles)
    finally:
        # on blow-up the last good state is still on disk for post-mortem
        _write_state(outdir, "final", state, particles)
        ledger_path = os.path.join(outdir, "ledger.csv")
        ledger.write_csv(ledger_path)
    return RunResult(state, particles, ledger, ledger_path)
