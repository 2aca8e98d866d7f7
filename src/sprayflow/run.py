"""Deterministic run orchestration: config in, ledger + snapshots out."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .config import ScenarioConfig, build_preset, module_rng
from .coupling import EnergyLedger, coupled_step
# CertificateFailure is imported for run_scenario's callers, which catch it
from .exponent import CertificateFailure, Covering, build_covering, validate
from .fluid import FluidOps, FluidState
from .kinetic import ParticleEnsemble
from .rheology import StressLaw, certify_coercive
from .snapshots import (
    KIND_SCALAR,
    KIND_U_FACE,
    KIND_V_FACE,
    Snapshot,
    write_particles,
    write_snapshot,
)


@dataclass
class RunResult:
    state: FluidState
    particles: ParticleEnsemble
    ledger: EnergyLedger
    ledger_path: str


def build_law(cfg: ScenarioConfig) -> StressLaw:
    """The scenario's stress law; its exponent field is law.exponent."""
    field = build_preset("exponent", cfg.exponent, cfg.grid, cfg.t_end)
    return StressLaw(cfg.nu0, cfg.nu1, field, cfg.theta)


def build_scene(cfg: ScenarioConfig):
    """(stress law, fluid state, particles) for a scenario, built in that order."""
    law = build_law(cfg)
    state = FluidState(build_preset("fluid", cfg.fluid, cfg.grid))
    particles = build_preset("kinetic", cfg.kinetic, cfg.grid, module_rng(cfg.seed, "kinetic"))
    return law, state, particles


def certify(law: StressLaw) -> Covering:
    """The pre-run gate of `run` and `validate`: exponent bound, covering,
    closed-form coercivity, each failing with a CertificateFailure; nothing
    is sampled.  Returns the covering.  S = g(|xi|) xi needs no
    monotonicity check: it is the gradient of Phi = int_0^{|xi|} g(r) r dr,
    convex as r g(r) is nondecreasing for nu0, nu1, theta >= 0 (StressLaw)
    and s >= (3d+2)/(d+2) = 2 (validate)."""
    validate(law.exponent)
    covering = build_covering(law.exponent)
    certify_coercive(law)
    return covering


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
    """Full deterministic run.  Raises CertificateFailure (or its subclass
    CoveringError or CoercivityError) before the first step; BlowUp,
    CFLViolation or EscapeError from a step, after writing the last good
    state; OSError when outdir cannot be written."""
    outdir = outdir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    law, state, particles = build_scene(cfg)
    certify(law)
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
