"""Timed and traced runs of one workload through ``sprayflow.run.run_scenario``.

The timed run installs a single hook, a pass-through timer around
``sprayflow.run.coupled_step``; the same hook keeps what the output checks
need (the fluid operators, the initial mass and sup-norm, the sup-growth
error after each step), computed outside the timed interval.  A run repeats
the same scenario until its time is up: one untimed warm-up, then timed
repeats, each in a fresh output directory that is deleted afterwards.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import sprayflow.run as srun
from sprayflow.config import ScenarioConfig, load_config
from sprayflow.fluid import BlowUp, CFLViolation
from sprayflow.kinetic import EscapeError

from .spans import Tracer
from .workloads import generate_ini

# acceptance thresholds (tests/test_acceptance.py)
THRESHOLDS = {
    "mass_drift": 1e-13,
    "sup_growth": 1e-12,
    "drag_antisymmetry": 1e-12,
    "divergence": 1e-10,
}
RUN_FAILURES = (BlowUp, CFLViolation, EscapeError, srun.CertificateFailure)


class StepProbe:
    """Pass-through timer around ``coupled_step`` for one scenario at a time."""

    def __init__(self, inner, d: int):
        self.inner = inner
        self.d = d
        self.reset()

    def reset(self) -> None:
        self.first_start = None
        self.step_s: list[float] = []
        self.attempted = 0
        self.ops = None
        self.mass0 = 0.0
        self.fmax0 = 0.0
        self.growth_err = 0.0

    def __call__(self, ops, state, particles, *args, **kwargs):
        self.attempted += 1
        t0 = time.perf_counter()
        out = self.inner(ops, state, particles, *args, **kwargs)
        t1 = time.perf_counter()
        if self.first_start is None:
            self.first_start = t0
            self.ops = ops
            self.mass0 = particles.mass
            self.fmax0 = float(particles.fval.max())
        self.step_s.append(t1 - t0)
        row = out[2]
        err = abs(float(out[1].fval.max()) / (self.fmax0 * np.exp(self.d * row.t)) - 1.0)
        self.growth_err = max(self.growth_err, err)
        return out


@contextmanager
def step_probe(d: int):
    """Install a StepProbe over ``sprayflow.run.coupled_step`` as it is now."""
    inner = srun.coupled_step
    probe = StepProbe(inner, d)
    srun.coupled_step = probe
    try:
        yield probe
    finally:
        srun.coupled_step = inner


@dataclass
class Repeat:
    """One ``run_scenario`` call and the checks on its outputs."""

    setup_s: float | None
    run_s: float
    step_s: list[float]
    steps_attempted: int
    failed_steps: int
    checks: dict[str, bool]
    values: dict[str, float] = field(default_factory=dict)
    ledger_sha256: str | None = None
    snapshot_bytes: int = 0
    error: str | None = None


def _all_finite(result) -> bool:
    st, p = result.state, result.particles
    arrays = [st.velocity.u, st.velocity.v, p.X, p.V, p.w, p.fval]
    if st.pressure is not None:
        arrays.append(st.pressure)
    rows = np.array([[r.t, r.E_fluid, r.E_kin, r.D_stress_cum, r.D_drag_cum, r.residual_cum]
                     for r in result.ledger.rows])
    return all(bool(np.all(np.isfinite(a))) for a in arrays + [rows])


def _output_values(result, probe: StepProbe) -> dict[str, float]:
    vel = result.state.velocity
    div = float(np.abs(probe.ops.divergence(vel)).max())
    return {
        "mass_drift": abs(result.particles.mass - probe.mass0) / probe.mass0,
        "sup_growth": probe.growth_err,
        "drag_antisymmetry": max(r.antisymmetry_defect / (r.E_fluid + r.E_kin)
                                 for r in result.ledger.rows),
        "divergence": div / (vel.max_speed() / vel.grid.h),
    }


def run_repeat(cfg: ScenarioConfig, outdir: str, probe: StepProbe) -> Repeat:
    """Run the scenario once into ``outdir``, check its outputs, delete ``outdir``."""
    probe.reset()
    t0 = time.perf_counter()
    try:
        result = srun.run_scenario(cfg, outdir=outdir)
        error = None
    except RUN_FAILURES as exc:
        result, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    setup_s = None if probe.first_start is None else probe.first_start - t0
    try:
        if result is None:
            checks = dict.fromkeys(list(THRESHOLDS) + ["finite"], False)
            return Repeat(setup_s, run_s, probe.step_s, max(probe.attempted, 1), 1,
                          checks, error=error)
        values = _output_values(result, probe)
        checks = {k: bool(values[k] <= THRESHOLDS[k]) for k in THRESHOLDS}
        checks["finite"] = _all_finite(result) and all(np.isfinite(list(values.values())))
        with open(result.ledger_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        snapshot_bytes = sum(os.path.getsize(os.path.join(outdir, f))
                             for f in os.listdir(outdir) if f.endswith(".vkf"))
        return Repeat(setup_s, run_s, probe.step_s, probe.attempted, 0, checks,
                      values, sha, snapshot_bytes)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(cfg: ScenarioConfig, seconds: float, workdir: str, probe: StepProbe,
            tag: str) -> list[Repeat]:
    """Repeat the scenario until ``seconds`` have passed (at least once)."""
    repeats: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    while not repeats or time.perf_counter() < deadline:
        outdir = os.path.join(workdir, f"{tag}{len(repeats):03d}")
        repeats.append(run_repeat(cfg, outdir, probe))
    return repeats


def _median(xs):
    return statistics.median(xs) if xs else None


def _tenth_fastest(xs):
    """The 10th-smallest value, or the largest if there are fewer.

    On a host whose neighbours slow every instruction for minutes at a time,
    the fastest readings are what stays put from run to run; taking the
    tenth, not the first, keeps one freak reading from setting the figure.
    """
    if not xs:
        return None
    k = min(10, len(xs)) - 1
    return float(np.partition(xs, k)[k])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _steps(repeats: list[Repeat]) -> list[float]:
    return [s for r in repeats for s in r.step_s]


END_TO_END_UNITS = {
    "step_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
# per-layer metrics the harness adds to the tracer's (spans.LAYER_METRICS)
RUN_LAYER_UNITS = {
    "trace.overhead_ratio": "ratio",
    "trace.missing_targets": "count",
    "run.failed_steps": "count",
    "snapshots.bytes_written": "bytes",
}


def end_to_end_metrics(repeats: list[Repeat], peak_rss_mb: float):
    """{metric: (value, unit)} for the timed repeats."""
    steps = _steps(repeats)
    values = {
        "step_ms": _tenth_fastest(steps) * 1e3 if steps else None,
        "setup_s": _median([r.setup_s for r in repeats if r.setup_s is not None]),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END_UNITS.items()}


@dataclass
class Outcome:
    """What one benchmark run found: metrics, counts and a report."""

    metrics: dict[str, tuple[float | None, str]]
    attempted: int
    failed: int
    lines: list[str]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(v is not None for v, _ in self.metrics.values())


def _tally(repeats: list[Repeat]) -> tuple[int, int]:
    attempted = sum(r.steps_attempted + len(r.checks) for r in repeats)
    failed = sum(r.failed_steps + sum(not ok for ok in r.checks.values()) for r in repeats)
    return attempted, failed


def _check_lines(repeats: list[Repeat]) -> list[str]:
    lines = []
    for r in repeats:
        if r.error:
            lines.append(f"  run failed: {r.error}")
    worst = {k: max(r.values.get(k, 0.0) for r in repeats) for k in THRESHOLDS}
    lines.append("  worst check values: " + ", ".join(
        f"{k} {v:.3e} (<= {THRESHOLDS[k]:g})" for k, v in worst.items()))
    shas = sorted({r.ledger_sha256 for r in repeats if r.ledger_sha256})
    lines.append(f"  ledger.csv sha256: {' '.join(shas) or 'none'}"
                 + ("" if len(shas) <= 1 else " (differs between repeats)"))
    return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> Outcome:
    """Generate the workload's INI, load it as the CLI would, and measure."""
    ini_path = os.path.join(workdir, "scenario.ini")
    with open(ini_path, "w") as fh:
        fh.write(generate_ini(workload, seed))
    cfg = load_config(ini_path)

    with step_probe(cfg.d) as probe:
        warmup = run_repeat(cfg, os.path.join(workdir, "warmup"), probe)
        # later repeats only add allocator noise to the peak of one scenario
        peak_rss_mb = _peak_rss_mb()
        plain = measure(cfg, seconds / 3 if trace else seconds, workdir, probe, "plain")
    repeats = [warmup] + plain
    steps = _steps(plain)
    run_s = [r.run_s for r in plain if r.error is None]
    lines = [f"workload {workload} seed {seed}: {len(steps)} timed steps in "
             f"{len(plain)} scenarios after 1 untimed warm-up",
             f"  not gated: step median {_median(steps) * 1e3:.4g} ms, "
             f"p95 {np.percentile(steps, 95) * 1e3:.4g} ms; "
             f"run_scenario median {_median(run_s):.4g} s"]

    if not trace:
        metrics = end_to_end_metrics(plain, peak_rss_mb)
    else:
        tracer = Tracer()
        with tracer.installed(), step_probe(cfg.d) as probe:
            traced = measure(cfg, 2 * seconds / 3, workdir, probe, "traced")
        reference = warmup.ledger_sha256
        for r in traced:
            r.checks["trace_transparent"] = r.ledger_sha256 == reference
        repeats += traced
        plain_ms = _tenth_fastest(_steps(plain))
        traced_ms = _tenth_fastest(_steps(traced))
        values = {
            "trace.overhead_ratio": traced_ms / plain_ms if plain_ms and traced_ms else None,
            "trace.missing_targets": len(tracer.missing),
            "run.failed_steps": sum(r.failed_steps for r in repeats),
            "snapshots.bytes_written": _median(
                [r.snapshot_bytes for r in traced if r.error is None]),
        }
        metrics = tracer.layer_metrics()
        metrics.update((k, (values[k], unit)) for k, unit in RUN_LAYER_UNITS.items())
        lines.append(f"  traced: {len(_steps(traced))} steps in {len(traced)} scenarios; "
                     f"missing wrap targets: {', '.join(tracer.missing) or 'none'}")

    attempted, failed = _tally(repeats)
    lines += _check_lines(repeats)
    lines.append(f"  failed_share = {failed / attempted:g} share ({failed} failed of "
                 f"{attempted} steps and output checks)")
    return Outcome(metrics, attempted, failed, lines)
