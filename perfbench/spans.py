"""Span tracer that wraps sprayflow's layer functions from outside the program.

Each wrapped call records a span: name, start, end and parent span.  A span's
self time is its duration minus the durations of its direct children; calls
are single-threaded and nest, so children never overlap.

A target is wrapped at every binding the program calls through: the
function object is looked up in its defining module, then every
``sprayflow.*`` module attribute that is the same object is replaced (for
example ``interpolate_velocity`` in both ``kinetic`` and ``coupling``, or
``validate`` as imported into ``run``).  Methods are wrapped on their class.
A target that no longer exists is listed in ``missing``; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# (span name, defining module, attribute path)
TARGETS = (
    ("run.run_scenario", "sprayflow.run", "run_scenario"),
    ("run.build_scene", "sprayflow.run", "build_scene"),
    ("run.certify", "sprayflow.run", "certify"),
    ("exponent.validate", "sprayflow.exponent", "validate"),
    ("exponent.build_covering", "sprayflow.exponent", "build_covering"),
    ("rheology.certify_monotone", "sprayflow.rheology", "certify_monotone"),
    ("rheology.certify_coercive", "sprayflow.rheology", "certify_coercive"),
    ("rheology.eval_packed", "sprayflow.rheology", "StressLaw.eval_packed"),
    ("kinetic.deposit", "sprayflow.kinetic", "deposit"),
    ("kinetic.advance", "sprayflow.kinetic", "advance"),
    ("kinetic.reflect", "sprayflow.kinetic", "reflect"),
    ("kinetic.drag_dissipation_exact", "sprayflow.kinetic", "drag_dissipation_exact"),
    ("kinetic.interpolate_velocity", "sprayflow.kinetic", "interpolate_velocity"),
    ("coupling.coupled_step", "sprayflow.coupling", "coupled_step"),
    ("coupling.drag_force", "sprayflow.coupling", "drag_force"),
    ("coupling.exchange_audit", "sprayflow.coupling", "exchange_audit"),
    ("coupling.ledger_write", "sprayflow.coupling", "EnergyLedger.write_csv"),
    ("fluid.ops_build", "sprayflow.fluid", "FluidOps.__init__"),
    ("fluid.fluid_step", "sprayflow.fluid", "fluid_step"),
    ("fluid.cfl_limit", "sprayflow.fluid", "FluidOps.cfl_limit"),
    ("fluid.sym_gradient", "sprayflow.fluid", "FluidOps.sym_gradient"),
    ("fluid.stress_divergence", "sprayflow.fluid", "FluidOps.stress_divergence_of"),
    ("fluid.convective", "sprayflow.fluid", "FluidOps.convective"),
    ("fluid.project", "sprayflow.fluid", "FluidOps.project"),
    ("snapshots.write_snapshot", "sprayflow.snapshots", "write_snapshot"),
)

STEP_SPAN = "coupling.coupled_step"
SCENARIO_SPAN = "run.run_scenario"

# metric -> (span, scope, quantity, unit).  Scope "step" is a median over
# steps of the per-step sum; scope "scenario" a median over scenarios.
LAYER_METRICS = {
    "kinetic.deposit_ms": ("kinetic.deposit", "step", "total", "ms"),
    "kinetic.advance_ms": ("kinetic.advance", "step", "total", "ms"),
    "kinetic.reflect_ms": ("kinetic.reflect", "step", "total", "ms"),
    "kinetic.drag_dissipation_ms": ("kinetic.drag_dissipation_exact", "step", "total", "ms"),
    "kinetic.interpolate_velocity_ms": ("kinetic.interpolate_velocity", "step", "total", "ms"),
    "kinetic.interpolate_velocity_calls": ("kinetic.interpolate_velocity", "step", "calls", "count"),
    "coupling.drag_force_ms": ("coupling.drag_force", "step", "total", "ms"),
    "coupling.exchange_audit_ms": ("coupling.exchange_audit", "step", "total", "ms"),
    "coupling.step_self_ms": ("coupling.coupled_step", "step", "self", "ms"),
    "fluid.fluid_step_ms": ("fluid.fluid_step", "step", "total", "ms"),
    "fluid.fluid_step_self_ms": ("fluid.fluid_step", "step", "self", "ms"),
    "fluid.cfl_limit_ms": ("fluid.cfl_limit", "step", "total", "ms"),
    "fluid.convective_ms": ("fluid.convective", "step", "total", "ms"),
    "fluid.stress_divergence_ms": ("fluid.stress_divergence", "step", "total", "ms"),
    "fluid.project_ms": ("fluid.project", "step", "total", "ms"),
    "fluid.sym_gradient_ms": ("fluid.sym_gradient", "step", "total", "ms"),
    "fluid.sym_gradient_calls": ("fluid.sym_gradient", "step", "calls", "count"),
    "rheology.eval_packed_ms": ("rheology.eval_packed", "step", "total", "ms"),
    "fluid.ops_build_s": ("fluid.ops_build", "scenario", "total", "s"),
    "rheology.certify_monotone_s": ("rheology.certify_monotone", "scenario", "total", "s"),
    "rheology.certify_coercive_s": ("rheology.certify_coercive", "scenario", "total", "s"),
    "exponent.validate_s": ("exponent.validate", "scenario", "total", "s"),
    "exponent.build_covering_s": ("exponent.build_covering", "scenario", "total", "s"),
    "run.certify_s": ("run.certify", "scenario", "total", "s"),
    "run.build_scene_s": ("run.build_scene", "scenario", "total", "s"),
    "snapshots.write_snapshot_ms": ("snapshots.write_snapshot", "scenario", "total", "ms"),
    "coupling.ledger_write_ms": ("coupling.ledger_write", "scenario", "total", "ms"),
}

_SCALE = {"ms": 1e3, "s": 1.0, "count": 1.0}


class Tracer:
    """Install wrappers around ``targets`` and keep their spans in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.missing: list[str] = []
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        undo = []
        self.missing = []
        try:
            for name, module_name, path in self.targets:
                try:
                    module = importlib.import_module(module_name)
                    owner_name, _, attr = path.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name else module
                    original = owner.__dict__[attr]
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, original)
                owners = [owner] if owner_name else [
                    mod for key, mod in sorted(sys.modules.items())
                    if key == "sprayflow" or key.startswith("sprayflow.")
                ]
                for holder in owners:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                            undo.append((holder, key, original))
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer medians, as {metric: (value, unit)}; missing spans read 0."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        step_of = [-1] * n
        scenario_of = [-1] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += dur[i]
                step_of[i] = step_of[p]
                scenario_of[i] = scenario_of[p]
            if self.names[i] == STEP_SPAN:
                step_of[i] = i
            elif self.names[i] == SCENARIO_SPAN:
                scenario_of[i] = i
        groups = {
            "step": [i for i in range(n) if self.names[i] == STEP_SPAN],
            "scenario": [i for i in range(n) if self.names[i] == SCENARIO_SPAN],
        }
        owner = {"step": step_of, "scenario": scenario_of}
        sums = {}
        for i in range(n):
            for scope in ("step", "scenario"):
                g = owner[scope][i]
                if g < 0:
                    continue
                acc = sums.setdefault((scope, self.names[i]), {})
                total, self_time, calls = acc.get(g, (0.0, 0.0, 0))
                acc[g] = (total + dur[i], self_time + dur[i] - child[i], calls + 1)
        out = {}
        column = {"total": 0, "self": 1, "calls": 2}
        for metric, (span, scope, quantity, unit) in LAYER_METRICS.items():
            per_group = sums.get((scope, span), {})
            values = [per_group.get(g, (0.0, 0.0, 0))[column[quantity]] for g in groups[scope]]
            value = statistics.median(values) if values else 0
            out[metric] = (value * _SCALE[unit], unit)
        return out
