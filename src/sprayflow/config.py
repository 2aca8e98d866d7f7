"""Scenario configuration: INI files with typed, validated sections.

A scenario pins everything a run needs — mesh, time horizon, exponent preset,
rheology coefficients, kinetic initial data, seed — so that a (config, seed)
pair reproduces a run byte for byte.  Module RNG streams are derived from the
scenario seed and the module name, so adding a consumer never perturbs
another module's draws.

Each section's keys are dataclass fields ([domain] Grid, [run] and [rheology]
ScenarioConfig, [kinetic] KineticSpec, [fluid] FluidSpec) or, in [exponent],
the preset's value parameters.  Defaults live only in the dataclasses:
load_config passes the keys a file sets, each parsed by its field's type.
"""

from __future__ import annotations

import configparser
import dataclasses
import zlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .exponent import ExponentField, PRESETS, preset_parameters, validate
from .fluid import initial_velocity
from .grid import DIM, Grid
from .kinetic import sample_initial
from .rheology import StressLaw


class ConfigError(ValueError):
    pass


def module_rng(seed: int, module: str) -> np.random.Generator:
    """Independent per-module stream: seed sequence (seed, crc32(name))."""
    return np.random.default_rng([seed, zlib.crc32(module.encode())])


@dataclass(frozen=True)
class ExponentSpec:
    preset: str = "constant"
    params: dict = field(default_factory=dict)

    def check(self, t_end: float) -> ExponentField:
        """The preset built on a one-cell mesh, or ConfigError if it cannot be.

        A key the preset does not take, a key it needs and lacks, a value it
        refuses (a switch time outside (0, t_end)) or a value validate()
        refuses (nan, inf) is a config error here, not an exception from
        build() or validate().
        """
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown exponent preset: {self.preset!r}")
        try:
            trial = self.build(Grid(1, 1), t_end)
            validate(trial)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[exponent] preset {self.preset!r}: {exc}") from exc
        return trial

    def build(self, grid: Grid, t_end: float) -> ExponentField:
        return PRESETS[self.preset](grid, t_end, **self.params)


@dataclass(frozen=True)
class KineticSpec:
    preset: str = "zero"
    n_particles: int = 0
    mass: float = 0.0
    vmax: float = 1.0
    temperature: float = 1.0


@dataclass(frozen=True)
class FluidSpec:
    initial: str = "rest"        # one of fluid.INITIAL_VELOCITIES
    amplitude: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    grid: Grid
    t_end: float
    dt: float
    seed: int = 0
    nu0: float = 1.0
    nu1: float = 0.0
    theta: float = 0.0
    exponent: ExponentSpec
    kinetic: KineticSpec
    fluid: FluidSpec
    cfl_factor: float = 1.0
    output_every: int = 0        # 0 = final state only
    output_dir: str = "out"
    d: ClassVar[int] = DIM

    def __post_init__(self):
        for name in ("t_end", "dt", "nu0", "nu1", "theta", "cfl_factor"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
        if self.grid.nx < 8 or self.grid.ny < 8:
            raise ConfigError("mesh must be at least 8 cells per axis")
        if self.dt <= 0 or self.t_end <= 0:
            raise ConfigError("dt and t_end must be positive")
        if self.cfl_factor <= 0:
            raise ConfigError(f"cfl_factor must be positive, got {self.cfl_factor}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.output_every < 0:
            raise ConfigError(f"output_every must be nonnegative, got {self.output_every}")
        if not self._on_step_grid(self.t_end):
            n_steps = round(self.t_end / self.dt)
            raise ConfigError(
                f"dt = {self.dt} does not divide t_end = {self.t_end}: "
                f"{n_steps} steps end at t = {n_steps * self.dt}"
            )
        kin = self.kinetic
        try:
            sample_initial(self.grid, kin.preset, min(kin.n_particles, 1), mass=kin.mass,
                           vmax=kin.vmax, temperature=kin.temperature)
        except ValueError as exc:
            raise ConfigError(f"[kinetic] preset {kin.preset!r}: {exc}") from exc
        try:
            initial_velocity(Grid(1, 1), self.fluid.initial, self.fluid.amplitude)
        except ValueError as exc:
            raise ConfigError(f"[fluid] {exc}") from exc
        trial = self.exponent.check(self.t_end)
        for start in trial.starts:
            if not self._on_step_grid(start):
                raise ConfigError(f"[exponent] switch at t = {start} "
                                  f"is not a multiple of dt = {self.dt}")
        try:
            StressLaw(self.nu0, self.nu1, trial, self.theta)
        except ValueError as exc:
            raise ConfigError(f"[rheology] {exc}") from exc

    def _on_step_grid(self, t: float) -> bool:
        return abs(round(t / self.dt) * self.dt - t) <= 1e-9 * self.t_end


_PARSERS = {"int": int, "float": float, "str": str}


def _fields(cls, names=None) -> dict[str, dataclasses.Field]:
    return {f.name: f for f in dataclasses.fields(cls) if names is None or f.name in names}


# the dataclass fields each section sets; their names are the section's keys
_SECTION_FIELDS = {
    "domain": _fields(Grid),
    "run": _fields(ScenarioConfig, ("t_end", "dt", "seed", "cfl_factor",
                                    "output_every", "output_dir")),
    "rheology": _fields(ScenarioConfig, ("nu0", "nu1", "theta")),
    "kinetic": _fields(KineticSpec),
    "fluid": _fields(FluidSpec),
}

# every key load_config reads, per section; anything else is a config error
_SECTION_KEYS = {name: set(fields) for name, fields in _SECTION_FIELDS.items()}
_SECTION_KEYS["exponent"] = {"preset"}.union(*map(preset_parameters, PRESETS))


def _check_known_keys(cp: configparser.ConfigParser, path) -> None:
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        unknown = sorted(set(cp[name]) - _SECTION_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [{name}] of {path}")


def _read_section(cp: configparser.ConfigParser, name: str) -> dict:
    """Section `name`'s keys parsed by their fields' types; a field with no default needs one."""
    fields = _SECTION_FIELDS[name]
    section = cp[name] if cp.has_section(name) else {}
    missing = [k for k, f in fields.items()
               if f.default is dataclasses.MISSING and k not in section]
    if missing:
        raise ConfigError(f"missing key(s) {', '.join(missing)} in [{name}]")
    return {k: _PARSERS[fields[k].type](v) for k, v in section.items()}


def load_config(path) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    _check_known_keys(cp, path)
    try:
        exp = dict(cp["exponent"]) if cp.has_section("exponent") else {}
        preset = {"preset": exp.pop("preset")} if "preset" in exp else {}
        return ScenarioConfig(
            grid=Grid(**_read_section(cp, "domain")),
            **_read_section(cp, "run"),
            **_read_section(cp, "rheology"),
            exponent=ExponentSpec(**preset, params={k: float(v) for k, v in exp.items()}),
            kinetic=KineticSpec(**_read_section(cp, "kinetic")),
            fluid=FluidSpec(**_read_section(cp, "fluid")),
        )
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
