"""Scenario configuration: INI files with typed, validated sections.

A scenario pins everything a run needs — mesh, time horizon, exponent preset,
rheology coefficients, kinetic initial data, seed — so that a (config, seed)
pair reproduces a run byte for byte.  Module RNG streams are derived from the
scenario seed and the module name, so adding a consumer never perturbs
another module's draws.
"""

from __future__ import annotations

import configparser
import zlib
from dataclasses import dataclass, field

import numpy as np

from .exponent import ExponentField, PRESETS, validate
from .fluid import INITIAL_VELOCITIES
from .grid import Grid
from .kinetic import INITIAL_PRESETS
from .rheology import StressLaw


class ConfigError(ValueError):
    pass


def module_rng(seed: int, module: str) -> np.random.Generator:
    """Independent per-module stream: seed sequence (seed, crc32(name))."""
    return np.random.default_rng([seed, zlib.crc32(module.encode())])


@dataclass(frozen=True)
class ExponentSpec:
    preset: str
    params: dict = field(default_factory=dict)

    def check(self, t_end: float, d: int = 2) -> ExponentField:
        """The preset built on a one-cell mesh, or ConfigError if it cannot be.

        A key the preset does not take, a key it needs and lacks, a value it
        refuses (a switch time outside (0, t_end)) or a value validate()
        refuses (nan, inf) is a config error here, not an exception from
        build() or validate().
        """
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown exponent preset: {self.preset!r}")
        try:
            trial = self.build(Grid(1, 1), t_end, d=d)
            validate(trial)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[exponent] preset {self.preset!r}: {exc}") from exc
        return trial

    def build(self, grid: Grid, t_end: float, d: int = 2) -> ExponentField:
        return PRESETS[self.preset](grid, t_end, d=d, **self.params)


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


@dataclass(frozen=True)
class ScenarioConfig:
    grid: Grid
    t_end: float
    dt: float
    seed: int
    nu0: float
    nu1: float
    theta: float
    exponent: ExponentSpec
    kinetic: KineticSpec
    fluid: FluidSpec
    cfl_factor: float = 1.0
    output_every: int = 0        # 0 = final state only
    output_dir: str = "out"
    d: int = 2

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
        n_steps = round(self.t_end / self.dt)
        if abs(n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ConfigError(
                f"dt = {self.dt} does not divide t_end = {self.t_end}: "
                f"{n_steps} steps end at t = {n_steps * self.dt}"
            )
        kin = self.kinetic
        if kin.preset not in INITIAL_PRESETS:
            raise ConfigError(f"unknown [kinetic] preset {kin.preset!r}, "
                              f"expected one of {', '.join(INITIAL_PRESETS)}")
        if kin.preset != "zero" and kin.mass != 0.0 and kin.n_particles < 1:
            raise ConfigError(f"[kinetic] preset {kin.preset!r} with mass {kin.mass} "
                              "needs n_particles >= 1")
        if self.fluid.initial not in INITIAL_VELOCITIES:
            raise ConfigError(f"unknown [fluid] initial preset {self.fluid.initial!r}, "
                              f"expected one of {', '.join(INITIAL_VELOCITIES)}")
        trial = self.exponent.check(self.t_end, d=self.d)
        try:
            StressLaw(self.nu0, self.nu1, trial, self.theta)
        except ValueError as exc:
            raise ConfigError(f"[rheology] {exc}") from exc


_EXP_FLOAT_KEYS = {
    "value", "base", "amplitude", "switch_time",
    "value_before", "base_after", "amplitude_after",
}

# every key load_config reads, per section; anything else is a config error
_SECTION_KEYS = {
    "domain": {"nx", "ny", "lx", "ly"},
    "run": {"t_end", "dt", "seed", "cfl_factor", "output_every", "output_dir"},
    "exponent": {"preset"} | _EXP_FLOAT_KEYS,
    "rheology": {"nu0", "nu1", "theta"},
    "kinetic": {"preset", "n_particles", "mass", "vmax", "temperature"},
    "fluid": {"initial", "amplitude"},
}


def _check_known_keys(cp: configparser.ConfigParser, path) -> None:
    for name in cp.sections():
        if name not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{name}] in {path}")
        unknown = sorted(set(cp[name]) - _SECTION_KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key(s) {', '.join(unknown)} in [{name}] of {path}")


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
        dom = cp["domain"]
        grid = Grid(
            nx=dom.getint("nx"),
            ny=dom.getint("ny"),
            lx=dom.getfloat("lx", 1.0),
            ly=dom.getfloat("ly", 1.0),
        )
        run = cp["run"]
        exp_sec = cp["exponent"] if cp.has_section("exponent") else {}
        preset = exp_sec.get("preset", "constant") if exp_sec else "constant"
        params = {
            k: float(v) for k, v in dict(exp_sec).items() if k in _EXP_FLOAT_KEYS
        }
        rheo = cp["rheology"] if cp.has_section("rheology") else {}
        kin = cp["kinetic"] if cp.has_section("kinetic") else None
        flu = cp["fluid"] if cp.has_section("fluid") else None
        cfg = ScenarioConfig(
            grid=grid,
            t_end=run.getfloat("t_end"),
            dt=run.getfloat("dt"),
            seed=run.getint("seed", 0),
            cfl_factor=run.getfloat("cfl_factor", 1.0),
            output_every=run.getint("output_every", 0),
            output_dir=run.get("output_dir", "out"),
            nu0=float(rheo.get("nu0", 1.0)) if rheo else 1.0,
            nu1=float(rheo.get("nu1", 0.0)) if rheo else 0.0,
            theta=float(rheo.get("theta", 0.0)) if rheo else 0.0,
            exponent=ExponentSpec(preset, params),
            kinetic=KineticSpec(
                preset=kin.get("preset", "zero"),
                n_particles=kin.getint("n_particles", 0),
                mass=kin.getfloat("mass", 0.0),
                vmax=kin.getfloat("vmax", 1.0),
                temperature=kin.getfloat("temperature", 1.0),
            ) if kin else KineticSpec(),
            fluid=FluidSpec(
                initial=flu.get("initial", "rest"),
                amplitude=flu.getfloat("amplitude", 0.0),
            ) if flu else FluidSpec(),
        )
    except ConfigError:
        raise
    except (KeyError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    return cfg
