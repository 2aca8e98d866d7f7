"""Scenario configuration: INI files with typed, validated sections.

A scenario pins everything a run needs — mesh, time horizon, exponent preset,
rheology coefficients, kinetic initial data, seed — so that a (config, seed)
pair reproduces a run byte for byte.  Module RNG streams are derived from the
scenario seed and the module name, so adding a consumer never perturbs
another module's draws.

The [domain], [run] and [rheology] keys are dataclass fields (Grid and
ScenarioConfig), each parsed by its field's type; their defaults live only in
the dataclasses.  [exponent], [kinetic] and [fluid] each name a preset
(PRESET_SECTIONS, built by build_preset alone) and set its value parameters:
the preset's signature is the one source of its keys, types and defaults, and
a key it does not take, or a required one it lacks, is a config error.
"""

from __future__ import annotations

import configparser
import dataclasses
import inspect
import zlib
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .exponent import PRESETS
from .fluid import INITIAL_VELOCITIES
from .grid import DIM, Grid
from .kinetic import INITIAL_PRESETS
from .rheology import StressLaw


class ConfigError(ValueError):
    pass


def module_rng(seed: int, module: str) -> np.random.Generator:
    """Independent per-module stream: seed sequence (seed, crc32(name))."""
    return np.random.default_rng([seed, zlib.crc32(module.encode())])


@dataclass(frozen=True)
class PresetSpec:
    """A preset section: the preset's name and the value parameters it is given."""
    preset: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class _PresetSection:
    key: str          # the key that names the preset
    default: str      # the preset when that key is absent
    builders: dict    # preset name -> builder
    leading: int      # arguments each builder takes before its value parameters


PRESET_SECTIONS = {
    "exponent": _PresetSection("preset", "constant", PRESETS, 2),       # (grid, t_end)
    "kinetic": _PresetSection("preset", "zero", INITIAL_PRESETS, 2),    # (grid, rng)
    "fluid": _PresetSection("initial", "rest", INITIAL_VELOCITIES, 1),  # (grid,)
}


def preset_parameters(section: str, name: str) -> dict[str, str]:
    """The value parameters of a section's preset, in signature order, each
    with its annotation: the builder's parameters after the leading ones."""
    sec = PRESET_SECTIONS[section]
    params = list(inspect.signature(sec.builders[name]).parameters.values())
    return {p.name: p.annotation for p in params[sec.leading:]}


def build_preset(section: str, spec: PresetSpec, *leading):
    """The section's preset built on its leading arguments (PRESET_SECTIONS),
    or ConfigError for an unknown preset, a key it does not take or lacks,
    or a value it refuses (a switch time outside (0, t_end), a nan or inf
    exponent).  The keys bind to the builder's signature only once it raises
    a TypeError; one raised inside a builder whose keys bind is a bug."""
    builders = PRESET_SECTIONS[section].builders
    try:
        if spec.preset not in builders:
            raise ValueError(f"unknown preset; expected one of {', '.join(builders)}")
        try:
            return builders[spec.preset](*leading, **spec.params)
        except TypeError:
            try:
                inspect.signature(builders[spec.preset]).bind(*leading, **spec.params)
            except TypeError as exc:
                raise ValueError(exc) from exc
            raise
    except ValueError as exc:
        raise ConfigError(f"[{section}] preset {spec.preset!r}: {exc}") from exc


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    grid: Grid
    t_end: float
    dt: float
    seed: int = 0
    nu0: float = 1.0
    nu1: float = 0.0
    theta: float = 0.0
    exponent: PresetSpec
    kinetic: PresetSpec
    fluid: PresetSpec
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
        if not np.isfinite(self.t_end / self.dt):
            raise ConfigError(f"t_end / dt = {self.t_end / self.dt} is not a finite step "
                              f"count (t_end = {self.t_end}, dt = {self.dt})")
        if not self._on_step_grid(self.t_end):
            n_steps = round(self.t_end / self.dt)
            raise ConfigError(
                f"dt = {self.dt} does not divide t_end = {self.t_end}: "
                f"{n_steps} steps end at t = {n_steps * self.dt}"
            )
        kin = self.kinetic
        if "n_particles" in kin.params:  # the trial samples at most one particle
            n = kin.params["n_particles"]
            if not isinstance(n, (int, np.integer)):
                raise ConfigError(f"[kinetic] n_particles must be an integer, got {n!r}")
            kin = PresetSpec(kin.preset, {**kin.params, "n_particles": min(n, 1)})
        build_preset("kinetic", kin, self.grid, np.random.default_rng(0))
        build_preset("fluid", self.fluid, Grid(1, 1))
        trial = build_preset("exponent", self.exponent, Grid(1, 1), self.t_end)
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
}

# per preset section, every value key of its presets with the annotation it
# is parsed by; no two presets of a section annotate a key differently
_PRESET_KEYS = {
    section: {k: t for name in sec.builders for k, t in preset_parameters(section, name).items()}
    for section, sec in PRESET_SECTIONS.items()
}

# every key load_config reads, per section; anything else is a config error
_SECTION_KEYS = {name: set(fields) for name, fields in _SECTION_FIELDS.items()}
_SECTION_KEYS.update({section: {PRESET_SECTIONS[section].key, *keys}
                      for section, keys in _PRESET_KEYS.items()})


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


def _read_preset(cp: configparser.ConfigParser, name: str) -> PresetSpec:
    """Preset section `name`: the preset its key names (or the default one)
    and the other keys, each parsed by its preset parameter's annotation;
    the trial build in ScenarioConfig refuses what the preset cannot take."""
    sec = PRESET_SECTIONS[name]
    values = dict(cp[name]) if cp.has_section(name) else {}
    preset = values.pop(sec.key, sec.default)
    return PresetSpec(preset, {k: _PARSERS[_PRESET_KEYS[name][k]](v) for k, v in values.items()})


def load_config(path) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")
    _check_known_keys(cp, path)
    try:
        return ScenarioConfig(
            grid=Grid(**_read_section(cp, "domain")),
            **_read_section(cp, "run"),
            **_read_section(cp, "rheology"),
            **{name: _read_preset(cp, name) for name in PRESET_SECTIONS},
        )
    except ConfigError:
        raise
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
