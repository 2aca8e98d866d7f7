"""Workload inputs: one scenario INI per (workload, seed).

The INI text is a pure function of its arguments, so the same seed gives a
byte-identical file.  The seed goes into ``[run] seed``, which draws the
particle sample; the physics is fixed per workload.  Output settings are left
out because the harness always passes its own output directory.
"""

from __future__ import annotations


def _acceptance(seed: int) -> dict:
    """configs/acceptance.ini as shipped, with the given seed and no output keys."""
    return {
        "domain": {"nx": 64, "ny": 64, "lx": 1.0, "ly": 1.0},
        "run": {"t_end": 1.0, "dt": 0.002, "seed": seed, "output_every": 0},
        "exponent": {"preset": "sinusoidal", "base": 2.2, "amplitude": 0.15},
        "rheology": {"nu0": 0.05, "nu1": 0.005, "theta": 0.0},
        "kinetic": {"preset": "uniform", "n_particles": 4096, "mass": 0.05, "vmax": 0.5},
        "fluid": {"initial": "stream_bump", "amplitude": 0.1},
    }


def _particle_bound(seed: int) -> dict:
    sections = _acceptance(seed)
    sections["run"]["t_end"] = 0.08            # 40 steps
    sections["kinetic"]["n_particles"] = 65536  # 16 per cell
    return sections


def _fluid_bound(seed: int) -> dict:
    sections = _acceptance(seed)
    sections["domain"].update(nx=256, ny=256)
    # the CFL bound is 1.37e-4 at 256^2 and stays there over the run
    sections["run"].update(t_end=0.005, dt=0.0001)  # 50 steps
    return sections


WORKLOADS = {
    "particle_bound": _particle_bound,
    "fluid_bound": _fluid_bound,
    "acceptance": _acceptance,
}


def generate_ini(workload: str, seed: int) -> str:
    """Scenario INI text for a workload; raises KeyError for an unknown name."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    sections = WORKLOADS[workload](seed)
    lines = [f"# perfbench workload {workload}, seed {seed}"]
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in keys.items())
    return "\n".join(lines) + "\n"
