"""Particle Vlasov solver for a phase-space density relaxing toward the fluid
velocity, with specular wall reflection.

Each particle carries a phase-space weight w (the measure it represents) and a
bookkeeping value fval (the pointwise density along its characteristic).  The
dynamics use only w; fval exists to check the closed-form sup-norm growth
e^{d t}, since div_v((u - v) f) contributes +d f along characteristics.

The per-step drag ODE dV/dt = u_k - V with u_k frozen is integrated exactly:
    V' = u_k + (V - u_k) e^{-dt}
    X' = X + u_k dt + (V - u_k)(1 - e^{-dt})
so the drag never limits the step size, and free decay (u = 0) contracts
kinetic energy by exactly e^{-2 dt} per step.

Deposition (density and momentum) and velocity interpolation share one
bilinear (cloud-in-cell) kernel on cell centers with index clamping at the
walls.  Each call builds the stencil once, as flat indices of the four corner
cells plus the x/y fractions, and every gather and scatter at those positions
reads it; the shared kernel is what makes the drag energy exchange
antisymmetric in the coupling audit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fluid import VelocityField
from .grid import Grid

_MAX_REFLECTIONS = 100


class EscapeError(RuntimeError):
    """A particle failed to return inside the domain after many reflections."""


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 2) arrays."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


@dataclass
class ParticleEnsemble:
    grid: Grid
    X: np.ndarray      # (n, 2) positions, strictly interior
    V: np.ndarray      # (n, 2) velocities
    w: np.ndarray      # (n,) nonnegative weights
    fval: np.ndarray   # (n,) carried pointwise density values

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def mass(self) -> float:
        return float(np.sum(self.w))

    def kinetic_energy(self) -> float:
        return 0.5 * float(np.sum(self.w * row_dot(self.V, self.V)))

    def copy(self) -> "ParticleEnsemble":
        return ParticleEnsemble(
            self.grid, self.X.copy(), self.V.copy(), self.w.copy(), self.fval.copy()
        )


@dataclass
class MomentFields:
    grid: Grid
    rho: np.ndarray   # (nx, ny) number density, integral of f over v
    j: np.ndarray     # (nx, ny, 2) momentum density


# -- initial data -----------------------------------------------------------

def sample_initial(
    grid: Grid,
    preset: str,
    n_particles: int,
    mass: float = 1.0,
    vmax: float = 1.0,
    temperature: float = 1.0,
    seed: int = 0,
    d: int = 2,
) -> ParticleEnsemble:
    """Equal-weight particle sample of a named initial phase-space density.

    Presets: "zero" (empty ensemble), "uniform" (box in x and v, speeds up to
    vmax per component), "maxwellian" (uniform in x, Gaussian in v).  fval
    carries the pointwise density of the preset at each sample.
    """
    if preset == "zero" or mass == 0.0:
        empty = np.zeros((0, 2))
        return ParticleEnsemble(grid, empty, empty.copy(), np.zeros(0), np.zeros(0))
    if n_particles < 1:
        raise ValueError("need at least one particle")
    rng = np.random.default_rng(seed)
    area = grid.lx * grid.ly
    X = np.column_stack([
        rng.uniform(0.0, grid.lx, size=n_particles),
        rng.uniform(0.0, grid.ly, size=n_particles),
    ])
    if preset == "uniform":
        V = rng.uniform(-vmax, vmax, size=(n_particles, 2))
        density = mass / (area * (2.0 * vmax) ** 2)
        fval = np.full(n_particles, density)
    elif preset == "maxwellian":
        V = rng.normal(0.0, np.sqrt(temperature), size=(n_particles, 2))
        fval = (
            mass / area / (2.0 * np.pi * temperature)
            * np.exp(-row_dot(V, V) / (2.0 * temperature))
        )
    else:
        raise ValueError(f"unknown initial-data preset: {preset!r}")
    w = np.full(n_particles, mass / n_particles)
    # keep samples off the walls so the interior invariant holds from step 0
    eps = 1e-12 * grid.lx
    X[:, 0] = np.clip(X[:, 0], eps, grid.lx - eps)
    X[:, 1] = np.clip(X[:, 1], eps, grid.ly - eps)
    return ParticleEnsemble(grid, X, V, w, fval)


# -- shared bilinear kernel --------------------------------------------------

def _cic(grid: Grid, X: np.ndarray):
    """Cell-center bilinear stencil: flat corner indices and x/y fractions.

    Returns (k00, k10, k01, k11, fx, fy), where k_ab indexes cell
    (i0 + a, j0 + b) of a raveled (nx, ny) array.  Indices are clamped at the
    walls, which folds the half-cell overflow back onto the boundary cell: the
    four weights still sum to one, so deposition conserves mass exactly and
    interpolation reproduces constants.  One stencil serves every gather and
    scatter at the same positions.
    """
    fx = X[:, 0] / grid.h - 0.5
    fy = X[:, 1] / grid.h - 0.5
    ix = np.floor(fx).astype(np.intp)
    iy = np.floor(fy).astype(np.intp)
    fx -= ix
    fy -= iy
    # the upper indices reuse the buffers of ix and iy, which lowers the peak
    # memory of every particle call by two (n,) arrays
    r0 = np.clip(ix, 0, grid.nx - 1) * grid.ny
    r1 = np.clip(ix + 1, 0, grid.nx - 1, out=ix) * grid.ny
    j0 = np.clip(iy, 0, grid.ny - 1)
    j1 = np.clip(iy + 1, 0, grid.ny - 1, out=iy)
    return r0 + j0, r1 + j0, r0 + j1, r1 + j1, fx, fy


def _gather(stencil, field: np.ndarray) -> np.ndarray:
    k00, k10, k01, k11, fx, fy = stencil
    f = field.ravel()
    return (
        f[k00] * (1 - fx) * (1 - fy)
        + f[k10] * fx * (1 - fy)
        + f[k01] * (1 - fx) * fy
        + f[k11] * fx * fy
    )


def _scatter(grid: Grid, stencil, values: np.ndarray) -> np.ndarray:
    k00, k10, k01, k11, fx, fy = stencil
    out = np.zeros(grid.ncells)
    np.add.at(out, k00, values * ((1 - fx) * (1 - fy)))
    np.add.at(out, k10, values * (fx * (1 - fy)))
    np.add.at(out, k01, values * ((1 - fx) * fy))
    np.add.at(out, k11, values * (fx * fy))
    return out.reshape(grid.nx, grid.ny)


def interpolate_velocity(vel: VelocityField, X: np.ndarray) -> np.ndarray:
    """Fluid velocity at particle positions via the shared bilinear kernel."""
    uc, vc = vel.cell_centered()
    stencil = _cic(vel.grid, X)
    return np.column_stack([_gather(stencil, uc), _gather(stencil, vc)])


def deposit(particles: ParticleEnsemble) -> MomentFields:
    """Cloud-in-cell density and momentum per cell, from one shared stencil."""
    p = particles
    g = p.grid
    inv_vol = 1.0 / g.cell_volume
    stencil = _cic(g, p.X)
    rho = _scatter(g, stencil, p.w) * inv_vol
    jx = _scatter(g, stencil, p.w * p.V[:, 0]) * inv_vol
    jy = _scatter(g, stencil, p.w * p.V[:, 1]) * inv_vol
    return MomentFields(g, rho, np.stack([jx, jy], axis=-1))


# -- dynamics ----------------------------------------------------------------

def reflect(X: np.ndarray, V: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Specular reflection of overshooting trajectory segments.

    Each wall crossing mirrors the overshoot and flips the normal velocity
    component (v* = v - 2(v.n)n per axis); corner overshoots get both axes
    flipped.  |v| is preserved exactly.
    """
    X = X.copy()
    V = V.copy()
    extents = (grid.lx, grid.ly)
    for _ in range(_MAX_REFLECTIONS):
        outside = False
        for axis, ell in enumerate(extents):
            lo = X[:, axis] < 0.0
            if lo.any():
                X[lo, axis] = -X[lo, axis]
                V[lo, axis] = -V[lo, axis]
                outside = True
            hi = X[:, axis] > ell
            if hi.any():
                X[hi, axis] = 2.0 * ell - X[hi, axis]
                V[hi, axis] = -V[hi, axis]
                outside = True
        if not outside:
            break
    else:
        raise EscapeError("particle still outside after 100 reflections")
    # a segment ending exactly on a wall is nudged inside (measure-zero event)
    for axis, ell in enumerate(extents):
        eps = 1e-12 * ell
        X[:, axis] = np.clip(X[:, axis], eps, ell - eps)
    return X, V


def advance(
    particles: ParticleEnsemble, vel: VelocityField | None, dt: float, d: int = 2
) -> ParticleEnsemble:
    """One exact-drag step with the fluid velocity frozen at the start.

    Weights are untouched (mass conservation is structural); fval picks up the
    closed-form factor e^{d dt}.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    p = particles
    if p.n == 0:
        return p.copy()
    if vel is None:
        uk = np.zeros_like(p.V)
    else:
        uk = interpolate_velocity(vel, p.X)
    decay = np.exp(-dt)
    rel = p.V - uk
    Vn = uk + rel * decay
    Xn = p.X + uk * dt + rel * (1.0 - decay)
    Xn, Vn = reflect(Xn, Vn, p.grid)
    return ParticleEnsemble(p.grid, Xn, Vn, p.w.copy(), p.fval * np.exp(d * dt))


def drag_dissipation_exact(particles: ParticleEnsemble, vel: VelocityField | None, dt: float) -> float:
    """Closed-form integral of sum w |u_k - V(t)|^2 over one frozen-u step.

    |V(t) - u_k| = |V - u_k| e^{-t}, so the integral is
    sum w |u_k - V|^2 (1 - e^{-2 dt}) / 2.
    """
    p = particles
    if p.n == 0:
        return 0.0
    if vel is None:
        uk = np.zeros_like(p.V)
    else:
        uk = interpolate_velocity(vel, p.X)
    rel = p.V - uk
    return float(np.sum(p.w * row_dot(rel, rel))) * (1.0 - np.exp(-2.0 * dt)) / 2.0
