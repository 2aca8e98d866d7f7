"""Particle Vlasov solver for a phase-space density relaxing toward the fluid
velocity, with specular wall reflection.

Each particle carries a phase-space weight w (the measure it represents) and a
bookkeeping value fval (the pointwise density along its characteristic).  The
dynamics use only w; fval exists to check the closed-form sup-norm growth
e^{d t} with d = DIM = 2, since div_v((u - v) f) contributes +d f along
characteristics.

The per-step drag ODE dV/dt = u_k - V with u_k frozen is integrated exactly:
    V' = u_k + (V - u_k) e^{-dt}
    X' = X + u_k dt + (V - u_k)(1 - e^{-dt})
so the drag never limits the step size, and free decay (u = 0) contracts
kinetic energy by exactly e^{-2 dt} per step.

Per-particle vectors pair through <a, b>_w = sum_k w_k a_k . b_k
(ParticleEnsemble.inner), the discrete int int f a . b: the kinetic energy,
the exact drag dissipation and the coupling audit's works all read it.

The bilinear (cloud-in-cell) kernel on cell centers is one sparse operator
P, (n particles, ncells), four weights per row: interpolation is P applied to
each cell-centred velocity component, and deposition (density and momentum)
is P^T applied to w, w Vx and w Vy, so <P f, g> = <f, P^T g> holds by
construction.  The cell-center coordinate is clamped at the walls, so a
particle within half a cell of a wall gives that axis's whole weight to the
wall cell; the kernel needs at least 2 cells per axis.  Each ensemble builds
P (ParticleEnsemble.stencil) once, and a step's deposit and its three
interpolations all read it; the shared operator is what makes the drag energy
exchange antisymmetric in the coupling audit.

The initial presets are `zero` (the empty ensemble), `uniform` and
`maxwellian`; the last two sample n_particles >= 1 equal weights of positive
total mass, so a massless `uniform` or `maxwellian` is refused, not turned
into the empty ensemble.

Wall reflection finds the particles that left the domain in one pass and
mirrors only those rows, in place: advance hands it the position and
velocity arrays it has just built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .fluid import VelocityField
from .grid import DIM, Grid

_MAX_REFLECTIONS = 100


class EscapeError(RuntimeError):
    """A particle left the domain for good: it failed to return inside after
    many reflections, or its position is not finite."""


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of two (n, 2) arrays."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]


@dataclass(eq=False)
class ParticleEnsemble:
    grid: Grid
    X: np.ndarray      # (n, 2) positions, strictly interior, never written in place
    V: np.ndarray      # (n, 2) velocities
    w: np.ndarray      # (n,) nonnegative weights
    fval: np.ndarray   # (n,) carried pointwise density values

    @cached_property
    def stencil(self) -> sparse.csr_array:
        """The CIC operator P at X, built on first use; advance reflects the new
        positions before it builds the next ensemble, so X never changes.
        advance drops the cached P after its interpolation, the step's last
        read of it; a later read rebuilds the same operator."""
        return _cic(self.grid, self.X)

    @property
    def mass(self) -> float:
        return float(np.sum(self.w))

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        """The weighted pairing <a, b>_w = sum_k w_k a_k . b_k of two (n, 2)
        per-particle arrays, the discrete int int f a . b dv dx."""
        d = row_dot(a, b)
        d *= self.w
        return float(np.sum(d))

    def kinetic_energy(self) -> float:
        """(1/2) <V, V>_w."""
        return 0.5 * self.inner(self.V, self.V)


@dataclass(eq=False)
class MomentFields:
    grid: Grid
    rho: np.ndarray   # (nx, ny) number density, integral of f over v
    jx: np.ndarray    # (nx, ny) momentum density, x and y components
    jy: np.ndarray


# -- initial data -----------------------------------------------------------

def zero(grid: Grid, rng: np.random.Generator) -> ParticleEnsemble:
    """The empty ensemble."""
    empty = np.zeros((0, 2))
    return ParticleEnsemble(grid, empty, empty.copy(), np.zeros(0), np.zeros(0))


def uniform(grid: Grid, rng: np.random.Generator, n_particles: int, mass: float,
            vmax: float = 1.0) -> ParticleEnsemble:
    """Uniform in x, and in v on the box [-vmax, vmax]^2; the phase-space
    volume lx ly (2 vmax)^2, which the density divides by, must be a normal
    double."""
    X = _positions(grid, rng, n_particles, mass, vmax=vmax)
    side = 2.0 * vmax
    volume = grid.lx * grid.ly * (side * side)
    if not np.finfo(float).tiny <= volume < np.inf:
        raise ValueError(f"vmax = {vmax} on the {grid.lx} x {grid.ly} domain gives a "
                         f"phase-space volume {volume}, which is not a normal double")
    V = rng.uniform(-vmax, vmax, size=(n_particles, 2))
    density = mass / volume
    return ParticleEnsemble(grid, X, V, np.full(n_particles, mass / n_particles),
                            np.full(n_particles, density))


def maxwellian(grid: Grid, rng: np.random.Generator, n_particles: int, mass: float,
               temperature: float = 1.0) -> ParticleEnsemble:
    """Uniform in x, Gaussian in v with variance `temperature` per component."""
    X = _positions(grid, rng, n_particles, mass, temperature=temperature)
    V = rng.normal(0.0, np.sqrt(temperature), size=(n_particles, 2))
    fval = (
        mass / (grid.lx * grid.ly) / (2.0 * np.pi * temperature)
        * np.exp(-row_dot(V, V) / (2.0 * temperature))
    )
    return ParticleEnsemble(grid, X, V, np.full(n_particles, mass / n_particles), fval)


def _positions(grid: Grid, rng: np.random.Generator, n_particles: int, mass: float,
               **spread: float) -> np.ndarray:
    """(n, 2) positions uniform in the domain and inside its wall margins.
    Refuses a mass or a velocity spread (vmax, temperature) that is not
    positive and finite, and a sample with no particle: the empty ensemble
    is the `zero` preset."""
    if not (np.isfinite(mass) and mass > 0.0):
        raise ValueError(f"mass must be finite and positive, got {mass}")
    for name, value in spread.items():
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if n_particles < 1:
        raise ValueError("need at least one particle")
    X = np.column_stack([
        rng.uniform(0.0, grid.lx, size=n_particles),
        rng.uniform(0.0, grid.ly, size=n_particles),
    ])
    # off the walls, so the interior invariant holds from step 0
    _clip_inside(X, grid)
    return X


# the initial phase-space densities by name; each samples equal weights
# summing to `mass` and carries the preset's pointwise density in fval
INITIAL_PRESETS = {"zero": zero, "uniform": uniform, "maxwellian": maxwellian}


# -- shared bilinear kernel --------------------------------------------------

_INT32_MAX = np.iinfo(np.int32).max


def _cic(grid: Grid, X: np.ndarray) -> sparse.csr_array:
    """Cell-center bilinear operator P, (n, ncells): row k holds particle k's
    four weights on a raveled (nx, ny) array, in corner order 00, 10, 01, 11.

    Corner (i0 + a, j0 + b) of the lower corner cell (i0, j0) has weight
    w_ab.  The cell-center coordinate is clamped to [0, n - 1] on each axis
    before it is split into a lower index in [0, n - 2] and a fraction in
    [0, 1], so a particle within half a cell of a wall puts that axis's whole
    weight on the wall cell: each row sums to one, deposition conserves mass
    and interpolation reproduces constants.  A non-finite position raises
    EscapeError.  The indices are int32 and indptr is arange(0, 4n + 1, 4),
    so scipy takes the arrays as they are; the kernel needs at least 2 cells
    per axis.
    """
    nx, ny = grid.nx, grid.ny
    if nx < 2 or ny < 2:
        raise ValueError(f"the CIC stencil needs at least 2 cells per axis, got {nx} x {ny}")
    n = X.shape[0]
    if grid.ncells > _INT32_MAX or 4 * n > _INT32_MAX:
        raise ValueError(f"int32 CIC indices cannot hold {grid.ncells} cells and {n} particles")
    fx = X[:, 0] / grid.h
    fx -= 0.5
    fy = X[:, 1] / grid.h
    fy -= 0.5
    # before the clamp, which would turn an infinite coordinate into a wall
    finite = np.isfinite(fx) & np.isfinite(fy)
    if not finite.all():
        raise EscapeError(f"{n - np.count_nonzero(finite)} of {n} particle positions "
                          "are not finite")
    del finite
    np.clip(fx, 0.0, nx - 1, out=fx)
    k00 = fx.astype(np.int32)
    np.clip(k00, 0, nx - 2, out=k00)
    fx -= k00
    np.clip(fy, 0.0, ny - 1, out=fy)
    iy = fy.astype(np.int32)
    np.clip(iy, 0, ny - 2, out=iy)
    fy -= iy
    k00 *= ny
    k00 += iy
    del iy
    indices = np.empty((n, 4), dtype=np.int32)
    for corner, offset in enumerate((0, ny, 1, ny + 1)):
        np.add(k00, offset, out=indices[:, corner])
    del k00
    # w_ab = (a ? fx : 1 - fx) (b ? fy : 1 - fy).  1 - fy waits in w00's
    # column, and 1 - fx overwrites fx once w10 and w11 have read it, so no
    # array beyond the two fractions is allocated
    data = np.empty((n, 4))
    gy = np.subtract(1.0, fy, out=data[:, 0])
    np.multiply(fx, gy, out=data[:, 1])
    np.multiply(fx, fy, out=data[:, 3])
    gx = np.subtract(1.0, fx, out=fx)
    np.multiply(gx, fy, out=data[:, 2])
    np.multiply(gx, gy, out=data[:, 0])
    indptr = np.arange(0, 4 * n + 1, 4, dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=(n, grid.ncells))


def interpolate_velocity(vel: VelocityField, stencil: sparse.csr_array) -> np.ndarray:
    """Fluid velocity, (n, 2), at the particles of a CIC operator: P uc, P vc."""
    return np.column_stack([stencil @ c.ravel() for c in vel.cell_centered()])


def deposit(particles: ParticleEnsemble) -> MomentFields:
    """Cloud-in-cell density and momentum per cell, P^T [w, w Vx, w Vy] / h^2,
    as three contiguous (nx, ny) planes."""
    p = particles
    g = p.grid
    transpose = p.stencil.T  # CSC view of the same arrays, no copy
    inv_vol = 1.0 / g.cell_volume
    planes = []
    for values in (p.w, p.w * p.V[:, 0], p.w * p.V[:, 1]):
        plane = transpose @ values
        plane *= inv_vol
        planes.append(plane.reshape(g.nx, g.ny))
    return MomentFields(g, *planes)


# -- dynamics ----------------------------------------------------------------

def _wall_margins(grid: Grid) -> tuple[float, float]:
    """Per axis, how far a particle stays from the walls: 1e-12 of the extent."""
    return 1e-12 * grid.lx, 1e-12 * grid.ly


def _clip_inside(X: np.ndarray, grid: Grid) -> None:
    """Clip each axis of the (n, 2) positions X to [eps, L - eps], in place."""
    for axis, (ell, eps) in enumerate(zip((grid.lx, grid.ly), _wall_margins(grid))):
        np.clip(X[:, axis], eps, ell - eps, out=X[:, axis])


def reflect(X: np.ndarray, V: np.ndarray, grid: Grid) -> None:
    """Specular reflection of overshooting trajectory segments, in place.

    Each wall crossing mirrors the overshoot and flips the normal velocity
    component (v* = v - 2(v.n)n per axis); corner overshoots get both axes
    flipped.  |v| is preserved exactly.  One pass over the ensemble finds the
    rows outside [eps, L - eps] on either axis; only those rows of X and V
    are mirrored and nudged, and every other row is left as it is.
    """
    extents = (grid.lx, grid.ly)
    eps = _wall_margins(grid)
    x, y = X[:, 0], X[:, 1]
    rows = np.flatnonzero(
        (x < eps[0]) | (x > extents[0] - eps[0]) | (y < eps[1]) | (y > extents[1] - eps[1])
    )
    Xr = X[rows]
    Vr = V[rows]
    for _ in range(_MAX_REFLECTIONS):
        outside = False
        for axis, ell in enumerate(extents):
            lo = Xr[:, axis] < 0.0
            if lo.any():
                Xr[lo, axis] = -Xr[lo, axis]
                Vr[lo, axis] = -Vr[lo, axis]
                outside = True
            hi = Xr[:, axis] > ell
            if hi.any():
                Xr[hi, axis] = 2.0 * ell - Xr[hi, axis]
                Vr[hi, axis] = -Vr[hi, axis]
                outside = True
        if not outside:
            break
    else:
        raise EscapeError(f"particle still outside after {_MAX_REFLECTIONS} reflections")
    # a segment ending on or within eps of a wall is nudged inside
    _clip_inside(Xr, grid)
    X[rows] = Xr
    V[rows] = Vr


def advance(particles: ParticleEnsemble, vel: VelocityField, dt: float) -> ParticleEnsemble:
    """One exact-drag step with the fluid velocity frozen at the start.

    The new ensemble shares the weights (mass conservation is structural);
    fval picks up the closed-form factor e^{d dt} with d = DIM.  The sums are
    formed in place, in u_k's buffer for Xn, and round as the formulas above.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    p = particles
    uk = interpolate_velocity(vel, p.stencil)
    del p.stencil  # the step's last reader of P: free it before the push's arrays
    decay = np.exp(-dt)
    rel = p.V - uk
    Vn = rel * decay
    Vn += uk
    Xn = np.add(np.multiply(uk, dt, out=uk), p.X, out=uk)
    Xn += np.multiply(rel, 1.0 - decay, out=rel)
    reflect(Xn, Vn, p.grid)
    return ParticleEnsemble(p.grid, Xn, Vn, p.w, p.fval * np.exp(DIM * dt))


def drag_dissipation_exact(particles: ParticleEnsemble, vel: VelocityField, dt: float) -> float:
    """Closed-form integral of sum w |u_k - V(t)|^2 over one frozen-u step.

    |V(t) - u_k| = |V - u_k| e^{-t}, so the integral is
    sum w |u_k - V|^2 (1 - e^{-2 dt}) / 2.
    """
    p = particles
    uk = interpolate_velocity(vel, p.stencil)
    rel = p.V - uk
    return p.inner(rel, rel) * (1.0 - np.exp(-2.0 * dt)) / 2.0
