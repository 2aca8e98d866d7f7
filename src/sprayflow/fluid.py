"""Incompressible momentum solver on a staggered (MAC) grid with no-slip walls.

Layout (nx x ny cells, spacing h):
    u[i, j]  x-face,  x = i h,        y = (j+1/2) h,   shape (nx+1, ny)
    v[i, j]  y-face,  x = (i+1/2) h,  y = j h,         shape (nx, ny+1)
    cell-centered scalars / tensors: shape (nx, ny)

Wall-normal face velocities are identically zero (no-slip); tangential ghost
values mirror through the wall (u = 0 on the boundary).

Three structural identities are engineered to hold to machine precision:

* the convective term is the flux-divergence form minus half the velocity
  times the interpolated cell divergence, which makes <conv(u), u> vanish
  identically (skew symmetry, no div-free requirement);
* the stress divergence is defined as minus the exact adjoint of the
  cell-centered symmetric gradient, so <-div S, u> = sum S:Du h^2 is a matrix
  transpose identity, not a discretization accident;
* the Leray projection subtracts the wall-masked face gradient of a
  multiplier phi that solves the Neumann 5-point Poisson problem to roundoff:
  a type-II DCT diagonalises that operator (Schumann & Sweet 1976), so the
  solve is one forward and one inverse transform.  phi is normalised to
  zero mean.

Symmetric tensors are packed as (nx, ny, 3) = (a11, a22, a12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dctn, idctn

from .grid import Grid
from .rheology import StressLaw


class CFLViolation(RuntimeError):
    """dt exceeds the stability bound; the step is refused."""


class BlowUp(RuntimeError):
    """Non-finite values appeared in the velocity field."""


@dataclass
class VelocityField:
    grid: Grid
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)

    @classmethod
    def zeros(cls, grid: Grid) -> "VelocityField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

    def copy(self) -> "VelocityField":
        return VelocityField(self.grid, self.u.copy(), self.v.copy())

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.v.ravel()])

    @classmethod
    def from_vector(cls, grid: Grid, vec: np.ndarray) -> "VelocityField":
        nu = (grid.nx + 1) * grid.ny
        u = vec[:nu].reshape(grid.nx + 1, grid.ny)
        v = vec[nu:].reshape(grid.nx, grid.ny + 1)
        return cls(grid, u, v)

    def enforce_walls(self) -> None:
        self.u[0, :] = 0.0
        self.u[-1, :] = 0.0
        self.v[:, 0] = 0.0
        self.v[:, -1] = 0.0

    def energy(self) -> float:
        """Kinetic energy (1/2) sum |u|^2 h^2 over face values."""
        h2 = self.grid.cell_volume
        return 0.5 * h2 * (float(np.sum(self.u**2)) + float(np.sum(self.v**2)))

    def max_speed(self) -> float:
        m = 0.0
        if self.u.size:
            m = max(float(np.abs(self.u).max()), float(np.abs(self.v).max()))
        return m

    def cell_centered(self) -> tuple[np.ndarray, np.ndarray]:
        uc = 0.5 * (self.u[:-1, :] + self.u[1:, :])
        vc = 0.5 * (self.v[:, :-1] + self.v[:, 1:])
        return uc, vc


@dataclass
class FluidState:
    velocity: VelocityField
    time: float = 0.0
    pressure: np.ndarray | None = None  # cell-centered projection multiplier


@dataclass
class StepDiagnostics:
    energy_before: float
    energy_after: float
    stress_dissipation: float   # sum S^theta : Du h^2 dt, pre-step field
    cfl_dt: float


# -- 1-D operator factories --------------------------------------------------

def _diff(n: int, h: float) -> sp.csr_matrix:
    """(n, n+1) forward difference: faces -> cells."""
    return sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1)).tocsr() / h


def _avg(n: int) -> sp.csr_matrix:
    """(n, n+1) face-to-cell average."""
    return sp.diags([np.full(n, 0.5), np.full(n, 0.5)], [0, 1], shape=(n, n + 1)).tocsr()


def _centered_mirror(n: int, h: float) -> sp.csr_matrix:
    """(n, n) centered difference on cell centers, ghost = -first/-last value
    (mirror through a wall where the tangential velocity vanishes)."""
    m = sp.lil_matrix((n, n))
    for j in range(n):
        if j == 0:
            m[0, 0] = 0.5 / h
            m[0, 1] = 0.5 / h
        elif j == n - 1:
            m[n - 1, n - 2] = -0.5 / h
            m[n - 1, n - 1] = -0.5 / h
        else:
            m[j, j - 1] = -0.5 / h
            m[j, j + 1] = 0.5 / h
    return m.tocsr()


class FluidOps:
    """Per-mesh operators: sparse sym-gradient and its adjoint, DCT projection."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nx, ny, h = grid.nx, grid.ny, grid.h
        iu = sp.identity(ny, format="csr")
        iv = sp.identity(nx, format="csr")

        # symmetric gradient G: (u, v) faces -> packed (a11, a22, a12) cells
        a11_u = sp.kron(_diff(nx, h), iu, format="csr")
        a22_v = sp.kron(iv, _diff(ny, h), format="csr")
        a12_u = 0.5 * sp.kron(_avg(nx), _centered_mirror(ny, h), format="csr")
        a12_v = 0.5 * sp.kron(_centered_mirror(nx, h), _avg(ny), format="csr")
        nu = (nx + 1) * ny
        nv = nx * (ny + 1)
        zero_u = sp.csr_matrix((nx * ny, nu))
        zero_v = sp.csr_matrix((nx * ny, nv))
        self._G = sp.bmat(
            [[a11_u, zero_v], [zero_u, a22_v], [a12_u, a12_v]], format="csr"
        )
        self._Gt = self._G.T.tocsr()

        # the projection's operator -div grad (wall faces masked) is the
        # Neumann 5-point Laplacian, diagonal in the type-II DCT basis;
        # the constant mode gets 1/inf = 0, so phi has zero mean
        lam_x = 2.0 * (1.0 - np.cos(np.pi * np.arange(nx) / nx)) / h**2
        lam_y = 2.0 * (1.0 - np.cos(np.pi * np.arange(ny) / ny)) / h**2
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = np.inf
        self._inv_lam = 1.0 / lam

    # -- differential operators ---------------------------------------------

    def sym_gradient(self, vel: VelocityField) -> np.ndarray:
        """Cell-centered (grad u + grad u^T)/2, packed (nx, ny, 3)."""
        g = self._G @ vel.as_vector()
        nx, ny = self.grid.nx, self.grid.ny
        return np.moveaxis(g.reshape(3, nx, ny), 0, -1)

    def divergence(self, vel: VelocityField) -> np.ndarray:
        """Cell-centered divergence of face velocities, shape (nx, ny)."""
        h = self.grid.h
        return (vel.u[1:, :] - vel.u[:-1, :]) / h + (vel.v[:, 1:] - vel.v[:, :-1]) / h

    def gradient(self, phi: np.ndarray) -> VelocityField:
        """Face gradient of a cell scalar; wall-normal faces are zero."""
        h = self.grid.h
        out = VelocityField.zeros(self.grid)
        out.u[1:-1, :] = (phi[1:, :] - phi[:-1, :]) / h
        out.v[:, 1:-1] = (phi[:, 1:] - phi[:, :-1]) / h
        return out

    def stress_divergence_of(self, stress_packed: np.ndarray) -> VelocityField:
        """Face-centered div of a packed cell tensor, exact adjoint of sym_gradient."""
        weighted = stress_packed * np.array([1.0, 1.0, 2.0])
        flat = np.moveaxis(weighted, -1, 0).ravel()
        out = VelocityField.from_vector(self.grid, -(self._Gt @ flat))
        out.u[0, :] = out.u[-1, :] = 0.0
        out.v[:, 0] = out.v[:, -1] = 0.0
        return out

    def stress_divergence(self, vel: VelocityField, law: StressLaw, t: float) -> VelocityField:
        s = law.exponent.slab_at(t).values
        du = self.sym_gradient(vel)
        return self.stress_divergence_of(law.eval_packed(s, du))

    def convective(self, vel: VelocityField) -> VelocityField:
        """Skew-symmetric transport term, <conv(u), u> = 0 identically."""
        nx, ny, h = self.grid.nx, self.grid.ny, self.grid.h
        u, v = vel.u, vel.v
        uc, vc = vel.cell_centered()
        divc = self.divergence(vel)
        out = VelocityField.zeros(self.grid)

        # u-component on interior x-faces i = 1 .. nx-1
        fx = uc * uc                                       # (nx, ny) at centers
        vn = 0.5 * (v[:-1, :] + v[1:, :])                  # (nx-1, ny+1) at nodes i=1..nx-1
        un = np.zeros_like(vn)
        un[:, 1:-1] = 0.5 * (u[1:-1, :-1] + u[1:-1, 1:])   # wall rows stay 0: vn = 0 there
        fy = vn * un
        conv_u = (fx[1:, :] - fx[:-1, :]) / h + (fy[:, 1:] - fy[:, :-1]) / h
        dface_u = 0.5 * (divc[:-1, :] + divc[1:, :])
        out.u[1:-1, :] = conv_u - 0.5 * u[1:-1, :] * dface_u

        # v-component on interior y-faces j = 1 .. ny-1
        gy = vc * vc
        un2 = 0.5 * (u[:, :-1] + u[:, 1:])                 # (nx+1, ny-1) at nodes j=1..ny-1
        vn2 = np.zeros_like(un2)
        vn2[1:-1, :] = 0.5 * (v[:-1, 1:-1] + v[1:, 1:-1])
        gx = un2 * vn2
        conv_v = (gy[:, 1:] - gy[:, :-1]) / h + (gx[1:, :] - gx[:-1, :]) / h
        dface_v = 0.5 * (divc[:, :-1] + divc[:, 1:])
        out.v[:, 1:-1] = conv_v - 0.5 * v[:, 1:-1] * dface_v
        return out

    # -- projection ----------------------------------------------------------

    def project(self, vel: VelocityField) -> tuple[VelocityField, np.ndarray]:
        """Discrete Leray projection; returns (div-free field, multiplier phi).

        phi solves the Neumann problem lap phi = div u by one DCT-II
        diagonal solve, and the field returned is u - grad phi.  phi is
        normalised to zero mean; versions that pinned phi[0, 0] = 0 instead
        wrote pressure snapshots (p_*.vkf) that differ by a constant.
        """
        rhs = -self.divergence(vel)
        phi = idctn(dctn(rhs, type=2, norm="ortho") * self._inv_lam, type=2, norm="ortho")
        grad = self.gradient(phi)
        out = VelocityField(self.grid, vel.u - grad.u, vel.v - grad.v)
        out.enforce_walls()
        return out, phi

    # -- time stepping -------------------------------------------------------

    def cfl_limit(self, vel: VelocityField, law: StressLaw, t: float) -> float:
        h = self.grid.h
        du = self.sym_gradient(vel)
        mag = np.sqrt(du[..., 0] ** 2 + du[..., 1] ** 2 + 2.0 * du[..., 2] ** 2)
        mmax = float(mag.max()) if mag.size else 0.0
        smax = law.s_max
        s = law.exponent.slab_at(t).values
        power = mmax ** (smax - 2.0) if mmax > 0 else (1.0 if smax == 2.0 else 0.0)
        nu_eff = law.nu0 + (law.nu1 + law.theta * smax) * max(power, mmax ** (float(np.max(s)) - 2.0) if mmax > 0 else 0.0)
        dt_diff = self.grid.h**2 / (2.0 * nu_eff) if nu_eff > 0 else np.inf
        speed = vel.max_speed()
        dt_conv = h / speed if speed > 0 else np.inf
        return float(min(dt_diff, dt_conv))


def fluid_step(
    ops: FluidOps,
    state: FluidState,
    law: StressLaw,
    dt: float,
    drag: VelocityField | None = None,
    forcing: VelocityField | None = None,
    cfl_factor: float = 1.0,
) -> tuple[FluidState, StepDiagnostics]:
    """One explicit step u* = u + dt (-conv + div S^theta + drag + forcing),
    then Leray projection.  Refuses the step on CFL violation; raises BlowUp
    on non-finite values."""
    vel = state.velocity
    if not (np.all(np.isfinite(vel.u)) and np.all(np.isfinite(vel.v))):
        raise BlowUp(f"non-finite velocity at t = {state.time}")
    limit = ops.cfl_limit(vel, law, state.time) * cfl_factor
    if dt > limit:
        raise CFLViolation(f"dt = {dt} exceeds CFL bound {limit}")

    s = law.exponent.slab_at(state.time).values
    du = ops.sym_gradient(vel)
    stress = law.eval_packed(s, du)
    sdiv = ops.stress_divergence_of(stress)
    conv = ops.convective(vel)

    h2 = ops.grid.cell_volume
    d_stress = float(np.sum(stress * du * np.array([1.0, 1.0, 2.0]))) * h2 * dt

    rhs_u = -conv.u + sdiv.u
    rhs_v = -conv.v + sdiv.v
    if drag is not None:
        rhs_u = rhs_u + drag.u
        rhs_v = rhs_v + drag.v
    if forcing is not None:
        rhs_u = rhs_u + forcing.u
        rhs_v = rhs_v + forcing.v

    star = VelocityField(ops.grid, vel.u + dt * rhs_u, vel.v + dt * rhs_v)
    star.enforce_walls()
    new_vel, phi = ops.project(star)
    if not (np.all(np.isfinite(new_vel.u)) and np.all(np.isfinite(new_vel.v))):
        raise BlowUp(f"non-finite velocity after step at t = {state.time}")

    diag = StepDiagnostics(
        energy_before=vel.energy(),
        energy_after=new_vel.energy(),
        stress_dissipation=d_stress,
        cfl_dt=limit,
    )
    return FluidState(new_vel, state.time + dt, phi / dt), diag


def stream_function_field(grid: Grid, psi) -> VelocityField:
    """Divergence-free field u = (d psi/dy, -d psi/dx) sampled on faces.

    psi is a callable (x, y) -> scalar; derivatives are exact discrete
    differences of psi at cell corners, so the result is discretely
    divergence-free to roundoff.
    """
    h = grid.h
    xn = np.arange(grid.nx + 1) * h
    yn = np.arange(grid.ny + 1) * h
    px, py = np.meshgrid(xn, yn, indexing="ij")
    psin = psi(px, py)  # (nx+1, ny+1) corner values
    out = VelocityField.zeros(grid)
    out.u = (psin[:, 1:] - psin[:, :-1]) / h
    out.v = -(psin[1:, :] - psin[:-1, :]) / h
    out.enforce_walls()
    return out
