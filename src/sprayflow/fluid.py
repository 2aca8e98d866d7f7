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
* the symmetric gradient is a set of slice-difference stencils (no matrix
  is stored), and the stress divergence is written out as minus its exact
  transpose, stencil by stencil, so <-div S, u> = sum S:Du h^2 holds to
  roundoff by construction, not as a discretization accident;
* the Leray projection subtracts the wall-masked face gradient of a
  multiplier phi that solves the Neumann 5-point Poisson problem to roundoff:
  a type-II DCT diagonalises that operator (Schumann & Sweet 1976), so the
  solve is one forward and one inverse transform.  phi is normalised to
  zero mean.

Symmetric tensors are packed as (nx, ny, 3) = (a11, a22, a12).

fluid_step evaluates Du, keeps its trace (the cell divergence), writes
S^theta(Du) over Du, takes the stress divergence and drops S; it reads the
stress dissipation off that divergence as -<div S, u> h^2 dt, and only then
forms the convection and builds u* in the divergence's buffers.  At
benchmark sizes a step costs the bytes it holds and moves, not flops, so the
order keeps few grid temporaries live at once: the transient peak is about
7.4 cell arrays at 256^2, reached while the convection is formed beside u*'s
buffers.  The operators write their difference temporaries into buffers
they already hold, and no buffer is kept between steps.
The step's CFL bound is h^2 / (2 g) with g the law's own secant viscosity
g^theta (StressLaw.viscosity) at max|Du|, and h over the largest face velocity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from .grid import Grid
from .rheology import StressLaw


class CFLViolation(RuntimeError):
    """dt exceeds the stability bound; the step is refused."""


class BlowUp(RuntimeError):
    """Non-finite values appeared in the velocity field."""


@dataclass(eq=False)
class VelocityField:
    grid: Grid
    u: np.ndarray  # (nx+1, ny)
    v: np.ndarray  # (nx, ny+1)

    @classmethod
    def zeros(cls, grid: Grid) -> "VelocityField":
        return cls(grid, np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)))

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
        return max(float(np.abs(self.u).max()), float(np.abs(self.v).max()))

    def cell_centered(self) -> tuple[np.ndarray, np.ndarray]:
        uc = self.u[:-1, :] + self.u[1:, :]
        uc *= 0.5
        vc = self.v[:, :-1] + self.v[:, 1:]
        vc *= 0.5
        return uc, vc


def _head(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A C-contiguous (m, n) view of the first m n values of the contiguous
    buffer buf, for a temporary that reuses a dead buffer: numpy runs
    strided 2-D operands through slower buffered loops."""
    return buf.reshape(-1)[:shape[0] * shape[1]].reshape(shape)


def _walled_pair(grid: Grid) -> VelocityField:
    """An output pair with zero wall-normal faces and an unset interior,
    which the caller writes in full."""
    out = VelocityField(grid, np.empty((grid.nx + 1, grid.ny)), np.empty((grid.nx, grid.ny + 1)))
    out.enforce_walls()
    return out


@dataclass(eq=False)
class FluidState:
    velocity: VelocityField
    time: float = 0.0
    pressure: np.ndarray | None = None  # cell-centered projection multiplier


class FluidOps:
    """Per-mesh operators: slice-stencil sym-gradient and its exact transpose,
    DCT projection."""

    def __init__(self, grid: Grid):
        self.grid = grid
        nx, ny, h = grid.nx, grid.ny, grid.h
        # the projection's operator -div grad (wall faces masked) is the
        # Neumann 5-point Laplacian, diagonal in the type-II DCT basis;
        # the constant mode gets 1/inf = 0, so phi has zero mean
        lam_x = 2.0 * (1.0 - np.cos(np.pi * np.arange(nx) / nx)) / h**2
        lam_y = 2.0 * (1.0 - np.cos(np.pi * np.arange(ny) / ny)) / h**2
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = np.inf
        self._inv_lam = np.divide(1.0, lam, out=lam)

    # -- differential operators ---------------------------------------------

    def sym_gradient(self, vel: VelocityField) -> np.ndarray:
        """Cell-centered (grad u + grad u^T)/2, packed (nx, ny, 3).

        a11, a22 are face differences; a12 = (dy uc + dx vc) / (4h) with
        uc, vc the cell-centred velocities and d the undivided centred
        difference whose ghost is minus the wall-adjacent value (the
        tangential velocity vanishes on the wall).  It is formed from the
        face sums 2 uc, 2 vc and the weight 1/(8h), which rounds to the
        same values.
        """
        h = self.grid.h
        u, v = vel.u, vel.v
        out = np.empty((3, self.grid.nx, self.grid.ny))
        a11, a22, a12 = out
        np.subtract(u[1:, :], u[:-1, :], out=a11)
        a11 /= h
        np.subtract(v[:, 1:], v[:, :-1], out=a22)
        a22 /= h
        su = u[:-1, :] + u[1:, :]
        sv = v[:, :-1] + v[:, 1:]
        np.subtract(su[:, 2:], su[:, :-2], out=a12[:, 1:-1])
        a12[:, 0] = su[:, 1] + su[:, 0]
        a12[:, -1] = -(su[:, -1] + su[:, -2])
        dsv = su[:-2, :]                   # su is dead: it takes dx sv
        np.subtract(sv[2:, :], sv[:-2, :], out=dsv)
        a12[1:-1, :] += dsv
        a12[0, :] += sv[1, :] + sv[0, :]
        a12[-1, :] -= sv[-1, :] + sv[-2, :]
        a12 *= 0.125 / h
        return np.moveaxis(out, 0, -1)

    def divergence(self, vel: VelocityField) -> np.ndarray:
        """Cell-centered divergence of face velocities, shape (nx, ny)."""
        h = self.grid.h
        div = vel.u[1:, :] - vel.u[:-1, :]
        div /= h
        dv = vel.v[:, 1:] - vel.v[:, :-1]
        dv /= h
        div += dv
        return div

    def gradient(self, phi: np.ndarray) -> VelocityField:
        """Face gradient of a cell scalar; wall-normal faces are zero."""
        h = self.grid.h
        out = _walled_pair(self.grid)
        ou, ov = out.u[1:-1, :], out.v[:, 1:-1]
        np.subtract(phi[1:, :], phi[:-1, :], out=ou)
        ou /= h
        np.subtract(phi[:, 1:], phi[:, :-1], out=ov)
        ov /= h
        return out

    def stress_divergence_of(self, stress_packed: np.ndarray) -> VelocityField:
        """Face-centered div of a packed cell tensor: minus the transpose of
        sym_gradient, with the S:Du weights (1, 1, 2) on (S11, S22, S12).

        Transpose rules, term by term: the face-to-cell difference becomes
        minus the cell-to-face difference, the odd-mirror centred difference
        becomes minus the centred difference with even (edge-replicated)
        ghosts, and the face-to-cell average becomes the cell-to-face
        average.  Wall-normal faces stay zero.  The difference terms are
        formed in the one scratch array e.
        """
        h = self.grid.h
        s11, s22, s12 = (stress_packed[..., k] for k in range(3))
        out = _walled_pair(self.grid)

        # u: (S11[i] - S11[i-1]) / h + (E[i-1] + E[i]) / (4h), E = dy S12
        e = np.empty_like(s12)
        np.subtract(s12[:, 2:], s12[:, :-2], out=e[:, 1:-1])
        e[:, 0] = s12[:, 1] - s12[:, 0]
        e[:, -1] = s12[:, -1] - s12[:, -2]
        ou = out.u[1:-1, :]
        np.add(e[:-1, :], e[1:, :], out=ou)
        ou *= 0.25 / h
        d = e[:-1, :]
        np.subtract(s11[1:, :], s11[:-1, :], out=d)
        d /= h
        ou += d

        # v: (S22[j] - S22[j-1]) / h + (F[j-1] + F[j]) / (4h), F = dx S12
        np.subtract(s12[2:, :], s12[:-2, :], out=e[1:-1, :])
        e[0, :] = s12[1, :] - s12[0, :]
        e[-1, :] = s12[-1, :] - s12[-2, :]
        ov = out.v[:, 1:-1]
        np.add(e[:, :-1], e[:, 1:], out=ov)
        ov *= 0.25 / h
        d = _head(e, ov.shape)
        np.subtract(s22[:, 1:], s22[:, :-1], out=d)
        d /= h
        ov += d
        return out

    def convective(self, vel: VelocityField, div: np.ndarray) -> VelocityField:
        """Skew-symmetric transport term, <conv(u), u> = 0 identically.

        div is the cell divergence of vel: divergence(vel), or the trace
        a11 + a22 of sym_gradient(vel), which equals it bit for bit.  It is
        scratch: convective scales it in place.  The 1/2 and 1/4 averaging
        weights are applied as one power-of-two scaling of each difference
        (dividing by 4h rather than h), which rounds to the same values as
        averaging first.  The node products' buffers un, vn take the
        differences and the face divergences after their last read.
        """
        h4 = 4.0 * self.grid.h
        u, v = vel.u, vel.v
        div *= 0.25
        out = _walled_pair(self.grid)

        # u-component on interior x-faces i = 1 .. nx-1:
        # d(uc^2)/dx + d(vn un)/dy - u (face-averaged div) / 2
        fx = u[:-1, :] + u[1:, :]                          # 2 uc at centers
        fx *= fx
        ou = out.u[1:-1, :]
        np.subtract(fx[1:, :], fx[:-1, :], out=ou)
        del fx
        ou /= h4
        fy = v[:-1, :] + v[1:, :]                          # 2 vn at nodes i=1..nx-1
        un = np.empty_like(fy)
        un[:, 0] = un[:, -1] = 0.0                         # vn = 0 on the walls
        np.add(u[1:-1, :-1], u[1:-1, 1:], out=un[:, 1:-1])
        fy *= un
        d = _head(un, ou.shape)
        np.subtract(fy[:, 1:], fy[:, :-1], out=d)          # dy
        del fy
        d /= h4
        ou += d
        np.add(div[:-1, :], div[1:, :], out=d)             # face divergence
        d *= u[1:-1, :]
        ou -= d
        del un, d

        # v-component on interior y-faces j = 1 .. ny-1
        gy = v[:, :-1] + v[:, 1:]                          # 2 vc at centers
        gy *= gy
        ov = out.v[:, 1:-1]
        np.subtract(gy[:, 1:], gy[:, :-1], out=ov)
        del gy
        ov /= h4
        gx = u[:, :-1] + u[:, 1:]                          # 2 un at nodes j=1..ny-1
        vn = np.empty_like(gx)
        vn[0, :] = vn[-1, :] = 0.0
        np.add(v[:-1, 1:-1], v[1:, 1:-1], out=vn[1:-1, :])
        gx *= vn
        d = vn[:-1, :]
        np.subtract(gx[1:, :], gx[:-1, :], out=d)          # dx
        del gx
        d /= h4
        ov += d
        np.add(div[:, :-1], div[:, 1:], out=d)
        d *= v[:, 1:-1]
        ov -= d
        return out

    # -- projection ----------------------------------------------------------

    def project(self, vel: VelocityField) -> tuple[VelocityField, np.ndarray]:
        """Discrete Leray projection; returns (div-free field, multiplier phi).

        phi solves the Neumann problem lap phi = div u by one DCT-II
        diagonal solve, and the field returned is u - grad phi.  phi is
        normalised to zero mean; versions that pinned phi[0, 0] = 0 instead
        wrote pressure snapshots (p_*.vkf) that differ by a constant.
        """
        rhs = self.divergence(vel)
        np.negative(rhs, out=rhs)
        coef = dctn(rhs, type=2, norm="ortho", overwrite_x=True)
        coef *= self._inv_lam
        phi = idctn(coef, type=2, norm="ortho", overwrite_x=True)
        out = self.gradient(phi)
        np.subtract(vel.u, out.u, out=out.u)
        np.subtract(vel.v, out.v, out=out.v)
        out.enforce_walls()
        return out, phi

    # -- time stepping -------------------------------------------------------

    def cfl_limit(self, vel: VelocityField, law: StressLaw, s: np.ndarray) -> float:
        """Largest stable dt for vel under law, with s the step's exponent
        on the mesh: h^2 / (2 g) and h / max speed, with g the law's own
        g^theta at max|Du|.  g grows with |xi| and |xi|^(e-2) is monotone in
        e, so the larger of g at the slab's two extreme exponents bounds it
        on every cell."""
        h = self.grid.h
        # |Du|^2 squared in Du's own planes, in packed_inner's order
        du = self.sym_gradient(vel)
        a11, a22, a12 = (du[..., k] for k in range(3))
        del du
        a11 *= a11
        a22 *= a22
        a11 += a22
        a12 *= a12
        a12 *= 2.0
        a11 += a12
        mmax = float(np.sqrt(a11.max()))
        del a11, a22, a12
        nu_eff = float(law.viscosity(np.array([s.min(), s.max()]), mmax).max())
        dt_diff = h**2 / (2.0 * nu_eff) if nu_eff > 0 else np.inf
        speed = vel.max_speed()
        dt_conv = h / speed if speed > 0 else np.inf
        return float(min(dt_diff, dt_conv))


def fluid_step(
    ops: FluidOps,
    state: FluidState,
    law: StressLaw,
    dt: float,
    source: VelocityField,
    cfl_factor: float = 1.0,
) -> tuple[FluidState, float]:
    """One explicit step u* = u + dt (-conv + div S^theta + source), then
    Leray projection; source is the particles' force on the fluid or a
    study's right-hand side.  Returns the new state and the step's stress
    dissipation sum S^theta:Du h^2 dt over the pre-step field, computed as
    -<div S^theta, u> h^2 dt (equal to roundoff, since the divergence is
    minus the exact transpose of Du); it evaluates no energy (the coupled
    step's ledger records those).  S^theta is written over Du, and the
    convection is formed after the stress divergence.  s is looked up
    once, in the slab at the midpoint t + dt/2 (state.time is a running sum
    of dt and may fall just short of a switch on the step grid), and serves
    both the CFL bound and the stress.  Refuses the step on CFL violation;
    raises BlowUp on non-finite values."""
    vel = state.velocity
    if not (np.all(np.isfinite(vel.u)) and np.all(np.isfinite(vel.v))):
        raise BlowUp(f"non-finite velocity at t = {state.time}")
    s = law.exponent.values_at(state.time + 0.5 * dt)
    limit = ops.cfl_limit(vel, law, s) * cfl_factor
    if dt > limit:
        raise CFLViolation(f"dt = {dt} exceeds CFL bound {limit}")

    # each grid temporary is dropped after its last reader (module docstring)
    du = ops.sym_gradient(vel)
    div = du[..., 0] + du[..., 1]             # the convection's cell divergence
    stress = law.eval_packed(s, du, out=du)   # S^theta(Du) in Du's buffer
    del du
    star = ops.stress_divergence_of(stress)
    del stress

    # sum S:Du h^2 dt as -<div S, u> h^2 dt: the divergence is minus the
    # exact transpose of Du, so the two agree to roundoff
    d_stress = -float(np.vdot(star.u, vel.u) + np.vdot(star.v, vel.v))
    d_stress *= ops.grid.cell_volume * dt
    conv = ops.convective(vel, div)
    del div

    # u* is built in the stress-divergence buffers, term by term in the
    # order (div S - conv + source) * dt + u
    for name in ("u", "v"):
        acc = getattr(star, name)
        acc -= getattr(conv, name)
        acc += getattr(source, name)
        acc *= dt
        acc += getattr(vel, name)
    del conv
    star.enforce_walls()
    new_vel, phi = ops.project(star)
    if not (np.all(np.isfinite(new_vel.u)) and np.all(np.isfinite(new_vel.v))):
        raise BlowUp(f"non-finite velocity after step at t = {state.time}")
    phi /= dt
    return FluidState(new_vel, state.time + dt, phi), d_stress


def stream_function_field(grid: Grid, psi) -> VelocityField:
    """Divergence-free field u = (d psi/dy, -d psi/dx) sampled on faces.

    psi is a callable (x, y) -> scalar, called once on the open corner grid
    x (nx+1, 1), y (1, ny+1); derivatives are exact discrete differences of
    psi at cell corners, so the result is discretely divergence-free to
    roundoff.
    """
    h = grid.h
    xn = np.arange(grid.nx + 1) * h
    yn = np.arange(grid.ny + 1) * h
    px, py = np.meshgrid(xn, yn, indexing="ij", sparse=True)
    # (nx+1, ny+1) corner values; broadcast_to also takes a constant psi
    psin = np.broadcast_to(psi(px, py), (grid.nx + 1, grid.ny + 1))
    u = np.subtract(psin[:, 1:], psin[:, :-1])
    u /= h
    v = np.subtract(psin[1:, :], psin[:-1, :])
    # negated, not psin[:-1] - psin[1:]: the two differ in the sign of a zero
    # difference, which the mirror column of an odd mesh has
    np.negative(v, out=v)
    v /= h
    out = VelocityField(grid, u, v)
    out.enforce_walls()
    return out


INITIAL_VELOCITIES = ("rest", "stream_bump")


def initial_velocity(grid: Grid, preset: str, amplitude: float) -> VelocityField:
    """Initial field of a named preset: "rest" (zero) or "stream_bump", the
    field of the stream function amplitude sin^2(pi x/lx) sin^2(pi y/ly).
    The amplitude must be finite, whatever the preset."""
    if preset not in INITIAL_VELOCITIES:
        raise ValueError(f"unknown initial velocity preset {preset!r}, "
                         f"expected one of {', '.join(INITIAL_VELOCITIES)}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if preset == "rest" or amplitude == 0.0:
        return VelocityField.zeros(grid)

    def psi(x, y):
        return amplitude * np.sin(np.pi * x / grid.lx) ** 2 * np.sin(np.pi * y / grid.ly) ** 2

    return stream_function_field(grid, psi)
