"""Incompressible momentum solver on a staggered (MAC) grid with no-slip walls.

Layout (nx x ny cells, spacing h):
    u[i, j]  x-face,  x = i h,        y = (j+1/2) h,   shape (nx+1, ny)
    v[i, j]  y-face,  x = (i+1/2) h,  y = j h,         shape (nx, ny+1)
    cell-centered scalars / tensors: shape (nx, ny)

Wall-normal face velocities are identically zero (no-slip); tangential ghost
values mirror through the wall (u = 0 on the boundary).

Face fields pair through <a, b>_h = h^2 sum a b over the faces
(VelocityField.inner), which the energy, the stress dissipation and the
studies' L^2 errors all read.  Three structural identities are engineered to
hold to machine precision:

* the convective term is the flux-divergence form minus half the velocity
  times the interpolated cell divergence, which makes <conv(u), u>_h vanish
  identically (skew symmetry, no div-free requirement);
* the symmetric gradient is a set of slice-difference stencils (no matrix
  is stored), and the stress divergence is written out as minus its exact
  transpose, stencil by stencil, so <-div S, u>_h = sum S:Du h^2 holds to
  roundoff by construction, not as a discretization accident;
* the Leray projection subtracts the wall-masked face gradient of a
  multiplier phi that solves the Neumann 5-point Poisson problem to roundoff:
  a type-II DCT diagonalises that operator (Schumann & Sweet 1976), so the
  solve is one forward and one inverse transform.  phi is normalised to
  zero mean.

Symmetric tensors are packed as (nx, ny, 3) = (a11, a22, a12).

The scheme is symmetric under swapping x and y (u <-> v^T, S11 <-> S22^T),
so each stencil is written once, along its normal axis 0, and applied to
the two face pairs of VelocityField.axes, (u, v) and (v^T, u^T); a
transposed view is a view, so the arithmetic is that of two hand-written
halves and the v-half's scratch stays contiguous in memory order.

fluid_step evaluates Du, keeps its trace (the cell divergence), writes
S^theta(Du) over Du, takes the stress divergence and drops S; it reads the
stress dissipation off that divergence as -<div S, u>_h dt, and only then
forms the convection and builds u* in the divergence's buffers.  At
benchmark sizes a step costs the bytes it holds and moves, not flops, so the
order keeps few grid temporaries live at once: the transient peak is about
7.4 cell arrays at 256^2, reached while the convection is formed beside u*'s
buffers.  The operators write their difference temporaries into buffers
they already hold, and no buffer is kept between steps.
The step's CFL bound is h^2 / (2 g) with g the law's own secant viscosity
g^theta (StressLaw.viscosity) at max|Du| and the slab's cached exponent
extremes, and h over the largest face velocity, read first: BlowUp if not finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import dctn, idctn

from .grid import Grid
from .rheology import StressLaw, packed_inner


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

    def axes(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """The (normal, tangential) face pairs (u, v) and (v^T, u^T): in
        each, axis 0 is the normal component's wall-normal axis, so a
        stencil written along axis 0 of the first pair serves both."""
        return (self.u, self.v), (self.v.T, self.u.T)

    def enforce_walls(self) -> None:
        for normal, _ in self.axes():
            normal[0] = 0.0
            normal[-1] = 0.0

    def inner(self, other: "VelocityField") -> float:
        """The discrete L^2 pairing <u, u'>_h = h^2 (sum u u' + sum v v') over
        face values, each sum numpy's pairwise np.sum(a * b)."""
        return self.grid.cell_volume * (float(np.sum(self.u * other.u))
                                        + float(np.sum(self.v * other.v)))

    def energy(self) -> float:
        """Kinetic energy (1/2) <u, u>_h."""
        return 0.5 * self.inner(self)

    def max_speed(self) -> float:
        """max |face value|; NaN when any face value is NaN."""
        return float(np.max([np.abs(normal).max() for normal, _ in self.axes()]))

    def cell_centered(self) -> tuple[np.ndarray, np.ndarray]:
        uc, vc = (normal[:-1] + normal[1:] for normal, _ in self.axes())
        uc *= 0.5
        vc *= 0.5
        return uc, vc.T


def _head(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """A (m, n) view of the first m n values of the contiguous buffer buf,
    for a temporary that reuses a dead buffer: numpy runs strided 2-D
    operands through slower buffered loops.  The view is C-contiguous, or,
    for an F-contiguous (transposed) buf, the transposed head of buf.T."""
    if not buf.flags.c_contiguous:
        return _head(buf.T, shape[::-1]).T
    return buf.reshape(-1)[:shape[0] * shape[1]].reshape(shape)


def _diff(f: np.ndarray, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """(f[i+1] - f[i]) / h along axis 0, into out if given."""
    out = np.subtract(f[1:], f[:-1], out=out)
    out /= h
    return out


def _odd_centred(f: np.ndarray, out: np.ndarray) -> None:
    """out = f[i+1] - f[i-1] along axis 0, with the odd ghosts f[-1] = -f[0]
    and f[n] = -f[n-1] (the mirrored quantity vanishes on the wall).  The
    wall rows are plain expressions: numpy 2.4.6 gets np.negative(x, out=y)
    wrong for float64 views 8 elements apart."""
    np.subtract(f[2:], f[:-2], out=out[1:-1])
    out[0] = f[1] + f[0]
    out[-1] = -(f[-1] + f[-2])


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
        out = np.empty((3, self.grid.nx, self.grid.ny))
        a11, a22, a12 = out
        sums = []
        for (normal, _), diag in zip(vel.axes(), (a11, a22.T)):
            _diff(normal, h, out=diag)
            sums.append(normal[:-1] + normal[1:])
        su, sv = sums                     # 2 uc and (2 vc)^T
        _odd_centred(su.T, a12.T)         # dy su
        _odd_centred(sv.T, su)            # dx sv, in su's dead buffer
        a12 += su
        a12 *= 0.125 / h
        return np.moveaxis(out, 0, -1)

    def divergence(self, vel: VelocityField) -> np.ndarray:
        """Cell-centered divergence of face velocities, shape (nx, ny)."""
        div, dv = (_diff(normal, self.grid.h) for normal, _ in vel.axes())
        div += dv.T
        return div

    def gradient(self, phi: np.ndarray) -> VelocityField:
        """Face gradient of a cell scalar; wall-normal faces are zero."""
        out = _walled_pair(self.grid)
        for (normal, _), p in zip(out.axes(), (phi, phi.T)):
            _diff(p, self.grid.h, out=normal[1:-1])
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
        e = np.empty_like(s12)
        # normal face i: (Snn[i] - Snn[i-1]) / h + (E[i-1] + E[i]) / (4h),
        # E the tangential centred difference of S12 (dy S12 for u)
        planes = ((s11, s12, e), (s22.T, s12.T, e.T))
        for (snn, st, et), (normal, _) in zip(planes, out.axes()):
            np.subtract(st[:, 2:], st[:, :-2], out=et[:, 1:-1])
            et[:, 0] = st[:, 1] - st[:, 0]
            et[:, -1] = st[:, -1] - st[:, -2]
            o = normal[1:-1]
            np.add(et[:-1], et[1:], out=o)
            o *= 0.25 / h
            d = _head(et, o.shape)
            _diff(snn, h, out=d)
            o += d
        return out

    def convective(self, vel: VelocityField, div: np.ndarray) -> VelocityField:
        """Skew-symmetric transport term, <conv(u), u> = 0 identically.

        div is the cell divergence of vel: divergence(vel), or the trace
        a11 + a22 of sym_gradient(vel), which equals it bit for bit.  It is
        scratch: convective scales it in place.  The 1/2 and 1/4 averaging
        weights are applied as one power-of-two scaling of each difference
        (dividing by 4h rather than h), which rounds to the same values as
        averaging first.  The node products' buffers take the differences
        and the face divergences after their last read.
        """
        h4 = 4.0 * self.grid.h
        div *= 0.25
        out = _walled_pair(self.grid)

        # normal component n (u, then v^T) on its interior faces:
        # dn(nc^2) + dt(tn nn) - n (face-averaged div) / 2, with nc its cell
        # value and tn, nn the tangential and normal velocities at nodes
        for (n, t), (normal, _), dv in zip(vel.axes(), out.axes(), (div, div.T)):
            f = n[:-1] + n[1:]                             # 2 nc at centers
            f *= f
            o = normal[1:-1]
            np.subtract(f[1:], f[:-1], out=o)
            del f
            o /= h4
            f = t[:-1] + t[1:]                             # 2 tn at interior nodes
            nn = np.empty_like(f)
            nn[:, 0] = nn[:, -1] = 0.0                     # nn = 0 on the walls
            np.add(n[1:-1, :-1], n[1:-1, 1:], out=nn[:, 1:-1])
            f *= nn
            d = _head(nn, o.shape)
            np.subtract(f[:, 1:], f[:, :-1], out=d)        # dt
            del f
            d /= h4
            o += d
            np.add(dv[:-1], dv[1:], out=d)                 # face divergence
            d *= n[1:-1]
            o -= d
            del nn, d                                      # before the next half allocates
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
        for (a, _), (grad, _) in zip(vel.axes(), out.axes()):
            np.subtract(a, grad, out=grad)
        out.enforce_walls()
        return out, phi

    # -- time stepping -------------------------------------------------------

    def cfl_limit(self, vel: VelocityField, law: StressLaw, s: np.ndarray) -> float:
        """Largest stable dt for vel under law: h^2 / (2 g) and h / max speed,
        with g the law's own g^theta at max|Du|.  s is the step's exponent, or
        only its slab's cached extremes: g grows with |xi| and |xi|^(e-2) is
        monotone in e, so g at the two extreme exponents bounds it on every
        cell.  A non-finite max speed, read first, raises BlowUp; a g that
        overflows raises CFLViolation, since no dt is stable."""
        speed = vel.max_speed()
        if not np.isfinite(speed):
            raise BlowUp(f"non-finite velocity: max speed {speed}")
        h = self.grid.h
        du = self.sym_gradient(vel)
        mmax = float(np.sqrt(packed_inner(du, du).max()))
        with np.errstate(over="ignore"):
            nu_eff = float(law.viscosity(np.array([s.min(), s.max()]), mmax).max())
        if not np.isfinite(nu_eff):
            raise CFLViolation(f"the stress law's secant viscosity g^theta at max|Du| = "
                               f"{mmax:.6g} is {nu_eff}: no dt is stable")
        dt_diff = h**2 / (2.0 * nu_eff) if nu_eff > 0 else np.inf
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
    -<div S^theta, u>_h dt (equal to roundoff, since the divergence is
    minus the exact transpose of Du); it evaluates no energy (the coupled
    step's ledger records those).  S^theta is written over Du, and the
    convection is formed after the stress divergence.  The exponent slab is
    looked up once, at the midpoint t + dt/2 (state.time is a running sum
    of dt and may fall just short of a switch on the step grid); the CFL
    bound reads its cached extremes and the stress its values.  Refuses the
    step on CFL violation; raises BlowUp on non-finite values."""
    vel = state.velocity
    ex = law.exponent
    k = ex.slab_index(state.time + 0.5 * dt)
    limit = ops.cfl_limit(vel, law, np.array([ex.slab_min[k], ex.slab_max[k]])) * cfl_factor
    if dt > limit:
        raise CFLViolation(f"dt = {dt} exceeds CFL bound {limit}")

    # each grid temporary is dropped after its last reader (module docstring)
    du = ops.sym_gradient(vel)
    div = du[..., 0] + du[..., 1]             # the convection's cell divergence
    stress = law.eval_packed(ex.values[k], du, out=du)   # S^theta(Du) in Du's buffer
    del du
    star = ops.stress_divergence_of(stress)
    del stress

    # sum S:Du h^2 dt as -<div S, u>_h dt: the divergence is minus the
    # exact transpose of Du, so the two agree to roundoff
    d_stress = -star.inner(vel) * dt
    conv = ops.convective(vel, div)
    del div

    # u* is built in the stress-divergence buffers, term by term in the
    # order (div S - conv + source) * dt + u
    for (acc, _), (c, _), (f, _), (x, _) in zip(*(w.axes() for w in (star, conv, source, vel))):
        acc -= c
        acc += f
        acc *= dt
        acc += x
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


def stream_bump(grid: Grid, amplitude: float) -> VelocityField:
    """The field of the stream function amplitude sin^2(pi x/lx) sin^2(pi y/ly);
    the amplitude must be finite."""
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if amplitude == 0.0:
        return VelocityField.zeros(grid)

    def psi(x, y):
        return amplitude * np.sin(np.pi * x / grid.lx) ** 2 * np.sin(np.pi * y / grid.ly) ** 2

    return stream_function_field(grid, psi)


# the initial velocities by name
INITIAL_VELOCITIES = {"rest": VelocityField.zeros, "stream_bump": stream_bump}
