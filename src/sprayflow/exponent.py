"""Variable growth exponent s(t, x).

The exponent is piecewise constant in time and grid-sampled in space: an
ExponentField holds the slab start times `starts` and one (nslabs, nx, ny)
array `values` of s at the cell centers, and s may jump across a slab start
with no regularity in time.  slab_index() is the one slab search; it takes a
scalar time or an array of times, and s on the mesh at time t is
values[slab_index(t)].  A field refuses a non-finite value when it is built.
The dimension d of the paper's bounds is grid.DIM = 2.  validate() checks
the lower bound (3d+2)/(d+2) = 2 exactly, one part of the pre-run gate
run.certify.  Spatial regularity is reported, not gated:
log_holder_bounds() brackets the discrete log-Hoelder modulus
sup |s(x) - s(y)| |ln|x - y|| over cell-centre pairs closer than 1/2
between a lower bound (exact values of real pairs) and an upper bound
(block oscillations over dyadic distance shells), deterministically and in
one pass over the mesh per dyadic scale.  For a log-Hoelder s both stay
bounded as h -> 0; a jump shows as (lower, upper) growing like |ln h|.
`sprayflow validate` prints the bracket; no run computes it.

Also contains the ball covering with per-ball exponent statistics
(q_i, r_i, R_i).  The pre-run gate builds only the radius and the per-ball
stats; a run uses only whether a covering exists, and `sprayflow validate`
prints its ball count and radius.  The normalized-bump partition of unity,
the localisation behind the log-Hoelder argument, is built on request by
Covering.partition_of_unity(); acceptance criterion 8 and the tests alone
read it and the per-ball stats.  Its C^2 bump, bump(), is also the
pressure reports' source profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import DIM, Grid

_ROUNDOFF = 1e-9   # relative slack of the shell offsets m h against r and 1/2


def required_s_min(d: int) -> float:
    """Lower admissible bound for the exponent, (3d+2)/(d+2)."""
    return (3 * d + 2) / (d + 2)


class CertificateFailure(RuntimeError):
    """A hypothesis of the existence result fails for this scenario: the
    exponent bound, the covering or the stress law's coercivity."""


class CoveringError(CertificateFailure):
    """Raised when no admissible covering radius exists on this mesh."""


@dataclass(frozen=True, eq=False)
class ExponentField:
    """s(t, x) as time slabs on one mesh: values[k] holds s at the cell
    centers from starts[k] until the next start (the last slab until t_end)."""

    starts: tuple[float, ...]
    values: np.ndarray  # (nslabs, nx, ny)
    t_end: float
    grid: Grid

    def __post_init__(self):
        starts = self.starts
        if not starts:
            raise ValueError("exponent field needs at least one slab")
        if starts[0] != 0.0 or any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("slabs must start at 0 and be strictly ordered")
        if starts[-1] >= self.t_end:
            raise ValueError("last slab starts at or after t_end")
        shape = (len(starts), self.grid.nx, self.grid.ny)
        if self.values.shape != shape:
            raise ValueError(f"exponent values have shape {self.values.shape}, "
                             f"expected (nslabs, nx, ny) = {shape}")
        # a NaN or an infinity anywhere in a slab shows in that slab's
        # minimum or maximum, which the pre-run gate reads anyway
        if not (np.all(np.isfinite(self.slab_min)) and np.all(np.isfinite(self.slab_max))):
            raise ValueError("exponent field contains non-finite values")

    # cached: construction, the pre-run gate and StressLaw read them, and
    # each slab extreme is one pass over the mesh; values is never written
    # after construction, and the cached arrays are read-only
    @cached_property
    def slab_min(self) -> np.ndarray:
        """(nslabs,): the least s of each slab."""
        return _frozen(self.values.min(axis=(1, 2)))

    @cached_property
    def slab_max(self) -> np.ndarray:
        """(nslabs,): the greatest s of each slab."""
        return _frozen(self.values.max(axis=(1, 2)))

    @cached_property
    def s_min(self) -> float:
        return float(self.slab_min.min())

    @cached_property
    def s_max(self) -> float:
        return float(self.slab_max.max())

    def slab_index(self, t):
        """Index of the slab holding time t, a scalar or an array of times;
        times before 0 or after t_end take the first or the last slab."""
        # side="right" never passes len(starts), so only t < 0 needs a clamp
        return np.maximum(np.searchsorted(self.starts, t, side="right") - 1, 0)

    def sample(self, t, x: np.ndarray) -> np.ndarray:
        """s at times t and positions x (..., 2): nearest slab, nearest cell.

        t is a scalar or an array of one time per position.
        """
        h = self.grid.h
        i = np.clip((x[..., 0] / h - 0.5).round().astype(int), 0, self.grid.nx - 1)
        j = np.clip((x[..., 1] / h - 0.5).round().astype(int), 0, self.grid.ny - 1)
        return self.values[self.slab_index(t), i, j]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Covering:
    """Equal-radius ball cover; q and r_sup, shape (nballs, nslabs), are the
    min and the max of s over each doubled ball, per slab."""

    centers: np.ndarray
    radius: float
    q: np.ndarray
    r_sup: np.ndarray

    @property
    def big_r(self) -> np.ndarray:
        """R_i = q_i (1 + 2/d), per ball and slab."""
        return self.q * (1.0 + 2.0 / DIM)

    def partition_of_unity(self, grid: Grid) -> np.ndarray:
        """zeta, (nballs, nx, ny): one C^2 bump per ball, normalized to sum
        to one at every cell center of grid.

        Raises CoveringError if some cell center lies in no ball.
        """
        raw = bump(grid, self.centers, self.radius)
        total = raw.sum(axis=0)
        if np.any(total <= 0):
            raise CoveringError("partition of unity has uncovered nodes")
        return raw / total


def validate(field: ExponentField) -> None:
    """Raise CertificateFailure unless s_min >= (3d+2)/(d+2).

    The field is finite (ExponentField refuses anything else), and a finite
    s has a finite log-Hoelder modulus on the mesh, since |s_i - s_j| |log d|
    is finite for 0 < d < 1/2, so the modulus decides nothing here and
    lives apart in log_holder_bounds().
    """
    smin_req = required_s_min(DIM)
    if field.s_min < smin_req:
        raise CertificateFailure(
            f"exponent field invalid: s_min {field.s_min} < required {smin_req}"
        )


def log_holder_bounds(field: ExponentField) -> tuple[tuple[float, float], ...]:
    """Per slab, (lower, upper) bounds on the discrete log-Hoelder modulus
    sup |s(x) - s(y)| |ln|x - y|| over cell-centre pairs with
    0 < |x - y| < 1/2; (0, 0) when no pair is that close.

    The pairs are split into the dyadic distance shells (r/2, r], r = 1/2,
    1/4, ..., down to the shell holding h, with m the largest cell offset
    whose m h lies in the shell.  The lower bound is the largest exact
    |s(x) - s(y)| |ln(m h)| over the axis pairs at offset m with m h < 1/2.
    A pair of the shell is at most m cells apart on either axis, so both
    cells lie in one (m+1)^2 block of the mesh and its |s(x) - s(y)| is at
    most the oscillation of s over that block; its |ln|x - y|| is at most
    |ln max(r/2, h)|.  The upper bound is the largest block oscillation, a
    max-min window filter whose windows, clipped to the mesh
    (mode="nearest"), include every block, times that log.  A modulus past
    the double range reads inf.
    """
    # scipy.ndimage only here: no run computes the modulus
    from scipy.ndimage import maximum_filter, minimum_filter

    h, values = field.grid.h, field.values
    lower, upper = np.zeros((2, len(field.starts)))
    r = 0.5
    # m is rounded up when r/h lies within roundoff of an integer, so the
    # blocks hold every pair of the shell; a larger m only widens them
    while (m := int(r / h * (1.0 + _ROUNDOFF))) >= 1:
        size = (1, m + 1, m + 1)
        with np.errstate(over="ignore"):
            osc = maximum_filter(values, size, mode="nearest")
            osc -= minimum_filter(values, size, mode="nearest")
            upper = np.maximum(upper, osc.max(axis=(1, 2)) * abs(np.log(max(r / 2, h))))
            if m * h * (1.0 + _ROUNDOFF) < 0.5:
                for v in (values, values.swapaxes(1, 2)):
                    step = np.abs(v[:, m:] - v[:, :-m]).max(axis=(1, 2), initial=0.0)
                    lower = np.maximum(lower, step * abs(np.log(m * h)))
        r /= 2
    return tuple(zip(lower.tolist(), upper.tolist()))


def _ball_centers(grid: Grid, radius: float) -> np.ndarray:
    # lattice spacing = radius: farthest point sits at radius/sqrt(2) < radius,
    # so the open balls cover the closed domain with margin
    nbx = max(1, int(np.ceil(grid.lx / radius)))
    nby = max(1, int(np.ceil(grid.ly / radius)))
    cx = (np.arange(nbx) + 0.5) * grid.lx / nbx
    cy = (np.arange(nby) + 0.5) * grid.ly / nby
    gx, gy = np.meshgrid(cx, cy, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def bump(grid: Grid, centers: np.ndarray, radius: float) -> np.ndarray:
    """(nballs, nx, ny): the C^2 bump (1 - rho^2)_+^3 of each ball of
    centers (nballs, 2) and the radius at grid's cell centers, with rho the
    distance to the center over the radius; it vanishes with two
    derivatives at rho = 1."""
    xc, yc = grid.cell_centers()
    dist2 = (xc - centers[:, 0, None, None]) ** 2 + (yc - centers[:, 1, None, None]) ** 2
    return np.clip(1.0 - dist2 / radius**2, 0.0, None) ** 3


def build_covering(field: ExponentField) -> Covering:
    """Cover the field's mesh with equal balls whose 2r-oscillation of s is small.

    The radius is halved from the domain diameter until the oscillation of s
    over every doubled ball is at most s_min/d in every slab.  Raises
    CoveringError once the radius would drop below two mesh cells.
    """
    grid = field.grid
    osc_cap = required_s_min(DIM) / DIM
    radius = grid.diameter
    while radius >= 2.0 * grid.h:
        centers = _ball_centers(grid, radius)
        stats = _ball_stats(field, centers, radius, osc_cap)
        if stats is not None:
            return Covering(centers, radius, *stats)
        radius *= 0.5
    raise CoveringError(
        "covering radius underflow: exponent oscillates too fast for the mesh"
    )


def _ball_stats(field: ExponentField, centers: np.ndarray, radius: float,
                osc_cap: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(q, r_sup) of the balls of this radius, or None once a doubled ball
    oscillates by more than osc_cap (or holds no cell center).

    When 2r reaches the domain diameter, every doubled ball holds every cell
    center (ball and cell centers lie in the domain), so its min and max are
    the cached slab extremes; the first radius tried is always such a one.
    Otherwise each ball reads only the index box of its doubled ball: a cell
    more than ceil(2r/h) + 1 cells from the center's cell on either axis lies
    farther than 2r + h from the center.  Memory is a few cell arrays,
    whatever the number of balls.
    """
    grid = field.grid
    nb = centers.shape[0]
    if 2.0 * radius >= grid.diameter:
        if np.any(field.slab_max - field.slab_min > osc_cap):
            return None
        return np.tile(field.slab_min, (nb, 1)), np.tile(field.slab_max, (nb, 1))
    h = grid.h
    x, y = (c.ravel() for c in grid.cell_centers())
    reach = int(np.ceil(2.0 * radius / h)) + 1
    q = np.empty((nb, len(field.starts)))
    r_sup = np.empty_like(q)
    for b, (cx, cy) in enumerate(centers):
        i, j = int(cx / h), int(cy / h)
        bi = slice(max(i - reach, 0), i + reach + 1)
        bj = slice(max(j - reach, 0), j + reach + 1)
        mask = (x[bi, None] - cx) ** 2 + (y[None, bj] - cy) ** 2 < (2.0 * radius) ** 2
        if not mask.any():
            return None
        # masked reductions: the same min and max as over values[:, mask],
        # without gathering the masked cells
        box = field.values[:, bi, bj]
        q[b] = box.min(axis=(1, 2), where=mask, initial=np.inf)
        r_sup[b] = box.max(axis=(1, 2), where=mask, initial=-np.inf)
        if np.any(r_sup[b] - q[b] > osc_cap):
            return None
    return q, r_sup


# ---------------------------------------------------------------------------
# analytic presets (also reachable from the scenario config)

def constant_field(grid: Grid, t_end: float, value: float) -> ExponentField:
    return ExponentField((0.0,), np.full((1, grid.nx, grid.ny), float(value)), t_end, grid)


def sinusoidal_field(
    grid: Grid, t_end: float, base: float = 2.0, amplitude: float = 0.3
) -> ExponentField:
    xc, yc = grid.cell_centers()
    # an inf or nan made of huge or infinite values is refused by ExponentField
    with np.errstate(over="ignore", invalid="ignore"):
        vals = amplitude * np.sin(np.pi * xc / grid.lx) * np.sin(np.pi * yc / grid.ly)
        vals += base
    return ExponentField((0.0,), vals[None], t_end, grid)


def two_phase_switch_field(
    grid: Grid,
    t_end: float,
    switch_time: float,
    value_before: float = 2.0,
    base_after: float = 2.2,
    amplitude_after: float = 0.2,
) -> ExponentField:
    """Whole-profile switch at a given time: the time-discontinuous case."""
    if not 0.0 < switch_time < t_end:
        raise ValueError("switch_time must lie strictly inside (0, t_end)")
    after = sinusoidal_field(grid, t_end, base_after, amplitude_after).values
    values = np.concatenate([np.full_like(after, value_before), after])
    return ExponentField((0.0, switch_time), values, t_end, grid)


PRESETS = {
    "constant": constant_field,
    "sinusoidal": sinusoidal_field,
    "two_phase_switch": two_phase_switch_field,
}
