"""Constitutive stress law S = (nu0 + nu1 |xi|^{s(t,x)-2}) xi and its
theta-regularization S + theta * s_max |xi|^{s_max-2} xi.

The exponent regime is s >= 2 (forced by the admissible bound for d = 2, 3),
so |xi|^{s-2} is continuous at xi = 0 and S(t, x, 0) = 0 exactly.

Certificates for monotonicity and for the coercivity/growth inequality
    c S:xi >= |xi|^s + |S|^{s'} - h_bar
are sweep-based and reproducible: fixed seeds, fixed grids, reported
constants.  Margins are evaluated relative to the size of the terms; a
roundoff band of 1e-12 is allowed because the pure power law sits exactly on
the inequality (c = 2, h_bar = 0 with margin algebraically zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exponent import ExponentField

_MARGIN_RTOL = 1e-12
_MONOTONE_RTOL = 1e-13
_XI_SWEEP = np.logspace(-8.0, 8.0, 161)
_N_S_SWEEP = 33
_C_CAP = 2.0**64


class CoercivityError(RuntimeError):
    """No finite coercivity constant found: the law is misconfigured."""


def packed_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a : b = a11 b11 + a22 b22 + 2 a12 b12 for (..., 3)-packed symmetric tensors."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 1] * b[..., 1]
    out += 2.0 * (a[..., 2] * b[..., 2])
    return out


@dataclass(frozen=True, eq=False)
class StressLaw:
    nu0: float
    nu1: float
    exponent: ExponentField
    theta: float = 0.0
    s_max: float = field(init=False)  # exponent.s_max

    def __post_init__(self):
        if self.nu0 < 0 or self.nu1 < 0:
            raise ValueError("viscosity coefficients must be nonnegative")
        if self.nu0 + self.nu1 <= 0:
            raise ValueError("need nu0 + nu1 > 0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        object.__setattr__(self, "s_max", self.exponent.s_max)

    def eval_packed(self, s: np.ndarray, packed: np.ndarray, regularized: bool = True) -> np.ndarray:
        """Apply the law to (..., 3)-packed symmetric tensors (a11, a22, a12)."""
        mag = np.sqrt(packed_inner(packed, packed))
        return self.viscosity(s, mag, regularized)[..., None] * packed

    def viscosity(self, s: np.ndarray, mag: np.ndarray, regularized: bool) -> np.ndarray:
        """g in S = g xi: nu0 + nu1 |xi|^(s-2), plus theta s_max |xi|^(s_max-2)
        when regularized; each power term is 0 at |xi| = mag = 0."""
        pos = mag > 0
        base = np.where(pos, mag, 1.0)
        g = np.full_like(mag, self.nu0)
        if self.nu1 != 0.0:
            with np.errstate(divide="ignore"):
                term = base ** (np.asarray(s) - 2.0)
            term *= self.nu1
            term *= pos                     # |xi| = 0 contributes 0
            g += term
        if regularized and self.theta != 0.0:
            term = base ** (self.s_max - 2.0)
            term *= self.theta * self.s_max
            term *= pos
            g += term
        return g

@dataclass(frozen=True)
class MonotonicityReport:
    worst: float   # min of (S(xi1) - S(xi2)) : (xi1 - xi2)
    scale: float   # max of |S(xi1) - S(xi2)| * |xi1 - xi2| over the sweep
    n_samples: int

    @property
    def ok(self) -> bool:
        """worst >= -1e-13 max(scale, 1): only roundoff-sized negatives pass."""
        return self.worst >= -_MONOTONE_RTOL * max(self.scale, 1.0)


@dataclass(frozen=True)
class CoercivityCertificate:
    c: float
    h_bar: float
    worst_margin: float                  # relative to the size of the swept terms
    c_theta: float | None = None         # s_max-growth variant, theta > 0 only
    h_theta: float | None = None         # with h_theta / c_theta = (h_bar + 1) / c
    worst_margin_theta: float | None = None

    @property
    def ok(self) -> bool:
        if self.worst_margin < -_MARGIN_RTOL:
            return False
        return self.worst_margin_theta is None or self.worst_margin_theta >= -_MARGIN_RTOL


def _random_sym_packed(rng: np.random.Generator, n: int) -> np.ndarray:
    # wide dynamic range: unit gaussians times log-uniform magnitudes
    base = rng.standard_normal((n, 3))
    scale = 10.0 ** rng.uniform(-4, 4, size=n)
    return base * scale[:, None]


def certify_monotone(law: StressLaw, n_samples: int = 100_000, seed: int = 0) -> MonotonicityReport:
    """Randomized monotonicity sweep: min (S(xi1)-S(xi2)):(xi1-xi2).

    The report's ok allows a roundoff-sized negative minimum; for theta > 0
    the minimum is strictly positive away from xi1 = xi2.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    xi1 = _random_sym_packed(rng, n_samples)
    xi2 = _random_sym_packed(rng, n_samples)
    t = rng.uniform(0.0, law.exponent.t_end, size=n_samples)
    x = np.column_stack([
        rng.uniform(0.0, law.exponent.grid.lx, size=n_samples),
        rng.uniform(0.0, law.exponent.grid.ly, size=n_samples),
    ])
    s = law.exponent.sample(t, x)

    ds = law.eval_packed(s, xi1) - law.eval_packed(s, xi2)
    dxi = xi1 - xi2
    inner = packed_inner(ds, dxi)
    ds_mag = np.sqrt(packed_inner(ds, ds))
    dxi_mag = np.sqrt(packed_inner(dxi, dxi))
    return MonotonicityReport(
        worst=float(inner.min()),
        scale=float(np.max(ds_mag * dxi_mag)),
        n_samples=n_samples,
    )


def _sweep_margin(law: StressLaw, c: float, h_bar: float, s_lo: float, s_hi: float,
                  regularized: bool) -> float:
    """Worst relative coercivity margin over the (|xi|, s) sweep grid.

    Unregularized, the inequality uses (s, s') on S; regularized, the
    Lemma-5.3 variant uses (s_max, s_max') on S^theta.
    """
    s = np.linspace(s_lo, s_hi, _N_S_SWEEP)[:, None]   # one row per exponent
    m = np.broadcast_to(_XI_SWEEP, (_N_S_SWEEP, _XI_SWEEP.size))
    g = law.viscosity(s, m, regularized)
    p = law.s_max if regularized else s
    pc = p / (p - 1.0)
    sxx = g * m * m              # S : xi
    smag = g * m                 # |S|
    lhs = c * sxx
    rhs = m**p + smag**pc
    # pointwise relative margin: a genuine violation shows up as O(1)
    # negative, pure roundoff on a tight inequality as ~1e-16
    scale = lhs + rhs + h_bar
    margin = (lhs - rhs + h_bar) / scale
    return float(margin.min())


def certify_coercive(law: StressLaw) -> CoercivityCertificate:
    """Find (c, h_bar) by doubling c over a log sweep of |xi| and s.

    h_bar = 0 is tried first (it is exact for the pure power law, giving
    c = 2); if no finite c works, the fallback majorant h_bar = c(1+nu0+nu1)
    is coupled to the doubling.  The Lemma-5.3 s_max variant reuses
    h_theta / c_theta = (h_bar + 1) / c.
    """
    s_lo, s_hi = law.exponent.s_min, law.exponent.s_max

    def search(h_of_c):
        c = 1.0
        while c <= _C_CAP:
            m = _sweep_margin(law, c, h_of_c(c), s_lo, s_hi, regularized=False)
            if m >= -_MARGIN_RTOL:
                return c, h_of_c(c), m
            c *= 2.0
        return None

    found = search(lambda c: 0.0)
    if found is None:
        found = search(lambda c: c * (1.0 + law.nu0 + law.nu1))
    if found is None:
        raise CoercivityError("coercivity constant exceeds 2**64")
    c, h_bar, worst = found

    if law.theta == 0.0:
        # the s_max-growth variant needs the theta term; without it a
        # variable exponent has no s_max growth at large |xi|
        return CoercivityCertificate(c=c, h_bar=h_bar, worst_margin=worst)

    # s_max-growth certificate for S^theta with the tied ratio
    ratio = (h_bar + 1.0) / c
    ct = c
    while ct <= _C_CAP:
        mt = _sweep_margin(law, ct, ct * ratio, law.exponent.s_min, law.s_max, regularized=True)
        if mt >= -_MARGIN_RTOL:
            break
        ct *= 2.0
    else:
        raise CoercivityError("s_max coercivity constant exceeds 2**64")

    return CoercivityCertificate(
        c=c, h_bar=h_bar, worst_margin=worst,
        c_theta=ct, h_theta=ct * ratio, worst_margin_theta=mt,
    )
