"""Constitutive stress law S = (nu0 + nu1 |xi|^{s(t,x)-2}) xi and its
theta-regularization S + theta * s_max |xi|^{s_max-2} xi.

Both are S = g(|xi|) xi with one secant viscosity g (StressLaw.viscosity),
read by the stress evaluation, the CFL bound and the coercivity margin.  For
s >= 2 (the admissible bound for d = 2, 3) g is continuous at xi = 0 and
S(t, x, 0) = 0.  S is monotone as the gradient of the radial potential
Phi = int_0^{|xi|} g(r) r dr, convex since r g(r) is nondecreasing for
nu0, nu1, theta >= 0 and s >= 2; certify_monotone samples it for audits.

Coercivity c S:xi >= |xi|^s + |S|^{s'} - h_bar (s' = s/(s-1), r = |xi|)
holds with closed-form constants.  With k the number of nonzero nu0, nu1,
|S|^{s'} <= k^{s'-1} (nu0^{s'} r^{s'} + nu1^{s'} r^s) and
r^{s'} <= r^2 + kappa(s'/2), kappa(a) = sup_t (t^a - t) = (1-a) a^{a/(1-a)}:
    c     = max_s max((1 + k^{s'-1} nu1^{s'}) / nu1, k^{s'-1} nu0^{s'-1}),
    h_bar = max_s k^{s'-1} nu0^{s'} kappa(s'/2)
over the mesh exponents s > 2; the linear law at s = 2 takes c = (1 + g^2)/g.
S^theta's s_max variant (p = s_max; a_i and k over the nonzero of nu0, nu1
and theta p) bounds S^theta:xi below by theta p r^p:
    c_theta = (1 + k^{p'-1} sum_i a_i^{p'}) / (theta p),
    h_theta = k^{p'-1} (nu0^{p'} kappa(p'/p) + max_s nu1^{p'} kappa((s-1)p'/p)).
The pure power law gets c = 2, h_bar = 0 and sits exactly on the
inequality, so coercivity_margin's ok allows a roundoff band of 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exponent import CertificateFailure, ExponentField

_MARGIN_RTOL = 1e-12
_MONOTONE_RTOL = 1e-13


class CoercivityError(CertificateFailure):
    """No finite coercivity constant exists: the law is misconfigured."""


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
        # viscosity's np.full(shape, nu0) takes nu0's dtype, so ints become floats
        for name in ("nu0", "nu1", "theta"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.nu0 < 0 or self.nu1 < 0:
            raise ValueError("viscosity coefficients must be nonnegative")
        if self.nu0 + self.nu1 <= 0:
            raise ValueError("need nu0 + nu1 > 0")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        object.__setattr__(self, "s_max", self.exponent.s_max)

    def eval_packed(self, s: np.ndarray, packed: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        """Apply S^theta to (..., 3)-packed symmetric tensors (a11, a22, a12).

        S is written into out, a fresh array by default; out=packed overwrites
        the strain with its stress (the fluid step's use), with the same values.
        """
        mag = packed_inner(packed, packed)
        np.sqrt(mag, out=mag)
        g = self.viscosity(s, mag)
        del mag   # dead before the (..., 3) product, which sets the peak
        return np.multiply(g[..., None], packed, out=out)

    def viscosity(self, s: np.ndarray, mag: np.ndarray | float,
                  regularized: bool = True) -> np.ndarray:
        """g in S = g xi: nu0 + nu1 |xi|^(s-2), plus theta s_max |xi|^(s_max-2)
        when regularized, with mag = |xi|; s and mag broadcast.  For s >= 2 it
        is continuous at |xi| = 0, where it is nu0 + nu1 at s = 2."""
        if self.nu1 != 0.0:
            # nu1 |xi|^(s-2) + nu0 in the power term's own buffer
            g = mag ** (np.asarray(s) - 2.0)
            g *= self.nu1
            g += self.nu0
        else:
            g = np.full(np.broadcast(s, mag).shape, self.nu0)
        if regularized and self.theta != 0.0:
            term = mag ** (self.s_max - 2.0)
            term *= self.theta * self.s_max
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
    theta: CoercivityCertificate | None = None   # S^theta's s_max variant, theta > 0


@dataclass(frozen=True)
class CoercivityMargin:
    worst: float   # min relative margin (lhs - rhs) / (lhs + rhs) of the inequality

    @property
    def ok(self) -> bool:
        """worst >= -1e-12: only a roundoff-sized negative passes."""
        return self.worst >= -_MARGIN_RTOL


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


def _young_gap(a) -> np.ndarray:
    """kappa(a) = sup_{t >= 0} (t^a - t) = (1 - a) a^{a/(1-a)} on (0, 1]."""
    a = np.asarray(a, dtype=float)
    b = 1.0 - a
    return b * a ** np.divide(a, b, out=np.zeros_like(a), where=b > 0.0)


def certify_coercive(law: StressLaw) -> CoercivityCertificate:
    """Closed-form (c, h_bar), and (c_theta, h_theta) when theta > 0 (module
    docstring).  CoercivityError for s_min < 2, outside the closed form, and
    for nu1 = 0 with s_max > 2, where no finite c exists.

    The maxima over the mesh exponents s > 2 are taken without listing them.
    With s' = s/(s-1), decreasing in s, and k = 1 + [nu0 > 0]:
    * c's terms (1 + (k nu1)^{s'}/k)/nu1 and (k nu0)^{s'-1} are monotone in s,
      so each peaks at s_lo, the least mesh exponent above 2, or at s_max;
    * h(s) = k^{s'-1} nu0^{s'} kappa(s'/2) (zero when nu0 = 0) with
      a = s'/2 in (1/2, 1) has d ln h/ds' = ln(k nu0) + ln a / (2 (1-a)^2).
      The second term decreases strictly in a, from ln(1/4) at a = 1/2 to
      -inf at a = 1: its a-derivative has the sign of 1/a - 1 + 2 ln a,
      which increases for a > 1/2 up to 0 at a = 1, so is negative on
      (1/2, 1).  Hence h is unimodal in s.
      For k nu0 <= 4 the derivative is negative on the whole range, and h
      increases in s up to s_max.  Otherwise h rises up to the root s* and
      falls after it, so its mesh maximum is at one of the two mesh
      exponents on either side of s*: bisection finds a*, and two masked
      reductions find the neighbours.
    All three terms are then evaluated at those few exponents, by the same
    formulas a listing of every distinct exponent would use.
    """
    nu0, nu1, p = law.nu0, law.nu1, law.s_max
    s_min = law.exponent.s_min
    if s_min < 2.0:
        raise CoercivityError(f"s_min = {s_min:g} < 2: outside the closed form's regime")
    g = nu0 + nu1   # s = 2 is the linear law S = g xi
    c, h_bar = ((1.0 + g * g) / g if s_min == 2.0 else 0.0), 0.0
    if p > 2.0:
        if nu1 == 0.0:
            raise CoercivityError(f"nu1 = 0 with s_max = {p:g} > 2: no finite c")
        k = 1.0 + (nu0 > 0.0)
        values = law.exponent.values
        s_lo = s_min if s_min > 2.0 else float(values.min(where=values > 2.0, initial=np.inf))
        s = np.array([s_lo, p, *_h_peak_neighbours(values, k * nu0)])
        sc = s / (s - 1.0)
        kf = k ** (sc - 1.0)   # k^{s'-1}, with nu1 > 0 here
        c = max(c, float(np.max((1.0 + kf * nu1**sc) / nu1)),
                float(np.max(kf * nu0 ** (sc - 1.0))))
        h_bar = float(np.max(kf * nu0**sc * _young_gap(sc / 2.0)))
    if law.theta == 0.0:   # without theta, no s_max growth at large |xi|
        return CoercivityCertificate(c, h_bar)
    pc = p / (p - 1.0)
    coef = np.array([a for a in (nu0, nu1, law.theta * p) if a > 0.0])
    kf = coef.size ** (pc - 1.0)
    c_theta = (1.0 + kf * float(np.sum(coef**pc))) / (law.theta * p)
    # kappa decreases on (0, 1], so kappa((s - 1)/(p - 1)) peaks at s_min
    gap = nu0**pc * _young_gap(pc / p) + nu1**pc * _young_gap((s_min - 1.0) / (p - 1.0))
    return CoercivityCertificate(c, h_bar, CoercivityCertificate(c_theta, kf * float(gap)))


def _h_peak_neighbours(values: np.ndarray, k_nu0: float) -> list[float]:
    """The mesh exponents above 2 on either side of h's peak s*
    (certify_coercive); none when k nu0 <= 4, where h peaks at s_max."""
    if k_nu0 <= 4.0:
        return []
    log_k_nu0 = math.log(k_nu0)
    lo, hi = 0.5, 1.0   # d ln h/ds' > 0 at lo, <= 0 at hi
    while (a := 0.5 * (lo + hi)) not in (lo, hi):
        if log_k_nu0 + math.log(a) / (2.0 * (1.0 - a) ** 2) > 0.0:
            lo = a
        else:
            hi = a
    s_star = 2.0 * hi / (2.0 * hi - 1.0)   # s = s'/(s'-1) at s' = 2a; hi > 1/2
    below = np.less_equal(values, s_star)
    left = float(values.max(where=below, initial=-np.inf))
    right = float(values.min(where=np.logical_not(below, out=below), initial=np.inf))
    return [e for e in (left, right) if 2.0 < e < np.inf]


def coercivity_margin(law: StressLaw, c: float, h_bar: float,
                      regularized: bool = False) -> CoercivityMargin:
    """Worst relative margin of c S:xi >= |xi|^s + |S|^{s'} - h_bar (regularized:
    the s_max variant on S^theta) at the mesh exponents and 161 log-spaced |xi|
    in [1e-40, 1e40], narrowed so that |xi|^{s_max} < 1e250; no run reads it."""
    top = min(40.0, 250.0 / law.s_max)
    m = np.logspace(-top, top, 161)[None, :]
    s = np.unique(law.exponent.values)[:, None]
    g = law.viscosity(s, m, regularized)
    p = law.s_max if regularized else s
    lhs = c * g * m * m          # c S:xi
    rhs = m**p + (g * m) ** (p / (p - 1.0))
    return CoercivityMargin(float(np.min((lhs - rhs + h_bar) / (lhs + rhs + h_bar))))
