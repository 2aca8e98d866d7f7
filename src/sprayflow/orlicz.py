"""Variable-exponent Lebesgue space numerics.

All functions work on plain arrays: `values` has the shape of `weights` plus
optional trailing component axes, `s` broadcasts against `weights`.  Weights
are cell measures (h^2, optionally times a slab duration for space-time
integrals); no measure-1 normalization is applied anywhere.

Tensor fields packed as (..., 3) = (a11, a22, a12) need comp_weights
(1, 1, 2) so the magnitude is the Frobenius norm of the symmetric matrix.
"""

from __future__ import annotations

import numpy as np

TENSOR_COMP_WEIGHTS = (1.0, 1.0, 2.0)

_BISECT_RTOL = 1e-10
_BISECT_MAXIT = 200


def magnitude(values: np.ndarray, weights_ndim: int, comp_weights=None) -> np.ndarray:
    """Pointwise Euclidean/Frobenius magnitude over trailing component axes."""
    values = np.asarray(values, dtype=float)
    extra = values.ndim - weights_ndim
    if extra == 0:
        return np.abs(values)
    sq = values**2
    if comp_weights is not None:
        cw = np.asarray(comp_weights, dtype=float)
        sq = sq * cw
    for _ in range(extra):
        sq = sq.sum(axis=-1)
    return np.sqrt(sq)


def modular(values, s, weights, comp_weights=None) -> float:
    """Discrete quadrature of the modular, sum |xi|^s * weight.

    Summation order is the array's flat order, so the result is
    bit-reproducible.
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(weights, dtype=float)
    mag = magnitude(values, w.ndim, comp_weights)
    if mag.shape != np.broadcast_shapes(mag.shape, w.shape, s.shape):
        raise ValueError("shape mismatch between field, exponent and weights")
    return float(np.sum(w * mag**s))


def luxemburg_norm(values, s, weights, comp_weights=None) -> float:
    """inf{lambda > 0 : modular(xi / lambda) <= 1}, by bisection.

    Returns 0 for the zero field.  The modular is strictly decreasing in
    lambda, so the bracket below is guaranteed once expanded.
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(weights, dtype=float)
    mag = magnitude(values, w.ndim, comp_weights)
    if not mag.any():
        return 0.0

    def rho(lam: float) -> float:
        return float(np.sum(w * (mag / lam) ** s))

    s_hi = float(np.max(np.broadcast_to(s, mag.shape)))
    s_lo = float(np.min(np.broadcast_to(s, mag.shape)))
    total = float(np.sum(np.broadcast_to(w, mag.shape)))
    # classical-norm seeds: L^{s_max} (measure-adjusted) from below,
    # L^{s_min} + 1 from above; then safeguard-expand
    lo = float(np.sum(w * mag**s_hi) ** (1.0 / s_hi)) * min(1.0, total) / (1.0 + total)
    hi = float(np.sum(w * mag**s_lo) ** (1.0 / s_lo)) + 1.0
    lo = max(lo, 1e-300)
    while rho(lo) < 1.0 and lo > 1e-280:
        lo *= 0.5
    while rho(hi) > 1.0:
        hi *= 2.0
    for _ in range(_BISECT_MAXIT):
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_RTOL * hi:
            break
    return 0.5 * (lo + hi)


def modular_distance(values_n, values, s, lam: float, weights, comp_weights=None) -> float:
    """Modular of (xi_n - xi) / lambda; the quantity behind modular convergence."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    diff = np.asarray(values_n, dtype=float) - np.asarray(values, dtype=float)
    return modular(diff / lam, s, weights, comp_weights)


def holder_pairing(phi, psi, s, weights, comp_weights=None) -> float:
    """Check the Luxemburg-Hoelder bound and return the pairing ratio.

    Asserts integral |phi psi| <= 2 ||phi||_{L^s} ||psi||_{L^{s'}} and returns
    the ratio of the two sides (0 when either factor vanishes).
    """
    s = np.asarray(s, dtype=float)
    w = np.asarray(weights, dtype=float)
    mphi = magnitude(phi, w.ndim, comp_weights)
    mpsi = magnitude(psi, w.ndim, comp_weights)
    lhs = float(np.sum(w * mphi * mpsi))
    nphi = luxemburg_norm(phi, s, weights, comp_weights)
    npsi = luxemburg_norm(psi, s / (s - 1.0), weights, comp_weights)
    if nphi == 0.0 or npsi == 0.0:
        if lhs != 0.0:
            raise AssertionError("pairing nonzero for a zero factor")
        return 0.0
    ratio = lhs / (nphi * npsi)
    if ratio > 2.0 * (1.0 + 1e-12):
        raise AssertionError(f"Hoelder pairing ratio {ratio} exceeds 2")
    return ratio

