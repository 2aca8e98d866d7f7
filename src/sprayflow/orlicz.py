"""Variable-exponent Lebesgue space numerics.

All functions work on plain arrays: `values` has the shape of `weights` plus
optional trailing component axes, `s` broadcasts against `weights` and
must be finite and positive, or the call raises ValueError.  Weights
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


def _modular_operands(values, s, weights, comp_weights):
    s = np.asarray(s, dtype=float)
    w = np.asarray(weights, dtype=float)
    mag = magnitude(values, w.ndim, comp_weights)
    if mag.shape != np.broadcast_shapes(mag.shape, w.shape, s.shape):
        raise ValueError("shape mismatch between field, exponent and weights")
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("exponent must be finite and positive")
    return mag, s, w


def modular(values, s, weights, comp_weights=None) -> float:
    """Discrete quadrature of the modular, sum |xi|^s * weight.

    Summation order is the array's flat order, so the result is
    bit-reproducible.  It overflows to inf once a term |xi|^s leaves the
    double range; log_modular() stays finite there.
    """
    mag, s, w = _modular_operands(values, s, weights, comp_weights)
    return float(np.sum(w * mag**s))


def log_modular(values, s, weights, comp_weights=None) -> float:
    """ln of the modular, summed in log form: the maximum plus the
    log-sum-exp of s ln|xi| + ln w over the cells where |xi| and w are
    nonzero, so it is finite for every finite nonzero field; -inf for a
    zero field.
    """
    mag, s, w = _modular_operands(values, s, weights, comp_weights)
    mag, s, w = np.broadcast_arrays(mag, s, w)
    keep = (mag != 0.0) & (w != 0.0)  # NaN is kept, and propagates
    if not keep.any():
        return -np.inf
    terms = s[keep] * np.log(mag[keep]) + np.log(w[keep])
    top = terms.max()
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(terms - top))))


def luxemburg_norm(values, s, weights, comp_weights=None) -> float:
    """inf{lambda > 0 : modular(xi / lambda) <= 1}, by bisection.

    Returns 0 for the zero field.  |xi| is divided by its maximum M, and r is
    the modular of xi / M.  Each term of the modular of xi / (M lambda) lies
    between lambda^(-s_max) and lambda^(-s_min) times its value at lambda = 1,
    so the root lies in the exact bracket [min, max](r^(1/s_max), r^(1/s_min)),
    which is the single point r^(1/s) for a constant exponent.  The result is
    M times the bisected root, so it neither overflows nor underflows however
    far |xi| is from unit scale.
    """
    mag, s, w = _modular_operands(values, s, weights, comp_weights)
    top = float(mag.max(initial=0.0))
    if top == 0.0:
        return 0.0
    mag = mag / top

    def rho(lam: float) -> float:
        return float(np.sum(w * (mag / lam) ** s))

    r = rho(1.0)
    s_all = np.broadcast_to(s, mag.shape)
    lo, hi = sorted((r ** (1.0 / float(s_all.max())), r ** (1.0 / float(s_all.min()))))
    for _ in range(_BISECT_MAXIT):
        if hi - lo <= _BISECT_RTOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return top * (0.5 * (lo + hi))


def modular_distance(values_n, values, s, lam: float, weights, comp_weights=None) -> float:
    """Modular of (xi_n - xi) / lambda; the quantity behind modular convergence."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    diff = np.asarray(values_n, dtype=float) - np.asarray(values, dtype=float)
    return modular(diff / lam, s, weights, comp_weights)
