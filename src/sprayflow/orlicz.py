"""Variable-exponent Lebesgue space numerics.

All functions work on plain arrays of pointwise magnitudes: `values` has the
shape of `weights` and is taken in absolute value, `s` broadcasts against
`weights` and must be finite and positive, or the call raises ValueError.
A vector or tensor field enters through its pointwise norm, e.g.
np.sqrt(rheology.packed_inner(a, a)) for the Frobenius norm of a packed
symmetric tensor; the field itself has an extra axis and is refused as a
shape mismatch.  Weights are cell measures (h^2, optionally times a slab
duration for space-time integrals); no measure-1 normalization is applied
anywhere.
"""

from __future__ import annotations

import numpy as np

_BISECT_RTOL = 1e-10
_BISECT_MAXIT = 200


def _modular_operands(values, s, weights):
    s = np.asarray(s, dtype=float)
    w = np.asarray(weights, dtype=float)
    mag = np.abs(np.asarray(values, dtype=float))
    # a vector or tensor field has an axis more than its weights
    if mag.shape != w.shape or np.broadcast_shapes(w.shape, s.shape) != w.shape:
        raise ValueError("shape mismatch between field, exponent and weights")
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("exponent must be finite and positive")
    return mag, s, w


def modular(values, s, weights) -> float:
    """Discrete quadrature of the modular, sum |xi|^s * weight.

    Summation order is the array's flat order, so the result is
    bit-reproducible.  It overflows to inf once a term |xi|^s leaves the
    double range; log_modular() stays finite there.
    """
    mag, s, w = _modular_operands(values, s, weights)
    return float(np.sum(w * mag**s))


def log_modular(values, s, weights) -> float:
    """ln of the modular, summed in log form: the maximum plus the
    log-sum-exp of s ln|xi| + ln w over the cells where |xi| and w are
    nonzero, so it is finite for every finite nonzero field; -inf for a
    zero field.
    """
    mag, s, w = _modular_operands(values, s, weights)
    mag, s, w = np.broadcast_arrays(mag, s, w)
    keep = (mag != 0.0) & (w != 0.0)  # NaN is kept, and propagates
    if not keep.any():
        return -np.inf
    terms = s[keep] * np.log(mag[keep]) + np.log(w[keep])
    top = terms.max()
    if not np.isfinite(top):
        return float(top)
    return float(top + np.log(np.sum(np.exp(terms - top))))


def luxemburg_norm(values, s, weights) -> float:
    """inf{lambda > 0 : modular(xi / lambda) <= 1}, by bisection.

    Returns 0 for the zero field.  |xi| is divided by its maximum M, and r is
    the modular of xi / M.  Each term of the modular of xi / (M lambda) lies
    between lambda^(-s_max) and lambda^(-s_min) times its value at lambda = 1,
    so the root lies in the exact bracket [min, max](r^(1/s_max), r^(1/s_min)),
    which is the single point r^(1/s) for a constant exponent.  The result is
    M times the bisected root, so it neither overflows nor underflows however
    far |xi| is from unit scale.
    """
    mag, s, w = _modular_operands(values, s, weights)
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


def modular_distance(values_n, values, s, lam: float, weights) -> float:
    """Modular of (xi_n - xi) / lambda; the quantity behind modular convergence."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    diff = np.asarray(values_n, dtype=float) - np.asarray(values, dtype=float)
    return modular(diff / lam, s, weights)
