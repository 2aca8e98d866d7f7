import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow.exponent import constant_field, sinusoidal_field
from sprayflow.grid import Grid
from sprayflow.rheology import (
    MonotonicityReport,
    StressLaw,
    certify_coercive,
    certify_monotone,
)

GRID = Grid(16, 16)
S2 = constant_field(GRID, 1.0, 2.0)
S3 = constant_field(GRID, 1.0, 3.0)
VAR = sinusoidal_field(GRID, 1.0, base=2.0, amplitude=0.5)
ORIGIN = np.array([0.5, 0.5])


def law(nu0=1.0, nu1=0.0, field=S2, theta=0.0):
    return StressLaw(nu0, nu1, field, theta)


def stress(l, t, x, xi, regularized=False):
    """S, or S^theta when regularized, at (t, x) on a symmetric 2x2 xi,
    through eval_packed with s = exponent.sample(t, x)."""
    s = l.exponent.sample(t, x)
    out = l.eval_packed(s, xi[..., [0, 1, 0], [0, 1, 1]], regularized)
    return out[..., [0, 2, 2, 1]].reshape(xi.shape)


# -- pointwise evaluation -----------------------------------------------------

def test_zero_strain_gives_zero_stress_exactly():
    out = stress(law(1.0, 1.0, S3), 0.0, ORIGIN, np.zeros((2, 2)))
    assert np.all(out == 0.0)
    out = stress(law(1.0, 1.0, S3, theta=0.5), 0.0, ORIGIN, np.zeros((2, 2)), True)
    assert np.all(out == 0.0)


def test_newtonian_is_identity_scaling():
    xi = np.array([[1.0, 2.0], [2.0, -0.5]])
    np.testing.assert_array_equal(stress(law(1.0, 0.0), 0.0, ORIGIN, xi), xi)


def test_power_law_diag_example():
    # nu1 = 1, s = 3, xi = diag(1, -1): Frobenius |xi| = sqrt(2)
    xi = np.diag([1.0, -1.0])
    out = stress(law(0.0, 1.0, S3), 0.0, ORIGIN, xi)
    np.testing.assert_allclose(out, np.sqrt(2.0) * xi, rtol=1e-14)


def test_regularization_addend():
    # theta = 0.1, s_max = 4, |xi|^2 = 2: adds 0.1 * 4 * 2 * xi
    field = constant_field(GRID, 1.0, 4.0)
    xi = np.diag([1.0, -1.0])
    base = stress(StressLaw(1.0, 0.0, field), 0.0, ORIGIN, xi)
    reg = stress(StressLaw(1.0, 0.0, field, theta=0.1), 0.0, ORIGIN, xi, True)
    np.testing.assert_allclose(reg - base, 0.8 * xi, rtol=1e-14)


def test_theta_zero_regularized_equals_plain():
    xi = np.array([[0.3, -1.2], [-1.2, 2.0]])
    l = law(0.5, 0.5, VAR)
    np.testing.assert_array_equal(
        stress(l, 0.3, ORIGIN, xi), stress(l, 0.3, ORIGIN, xi, True)
    )


def test_theta_consistency_bound():
    # |S^theta - S| <= theta * s_max * |xi|^{s_max - 1} pointwise
    rng = np.random.default_rng(1)
    theta = 0.3
    l = law(1.0, 1.0, VAR, theta=theta)
    smax = l.s_max
    for _ in range(50):
        a = rng.standard_normal((2, 2)) * 10.0 ** rng.uniform(-3, 3)
        xi = 0.5 * (a + a.T)
        diff = stress(l, 0.2, ORIGIN, xi, True) - stress(l, 0.2, ORIGIN, xi)
        mag = np.sqrt(np.sum(xi**2))
        assert np.sqrt(np.sum(diff**2)) <= theta * smax * mag ** (smax - 1.0) * (1 + 1e-12)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        StressLaw(0.0, 0.0, S2)
    with pytest.raises(ValueError):
        StressLaw(-1.0, 1.0, S2)
    with pytest.raises(ValueError):
        StressLaw(1.0, 0.0, S2, theta=1.0)


# -- monotonicity -------------------------------------------------------------

def test_monotone_newtonian():
    rep = certify_monotone(law(2.0, 0.0), n_samples=10_000, seed=0)
    assert rep.worst >= 0.0


def test_monotone_power_law_big_sweep():
    rep = certify_monotone(law(0.0, 1.0, S3), n_samples=100_000, seed=0)
    assert rep.worst >= -1e-13 * rep.scale


def test_monotone_variable_exponent_with_theta():
    rep = certify_monotone(law(0.5, 0.5, VAR, theta=0.2), n_samples=50_000, seed=1)
    assert rep.worst > 0.0  # strict with theta > 0 (distinct pairs a.s.)


def test_monotone_report_allows_only_roundoff_negatives():
    def ok(worst, scale):
        return MonotonicityReport(worst, scale, n_samples=1).ok

    assert ok(-0.9e-13 * 1e6, 1e6) and not ok(-1.1e-13 * 1e6, 1e6)
    assert ok(-0.9e-13, 1e-3) and not ok(-1.1e-13, 1e-3)   # the scale floor is 1
    assert not ok(float("nan"), 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_monotone_random_pairs(seed):
    rng = np.random.default_rng(seed)
    l = law(rng.uniform(0, 1), rng.uniform(0.1, 1), VAR)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2))
    xi1, xi2 = 0.5 * (a + a.T), 0.5 * (b + b.T)
    x = rng.uniform(0, 1, 2)
    inner = np.sum((stress(l, 0.1, x, xi1) - stress(l, 0.1, x, xi2)) * (xi1 - xi2))
    scale = max(np.sum(xi1**2), np.sum(xi2**2), 1.0)
    assert inner >= -1e-13 * scale


# -- coercivity ---------------------------------------------------------------

def test_coercive_pure_power_law_exact_constants():
    # S:xi = |xi|^s and |S|^{s'} = |xi|^s, so c = 2 with h_bar = 0 is exact
    cert = certify_coercive(law(0.0, 1.0, S3))
    assert cert.c == 2.0
    assert cert.h_bar == 0.0
    assert cert.worst_margin >= -1e-12
    assert cert.ok


def test_coercive_newtonian_s2():
    cert = certify_coercive(law(1.0, 0.0, S2))
    assert cert.c == 2.0
    assert cert.h_bar == 0.0
    assert cert.ok


def test_coercive_mixed_law_finite_certificate():
    cert = certify_coercive(law(1.0, 1.0, sinusoidal_field(GRID, 1.0, 2.0, 1.0)))
    assert np.isfinite(cert.c) and np.isfinite(cert.h_bar)
    assert cert.ok
    assert cert.c_theta is None  # the s_max-growth variant needs theta > 0


def test_coercive_theta_variant_tied_ratio():
    cert = certify_coercive(law(0.5, 0.5, VAR, theta=0.2))
    assert cert.ok
    assert cert.c_theta is not None
    # h^theta / c^theta = (h_bar + 1) / c by construction
    assert cert.h_theta / cert.c_theta == pytest.approx((cert.h_bar + 1.0) / cert.c)
    assert cert.worst_margin_theta >= -1e-12
