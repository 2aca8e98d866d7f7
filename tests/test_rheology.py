import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow.exponent import constant_field, sinusoidal_field, two_phase_switch_field
from sprayflow.grid import Grid
from sprayflow.rheology import (
    CoercivityError,
    MonotonicityReport,
    StressLaw,
    _young_gap,
    certify_coercive,
    certify_monotone,
    coercivity_margin,
    packed_inner,
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
    as viscosity(s, |xi|) xi with s = exponent.sample(t, x)."""
    s = l.exponent.sample(t, x)
    packed = xi[..., [0, 1, 0], [0, 1, 1]]
    g = l.viscosity(s, np.sqrt(packed_inner(packed, packed)), regularized)
    return (g[..., None] * packed)[..., [0, 2, 2, 1]].reshape(xi.shape)


# -- pointwise evaluation -----------------------------------------------------

def test_zero_strain_gives_zero_stress_exactly():
    out = stress(law(1.0, 1.0, S3), 0.0, ORIGIN, np.zeros((2, 2)))
    assert np.all(out == 0.0)
    out = stress(law(1.0, 1.0, S3, theta=0.5), 0.0, ORIGIN, np.zeros((2, 2)), True)
    assert np.all(out == 0.0)


def test_viscosity_is_continuous_at_zero_strain_for_s_2():
    # g(0) = nu0 + nu1 at s = 2, the limit of g at |xi| -> 0; S = g xi stays 0
    g0 = law(0.3, 0.7, S2).viscosity(np.array(2.0), np.array(0.0), regularized=True)
    assert g0 == 0.3 + 0.7
    for l in (law(0.3, 0.7, S2), law(0.3, 0.7, S2, theta=0.2)):
        assert l.viscosity(np.array(2.0), np.array(0.0)) == \
            l.viscosity(np.array(2.0), np.array(1e-300))


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


def test_integer_coefficients_act_as_floats():
    # np.full(shape, nu0) takes nu0's dtype, so an int nu0 made viscosity raise
    field = constant_field(Grid(16, 16), 1, 3.0)
    mag = np.array([0.0, 0.5, 2.0])
    g = StressLaw(0, 1, field, theta=0).viscosity(np.full(3, 3.0), mag)
    np.testing.assert_array_equal(
        g, StressLaw(0.0, 1.0, field).viscosity(np.full(3, 3.0), mag))
    law_ = StressLaw(1, 0, field)
    assert all(type(v) is float for v in (law_.nu0, law_.nu1, law_.theta))


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
    l = law(0.0, 1.0, S3)
    cert = certify_coercive(l)
    assert cert.c == 2.0
    assert cert.h_bar == 0.0
    assert coercivity_margin(l, cert.c, cert.h_bar).ok


def test_coercive_newtonian_s2():
    l = law(1.0, 0.0, S2)
    cert = certify_coercive(l)
    assert cert.c == 2.0
    assert cert.h_bar == 0.0
    assert coercivity_margin(l, cert.c, cert.h_bar).ok


def test_coercive_mixed_law_finite_certificate():
    l = law(1.0, 1.0, sinusoidal_field(GRID, 1.0, 2.0, 1.0))
    cert = certify_coercive(l)
    assert np.isfinite(cert.c) and np.isfinite(cert.h_bar)
    assert coercivity_margin(l, cert.c, cert.h_bar).ok
    assert cert.theta is None  # the s_max-growth variant needs theta > 0


def test_coercive_theta_variant_holds_for_all_magnitudes():
    # both inequalities at every mesh exponent over |xi| in [1e-40, 1e40]
    l = law(0.5, 0.5, VAR, theta=0.2)
    cert = certify_coercive(l)
    assert cert.theta is not None and cert.theta.theta is None
    assert coercivity_margin(l, cert.c, cert.h_bar).ok
    assert coercivity_margin(l, cert.theta.c, cert.theta.h_bar, regularized=True).ok


@pytest.mark.parametrize("l", [
    law(1.0, 0.0, S3),                               # |xi|^s outgrows c nu0 |xi|^2
    law(1.0, 1.0, constant_field(GRID, 1.0, 1.5)),   # below the closed form's s >= 2
], ids=["nu1-zero-s-above-2", "s-below-2"])
def test_coercive_without_a_closed_form_raises(l):
    with pytest.raises(CoercivityError):
        certify_coercive(l)


def listed_coercive_constants(l):
    """(c, h_bar, c_theta, h_theta) with every distinct mesh exponent listed
    (np.unique) and each maximum taken over the list: the reference for the
    closed form's few-exponent evaluation."""
    nu0, nu1, p = l.nu0, l.nu1, l.s_max
    s = np.unique(l.exponent.values)
    g = nu0 + nu1
    c, h_bar = ((1.0 + g * g) / g if s[0] == 2.0 else 0.0), 0.0
    above = s[s > 2.0]
    if above.size:
        sc = above / (above - 1.0)
        kf = (1.0 + (nu0 > 0.0)) ** (sc - 1.0)
        c = max(c, np.max((1.0 + kf * nu1**sc) / nu1), np.max(kf * nu0 ** (sc - 1.0)))
        h_bar = np.max(kf * nu0**sc * _young_gap(sc / 2.0))
    if l.theta == 0.0:
        return c, h_bar
    pc = p / (p - 1.0)
    coef = np.array([a for a in (nu0, nu1, l.theta * p) if a > 0.0])
    kf = coef.size ** (pc - 1.0)
    gaps = nu0**pc * _young_gap(pc / p) + nu1**pc * _young_gap((s - 1.0) / (p - 1.0))
    return c, h_bar, (1.0 + kf * np.sum(coef**pc)) / (l.theta * p), kf * np.max(gaps)


MESH_64 = Grid(64, 64)


@pytest.mark.parametrize("field, n_interior", [
    (constant_field(MESH_64, 1.0, 2.0), 0),
    (constant_field(MESH_64, 1.0, 2.5), 0),
    (sinusoidal_field(MESH_64, 1.0, amplitude=0.15), 0),
    (sinusoidal_field(MESH_64, 1.0, amplitude=1.5), 6),
    (sinusoidal_field(MESH_64, 1.0, amplitude=3.0), 12),
    (two_phase_switch_field(MESH_64, 1.0, switch_time=0.5), 0),
], ids=["constant-2", "constant-2.5", "sin-0.15", "sin-1.5", "sin-3", "two_phase"])
def test_closed_form_maxima_equal_the_listed_evaluation(field, n_interior):
    # nu0 = 3 and 10 give k nu0 = 6 and 20 > 4, where h_bar's maximum can sit
    # at an interior exponent: n_interior of the 30 laws put it there
    interior = 0
    for nu0, nu1, theta in itertools.product((0.0, 0.05, 1.0, 3.0, 10.0), (0.005, 0.5, 2.0),
                                             (0.0, 0.05)):
        l = law(nu0, nu1, field, theta)
        cert = certify_coercive(l)
        got = (cert.c, cert.h_bar) + ((cert.theta.c, cert.theta.h_bar) if theta else ())
        np.testing.assert_allclose(got, listed_coercive_constants(l), rtol=1e-13, atol=0.0)
        assert coercivity_margin(l, cert.c, cert.h_bar).ok
        if theta:
            assert coercivity_margin(l, cert.theta.c, cert.theta.h_bar, regularized=True).ok
        s = np.unique(field.values)
        s = s[s > 2.0]
        sc = s / (s - 1.0)
        h = 2.0 ** (sc - 1.0) * nu0**sc * _young_gap(sc / 2.0)
        interior += bool(s.size and nu0 and 0 < np.argmax(h) < s.size - 1)
    assert interior == n_interior


@settings(max_examples=50, deadline=None)
@given(nu0=st.floats(0.0, 10.0), nu1=st.floats(0.0, 10.0), theta=st.floats(0.0, 0.99),
       s_max=st.floats(2.0, 6.0), frac=st.floats(0.0, 1.0))
def test_radial_flux_nondecreasing(nu0, nu1, theta, s_max, frac):
    # the structural monotonicity argument: S = g(|xi|) xi is the gradient of
    # a convex radial potential because r g(r) is nondecreasing in r
    if nu0 + nu1 == 0.0:
        nu1 = 1.0
    l = StressLaw(nu0, nu1, constant_field(GRID, 1.0, s_max), theta)
    s = 2.0 + frac * (s_max - 2.0)
    r = np.logspace(-40.0, 40.0, 401)
    flux = r * l.viscosity(np.array(s), r)
    assert np.all(np.diff(flux) >= 0.0)
