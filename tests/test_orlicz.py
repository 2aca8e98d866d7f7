"""Modular / Luxemburg-norm numerics, checked against closed forms and an
independent golden-section oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow.orlicz import (
    TENSOR_COMP_WEIGHTS,
    log_modular,
    luxemburg_norm,
    modular,
    modular_distance,
)

W1 = np.ones((4, 4)) / 16.0  # measure-1 mesh


def golden_section_norm(mag, s, w, lo=1e-6, hi=1e6, iters=200):
    """Independent oracle: golden-section search for modular(xi/lam) = 1.

    Works in log space on |log modular|, which is V-shaped with no flat
    plateau (the raw |modular - 1| saturates at 1 for large lam, where golden
    section stalls on ties).
    """
    phi = (np.sqrt(5.0) - 1.0) / 2.0

    def obj(x):
        with np.errstate(over="ignore", divide="ignore"):
            rho = float(np.sum(w * (mag / np.exp(x)) ** s))
            return abs(np.log(rho)) if rho > 0 else np.inf

    a, b = np.log(lo), np.log(hi)
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    for _ in range(iters):
        if obj(c) < obj(d):
            b = d
        else:
            a = c
        c = b - phi * (b - a)
        d = a + phi * (b - a)
    return float(np.exp(0.5 * (a + b)))


# -- modular ------------------------------------------------------------------

def test_modular_of_ones_is_one():
    assert modular(np.ones((4, 4)), 2.7, W1) == pytest.approx(1.0)


def test_modular_constant_two():
    assert modular(np.full((4, 4), 2.0), 2.0, W1) == pytest.approx(4.0)


def test_log_modular_matches_the_direct_sum_in_range():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((8, 8, 3))
    vals[2, 3] = 0.0  # a zero cell is left out of the log sum
    s = rng.uniform(2.0, 4.0, (8, 8))
    w = np.full((8, 8), 1.0 / 64)
    direct = modular(vals, s, w, TENSOR_COMP_WEIGHTS)
    assert log_modular(vals, s, w, TENSOR_COMP_WEIGHTS) == pytest.approx(np.log(direct), rel=1e-14)
    assert log_modular(np.zeros((4, 4)), 2.0, W1) == -np.inf


def test_log_modular_finite_past_the_double_range():
    # sum over 16 cells of (1/16) (1e120)^3 = 1e360, which overflows a double
    vals = np.full((4, 4), 1e120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_modular(vals, 3.0, W1) == pytest.approx(360.0 * np.log(10.0), rel=1e-15)


def test_modular_two_cell_hand_sum():
    vals = np.array([2.0, 2.0])
    s = np.array([2.0, 4.0])
    w = np.array([0.5, 0.5])
    assert modular(vals, s, w) == pytest.approx(0.5 * 4 + 0.5 * 16)


def test_modular_shape_mismatch():
    with pytest.raises(ValueError):
        modular(np.ones((3, 3)), 2.0, W1)


def test_luxemburg_norm_shape_mismatch():
    # a field that only broadcasts against the weights is refused, as by modular
    with pytest.raises(ValueError, match="shape mismatch"):
        luxemburg_norm(np.ones(4), 2.0, np.ones((4, 4)))


@pytest.mark.parametrize("fn", [modular, log_modular, luxemburg_norm])
@pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
def test_exponent_not_finite_and_positive_refused(fn, s):
    # s = -1 would bisect to a "norm" of 2 although the infimum is 0, and
    # s = 0 divides by zero in the bracket; one bad cell is enough to refuse
    field = np.full((4, 4), 2.0)
    with pytest.raises(ValueError, match="exponent"):
        fn(field, s, W1)
    one_bad = np.full((4, 4), 2.0)
    one_bad[1, 2] = s
    with pytest.raises(ValueError, match="exponent"):
        fn(field, one_bad, W1)


def test_modular_tensor_frobenius():
    # diag(1, -1) packed: |xi|^2 = 2, and the off-diagonal counts twice
    packed = np.zeros((1, 3))
    packed[0] = (1.0, -1.0, 0.0)
    assert modular(packed, 2.0, np.ones(1), TENSOR_COMP_WEIGHTS) == pytest.approx(2.0)
    shear = np.zeros((1, 3))
    shear[0] = (0.0, 0.0, 1.0)
    assert modular(shear, 2.0, np.ones(1), TENSOR_COMP_WEIGHTS) == pytest.approx(2.0)


# -- luxemburg norm -----------------------------------------------------------

def test_norm_constant_exponent_is_classical():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((4, 4))
    for p in (2.0, 3.0, 4.5):
        classical = float(np.sum(W1 * np.abs(vals) ** p)) ** (1.0 / p)
        assert luxemburg_norm(vals, p, W1) == pytest.approx(classical, rel=1e-8)


def test_norm_two_cell_closed_form():
    # half-measure cells with s = 2 and s = 4, value 2: with y = (2/lam)^2 the
    # unit-ball equation reads y/2 + y^2/2 = 1, so y = 1 and lam = 2
    vals = np.array([2.0, 2.0])
    s = np.array([2.0, 4.0])
    w = np.array([0.5, 0.5])
    assert luxemburg_norm(vals, s, w) == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("s", [2.0, 3.0, "variable"])
@pytest.mark.parametrize("size", [1e-200, 1e-120, 2.0, 1e120, 1e200])
def test_norm_of_constant_field_at_any_scale(size, s):
    # |xi| = size on a measure-1 mesh has norm size for every exponent: the
    # bracket is the point 1 for a constant exponent, and bisection runs to
    # its tolerance for a variable one
    expo = np.linspace(1.8, 3.2, 16).reshape(4, 4) if s == "variable" else s
    rel = 1e-10 if s == "variable" else 1e-15
    assert abs(luxemburg_norm(np.full((4, 4), size), expo, W1) / size - 1.0) <= rel


def test_norm_zero_field():
    assert luxemburg_norm(np.zeros((4, 4)), 2.5, W1) == 0.0


def test_norm_against_golden_section_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        vals = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-2, 2)
        s = rng.uniform(2.0, 3.0, size=(4, 4))
        got = luxemburg_norm(vals, s, W1)
        want = golden_section_norm(np.abs(vals), s, W1)
        assert got == pytest.approx(want, rel=1e-7)


def test_norm_unit_ball_property():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((8, 8))
    s = rng.uniform(2.0, 4.0, size=(8, 8))
    w = np.ones((8, 8)) / 64.0
    lam = luxemburg_norm(vals, s, w)
    assert modular(vals / lam, s, w) == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_norm_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((4, 4))
    s = rng.uniform(2.0, 3.5, size=(4, 4))
    n1 = luxemburg_norm(vals, s, W1)
    n2 = luxemburg_norm(scale * vals, s, W1)
    assert n2 == pytest.approx(scale * n1, rel=1e-8)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    s = rng.uniform(2.0, 3.5, size=(4, 4))
    na = luxemburg_norm(a, s, W1)
    nb = luxemburg_norm(b, s, W1)
    nab = luxemburg_norm(a + b, s, W1)
    assert nab <= (na + nb) * (1.0 + 1e-8)


# -- modular convergence ------------------------------------------------------

def test_modular_distance_zero_sequence():
    vals = np.ones((4, 4))
    for lam in (0.1, 1.0, 7.0):
        assert modular_distance(vals, vals, 2.0, lam, W1) == 0.0


def test_modular_distance_one_over_n():
    base = np.ones((4, 4))
    for n in (1, 2, 10):
        d = modular_distance(base + 1.0 / n, base, 2.0, 1.0, W1)
        assert d == pytest.approx(1.0 / n**2)


def test_modular_distance_rejects_bad_lambda():
    with pytest.raises(ValueError):
        modular_distance(np.ones((4, 4)), np.zeros((4, 4)), 2.0, 0.0, W1)


def test_modular_convergence_matches_norm_convergence():
    # bounded exponents: modular -> 0 at lam = 1 iff norms of differences -> 0
    rng = np.random.default_rng(5)
    target = rng.standard_normal((4, 4))
    s = rng.uniform(2.0, 3.0, size=(4, 4))
    mods, norms = [], []
    for n in (1, 2, 4, 8, 16):
        xn = target + rng.standard_normal((4, 4)) / n
        mods.append(modular_distance(xn, target, s, 1.0, W1))
        norms.append(luxemburg_norm(xn - target, s, W1))
    assert all(m2 < m1 for m1, m2 in zip(mods[::2], mods[1::2])) or mods[-1] < mods[0]
    assert norms[-1] < 1e-1 * norms[0]
    assert mods[-1] < 1e-2 * mods[0]


def test_product_of_modular_sequences_converges_in_l1():
    # three synthetic sequences: phi_n -> phi in L^s, psi_n -> psi in L^{s'}
    # implies phi_n psi_n -> phi psi in L^1
    rng = np.random.default_rng(9)
    s = rng.uniform(2.0, 3.0, size=(4, 4))
    sc = s / (s - 1.0)
    for trial in range(3):
        phi = rng.standard_normal((4, 4))
        psi = rng.standard_normal((4, 4))
        dphi = rng.standard_normal((4, 4))
        dpsi = rng.standard_normal((4, 4))
        l1_errs = []
        for n in (1, 4, 16, 64):
            phin = phi + dphi / n
            psin = psi + dpsi / n
            assert modular_distance(phin, phi, s, 1.0, W1) < 4.0 / n**2 * 16
            assert modular_distance(psin, psi, sc, 1.0, W1) < 4.0 / n**2 * 16
            l1_errs.append(float(np.sum(W1 * np.abs(phin * psin - phi * psi))))
        assert l1_errs[-1] < 1e-1 * l1_errs[0]


# -- Hoelder pairing ----------------------------------------------------------

def holder_pairing(phi, psi, s, weights):
    """integral |phi psi| / (||phi||_{L^s} ||psi||_{L^{s'}}) with s' = s/(s-1);
    0 when a factor vanishes.  The variable-exponent Hoelder inequality bounds
    it by 2 (Diening, Harjulehto, Hasto & Ruzicka, LNM 2017, 2011)."""
    s = np.asarray(s, dtype=float)
    nphi = luxemburg_norm(phi, s, weights)
    npsi = luxemburg_norm(psi, s / (s - 1.0), weights)
    if nphi == 0.0 or npsi == 0.0:
        return 0.0
    return float(np.sum(weights * np.abs(phi * psi))) / (nphi * npsi)


def test_pairing_zero_factors():
    z = np.zeros((4, 4))
    assert holder_pairing(z, z, 2.0, W1) == 0.0


def test_pairing_cauchy_schwarz_case():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((4, 4))
    ratio = holder_pairing(phi, phi, 2.0, W1)
    assert ratio == pytest.approx(1.0, rel=1e-10)


def test_pairing_bounded_by_two_randomized():
    rng = np.random.default_rng(3)
    for _ in range(200):
        phi = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 3)
        psi = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-3, 3)
        s = rng.uniform(2.0, 3.0, size=(4, 4))
        assert holder_pairing(phi, psi, s, W1) <= 2.0 * (1.0 + 1e-12)
