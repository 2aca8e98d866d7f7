"""Spectral pressure solvers on the padded periodic box.

The whole-plane problems are posed up to a decaying-at-infinity normalization
that the box replaces with zero mean, so analytic comparisons align means
before taking the max norm."""

import numpy as np
import pytest

from sprayflow import pressure
from sprayflow.grid import Grid
from sprayflow.pressure import (
    PaddedBox,
    PressureProblem,
    SupportError,
    residual,
    solve,
    verify_bounds,
    verify_locality,
)

GRID = Grid(64, 64)
BOX = PaddedBox(GRID)


def bump(center=(0.5, 0.5), rad=0.2, grid=GRID):
    xc, yc = grid.cell_centers()
    rho2 = ((xc - center[0]) ** 2 + (yc - center[1]) ** 2) / rad**2
    return np.clip(1.0 - rho2, 0.0, None) ** 3


def gaussian(center=(0.5, 0.5), sigma=0.05, grid=GRID):
    xc, yc = grid.cell_centers()
    return np.exp(-((xc - center[0]) ** 2 + (yc - center[1]) ** 2) / (2 * sigma**2))


def aligned_err(a, b):
    return float(np.abs((a - a.mean()) - (b - b.mean())).max())


# -- analytic oracles ---------------------------------------------------------

def test_p1_identity_tensor_times_bump():
    # div div (zeta I) = lap zeta, so p1 = -zeta up to the box normalization
    zeta = bump()
    src = np.stack([zeta, zeta, np.zeros_like(zeta)], axis=-1)
    prob = PressureProblem("p1", BOX.embed(src), BOX)
    p = solve(prob)
    assert aligned_err(p, -BOX.embed(zeta)) <= 1e-8
    assert residual(prob, p) <= 1e-10 * np.abs(src).max()


def test_p3_gradient_source():
    # F = grad g with g a well-resolved Gaussian (exactly zero at the box
    # edge by underflow): -lap p3 = div F = lap g, so p3 = -g
    sigma = 0.05
    g = gaussian(sigma=sigma)
    xc, yc = GRID.cell_centers()
    F = np.stack([-(xc - 0.5) / sigma**2 * g, -(yc - 0.5) / sigma**2 * g], axis=-1)
    prob = PressureProblem("p3", BOX.embed(F), BOX)
    p = solve(prob)
    assert aligned_err(p, -BOX.embed(g)) <= 1e-8
    assert residual(prob, p) <= 1e-10 * np.abs(F).max()


def test_p3_divergence_free_source_vanishes():
    # perpendicular gradient of a scalar is divergence-free
    sigma = 0.05
    g = gaussian(sigma=sigma)
    xc, yc = GRID.cell_centers()
    F = np.stack([-(yc - 0.5) / sigma**2 * g, (xc - 0.5) / sigma**2 * g], axis=-1)
    p = solve(PressureProblem("p3", BOX.embed(F), BOX))
    assert np.abs(p).max() <= 1e-10 * np.abs(F).max()


def test_p2_residual():
    zeta = bump(rad=0.15)
    src = np.stack([zeta, 0.5 * zeta, -0.3 * zeta], axis=-1)
    prob = PressureProblem("p2", BOX.embed(src), BOX)
    p = solve(prob)
    assert residual(prob, p) <= 1e-10 * np.abs(src).max()


def test_linearity():
    za, zb = bump(center=(0.4, 0.5)), bump(center=(0.6, 0.6), rad=0.15)
    sa = np.stack([za, -za, 0.2 * za], axis=-1)
    sb = np.stack([0.3 * zb, zb, zb], axis=-1)
    pa = solve(PressureProblem("p1", BOX.embed(sa), BOX))
    pb = solve(PressureProblem("p1", BOX.embed(sb), BOX))
    pc = solve(PressureProblem("p1", BOX.embed(2.0 * sa - 3.0 * sb), BOX))
    scale = np.abs(pc).max()
    assert np.abs(pc - (2.0 * pa - 3.0 * pb)).max() <= 1e-12 * scale


def test_p4_theta_scaling_exact():
    # p4's source theta beta goes through p1; its solution scales with theta
    beta = np.stack([bump(), -bump(), np.zeros((GRID.nx, GRID.ny))], axis=-1)
    theta = 0.37
    p_beta = solve(PressureProblem("p1", BOX.embed(beta), BOX))
    p_scaled = solve(PressureProblem("p1", BOX.embed(theta * beta), BOX))
    np.testing.assert_allclose(p_scaled, theta * p_beta, rtol=0, atol=1e-14)


# -- input validation ---------------------------------------------------------

def test_empty_source_rejected():
    with pytest.raises(ValueError):
        PressureProblem("p1", np.zeros((BOX.n, BOX.n, 3)), BOX)


def test_noncompact_support_rejected():
    src = np.ones((BOX.n, BOX.n, 3))
    with pytest.raises(SupportError):
        PressureProblem("p1", src, BOX)


def test_unknown_kind_rejected():
    for kind in ("p9", "p4"):   # p4's source goes through p1
        with pytest.raises(ValueError):
            PressureProblem(kind, np.ones((BOX.n, BOX.n, 3)), BOX)


def test_zero_mean_output():
    src = np.stack([bump(), bump(), bump()], axis=-1)
    p = solve(PressureProblem("p1", BOX.embed(src), BOX))
    assert abs(p.mean()) <= 1e-14 * np.abs(p).max()


# -- empirical bound and locality reports -------------------------------------

def test_bound_ratios_stable_across_resolutions():
    r64 = verify_bounds(Grid(64, 64), n_samples=10, seed=0)
    r128 = verify_bounds(Grid(128, 128), n_samples=10, seed=0)
    for kind in ("p1", "p2", "p3"):
        a, b = r64[kind].worst, r128[kind].worst
        assert a > 0 and b > 0
        assert max(a, b) / min(a, b) <= 2.0


def test_p3_ratio_below_one():
    # k_min > 1 on the padded box, so ||p3||_2 <= ||F||_2 / k_min < ||F||_2
    rep = verify_bounds(GRID, n_samples=10, seed=1)["p3"]
    assert rep.worst <= 1.0 + 1e-6


def test_bound_ratios_measure_tensor_sources_in_the_frobenius_norm(monkeypatch):
    # one fixed source with every component nonzero: a12 counts twice in
    # |A|_F^2 = a11^2 + a22^2 + 2 a12^2, as in S:Du and the Luxemburg norms
    grid = Grid(16, 16)
    box = PaddedBox(grid)
    src = bump(rad=0.3, grid=grid)[..., None] * np.array([0.3, -0.2, 0.5])
    monkeypatch.setattr(pressure, "_random_bump_tensor", lambda rng, g: src)
    reports = verify_bounds(grid, n_samples=10)
    h2 = grid.cell_volume
    frob2 = src[..., 0] ** 2 + src[..., 1] ** 2 + 2.0 * src[..., 2] ** 2
    vec2 = src[..., 0] ** 2 + src[..., 1] ** 2

    def l2(kind, source):
        p = box.extract(solve(PressureProblem(kind, box.embed(source), box)))
        return np.sqrt(np.sum(h2 * p**2))

    expected = {
        "p1": l2("p1", src) / np.sqrt(np.sum(h2 * frob2)),
        "p2": l2("p2", src) / np.sqrt(np.sum(h2 * frob2**2)),   # ||src||_4^2
        "p3": l2("p3", src[..., :2]) / np.sqrt(np.sum(h2 * vec2)),
    }
    for kind, ratio in expected.items():
        assert reports[kind].ratios == pytest.approx([ratio] * 10, rel=1e-12), kind
    # |k.A.k| <= |A|_F |k|^2 pointwise in Fourier space, so p1 is a contraction
    assert reports["p1"].worst <= 1.0


def test_bounds_need_enough_samples():
    with pytest.raises(ValueError):
        verify_bounds(GRID, n_samples=3)


def test_locality_monotone_decay():
    loc = verify_locality(GRID, (0.5, 0.5), 0.15)
    assert loc.monotone
    assert all(np.isfinite(v) for v in loc.sup_p + loc.sup_grad_p)
    assert loc.sup_p[-1] < loc.sup_p[0]
    assert loc.sup_grad_p[-1] < loc.sup_grad_p[0]


def test_locality_padding_sweep():
    # doubling the padding changes the measured far field by at most 5%
    a = verify_locality(GRID, (0.5, 0.5), 0.15, factor=4.0)
    b = verify_locality(GRID, (0.5, 0.5), 0.15, factor=8.0)
    for pa, pb in zip(a.sup_p, b.sup_p):
        assert abs(pa - pb) <= 0.05 * max(pb, 1e-30)
