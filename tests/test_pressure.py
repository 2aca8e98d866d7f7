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
    p = solve("p1", src, BOX)
    assert aligned_err(p, -BOX.embed(zeta)) <= 1e-8
    assert residual("p1", src, BOX, p) <= 1e-10 * np.abs(src).max()


def test_p3_gradient_source():
    # F = grad g with g a well-resolved Gaussian (exactly zero at the box
    # edge by underflow): -lap p3 = div F = lap g, so p3 = -g
    sigma = 0.05
    g = gaussian(sigma=sigma)
    xc, yc = GRID.cell_centers()
    F = np.stack([-(xc - 0.5) / sigma**2 * g, -(yc - 0.5) / sigma**2 * g], axis=-1)
    p = solve("p3", F, BOX)
    assert aligned_err(p, -BOX.embed(g)) <= 1e-8
    assert residual("p3", F, BOX, p) <= 1e-10 * np.abs(F).max()


def test_p3_divergence_free_source_vanishes():
    # perpendicular gradient of a scalar is divergence-free
    sigma = 0.05
    g = gaussian(sigma=sigma)
    xc, yc = GRID.cell_centers()
    F = np.stack([-(yc - 0.5) / sigma**2 * g, (xc - 0.5) / sigma**2 * g], axis=-1)
    p = solve("p3", F, BOX)
    assert np.abs(p).max() <= 1e-10 * np.abs(F).max()


def test_p2_residual():
    zeta = bump(rad=0.15)
    src = np.stack([zeta, 0.5 * zeta, -0.3 * zeta], axis=-1)
    p = solve("p2", src, BOX)
    assert residual("p2", src, BOX, p) <= 1e-10 * np.abs(src).max()


def test_linearity():
    za, zb = bump(center=(0.4, 0.5)), bump(center=(0.6, 0.6), rad=0.15)
    sa = np.stack([za, -za, 0.2 * za], axis=-1)
    sb = np.stack([0.3 * zb, zb, zb], axis=-1)
    pa = solve("p1", sa, BOX)
    pb = solve("p1", sb, BOX)
    pc = solve("p1", 2.0 * sa - 3.0 * sb, BOX)
    scale = np.abs(pc).max()
    assert np.abs(pc - (2.0 * pa - 3.0 * pb)).max() <= 1e-12 * scale


def test_p4_theta_scaling_exact():
    # p4's source theta beta goes through p1; its solution scales with theta
    beta = np.stack([bump(), -bump(), np.zeros((GRID.nx, GRID.ny))], axis=-1)
    theta = 0.37
    p_beta = solve("p1", beta, BOX)
    p_scaled = solve("p1", theta * beta, BOX)
    np.testing.assert_allclose(p_scaled, theta * p_beta, rtol=0, atol=1e-14)


# -- input validation ---------------------------------------------------------

def test_empty_source_rejected():
    for check in (solve, lambda *args: residual(*args, np.zeros((BOX.n, BOX.n)))):
        with pytest.raises(ValueError, match="empty"):
            check("p1", np.zeros((GRID.nx, GRID.ny, 3)), BOX)


def test_box_without_margin_rejected():
    # a source on the domain mesh touches the box edge unless a zero cell
    # separates them: 0.7 diameters is 64 cells on the 64-cell mesh, 0.71
    # rounds up to 66, one zero cell on each side
    for factor in (0.5, 0.7):
        with pytest.raises(ValueError, match="zero cell"):
            PaddedBox(GRID, factor)
    assert PaddedBox(GRID, 0.71).offset == (1, 1)


def test_source_off_the_domain_mesh_rejected():
    for shape in ((BOX.n, BOX.n, 3), (GRID.nx, GRID.ny, 2), (GRID.nx, GRID.ny)):
        with pytest.raises(ValueError, match="shape"):
            solve("p1", np.ones(shape), BOX)
    with pytest.raises(ValueError, match="shape"):
        solve("p3", np.ones((GRID.nx, GRID.ny, 3)), BOX)


def test_unknown_kind_rejected():
    for kind in ("p9", "p4"):   # p4's source goes through p1
        with pytest.raises(ValueError, match="kind"):
            solve(kind, np.ones((GRID.nx, GRID.ny, 3)), BOX)


def test_zero_mean_output():
    src = np.stack([bump(), bump(), bump()], axis=-1)
    p = solve("p1", src, BOX)
    assert abs(p.mean()) <= 1e-14 * np.abs(p).max()


# -- empirical bound and locality reports -------------------------------------

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
        p = box.extract(solve(kind, source, box))
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
