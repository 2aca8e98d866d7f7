import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from sprayflow.config import preset_parameters
from sprayflow.fluid import VelocityField
from sprayflow.grid import Grid
from sprayflow.kinetic import (
    _MAX_REFLECTIONS,
    EscapeError,
    ParticleEnsemble,
    _cic,
    advance,
    deposit,
    drag_dissipation_exact,
    interpolate_velocity,
    reflect,
    sample_initial,
)

GRID = Grid(16, 16)
REST = VelocityField.zeros(GRID)
WALL_GRID = Grid(12, 20, 0.6, 1.0)  # h = 0.05, non-square domain


def single(x, y, vx, vy, w=1.0, fv=1.0, grid=GRID):
    return ParticleEnsemble(
        grid,
        np.array([[x, y]]),
        np.array([[vx, vy]]),
        np.array([w]),
        np.array([fv]),
    )


# -- sampling -----------------------------------------------------------------

def test_uniform_equal_weights():
    p = sample_initial(GRID, "uniform", 4, mass=1.0, seed=0)
    np.testing.assert_array_equal(p.w, 0.25)
    assert p.mass == pytest.approx(1.0)
    assert np.all(GRID.contains(p.X))


def test_zero_preset_empty():
    p = sample_initial(GRID, "zero")
    assert p.X.shape[0] == 0
    m = deposit(p)
    assert np.all(m.rho == 0.0) and np.all(m.jx == 0.0) and np.all(m.jy == 0.0)
    assert p.kinetic_energy() == 0.0


def test_maxwellian_second_moment():
    temp = 0.3
    n = 40_000
    p = sample_initial(GRID, "maxwellian", n, mass=1.0, temperature=temp, seed=1)
    # E|V|^2 = 2T in two dimensions; Var(|V|^2) = 4T^2, so sigma of the mean
    # is 2T/sqrt(n)
    mean_v2 = float(np.mean(np.sum(p.V**2, axis=1)))
    assert abs(mean_v2 - 2.0 * temp) <= 3.0 * 2.0 * temp / np.sqrt(n)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        sample_initial(GRID, "ring", 10, mass=1.0)


def test_unknown_preset_rejected_without_mass():
    with pytest.raises(ValueError, match="ring"):
        sample_initial(GRID, "ring", 10, mass=0.0)


def test_zero_particle_count_rejected():
    with pytest.raises(ValueError):
        sample_initial(GRID, "uniform", 0, mass=1.0)


@pytest.mark.parametrize("preset", ["zero", "uniform", "maxwellian"])
@pytest.mark.parametrize("kwargs, name", [
    (dict(mass=-0.05), "mass"),
    (dict(mass=np.nan), "mass"),
    (dict(mass=1.0, vmax=0.0), "vmax"),
    (dict(mass=1.0, vmax=np.inf), "vmax"),
    (dict(mass=1.0, temperature=0.0), "temperature"),
    (dict(mass=1.0, temperature=-1.0), "temperature"),
], ids=["negative-mass", "nan-mass", "zero-vmax", "infinite-vmax",
        "zero-temperature", "negative-temperature"])
def test_sample_values_the_sampler_cannot_use_rejected(preset, kwargs, name):
    # a negative mass gives negative weights; vmax or temperature <= 0 divides
    # by zero or takes the root of a negative number; every preset that takes
    # the key refuses them, and a preset that does not take it refuses the key
    takes = preset_parameters("kinetic", preset)
    count = {"n_particles": 10} if "n_particles" in takes else {}
    if kwargs.keys() <= takes.keys():
        with pytest.raises(ValueError, match=name):
            sample_initial(GRID, preset, **count, **kwargs)
    else:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            sample_initial(GRID, preset, **count, **kwargs)


def test_uniform_refuses_a_phase_space_volume_that_is_not_a_normal_double():
    # each factor is a normal double, but lx ly (2 vmax)^2 = 4e-400 is 0, and
    # the density divided by it
    grid = Grid(16, 16, 1e-100, 1e-100)
    with pytest.raises(ValueError, match="vmax .* not a normal double"):
        sample_initial(grid, "uniform", 10, mass=1.0, vmax=1e-100)
    assert sample_initial(grid, "uniform", 10, mass=1.0, vmax=1e-50).fval[0] > 0.0


# -- advance ------------------------------------------------------------------

def test_advance_closed_form_free_decay():
    dt = np.log(2.0)
    p = single(0.5, 0.5, 1.0, 0.0)
    q = advance(p, REST, dt)
    np.testing.assert_allclose(q.V, [[0.5, 0.0]], rtol=1e-14)
    np.testing.assert_allclose(q.X, [[1.0 - 1e-12, 0.5]], rtol=1e-12)  # shift 0.5, clipped off the wall


def test_advance_fval_growth_factor():
    dt = np.log(2.0)
    p = single(0.2, 0.5, 0.0, 0.0, fv=3.0)
    q = advance(p, REST, dt)
    assert q.fval[0] == pytest.approx(12.0, rel=1e-14)  # e^{2 ln 2} = 4


def test_advance_equilibrium_with_flow():
    # constant interior velocity: a co-moving particle keeps V and drifts u dt
    vel = VelocityField(GRID, np.full((GRID.nx + 1, GRID.ny), 0.25),
                        np.zeros((GRID.nx, GRID.ny + 1)))
    p = single(0.4, 0.5, 0.25, 0.0)
    q = advance(p, vel, 0.1)
    np.testing.assert_allclose(q.V, [[0.25, 0.0]], rtol=1e-13)
    np.testing.assert_allclose(q.X, [[0.4 + 0.025, 0.5]], rtol=1e-13)


def test_advance_weights_untouched():
    p = sample_initial(GRID, "uniform", 50, mass=0.7, seed=2)
    q = advance(p, REST, 0.05)
    np.testing.assert_array_equal(q.w, p.w)


def test_advance_leaves_the_old_ensemble_unchanged():
    # the new ensemble shares w, and u_k's buffer becomes its X: nothing of
    # the old ensemble, whose cached stencil reads X, is written
    p = sample_initial(GRID, "uniform", 200, mass=0.7, vmax=3.0, seed=5)
    before = [a.copy() for a in (p.X, p.V, p.w, p.fval)]
    rng = np.random.default_rng(6)
    vel = VelocityField(GRID, rng.standard_normal((GRID.nx + 1, GRID.ny)),
                        rng.standard_normal((GRID.nx, GRID.ny + 1)))
    stencil = p.stencil  # built first, as the step's deposit does
    q = advance(p, vel, 0.2)
    for old, a in zip(before, (p.X, p.V, p.w, p.fval)):
        np.testing.assert_array_equal(a, old)
    fresh = _cic(GRID, before[0])
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(stencil, part), getattr(fresh, part))
    assert not np.array_equal(q.X, p.X)


def test_advance_drops_the_stencil_after_its_interpolation():
    # advance is the step's last reader of P (3.25 (n, 2) arrays); dropped
    # once u_k is read, the push's arrays take its place, so the peak above
    # entry is the interpolation's 2.0 (n, 2) arrays (4.39 with P kept)
    n = 1 << 14
    p = sample_initial(GRID, "uniform", n, mass=0.7, vmax=3.0, seed=5)
    rng = np.random.default_rng(6)
    vel = VelocityField(GRID, rng.standard_normal((GRID.nx + 1, GRID.ny)),
                        rng.standard_normal((GRID.nx, GRID.ny + 1)))
    tracemalloc.start()
    try:
        p.stencil  # built while traced, as the step's deposit builds it, so its release counts
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        advance(p, vel, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (16 * n) <= 2.5
    assert "stencil" not in vars(p)
    fresh = _cic(GRID, p.X)  # a later read rebuilds the same operator
    for part in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(p.stencil, part), getattr(fresh, part))


def test_advance_rejects_bad_dt():
    with pytest.raises(ValueError):
        advance(single(0.5, 0.5, 0.0, 0.0), REST, 0.0)


def test_free_decay_energy_factor_per_step():
    p = sample_initial(GRID, "uniform", 500, mass=1.0, vmax=0.2, seed=3)
    e = p.kinetic_energy()
    q = advance(p, REST, 0.01)
    assert q.kinetic_energy() == pytest.approx(e * np.exp(-0.02), rel=1e-13)


def test_drag_dissipation_closed_form():
    p = single(0.5, 0.5, 0.8, -0.6)
    dt = 0.3
    expected = 1.0 * (0.8**2 + 0.6**2) * (1.0 - np.exp(-2 * dt)) / 2.0
    assert drag_dissipation_exact(p, REST, dt) == pytest.approx(expected, rel=1e-14)
    # it is exactly the kinetic energy lost in free decay
    q = advance(p, REST, dt)
    assert p.kinetic_energy() - q.kinetic_energy() == pytest.approx(
        drag_dissipation_exact(p, REST, dt), rel=1e-12
    )


# -- reflection ---------------------------------------------------------------

def test_reflect_left_wall_mirror():
    X = np.array([[-0.03, 0.5]])
    V = np.array([[-1.0, 0.2]])
    reflect(X, V, GRID)
    assert X[0, 0] == pytest.approx(0.03)
    np.testing.assert_allclose(V, [[1.0, 0.2]])


def test_reflect_corner_flips_both():
    X = np.array([[-0.02, 1.01]])
    V = np.array([[-0.5, 0.7]])
    reflect(X, V, GRID)
    np.testing.assert_allclose(X, [[0.02, 0.99]])
    np.testing.assert_allclose(V, [[0.5, -0.7]])


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(min_value=-3.0, max_value=4.0),
    y=st.floats(min_value=-3.0, max_value=4.0),
    vx=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    vy=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
def test_reflect_preserves_speed_and_interiority(x, y, vx, vy):
    X = np.array([[x, y]])
    V = np.array([[vx, vy]])
    reflect(X, V, GRID)
    assert np.hypot(*V[0]) == pytest.approx(np.hypot(vx, vy), abs=1e-30)
    assert GRID.contains(X)[0]


def reflect_one(x, v, extents):
    """Per-particle reference for reflect, in plain Python floats."""
    x, v = list(x), list(v)
    for _ in range(_MAX_REFLECTIONS):
        outside = False
        for a, ell in enumerate(extents):
            if x[a] < 0.0:
                x[a], v[a], outside = -x[a], -v[a], True
            if x[a] > ell:
                x[a], v[a], outside = 2.0 * ell - x[a], -v[a], True
        if not outside:
            break
    else:
        raise EscapeError("reference particle escaped")
    for a, ell in enumerate(extents):
        eps = 1e-12 * ell
        x[a] = min(max(x[a], eps), ell - eps)
    return x, v


_UNIT = st.floats(min_value=-3.0, max_value=4.0)


@settings(max_examples=40, deadline=None)
@given(
    out=hnp.arrays(np.float64, (150, 2), elements=_UNIT),
    inside=hnp.arrays(np.float64, (50, 2), elements=st.floats(min_value=0.0, max_value=1.0)),
    V=hnp.arrays(np.float64, (200, 2), elements=st.floats(min_value=-5.0, max_value=5.0)),
)
def test_reflect_batch_matches_per_particle_loop(out, inside, V):
    g = WALL_GRID
    extents = (g.lx, g.ly)
    # positions in [-3L, 4L] per axis, a quarter of them inside the domain
    X = np.vstack([out, inside]) * extents
    X0, V0 = X.copy(), V.copy()
    reflect(X, V, g)
    for i in range(X.shape[0]):
        xe, ve = reflect_one(X0[i], V0[i], extents)
        assert X[i].tolist() == xe and V[i].tolist() == ve, i


def test_reflect_escape_guard():
    X = np.array([[1e4, 0.5]])
    V = np.array([[1.0, 0.0]])
    with pytest.raises(EscapeError):
        reflect(X, V, GRID)


# -- deposition and interpolation --------------------------------------------

def test_deposit_particle_at_cell_center():
    g = Grid(8, 8, 4.0, 4.0)  # h = 0.5
    cx, cy = (2 + 0.5) * 0.5, (3 + 0.5) * 0.5
    p = single(cx, cy, 0.0, 0.0, grid=g)
    m = deposit(p)
    assert m.rho[2, 3] == pytest.approx(1.0 / 0.25)
    m.rho[2, 3] = 0.0
    assert np.all(m.rho == 0.0)


def test_deposit_particle_at_cell_corner():
    g = Grid(8, 8, 4.0, 4.0)
    p = single(2.0, 2.0, 0.0, 0.0, grid=g)  # corner of cells (3,3),(4,3),(3,4),(4,4)
    m = deposit(p)
    w = m.rho * g.cell_volume
    for i, j in ((3, 3), (4, 3), (3, 4), (4, 4)):
        assert w[i, j] == pytest.approx(0.25)
    assert w.sum() == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(min_value=1, max_value=300))
def test_deposit_mass_identity(seed, n):
    p = sample_initial(GRID, "uniform", n, mass=0.8, vmax=2.0, seed=seed)
    m = deposit(p)
    assert float(m.rho.sum()) * GRID.cell_volume == pytest.approx(p.mass, rel=1e-12)
    assert np.all(m.rho >= 0.0)


def test_interpolation_reproduces_constants_everywhere():
    vel = VelocityField(GRID, np.full((GRID.nx + 1, GRID.ny), 0.7),
                        np.full((GRID.nx, GRID.ny + 1), -0.4))
    rng = np.random.default_rng(4)
    X = rng.uniform(0.001, 0.999, size=(200, 2))
    uk = interpolate_velocity(vel, _cic(GRID, X))
    np.testing.assert_allclose(uk[:, 0], 0.7, rtol=1e-14)
    np.testing.assert_allclose(uk[:, 1], -0.4, rtol=1e-14)


def _wall_particles(g, rng, k=8):
    """Random interior points plus k within half a cell of each wall and corner."""
    h = g.h

    def near(size):
        return rng.uniform(1e-3 * h, 0.5 * h, size)

    along_x = rng.uniform(0.0, g.lx, k)
    along_y = rng.uniform(0.0, g.ly, k)
    X = np.vstack([
        rng.uniform((0.0, 0.0), (g.lx, g.ly), size=(200, 2)),
        np.column_stack([near(k), along_y]),                # left wall
        np.column_stack([g.lx - near(k), along_y]),         # right wall
        np.column_stack([along_x, near(k)]),                # bottom wall
        np.column_stack([along_x, g.ly - near(k)]),         # top wall
        np.column_stack([near(k), near(k)]),                # corners
        np.column_stack([g.lx - near(k), g.ly - near(k)]),
        np.column_stack([near(k), g.ly - near(k)]),
        np.column_stack([g.lx - near(k), near(k)]),
    ])
    assert np.all(g.contains(X))
    return X


def test_deposit_is_adjoint_of_interpolation():
    # h^2 sum_cells rho * u_c = sum_particles w * u_k holds exactly when the
    # scatter and the gather use one stencil, clamped corners included
    g = WALL_GRID
    rng = np.random.default_rng(12)
    vel = VelocityField(g, 1.0 + rng.standard_normal((g.nx + 1, g.ny)),
                        1.0 + rng.standard_normal((g.nx, g.ny + 1)))
    X = _wall_particles(g, rng)
    n = X.shape[0]
    w = rng.uniform(0.1, 1.0, n)
    V = 1.0 + rng.standard_normal((n, 2))
    p = ParticleEnsemble(g, X, V, w, np.ones(n))

    m = deposit(p)
    vol = g.cell_volume
    np.testing.assert_allclose(vol * m.rho.sum(), w.sum(), rtol=1e-14, atol=0)
    uk = interpolate_velocity(vel, _cic(g, X))
    uc, vc = vel.cell_centered()
    mass_side = vol * np.sum(m.rho * uc)
    np.testing.assert_allclose(mass_side, np.sum(w * uk[:, 0]), rtol=1e-13, atol=0)
    momentum_side = vol * np.sum(m.jx * uc + m.jy * vc)
    np.testing.assert_allclose(momentum_side, np.sum(w * np.sum(V * uk, axis=1)),
                               rtol=1e-13, atol=0)


def test_cached_stencil_interpolates_as_a_fresh_one():
    g = WALL_GRID
    rng = np.random.default_rng(31)
    vel = VelocityField(g, rng.standard_normal((g.nx + 1, g.ny)),
                        rng.standard_normal((g.nx, g.ny + 1)))
    X = _wall_particles(g, rng)
    n = X.shape[0]
    p = ParticleEnsemble(g, X, rng.standard_normal((n, 2)), np.ones(n), np.ones(n))
    assert p.stencil is p.stencil
    np.testing.assert_array_equal(interpolate_velocity(vel, p.stencil),
                                  interpolate_velocity(vel, _cic(g, X.copy())))


def test_interpolation_reproduces_constants_near_walls():
    g = WALL_GRID
    X = _wall_particles(g, np.random.default_rng(22))
    vel = VelocityField(g, np.full((g.nx + 1, g.ny), 0.7),
                        np.full((g.nx, g.ny + 1), -0.4))
    uk = interpolate_velocity(vel, _cic(g, X))
    np.testing.assert_allclose(uk[:, 0], 0.7, rtol=1e-14)
    np.testing.assert_allclose(uk[:, 1], -0.4, rtol=1e-14)


def test_wall_cell_centre_reads_that_cell():
    # at the centre of a wall cell, and anywhere between it and the wall
    # along the normal, the clamped stencil reads that cell's value alone
    g = WALL_GRID
    h = g.h
    rng = np.random.default_rng(23)
    vel = VelocityField(g, rng.standard_normal((g.nx + 1, g.ny)),
                        rng.standard_normal((g.nx, g.ny + 1)))
    uc, vc = vel.cell_centered()
    cells = [(0, j) for j in range(g.ny)] + [(g.nx - 1, j) for j in range(g.ny)]
    cells += [(i, 0) for i in range(g.nx)] + [(i, g.ny - 1) for i in range(g.nx)]
    i, j = np.array(cells).T
    centres = np.column_stack([(i + 0.5) * h, (j + 0.5) * h])
    uk = interpolate_velocity(vel, _cic(g, centres))
    np.testing.assert_allclose(uk[:, 0], uc[i, j], rtol=0, atol=1e-14)
    np.testing.assert_allclose(uk[:, 1], vc[i, j], rtol=0, atol=1e-14)
    # corner cells: both coordinates between the centre and the walls
    s = rng.uniform(1e-3, 0.5, 4) * h
    corners = np.array([[s[0], s[1]], [g.lx - s[2], g.ly - s[3]],
                        [s[0], g.ly - s[3]], [g.lx - s[2], s[1]]])
    ci = np.array([0, g.nx - 1, 0, g.nx - 1])
    cj = np.array([0, g.ny - 1, g.ny - 1, 0])
    uk = interpolate_velocity(vel, _cic(g, corners))
    np.testing.assert_allclose(uk[:, 0], uc[ci, cj], rtol=0, atol=1e-14)
    np.testing.assert_allclose(uk[:, 1], vc[ci, cj], rtol=0, atol=1e-14)


@pytest.mark.parametrize("nx, ny, lx, ly", [(1, 8, 0.125, 1.0), (8, 1, 1.0, 0.125)])
def test_cic_needs_two_cells_per_axis(nx, ny, lx, ly):
    with pytest.raises(ValueError, match="2 cells"):
        _cic(Grid(nx, ny, lx, ly), np.array([[0.5 * lx, 0.5 * ly]]))


def test_cic_refuses_non_finite_positions():
    # neither the cast warning nor NaN weights: one error naming the rows
    X = np.array([[np.nan, 0.5], [np.inf, 0.3], [0.5, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EscapeError, match="2 of 3 particle positions are not finite"):
            _cic(GRID, X)


# -- the sparse CIC operator P ----------------------------------------------

def _bilinear_oracle(g, X, field):
    """Four-corner bilinear read of a cell-centred (nx, ny) field, one
    particle at a time, with the centre coordinate clamped at the walls."""
    out = np.empty(X.shape[0])
    for k, (x, y) in enumerate(X):
        tx = min(max(x / g.h - 0.5, 0.0), g.nx - 1.0)
        ty = min(max(y / g.h - 0.5, 0.0), g.ny - 1.0)
        i, j = min(int(tx), g.nx - 2), min(int(ty), g.ny - 2)
        tx, ty = tx - i, ty - j
        out[k] = (field[i, j] * ((1.0 - tx) * (1.0 - ty))
                  + field[i + 1, j] * (tx * (1.0 - ty))
                  + field[i, j + 1] * ((1.0 - tx) * ty)
                  + field[i + 1, j + 1] * (tx * ty))
    return out


def test_cic_operator_layout():
    X = _wall_particles(WALL_GRID, np.random.default_rng(40))
    n = X.shape[0]
    P = _cic(WALL_GRID, X)
    assert P.format == "csr" and P.shape == (n, WALL_GRID.ncells)
    np.testing.assert_array_equal(P.indptr, np.arange(0, 4 * n + 1, 4))
    assert P.indices.dtype == np.int32 and P.indptr.dtype == np.int32
    np.testing.assert_allclose(P.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.all(P.data >= 0.0)


def test_cic_operator_matches_a_bilinear_oracle_bit_for_bit():
    g = WALL_GRID
    rng = np.random.default_rng(41)
    X = _wall_particles(g, rng)
    vel = VelocityField(g, rng.standard_normal((g.nx + 1, g.ny)),
                        rng.standard_normal((g.nx, g.ny + 1)))
    P = _cic(g, X)
    uc, vc = vel.cell_centered()
    oracle = np.column_stack([_bilinear_oracle(g, X, uc), _bilinear_oracle(g, X, vc)])
    np.testing.assert_array_equal(interpolate_velocity(vel, P), oracle)
    np.testing.assert_array_equal(P @ np.column_stack([uc.ravel(), vc.ravel()]), oracle)


def test_cic_operator_transpose_is_its_adjoint():
    # <P f, g> = <f, P^T g>: the deposit is the exact adjoint of the gather
    rng = np.random.default_rng(42)
    X = _wall_particles(WALL_GRID, rng)
    P = _cic(WALL_GRID, X)
    f = rng.standard_normal(WALL_GRID.ncells)
    g = rng.standard_normal(X.shape[0])
    lhs, rhs = np.dot(P @ f, g), np.dot(f, P.T @ g)
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


def test_deposit_conserves_mass_to_roundoff():
    g = WALL_GRID
    rng = np.random.default_rng(43)
    X = _wall_particles(g, rng)
    n = X.shape[0]
    w = rng.uniform(0.1, 1.0, n)
    p = ParticleEnsemble(g, X, rng.standard_normal((n, 2)), w, np.ones(n))
    m = deposit(p)
    assert abs(m.rho.sum() * g.cell_volume - w.sum()) <= 1e-15 * w.sum()
    assert all(a.flags.c_contiguous and a.shape == (g.nx, g.ny) for a in (m.rho, m.jx, m.jy))


def test_cic_operator_rejects_int32_overflow():
    with pytest.raises(ValueError, match="int32"):
        _cic(Grid(46341, 46341), np.array([[0.5, 0.5]]))
    # 2**29 rows need 2**31 column indices; a zero-stride view allocates nothing
    many = np.broadcast_to(np.array([0.5, 0.5]), (2**29, 2))
    with pytest.raises(ValueError, match="int32"):
        _cic(GRID, many)
