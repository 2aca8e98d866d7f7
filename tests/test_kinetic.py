import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow.fluid import VelocityField
from sprayflow.grid import Grid
from sprayflow.kinetic import (
    EscapeError,
    ParticleEnsemble,
    advance,
    deposit,
    drag_dissipation_exact,
    interpolate_velocity,
    reflect,
    sample_initial,
)

GRID = Grid(16, 16)


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
    p = sample_initial(GRID, "zero", 100, mass=1.0)
    assert p.n == 0
    m = deposit(p)
    assert np.all(m.rho == 0.0) and np.all(m.j == 0.0)
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


def test_zero_particle_count_rejected():
    with pytest.raises(ValueError):
        sample_initial(GRID, "uniform", 0, mass=1.0)


# -- advance ------------------------------------------------------------------

def test_advance_closed_form_free_decay():
    dt = np.log(2.0)
    p = single(0.5, 0.5, 1.0, 0.0)
    q = advance(p, None, dt)
    np.testing.assert_allclose(q.V, [[0.5, 0.0]], rtol=1e-14)
    np.testing.assert_allclose(q.X, [[1.0 - 1e-12, 0.5]], rtol=1e-12)  # shift 0.5, clipped off the wall


def test_advance_fval_growth_factor():
    dt = np.log(2.0)
    p = single(0.2, 0.5, 0.0, 0.0, fv=3.0)
    q = advance(p, None, dt, d=2)
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
    q = advance(p, None, 0.05)
    np.testing.assert_array_equal(q.w, p.w)


def test_advance_rejects_bad_dt():
    with pytest.raises(ValueError):
        advance(single(0.5, 0.5, 0.0, 0.0), None, 0.0)


def test_free_decay_energy_factor_per_step():
    p = sample_initial(GRID, "uniform", 500, mass=1.0, vmax=0.2, seed=3)
    e = p.kinetic_energy()
    q = advance(p, None, 0.01)
    assert q.kinetic_energy() == pytest.approx(e * np.exp(-0.02), rel=1e-13)


def test_drag_dissipation_closed_form():
    p = single(0.5, 0.5, 0.8, -0.6)
    dt = 0.3
    expected = 1.0 * (0.8**2 + 0.6**2) * (1.0 - np.exp(-2 * dt)) / 2.0
    assert drag_dissipation_exact(p, None, dt) == pytest.approx(expected, rel=1e-14)
    # it is exactly the kinetic energy lost in free decay
    q = advance(p, None, dt)
    assert p.kinetic_energy() - q.kinetic_energy() == pytest.approx(
        drag_dissipation_exact(p, None, dt), rel=1e-12
    )


# -- reflection ---------------------------------------------------------------

def test_reflect_left_wall_mirror():
    X = np.array([[-0.03, 0.5]])
    V = np.array([[-1.0, 0.2]])
    Xr, Vr = reflect(X, V, GRID)
    assert Xr[0, 0] == pytest.approx(0.03)
    np.testing.assert_allclose(Vr, [[1.0, 0.2]])


def test_reflect_corner_flips_both():
    X = np.array([[-0.02, 1.01]])
    V = np.array([[-0.5, 0.7]])
    Xr, Vr = reflect(X, V, GRID)
    np.testing.assert_allclose(Xr, [[0.02, 0.99]])
    np.testing.assert_allclose(Vr, [[0.5, -0.7]])


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
    Xr, Vr = reflect(X, V, GRID)
    assert np.hypot(*Vr[0]) == pytest.approx(np.hypot(vx, vy), abs=1e-30)
    assert GRID.contains(Xr)[0]


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
    uk = interpolate_velocity(vel, X)
    np.testing.assert_allclose(uk[:, 0], 0.7, rtol=1e-14)
    np.testing.assert_allclose(uk[:, 1], -0.4, rtol=1e-14)


def test_deposit_is_adjoint_of_interpolation():
    # h^2 sum_cells rho * u_c = sum_particles w * u_k holds exactly when the
    # scatter and the gather use one stencil, clamped corners included
    g = Grid(12, 20, 0.6, 1.0)  # h = 0.05, non-square domain
    h = g.h
    rng = np.random.default_rng(12)
    vel = VelocityField(g, 1.0 + rng.standard_normal((g.nx + 1, g.ny)),
                        1.0 + rng.standard_normal((g.nx, g.ny + 1)))

    def near(lo, size):  # within half a cell of the lower wall/corner
        return lo + rng.uniform(1e-3 * h, 0.5 * h, size)

    k = 8
    along_x = rng.uniform(0.0, g.lx, k)
    along_y = rng.uniform(0.0, g.ly, k)
    X = np.vstack([
        rng.uniform((0.0, 0.0), (g.lx, g.ly), size=(200, 2)),
        np.column_stack([near(0.0, k), along_y]),           # left wall
        np.column_stack([g.lx - near(0.0, k), along_y]),    # right wall
        np.column_stack([along_x, near(0.0, k)]),           # bottom wall
        np.column_stack([along_x, g.ly - near(0.0, k)]),    # top wall
        np.column_stack([near(0.0, k), near(0.0, k)]),      # corners
        np.column_stack([g.lx - near(0.0, k), g.ly - near(0.0, k)]),
        np.column_stack([near(0.0, k), g.ly - near(0.0, k)]),
        np.column_stack([g.lx - near(0.0, k), near(0.0, k)]),
    ])
    assert np.all(g.contains(X))
    n = X.shape[0]
    w = rng.uniform(0.1, 1.0, n)
    V = 1.0 + rng.standard_normal((n, 2))
    p = ParticleEnsemble(g, X, V, w, np.ones(n))

    m = deposit(p)
    uk = interpolate_velocity(vel, X)
    uc, vc = vel.cell_centered()
    vol = g.cell_volume
    mass_side = vol * np.sum(m.rho * uc)
    np.testing.assert_allclose(mass_side, np.sum(w * uk[:, 0]), rtol=1e-13, atol=0)
    momentum_side = vol * np.sum(m.j[..., 0] * uc + m.j[..., 1] * vc)
    np.testing.assert_allclose(momentum_side, np.sum(w * np.sum(V * uk, axis=1)),
                               rtol=1e-13, atol=0)
