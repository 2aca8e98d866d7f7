"""Structural identities of the staggered-grid solver: exact adjointness of
stress divergence vs. symmetric gradient, skew-symmetric convection, and the
Leray projection contracts."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from sprayflow.coupling import drag_force
from sprayflow.exponent import (
    ExponentField,
    constant_field,
    sinusoidal_field,
    two_phase_switch_field,
)
from sprayflow.fluid import (
    BlowUp,
    CFLViolation,
    FluidOps,
    FluidState,
    VelocityField,
    fluid_step,
    stream_bump,
    stream_function_field,
)
from sprayflow.grid import Grid
from sprayflow.kinetic import MomentFields
from sprayflow.rheology import StressLaw

GRID = Grid(24, 24)
OPS = FluidOps(GRID)
REST = VelocityField.zeros(GRID)
CW = np.array([1.0, 1.0, 2.0])


def random_noslip(seed, grid=GRID, scale=1.0):
    rng = np.random.default_rng(seed)
    vel = VelocityField(
        grid,
        scale * rng.standard_normal((grid.nx + 1, grid.ny)),
        scale * rng.standard_normal((grid.nx, grid.ny + 1)),
    )
    vel.enforce_walls()
    return vel


def as_vector(vel: VelocityField) -> np.ndarray:
    return np.concatenate([vel.u.ravel(), vel.v.ravel()])


def stress_divergence(ops: FluidOps, vel: VelocityField, law: StressLaw, t: float) -> VelocityField:
    s = law.exponent.values[law.exponent.slab_index(t)]
    return ops.stress_divergence_of(law.eval_packed(s, ops.sym_gradient(vel)))


def inner(a: VelocityField, b: VelocityField) -> float:
    return a.grid.cell_volume * (float(np.sum(a.u * b.u)) + float(np.sum(a.v * b.v)))


# -- symmetric gradient -------------------------------------------------------

def test_sym_gradient_zero():
    assert np.all(OPS.sym_gradient(VelocityField.zeros(GRID)) == 0.0)


def test_sym_gradient_shear_field_interior():
    # u = (y, x): Du = [[0, 1], [1, 0]] exactly on interior cells
    h = GRID.h
    yu = (np.arange(GRID.ny) + 0.5) * h
    xv = (np.arange(GRID.nx) + 0.5) * h
    vel = VelocityField(GRID, np.tile(yu, (GRID.nx + 1, 1)),
                        np.tile(xv[:, None], (1, GRID.ny + 1)))
    du = OPS.sym_gradient(vel)
    interior = du[1:-1, 1:-1]
    np.testing.assert_allclose(interior[..., 0], 0.0, atol=1e-13)
    np.testing.assert_allclose(interior[..., 1], 0.0, atol=1e-13)
    np.testing.assert_allclose(interior[..., 2], 1.0, atol=1e-13)


def test_sym_gradient_linear_strain_interior():
    # u = (x, -y): Du = diag(1, -1), trace-free
    h = GRID.h
    xu = np.arange(GRID.nx + 1) * h
    yv = np.arange(GRID.ny + 1) * h
    vel = VelocityField(GRID, np.tile(xu[:, None], (1, GRID.ny)),
                        -np.tile(yv, (GRID.nx, 1)))
    du = OPS.sym_gradient(vel)
    np.testing.assert_allclose(du[..., 0], 1.0, atol=1e-13)
    np.testing.assert_allclose(du[..., 1], -1.0, atol=1e-13)
    np.testing.assert_allclose(du[1:-1, 1:-1, 2], 0.0, atol=1e-13)


@pytest.mark.parametrize("grid", [
    Grid(16, 16), Grid(32, 32), Grid(64, 32, 2.0, 1.0), Grid(24, 24), Grid(16, 24, 1.0, 1.5),
], ids=["16", "32", "64x32", "24", "16x24"])
def test_sym_gradient_trace_is_the_divergence_bitwise(grid):
    # convection reads the trace of Du as its cell divergence; the identity is
    # exact because both add the same two face differences over h in one order
    ops = FluidOps(grid)
    for seed in range(5):
        vel = random_noslip(seed, grid)
        du = ops.sym_gradient(vel)
        trace = du[..., 0] + du[..., 1]
        assert trace.tobytes() == ops.divergence(vel).tobytes()


# -- convection ---------------------------------------------------------------

def test_convective_zero_field():
    vel = VelocityField.zeros(GRID)
    out = OPS.convective(vel, OPS.divergence(vel))
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_convective_skew_symmetry(seed):
    vel = random_noslip(seed)
    conv = OPS.convective(vel, OPS.divergence(vel))
    scale = vel.max_speed() ** 3 / GRID.h
    assert abs(inner(conv, vel)) <= 1e-12 * max(scale, 1e-30)


def test_convective_skew_symmetry_divfree():
    vel, _ = OPS.project(random_noslip(7))
    conv = OPS.convective(vel, OPS.divergence(vel))
    scale = vel.max_speed() ** 3 / GRID.h
    assert abs(inner(conv, vel)) <= 1e-12 * scale


# -- stress divergence --------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_stress_divergence_adjointness(seed):
    field = sinusoidal_field(GRID, 1.0, base=2.1, amplitude=0.3)
    law = StressLaw(0.4, 0.6, field)
    vel = random_noslip(seed)
    du = OPS.sym_gradient(vel)
    stress = law.eval_packed(field.values[0], du)
    divs = OPS.stress_divergence_of(stress)
    lhs = -inner(divs, vel)
    rhs = GRID.cell_volume * float(np.sum(stress * du * CW))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_stencils_match_sparse_reference_non_square_mesh():
    # reference: the symmetric gradient G assembled as Kronecker products of
    # 1-D difference, average and odd-mirror centred-difference matrices;
    # sym_gradient is G, stress_divergence_of is -G^T on the weighted stress.
    # The 12 x 8 mesh has face rows 8 values wide: numpy 2.4.6 gets
    # np.negative(x, out=y) wrong on float64 views with that stride
    for grid in (Grid(16, 24, 1.0, 1.5), Grid(12, 8, 1.5, 1.0)):
        _check_stencils_against_sparse_reference(grid)


def _check_stencils_against_sparse_reference(grid):
    ops = FluidOps(grid)
    nx, ny, h = grid.nx, grid.ny, grid.h

    def diff(n):
        return sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1)) / h

    def avg(n):
        return sp.diags([np.full(n, 0.5), np.full(n, 0.5)], [0, 1], shape=(n, n + 1))

    def centred_mirror(n):
        main = np.zeros(n)
        main[0], main[-1] = 1.0, -1.0
        return sp.diags([-np.ones(n - 1), main, np.ones(n - 1)], [-1, 0, 1]) * (0.5 / h)

    nu, nv, nc = (nx + 1) * ny, nx * (ny + 1), nx * ny
    G = sp.bmat([
        [sp.kron(diff(nx), sp.identity(ny)), sp.csr_matrix((nc, nv))],
        [sp.csr_matrix((nc, nu)), sp.kron(sp.identity(nx), diff(ny))],
        [0.5 * sp.kron(avg(nx), centred_mirror(ny)), 0.5 * sp.kron(centred_mirror(nx), avg(ny))],
    ], format="csr")

    vel = random_noslip(10, grid=grid)
    du = ops.sym_gradient(vel)
    ref = np.moveaxis((G @ as_vector(vel)).reshape(3, nx, ny), 0, -1)
    assert np.abs(du - ref).max() <= 1e-13 * np.abs(ref).max()

    stress = np.random.default_rng(11).standard_normal((nx, ny, 3))
    divs = ops.stress_divergence_of(stress)
    ref = -(G.T @ np.moveaxis(stress * CW, -1, 0).ravel())
    ref_u, ref_v = ref[:nu].reshape(nx + 1, ny), ref[nu:].reshape(nx, ny + 1)
    scale = np.abs(ref).max()
    assert np.abs(divs.u[1:-1, :] - ref_u[1:-1, :]).max() <= 1e-13 * scale
    assert np.abs(divs.v[:, 1:-1] - ref_v[:, 1:-1]).max() <= 1e-13 * scale
    assert np.all(divs.u[[0, -1], :] == 0.0) and np.all(divs.v[:, [0, -1]] == 0.0)

    lhs = -inner(divs, vel)
    rhs = grid.cell_volume * float(np.sum(stress * du * CW))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def same_bits(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (7, 8), (8, 7), (9, 13), (24, 5)],
                         ids=lambda s: f"{s[0]}x{s[1]}")
def test_operators_commute_bitwise_with_the_xy_swap(shape):
    # the MAC scheme is symmetric under x <-> y (u <-> v^T, S11 <-> S22^T), so
    # each operator on the swapped data is the swapped result, bit for bit.
    # h = 1/8 is exact on both meshes, so the swap keeps h to the last bit
    nx, ny = shape
    grid, swapped = Grid(nx, ny, nx / 8, ny / 8), Grid(ny, nx, ny / 8, nx / 8)
    assert swapped.h == grid.h
    ops, ops_t = FluidOps(grid), FluidOps(swapped)
    rng = np.random.default_rng(nx * ny)
    vel = random_noslip(nx + ny, grid)
    vel_t = VelocityField(swapped, vel.v.T.copy(), vel.u.T.copy())

    def assert_swapped(a: VelocityField, b: VelocityField):
        assert same_bits(a.u, b.v.T) and same_bits(a.v, b.u.T)

    du, du_t = ops.sym_gradient(vel), ops_t.sym_gradient(vel_t)
    for k, k_t in ((0, 1), (1, 0), (2, 2)):
        assert same_bits(du_t[..., k], du[..., k_t].T)
    div = ops.divergence(vel)
    assert same_bits(ops_t.divergence(vel_t), div.T)
    assert_swapped(ops_t.convective(vel_t, div.T.copy()), ops.convective(vel, div.copy()))

    stress = rng.standard_normal((nx, ny, 3))
    stress_t = np.stack([stress[..., 1].T, stress[..., 0].T, stress[..., 2].T], axis=-1)
    assert_swapped(ops_t.stress_divergence_of(stress_t), ops.stress_divergence_of(stress))

    phi = rng.standard_normal((nx, ny))
    assert_swapped(ops_t.gradient(phi.T.copy()), ops.gradient(phi))
    (uc, vc), (uc_t, vc_t) = vel.cell_centered(), vel_t.cell_centered()
    assert same_bits(uc_t, vc.T) and same_bits(vc_t, uc.T)

    rho, jx, jy = rng.random((nx, ny)), rng.standard_normal((nx, ny)), rng.standard_normal((nx, ny))
    moments_t = MomentFields(swapped, rho.T.copy(), jy.T.copy(), jx.T.copy())
    assert_swapped(drag_force(moments_t, vel_t), drag_force(MomentFields(grid, rho, jx, jy), vel))


def test_stress_divergence_newtonian_matches_laplacian():
    """With nu1 = 0 the stress divergence is nu0 * (1/2) lap u for div-free u;
    compare against the 5-point stencil on interior faces at two meshes."""
    nu0 = 1.0

    def defect(n):
        grid = Grid(n, n)
        ops = FluidOps(grid)
        h = grid.h
        vel = stream_function_field(
            grid, lambda x, y: 0.1 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
        )
        law = StressLaw(nu0, 0.0, constant_field(grid, 1.0, 2.0))
        div = stress_divergence(ops, vel, law, 0.0)
        u = vel.u
        lap_u = (
            u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:] - 4 * u[1:-1, 1:-1]
        ) / h**2
        return float(np.abs(div.u[2:-2, 1:-1] - nu0 / 2 * lap_u[1:-1, :]).max())

    d32, d64 = defect(32), defect(64)
    assert d32 < 0.2            # both stencils approximate the same operator
    assert d64 < d32 / 3.0      # and the gap shrinks ~ O(h^2)


def test_stress_divergence_zero_field():
    law = StressLaw(1.0, 1.0, constant_field(GRID, 1.0, 2.5))
    out = stress_divergence(OPS, VelocityField.zeros(GRID), law, 0.0)
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


# -- projection ---------------------------------------------------------------

def test_projection_divergence_free():
    vel = random_noslip(3)
    proj, _ = OPS.project(vel)
    div = OPS.divergence(proj)
    assert np.abs(div).max() <= 1e-10 * proj.max_speed() / GRID.h


def test_projection_idempotent():
    proj, _ = OPS.project(random_noslip(4))
    again, _ = OPS.project(proj)
    scale = max(proj.max_speed(), 1.0)
    assert np.abs(again.u - proj.u).max() <= 1e-10 * scale
    assert np.abs(again.v - proj.v).max() <= 1e-10 * scale


def test_projection_leaves_divfree_unchanged():
    vel = stream_function_field(
        GRID, lambda x, y: np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    proj, _ = OPS.project(vel)
    assert np.abs(proj.u - vel.u).max() <= 1e-11 * vel.max_speed()
    assert np.abs(proj.v - vel.v).max() <= 1e-11 * vel.max_speed()


def test_projection_annihilates_gradients():
    # discrete gradient of a cell scalar with masked wall faces is pure-gradient
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((GRID.nx, GRID.ny))
    gfield = OPS.gradient(phi)
    proj, _ = OPS.project(gfield)
    scale = max(gfield.max_speed(), 1.0)
    assert np.abs(proj.u).max() <= 1e-10 * scale
    assert np.abs(proj.v).max() <= 1e-10 * scale


def test_projection_non_square_mesh():
    # nx != ny, so swapping the x and y eigenvalues of the solve would fail
    grid = Grid(16, 24, 1.0, 1.5)
    ops = FluidOps(grid)
    nx, ny, h = grid.nx, grid.ny, grid.h
    vel = random_noslip(9, grid=grid)
    proj, phi = ops.project(vel)

    speed = proj.max_speed()
    assert np.abs(ops.divergence(proj)).max() <= 1e-10 * speed / h
    again, _ = ops.project(proj)
    scale = max(speed, 1.0)
    assert np.abs(again.u - proj.u).max() <= 1e-10 * scale
    assert np.abs(again.v - proj.v).max() <= 1e-10 * scale

    # reference: phi solves D M D^T phi = -D u, assembled here as sparse
    # matrices with D the face-to-cell divergence and M masking wall faces
    def diff(n):
        return sp.diags([-np.ones(n), np.ones(n)], [0, 1], shape=(n, n + 1)) / h

    D = sp.hstack([sp.kron(diff(nx), sp.identity(ny)),
                   sp.kron(sp.identity(nx), diff(ny))], format="csr")
    um = np.ones((nx + 1, ny))
    um[[0, -1], :] = 0.0
    vm = np.ones((nx, ny + 1))
    vm[:, [0, -1]] = 0.0
    A = D @ sp.diags(np.concatenate([um.ravel(), vm.ravel()])) @ D.T
    rhs = -(D @ as_vector(vel))
    residual = np.abs(A @ phi.ravel() - rhs).max()
    assert residual <= 1e-10 * np.abs(rhs).max()


# -- time stepping ------------------------------------------------------------

def make_law(grid=GRID, nu0=0.1, nu1=0.0, s=2.0):
    return StressLaw(nu0, nu1, constant_field(grid, 10.0, s))


def test_rest_state_stays_at_rest():
    state = FluidState(VelocityField.zeros(GRID), 0.0)
    law = make_law()
    for _ in range(5):
        state, d_stress = fluid_step(OPS, state, law, 1e-3, REST)
    assert state.velocity.energy() == 0.0
    assert d_stress == 0.0


def test_unforced_energy_monotone_decay():
    vel = stream_function_field(
        GRID, lambda x, y: 0.1 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    vel, _ = OPS.project(vel)
    state = FluidState(vel, 0.0)
    law = make_law(nu0=0.5)
    energies = [state.velocity.energy()]
    for _ in range(30):
        state, _ = fluid_step(OPS, state, law, 1e-4, REST)
        energies.append(state.velocity.energy())
    assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_cfl_violation_refused():
    vel = random_noslip(6)
    state = FluidState(vel, 0.0)
    with pytest.raises(CFLViolation):
        fluid_step(OPS, state, make_law(nu0=5.0), 0.5, REST)


def test_cfl_limit_bounds_pointwise_secant_viscosity():
    # max|Du| < 1 with a varying exponent: the slab's smallest exponent gives
    # the largest |Du|^(s-2), so the bound must not use the largest one alone
    grid = Grid(32, 32)
    ops = FluidOps(grid)
    field = sinusoidal_field(grid, 1.0, base=2.4, amplitude=0.35)
    law = StressLaw(0.0, 1.0, field)
    vel = stream_function_field(
        grid, lambda x, y: 0.02 * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    du = ops.sym_gradient(vel)
    mag = np.sqrt(np.sum(du**2 * CW, axis=-1))
    assert mag.max() < 1.0
    g = law.nu0 + law.nu1 * mag ** (field.values[0] - 2.0)
    assert ops.cfl_limit(vel, law, field.values[0]) <= grid.h**2 / (2.0 * g.max())


@pytest.mark.parametrize("amp", [0.02, 2.0], ids=["max-Du-below-1", "max-Du-above-1"])
@pytest.mark.parametrize("slab", [0, 1], ids=["s=2", "switched"])
def test_cfl_limit_is_the_laws_viscosity_at_max_du(amp, slab):
    # theta > 0 on a switching exponent: the bound is h^2 / (2 g^theta) at
    # max|Du| and the worse of the slab's two extreme exponents, written out
    # by hand here, and stays below the pointwise bound
    grid = Grid(32, 32)
    ops = FluidOps(grid)
    field = two_phase_switch_field(grid, 1.0, 0.5, base_after=2.4, amplitude_after=0.35)
    law = StressLaw(0.05, 0.5, field, theta=0.1)
    vel = stream_function_field(
        grid, lambda x, y: amp * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    s = field.values[slab]
    du = ops.sym_gradient(vel)
    mag = np.sqrt(np.sum(du**2 * CW, axis=-1))
    m = mag.max()
    assert (m > 1.0) == (amp > 1.0)
    smax = field.values.max()

    def g(e, xi):
        return 0.05 + 0.5 * xi ** (e - 2.0) + 0.1 * smax * xi ** (smax - 2.0)

    dt_diff = grid.h**2 / (2.0 * max(g(s.min(), m), g(s.max(), m)))
    assert dt_diff < grid.h / vel.max_speed()
    limit = ops.cfl_limit(vel, law, s)
    assert limit == pytest.approx(dt_diff, rel=1e-14)
    assert limit <= grid.h**2 / (2.0 * g(s, mag).max())


def test_blowup_detected():
    vel = VelocityField.zeros(GRID)
    vel.u[5, 5] = np.inf
    with pytest.raises(BlowUp):
        fluid_step(OPS, FluidState(vel, 0.0), make_law(), 1e-6, REST)


def test_max_speed_sees_a_nan_in_either_component():
    # Python's max(1.0, nan) is 1.0, so joining the component maxima with it
    # gave a finite speed, and a finite CFL bound, for a nan in v alone
    vel = VelocityField.zeros(GRID)
    vel.u[5, 5] = 1.0
    vel.v[3, 4] = np.nan
    assert np.isnan(vel.max_speed())
    vel.v[3, 4] = -2.0
    assert vel.max_speed() == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_step_refuses_a_non_finite_v_before_any_gradient(monkeypatch, bad):
    # the step checks its input only through cfl_limit's max speed, read
    # before the field enters any arithmetic
    def no_gradient(self, vel):
        raise AssertionError("sym_gradient ran on a non-finite field")

    monkeypatch.setattr(FluidOps, "sym_gradient", no_gradient)
    vel = VelocityField.zeros(GRID)
    vel.u[5, 5] = 1.0
    vel.v[3, 4] = bad
    with pytest.raises(BlowUp, match="non-finite"):
        fluid_step(OPS, FluidState(vel, 0.0), make_law(), 1e-6, REST)


def test_step_reads_max_speed_once_and_sweeps_no_input_for_finiteness(monkeypatch):
    # cfl_limit's max speed is the step's one read of max|u|, and its
    # finiteness check replaced an np.isfinite pass over u and v
    speeds, swept = [], []
    max_speed = VelocityField.max_speed
    isfinite = np.isfinite

    def counting(self):
        speeds.append(self)
        return max_speed(self)

    def recording(x, *args, **kwargs):
        swept.append(x)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(VelocityField, "max_speed", counting)
    monkeypatch.setattr(np, "isfinite", recording)
    vel, _ = OPS.project(random_noslip(12, scale=0.1))
    fluid_step(OPS, FluidState(vel, 0.0), make_law(), 1e-5, REST)
    assert speeds == [vel]
    assert not any(np.shares_memory(x, a) for x in swept for a in (vel.u, vel.v))


def test_step_records_dissipation_sign():
    vel, _ = OPS.project(random_noslip(8, scale=0.1))
    state = FluidState(vel, 0.0)
    law = StressLaw(0.1, 0.05, constant_field(GRID, 10.0, 2.3))
    energy_before = vel.energy()
    state, d_stress = fluid_step(OPS, state, law, 1e-4, REST)
    assert d_stress >= 0.0
    assert state.velocity.energy() <= energy_before


@pytest.mark.parametrize("theta", [0.0, 0.01])
@pytest.mark.parametrize("preset", ["constant", "sinusoidal", "two_phase"])
def test_step_dissipation_is_the_packed_stress_work(preset, theta):
    # the step takes sum S:Du h^2 dt as -<div S, u> h^2 dt; the packed sum
    # written out here is the formula it replaced, and the two must agree to
    # roundoff on either side of two_phase's switch
    field = {"constant": constant_field(GRID, 1.0, 2.5),
             "sinusoidal": sinusoidal_field(GRID, 1.0, base=2.2, amplitude=0.3),
             "two_phase": two_phase_switch_field(GRID, 1.0, 0.5)}[preset]
    law = StressLaw(0.05, 0.1, field, theta)
    for seed, t in [(0, 0.25), (1, 0.25), (2, 0.75), (3, 0.75)]:
        vel = random_noslip(seed, scale=0.1)
        dt = 0.5 * OPS.cfl_limit(vel, law, field.values[field.slab_index(t)])
        _, d_stress = fluid_step(OPS, FluidState(vel, t), law, dt, REST)
        du = OPS.sym_gradient(vel)
        stress = law.eval_packed(field.values[field.slab_index(t + 0.5 * dt)], du)
        np.multiply(stress, du, out=du)
        du[..., 2] *= 2.0                   # S:Du weights (1, 1, 2)
        expected = float(np.sum(du)) * GRID.cell_volume * dt
        assert expected > 0.0
        assert d_stress == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_exponent_switch_takes_effect_on_its_step(monkeypatch):
    # ten steps of 0.01 end at 0.09999999999999999, so a slab looked up at the
    # step's start time would run step 11 under the slab before the switch
    grid = Grid(8, 8)
    field = two_phase_switch_field(grid, 1.0, 0.1)
    law = StressLaw(0.1, 0.01, field)
    seen = []
    eval_packed = StressLaw.eval_packed

    def recording(self, s, packed, out=None):
        seen.append(s)
        return eval_packed(self, s, packed, out)

    monkeypatch.setattr(StressLaw, "eval_packed", recording)
    state = FluidState(VelocityField.zeros(grid), 0.0)
    for _ in range(11):
        state, _ = fluid_step(FluidOps(grid), state, law, 0.01, VelocityField.zeros(grid))
    before, after = field.values
    assert len(seen) == 11
    assert all(np.array_equal(s, before) for s in seen[:10])
    assert np.array_equal(seen[10], after)


def test_step_looks_up_the_exponent_once_and_hands_it_to_cfl_limit(monkeypatch):
    # one slab search per step: cfl_limit gets the slab's cached extremes,
    # not the slab, and the stress the slab's values
    grid = Grid(8, 8)
    field = two_phase_switch_field(grid, 1.0, 0.1, base_after=2.4, amplitude_after=0.35)
    law = StressLaw(0.1, 0.01, field)
    looked_up, limited, stressed = [], [], []
    slab_index = ExponentField.slab_index
    cfl_limit = FluidOps.cfl_limit
    eval_packed = StressLaw.eval_packed

    def recording_lookup(self, t):
        looked_up.append(slab_index(self, t))
        return looked_up[-1]

    def recording_limit(self, vel, law, s):
        limited.append(s)
        return cfl_limit(self, vel, law, s)

    def recording_stress(self, s, packed, out=None):
        stressed.append(s)
        return eval_packed(self, s, packed, out)

    monkeypatch.setattr(ExponentField, "slab_index", recording_lookup)
    monkeypatch.setattr(FluidOps, "cfl_limit", recording_limit)
    monkeypatch.setattr(StressLaw, "eval_packed", recording_stress)
    state = FluidState(VelocityField.zeros(grid), 0.1)
    fluid_step(FluidOps(grid), state, law, 0.01, VelocityField.zeros(grid))
    assert looked_up == [1]
    assert len(limited) == 1
    assert limited[0].tolist() == [field.slab_min[1], field.slab_max[1]]
    assert field.slab_min[1] < field.slab_max[1]
    assert len(stressed) == 1 and np.shares_memory(stressed[0], field.values[1])
    np.testing.assert_array_equal(stressed[0], field.values[1])


def test_step_leaves_its_inputs_unmodified():
    # the step works in place on its own temporaries only
    law = StressLaw(0.1, 0.05, sinusoidal_field(GRID, 1.0, base=2.2, amplitude=0.2), 0.01)
    vel, _ = OPS.project(random_noslip(9, scale=0.1))
    source = random_noslip(10, scale=0.1)
    before = [a.copy() for a in (vel.u, vel.v, source.u, source.v)]
    fluid_step(OPS, FluidState(vel, 0.0), law, 1e-4, source)
    for a, b in zip((vel.u, vel.v, source.u, source.v), before):
        assert a.tobytes() == b.tobytes()


def _step_transient_cells(n):
    """Peak numpy allocation of one n^2 step above what is live on entry, in
    cell arrays (nx ny doubles)."""
    grid = Grid(n, n)
    ops = FluidOps(grid)
    law = StressLaw(0.05, 0.1, sinusoidal_field(grid, 1.0, base=2.2, amplitude=0.2), 0.01)
    state = FluidState(stream_bump(grid, 0.1), 0.0)
    source = random_noslip(11, grid, scale=0.1)
    dt = 0.5 * ops.cfl_limit(state.velocity, law, law.exponent.values[0])
    state, _ = fluid_step(ops, state, law, dt, source)  # warm-up
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fluid_step(ops, state, law, dt, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / (grid.ncells * 8)


# each grid temporary dies after its last reader.  The budgets are the
# measured peaks (8.55, 7.40, 7.10) plus 0.5, and 512^2 keeps the 256^2
# budget; at 128^2 numpy's fixed 64 KiB ufunc buffers are a larger share of a
# cell array than on the larger meshes

@pytest.mark.parametrize("n, budget", [(128, 9.05), (256, 7.9), (512, 7.9)], ids=["128", "256", "512"])
def test_step_transient_memory_within_budget(n, budget):
    cells = _step_transient_cells(n)
    assert cells <= budget, f"fluid_step peak at {n}^2: {cells:.2f} cell arrays"
