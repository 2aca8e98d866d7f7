import tracemalloc

import numpy as np
import pytest

from sprayflow.exponent import (
    CertificateFailure,
    CoveringError,
    ExponentField,
    build_covering,
    constant_field,
    log_holder_bounds,
    required_s_min,
    sinusoidal_field,
    two_phase_switch_field,
    validate,
)
from sprayflow.fluid import FluidState, VelocityField
from sprayflow.grid import Grid
from sprayflow.kinetic import MomentFields, deposit, uniform
from sprayflow.rheology import StressLaw
from sprayflow.snapshots import KIND_SCALAR, Snapshot

GRID = Grid(32, 32)


def test_required_bound_values():
    assert required_s_min(2) == 2.0
    assert required_s_min(3) == pytest.approx(11.0 / 5.0)


def test_array_holders_compare_by_identity():
    # fields over ndarrays: == is identity, never an ambiguous array truth value
    grid = Grid(8, 8)
    a, b = constant_field(grid, 1.0, 2.0), constant_field(grid, 1.0, 2.0)
    law = StressLaw(0.1, 0.1, a)
    cover = build_covering(a)
    p, q = (uniform(grid, np.random.default_rng(0), 4, mass=1.0) for _ in range(2))
    vel = VelocityField.zeros(grid)
    pairs = (
        (a, b), (law, StressLaw(0.1, 0.1, a)), (cover, build_covering(a)),
        (p, q), (vel, VelocityField.zeros(grid)), (deposit(p), deposit(q)),
        (FluidState(vel), FluidState(vel)),
        (Snapshot(KIND_SCALAR, 0.0, a.values[0]), Snapshot(KIND_SCALAR, 0.0, a.values[0])),
    )
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2


def test_validate_constant_two_passes():
    field = constant_field(GRID, 1.0, 2.0)
    assert validate(field) is None
    assert field.s_min == field.s_max == 2.0


def test_validate_below_bound_fails():
    with pytest.raises(CertificateFailure, match=r"s_min 1\.9 < required 2\.0"):
        validate(constant_field(GRID, 1.0, 1.9))


def exhaustive_modulus(field):
    """Oracle: per slab, sup |s(x) - s(y)| |ln|x - y|| over every pair of
    cell centres with 0 < |x - y| < 1/2 (0 when no pair is that close)."""
    xc, yc = np.broadcast_arrays(*field.grid.cell_centers())
    pts = np.column_stack([xc.ravel(), yc.ravel()])
    s = field.values.reshape(len(field.starts), -1)
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    dist = np.hypot(*(pts[ii] - pts[jj]).T)
    keep = (dist > 0) & (dist < 0.5)
    ii, jj, dist = ii[keep], jj[keep], dist[keep]
    return np.max(np.abs(s[:, ii] - s[:, jj]) * np.abs(np.log(dist)), axis=1, initial=0.0)


def jump_field(grid, low=2.2, high=2.8):
    """s = low left of x = 1/2 and high from it on: not log-Hoelder."""
    xc, _ = grid.cell_centers()
    values = np.broadcast_to(np.where(xc < 0.5, low, high), (grid.nx, grid.ny))
    return ExponentField((0.0,), values[None], 1.0, grid)


def iid_field(grid, seed):
    """Two slabs of independent uniform exponents in [2, 3]."""
    values = np.random.default_rng(seed).uniform(2.0, 3.0, (2, grid.nx, grid.ny))
    return ExponentField((0.0, 0.5), values, 1.0, grid)


def test_validate_sinusoidal_modulus_finite():
    # the two bounds bracket the exhaustive sweep: on h = 1/8, 1/12, 1/16
    # and 1/24, where r/h is an integer at some dyadic r, so that a rounded
    # r/h could cut a shell's window short; on h = 1/12 from a domain whose
    # float h lies above 1/12; and on a non-square mesh
    grids = [Grid(8, 8), Grid(12, 12), Grid(16, 16), Grid(24, 24), Grid(12, 12, 0.5, 0.5),
             Grid(10, 10, 10 / 12, 10 / 12), Grid(12, 8, 1.5, 1.0)]
    for grid in grids:
        fields = [sinusoidal_field(grid, 1.0, base=2.0, amplitude=0.5), jump_field(grid),
                  two_phase_switch_field(grid, 1.0, 0.5, amplitude_after=0.4),
                  iid_field(grid, 0), iid_field(grid, 1)]
        for field in fields:
            assert validate(field) is None
            bounds = log_holder_bounds(field)
            assert len(bounds) == len(field.starts)
            for (lower, upper), oracle in zip(bounds, exhaustive_modulus(field)):
                assert lower <= oracle * (1 + 1e-12), (grid, lower, oracle)
                assert oracle <= upper * (1 + 1e-12), (grid, oracle, upper)
                assert upper <= 2.0 * lower   # and narrow: a factor 1.7 at most here


@pytest.mark.parametrize("n", [16, 64, 256])
def test_log_holder_bounds_of_a_jump_are_exact(n):
    # a jump of 0.6 across x = 1/2 peaks at the neighbours across it:
    # 0.6 |ln h|, unbounded as h -> 0
    grid = Grid(n, n)
    ((lower, upper),) = log_holder_bounds(jump_field(grid))
    assert lower == pytest.approx(0.6 * abs(np.log(grid.h)), rel=1e-12)
    assert upper == pytest.approx(0.6 * abs(np.log(grid.h)), rel=1e-12)


def test_log_holder_bounds_without_a_close_pair_are_zero():
    # cells of side 2 hold no pair of centres closer than 1/2
    field = sinusoidal_field(Grid(8, 8, 16.0, 16.0), 1.0, base=2.0, amplitude=0.5)
    assert exhaustive_modulus(field)[0] == 0.0
    assert log_holder_bounds(field) == ((0.0, 0.0),)


def test_validate_rejects_nonfinite():
    # a non-finite exponent never reaches validate: ExponentField refuses it
    # when it is built
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.full((1, GRID.nx, GRID.ny), 2.0)
        vals[0, 3, 3] = bad
        with pytest.raises(ValueError, match="exponent field contains non-finite values"):
            ExponentField((0.0,), vals, 1.0, GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validate_rejects_nonfinite_in_a_later_slab(bad):
    # finiteness is read off the cached slab extremes, which a NaN or an
    # infinity anywhere in the slab reaches
    vals = np.full((2, GRID.nx, GRID.ny), 2.5)
    vals[1, 7, 20] = bad
    with pytest.raises(ValueError, match="exponent field contains non-finite values"):
        ExponentField((0.0, 0.5), vals, 1.0, GRID)


def test_slab_extremes_are_read_only():
    field = two_phase_switch_field(GRID, 1.0, 0.5)
    assert not field.slab_min.flags.writeable and not field.slab_max.flags.writeable


def test_slab_ordering_enforced():
    vals = np.full((1, GRID.nx, GRID.ny), 2.0)
    with pytest.raises(ValueError):
        ExponentField((0.5,), vals, 1.0, GRID)  # must start at 0
    with pytest.raises(ValueError):
        ExponentField((0.0, 0.0), np.concatenate([vals, vals]), 1.0, GRID)
    with pytest.raises(ValueError):
        ExponentField((), vals[:0], 1.0, GRID)


@pytest.mark.parametrize("shape", [(2, 32, 32), (32, 32), (1, 33, 32), (1, 32, 31)])
def test_values_must_be_one_grid_per_slab_on_the_mesh(shape):
    with pytest.raises(ValueError, match="shape"):
        ExponentField((0.0,), np.full(shape, 2.0), 1.0, GRID)


def test_slab_lookup_and_durations():
    field = two_phase_switch_field(GRID, 1.0, switch_time=0.4)
    assert field.slab_index(0.0) == 0
    assert field.slab_index(0.39999) == 0
    assert field.slab_index(0.4) == 1
    assert field.slab_index(5.0) == 1  # clamped
    t = np.array([-1.0, 0.0, 0.39999, 0.4, 0.9, 5.0])
    np.testing.assert_array_equal(field.slab_index(t), [0, 0, 0, 1, 1, 1])


def test_sample_takes_one_time_per_position():
    field = two_phase_switch_field(GRID, 1.0, switch_time=0.4)
    rng = np.random.default_rng(4)
    t = rng.uniform(-0.5, 1.5, 200)
    x = rng.uniform(-0.1, 1.1, (200, 2))
    expected = [field.sample(ti, xi) for ti, xi in zip(t, x)]
    np.testing.assert_array_equal(field.sample(t, x), expected)
    assert field.sample(0.5, x).shape == (200,)


# -- conjugate ----------------------------------------------------------------

def conjugate(field):
    """s' = s / (s - 1), the pairing exponent of the Hoelder tests in test_orlicz."""
    s = field.values
    return ExponentField(field.starts, s / (s - 1.0), field.t_end, field.grid)


def test_conjugate_known_values():
    assert conjugate(constant_field(GRID, 1.0, 2.0)).s_min == pytest.approx(2.0)
    c3 = conjugate(constant_field(GRID, 1.0, 3.0))
    assert c3.s_min == pytest.approx(1.5)
    # s0 = 3 + 2/d = 4 at d = 2: (s0/2)' = 2
    half_s0 = constant_field(GRID, 1.0, 4.0 / 2.0)
    assert conjugate(half_s0).s_max == pytest.approx(2.0)


# -- covering -----------------------------------------------------------------

def test_covering_constant_field_single_scale():
    cov = build_covering(constant_field(GRID, 1.0, 2.0))
    assert np.all(cov.q == 2.0)
    assert np.all(cov.r_sup == 2.0)
    assert np.all(cov.big_r == 4.0)
    # the gap invariant holds exactly
    assert np.all(cov.big_r - cov.r_sup >= required_s_min(2) / 2)


def test_covering_slowly_varying():
    field = sinusoidal_field(GRID, 1.0, base=2.0, amplitude=0.4)
    cov = build_covering(field)
    smin_over_d = required_s_min(2) / 2
    assert np.all(cov.big_r - cov.r_sup >= smin_over_d)
    assert np.all(cov.q >= 2.0)
    np.testing.assert_allclose(cov.big_r, 2.0 * cov.q)
    # per-ball stats match a direct scan
    xc, yc = GRID.cell_centers()
    for b in range(cov.centers.shape[0]):
        mask = (xc - cov.centers[b, 0]) ** 2 + (yc - cov.centers[b, 1]) ** 2 < (
            2 * cov.radius
        ) ** 2
        assert cov.q[b, 0] == field.values[0][mask].min()
        assert cov.r_sup[b, 0] == field.values[0][mask].max()


def full_mask_covering(field):
    """The covering by the full-mesh formula: every ball masks the whole
    (nx, ny) mesh at every radius tried."""
    grid = field.grid
    xc, yc = grid.cell_centers()
    radius = grid.diameter
    while True:
        nbx, nby = (max(1, int(np.ceil(ell / radius))) for ell in (grid.lx, grid.ly))
        gx, gy = np.meshgrid((np.arange(nbx) + 0.5) * grid.lx / nbx,
                             (np.arange(nby) + 0.5) * grid.ly / nby, indexing="ij")
        centers = np.column_stack([gx.ravel(), gy.ravel()])
        masks = [(xc - cx) ** 2 + (yc - cy) ** 2 < (2.0 * radius) ** 2 for cx, cy in centers]
        q = np.array([field.values[:, m].min(axis=1) for m in masks])
        r_sup = np.array([field.values[:, m].max(axis=1) for m in masks])
        if np.all(r_sup - q <= required_s_min(2) / 2):
            return centers, radius, q, r_sup
        radius *= 0.5


# the exponents of the shipped configs, on any mesh: each is covered by the
# first, whole-mesh radius
SHIPPED_PRESETS = {
    "minimal": lambda g: constant_field(g, 0.05, 2.0),
    "acceptance": lambda g: sinusoidal_field(g, 1.0, base=2.2, amplitude=0.15),
    "two_phase": lambda g: two_phase_switch_field(g, 0.5, switch_time=0.25),
}


@pytest.mark.parametrize("field, nballs", [
    (sinusoidal_field(Grid(128, 128), 1.0, base=2.0, amplitude=1.5), 529),
    (sinusoidal_field(Grid(64, 64), 1.0, base=2.2, amplitude=0.15), 1),
    (two_phase_switch_field(Grid(64, 64), 1.0, switch_time=0.5, amplitude_after=1.2), 144),
    *((preset(Grid(n, n)), 1) for n in (64, 256) for preset in SHIPPED_PRESETS.values()),
], ids=["529-balls", "acceptance-preset", "two-slabs",
        *(f"{name}-{n}" for n in (64, 256) for name in SHIPPED_PRESETS)])
def test_covering_memory_is_a_few_cell_arrays(field, nballs):
    grid = field.grid
    tracemalloc.start()
    try:
        cov = build_covering(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.centers.shape[0] == nballs
    assert peak <= 8 * grid.ncells * 8  # eight float cell arrays, whatever nballs
    centers, radius, q, r_sup = full_mask_covering(field)
    np.testing.assert_array_equal(cov.centers, centers)
    assert cov.radius == radius
    np.testing.assert_array_equal(cov.q, q)
    np.testing.assert_array_equal(cov.r_sup, r_sup)


def test_partition_of_unity_sums_to_one():
    field = sinusoidal_field(GRID, 1.0, base=2.0, amplitude=0.4)
    cov = build_covering(field)
    zeta = cov.partition_of_unity(GRID)
    total = zeta.sum(axis=0)
    np.testing.assert_allclose(total, 1.0, rtol=0, atol=1e-12)
    assert np.all(zeta >= 0)
    # each weight vanishes outside its own ball
    xc, yc = GRID.cell_centers()
    for b in range(cov.centers.shape[0]):
        outside = (xc - cov.centers[b, 0]) ** 2 + (yc - cov.centers[b, 1]) ** 2 >= cov.radius**2
        assert np.all(zeta[b][outside] == 0.0)


def test_covering_radius_underflow():
    # exponent jumping by 1.5 between adjacent cells: oscillation cap is
    # unachievable at any radius above two cells
    vals = np.full((1, GRID.nx, GRID.ny), 2.0)
    vals[0, ::2, :] = 3.5
    field = ExponentField((0.0,), vals, 1.0, GRID)
    with pytest.raises(CoveringError):
        build_covering(field)


def test_two_phase_switch_needs_interior_time():
    with pytest.raises(ValueError):
        two_phase_switch_field(GRID, 1.0, switch_time=1.0)
