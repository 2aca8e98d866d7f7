import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow import kinetic
from sprayflow.coupling import (
    EnergyLedger,
    coupled_step,
    drag_force,
    exchange_audit,
)
from sprayflow.exponent import constant_field
from sprayflow.fluid import FluidOps, FluidState, VelocityField, stream_function_field
from sprayflow.grid import Grid
from sprayflow.kinetic import MomentFields, ParticleEnsemble, advance, drag_dissipation_exact, sample_initial
from sprayflow.rheology import StressLaw

GRID = Grid(16, 16)
OPS = FluidOps(GRID)


def constant_moments(rho, jx, jy, grid=GRID):
    r = np.full((grid.nx, grid.ny), float(rho))
    return MomentFields(grid, r, np.full_like(r, float(jx)), np.full_like(r, float(jy)))


def uniform_u(ux, uy, grid=GRID):
    return VelocityField(grid, np.full((grid.nx + 1, grid.ny), float(ux)),
                         np.full((grid.nx, grid.ny + 1), float(uy)))


# -- drag force ---------------------------------------------------------------

def test_drag_force_arithmetic():
    out = drag_force(constant_moments(2.0, 0.5, 0.0), uniform_u(1.0, 0.0))
    np.testing.assert_allclose(out.u[1:-1, :], -1.5)
    np.testing.assert_allclose(out.v[:, 1:-1], 0.0)


def test_drag_force_comoving_equilibrium():
    out = drag_force(constant_moments(2.0, 2.0 * 0.3, 2.0 * (-0.1)), uniform_u(0.3, -0.1))
    assert np.abs(out.u).max() <= 1e-15
    assert np.abs(out.v).max() <= 1e-15


def test_drag_force_vacuum():
    out = drag_force(constant_moments(0.0, 0.0, 0.0), uniform_u(1.0, 1.0))
    assert np.all(out.u == 0.0) and np.all(out.v == 0.0)


def test_drag_force_mesh_mismatch():
    with pytest.raises(ValueError):
        drag_force(constant_moments(1.0, 0.0, 0.0, Grid(8, 8)), uniform_u(1.0, 0.0))


# -- exchange audit -----------------------------------------------------------

def test_exchange_audit_equilibrium():
    p = ParticleEnsemble(GRID, np.array([[0.5, 0.5]]), np.array([[0.3, 0.0]]),
                         np.ones(1), np.ones(1))
    wf, wp, dis = exchange_audit(p, uniform_u(0.3, 0.0), 0.1)
    assert wf == wp == dis == 0.0


def test_exchange_audit_single_particle_hand_case():
    p = ParticleEnsemble(GRID, np.array([[0.5, 0.5]]), np.array([[0.0, 0.0]]),
                         np.ones(1), np.ones(1))
    dt = 0.25
    wf, wp, dis = exchange_audit(p, uniform_u(1.0, 0.0), dt)
    assert wf == pytest.approx(-dt)
    assert wp == 0.0
    assert dis == pytest.approx(-dt)
    assert wf + wp == pytest.approx(dis)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_exchange_audit_antisymmetry_random(seed):
    rng = np.random.default_rng(seed)
    p = sample_initial(GRID, "uniform", 300, mass=rng.uniform(0.1, 2.0),
                       vmax=rng.uniform(0.1, 2.0), seed=seed)
    vel = VelocityField(GRID, rng.standard_normal((GRID.nx + 1, GRID.ny)),
                        rng.standard_normal((GRID.nx, GRID.ny + 1)))
    wf, wp, dis = exchange_audit(p, vel, 0.01)
    assert wf + wp == pytest.approx(dis, rel=1e-12, abs=1e-15)
    assert dis <= 0.0


def test_exchange_audit_empty():
    p = sample_initial(GRID, "zero")
    assert exchange_audit(p, uniform_u(1.0, 0.0), 0.1) == (0.0, 0.0, 0.0)


# -- audit --------------------------------------------------------------------

def test_audit_pure_kinetic_decay_exact():
    # u frozen at zero: the exact integrator makes the budget close to roundoff
    p = sample_initial(GRID, "uniform", 1000, mass=1.0, vmax=0.5, seed=1)
    dt = 0.05
    rest = VelocityField.zeros(GRID)
    d_drag = drag_dissipation_exact(p, rest, dt)
    q = advance(p, rest, dt)
    res = q.kinetic_energy() - p.kinetic_energy() + d_drag  # no stress dissipation
    assert abs(res) <= 1e-12 * p.kinetic_energy()


# -- coupled stepping ---------------------------------------------------------

def scene(mass=0.1, nu0=0.05, amp=0.05, theta=0.0, seed=2):
    field = constant_field(GRID, 10.0, 2.2)
    law = StressLaw(nu0, 0.005, field, theta)
    p = (sample_initial(GRID, "uniform", 512, mass=mass, vmax=0.4, seed=seed) if mass
         else sample_initial(GRID, "zero"))
    vel = stream_function_field(
        GRID, lambda x, y: amp * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2
    )
    return law, FluidState(vel, 0.0), p


def test_coupled_step_no_particles_is_pure_fluid():
    law, state, p = scene(mass=0.0)
    led = EnergyLedger()
    state, p, row = coupled_step(OPS, state, p, law, 1e-3, led)
    assert row.E_kin == 0.0
    assert row.D_drag_cum == 0.0
    assert row.E_fluid > 0.0


def test_coupled_step_heavy_viscosity_kinetic_decay():
    law, state, p = scene(mass=0.2, nu0=0.05, amp=0.0)
    led = EnergyLedger()
    ekins = [p.kinetic_energy()]
    for _ in range(20):
        state, p, row = coupled_step(OPS, state, p, law, 1e-3, led)
        ekins.append(row.E_kin)
    assert all(b < a for a, b in zip(ekins, ekins[1:]))
    assert all(r.D_drag_cum >= 0.0 for r in led.rows)
    assert all(r.E_kin >= 0.0 for r in led.rows)


def test_coupled_step_builds_one_stencil(monkeypatch):
    # the deposit and the step's three interpolations share one CIC stencil
    calls, cic = [], kinetic._cic

    def counting_cic(grid, X):
        calls.append(X)
        return cic(grid, X)

    law, state, p = scene()
    monkeypatch.setattr(kinetic, "_cic", counting_cic)
    led = EnergyLedger()
    for _ in range(3):
        x = p.X
        state, p, _ = coupled_step(OPS, state, p, law, 1e-3, led)
        assert len(calls) == 1 and calls.pop() is x


def test_coupled_step_reads_previous_energies_from_the_ledger(monkeypatch):
    # E^n comes from the ledger's last row: over three steps from a fresh
    # ledger each energy is evaluated once for the initial state and once
    # per step, never again for a state the ledger already holds
    calls = {"fluid": 0, "kinetic": 0}
    energy, kinetic_energy = VelocityField.energy, ParticleEnsemble.kinetic_energy

    def counting(name, fn):
        def wrapper(self):
            calls[name] += 1
            return fn(self)
        return wrapper

    monkeypatch.setattr(VelocityField, "energy", counting("fluid", energy))
    monkeypatch.setattr(ParticleEnsemble, "kinetic_energy", counting("kinetic", kinetic_energy))
    law, state, p = scene()
    led = EnergyLedger()
    for _ in range(3):
        state, p, _ = coupled_step(OPS, state, p, law, 1e-3, led)
    assert calls == {"fluid": 4, "kinetic": 4}


def test_coupled_step_ledger_accumulates():
    law, state, p = scene()
    led = EnergyLedger()
    for _ in range(10):
        state, p, _ = coupled_step(OPS, state, p, law, 1e-3, led)
    d = np.diff([r.D_stress_cum for r in led.rows])
    assert np.all(d >= 0.0)
    dd = np.diff([r.D_drag_cum for r in led.rows])
    assert np.all(dd >= 0.0)
    # residual column is the cumulative sum of the per-step residuals
    acc = np.cumsum([r.residual_step for r in led.rows])
    np.testing.assert_allclose(acc, [r.residual_cum for r in led.rows], rtol=0, atol=1e-18)


def test_total_energy_never_increases_beyond_residual():
    law, state, p = scene(mass=0.2, amp=0.08)
    led = EnergyLedger()
    prev = state.velocity.energy() + p.kinetic_energy()
    for _ in range(30):
        state, p, row = coupled_step(OPS, state, p, law, 1e-3, led)
        total = row.E_fluid + row.E_kin
        # dE = residual - D_stress - D_drag <= residual_step
        assert total - prev <= row.residual_step + 1e-15
        prev = total


def test_theta_adds_stress_dissipation():
    dt = 2e-4  # small enough for the stiffer regularized law
    results = {}
    for theta in (0.0, 0.2):
        law, state, p = scene(theta=theta, seed=11)
        led = EnergyLedger()
        for _ in range(15):
            state, p, row = coupled_step(OPS, state, p, law, dt, led)
        results[theta] = row.D_stress_cum
    assert results[0.2] >= results[0.0]


def test_ledger_csv_round_trip(tmp_path):
    law, state, p = scene()
    led = EnergyLedger()
    for _ in range(5):
        state, p, _ = coupled_step(OPS, state, p, law, 1e-3, led)
    path = tmp_path / "ledger.csv"
    led.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,E_fluid,E_kin,D_stress_cum,D_drag_cum,residual_cum"
    back = EnergyLedger.read_csv(path)
    assert len(back.rows) == 5
    for a, b in zip(led.rows, back.rows):
        assert a.t == b.t and a.E_fluid == b.E_fluid and a.residual_cum == b.residual_cum
