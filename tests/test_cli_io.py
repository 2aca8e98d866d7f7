import dataclasses
import filecmp
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow.cli import main
from sprayflow.config import ConfigError, load_config, module_rng
from sprayflow.fluid import CFLViolation
from sprayflow.run import run_scenario
from sprayflow.snapshots import (
    KIND_PARTICLES,
    KIND_SCALAR,
    Snapshot,
    SnapshotError,
    particles_to_table,
    read_snapshot,
    table_to_particles,
    write_snapshot,
)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# -- snapshots ----------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    kind=st.integers(min_value=0, max_value=4),
    t=st.floats(allow_nan=False, allow_infinity=False),
)
def test_snapshot_round_trip_bitwise(tmp_path_factory, seed, kind, t):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 9), rng.integers(1, 9), 3)[: rng.integers(1, 4)]
    data = rng.standard_normal(shape)
    path = tmp_path_factory.mktemp("snap") / "x.vkf"
    write_snapshot(path, Snapshot(kind, t, data))
    back = read_snapshot(path)
    assert back.kind == kind
    assert back.time == t or (np.isnan(t) and np.isnan(back.time))
    assert back.data.tobytes() == np.ascontiguousarray(data).tobytes()


def test_snapshot_particle_table_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X, V = rng.random((7, 2)), rng.standard_normal((7, 2))
    w, fv = rng.random(7), rng.random(7)
    path = tmp_path / "p.vkf"
    write_snapshot(path, Snapshot(KIND_PARTICLES, 0.5, particles_to_table(X, V, w, fv)))
    X2, V2, w2, fv2 = table_to_particles(read_snapshot(path).data)
    np.testing.assert_array_equal(X, X2)
    np.testing.assert_array_equal(V, V2)
    np.testing.assert_array_equal(w, w2)
    np.testing.assert_array_equal(fv, fv2)


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bad.vkf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(SnapshotError):
        read_snapshot(path)


def test_snapshot_truncated(tmp_path):
    path = tmp_path / "trunc.vkf"
    write_snapshot(path, Snapshot(KIND_SCALAR, 0.0, np.ones((4, 4))))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(SnapshotError):
        read_snapshot(path)


# -- config -------------------------------------------------------------------

def test_load_shipped_configs():
    for name in ("minimal.ini", "acceptance.ini", "two_phase.ini"):
        cfg = load_config(os.path.join(CONFIGS, name))
        assert cfg.grid.nx >= 8


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_config_rejects_small_mesh(tmp_path):
    p = tmp_path / "tiny.ini"
    p.write_text("[domain]\nnx = 4\nny = 4\n[run]\nt_end = 1\ndt = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.ini"
    p.write_text("[domain]\nnx = banana\nny = 8\n[run]\nt_end = 1\ndt = 0.1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_module_rng_streams_independent():
    a = module_rng(0, "kinetic").random(4)
    b = module_rng(0, "fluid").random(4)
    a2 = module_rng(0, "kinetic").random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, a2)


# -- subcommands --------------------------------------------------------------

def test_validate_shipped_configs():
    for name in ("minimal.ini", "acceptance.ini", "two_phase.ini"):
        assert run_cli(["validate", "--config", os.path.join(CONFIGS, name)]) == 0


def test_validate_bad_exponent_exit_4(tmp_path):
    p = tmp_path / "low.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
        "[exponent]\npreset = constant\nvalue = 1.9\n"
    )
    assert run_cli(["validate", "--config", str(p)]) == 4


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "broken.ini"
    p.write_text("not an ini file at all\n")
    assert run_cli(["run", "--config", str(p)]) == 2


def test_norm_constant_field_matches_hand_value(tmp_path, capsys):
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 2.0)))
    assert run_cli(["norm", "--field", str(snap), "--exponent", "constant:2"]) == 0
    out = capsys.readouterr().out
    # L^2 norm of the constant 2 over the unit square is 2
    vals = {line.split(":")[0].strip(): float(line.split(":")[1]) for line in out.strip().splitlines()}
    assert vals["modular"] == pytest.approx(4.0, rel=1e-12)
    assert vals["luxemburg norm"] == pytest.approx(2.0, rel=1e-8)


def test_stress_audit_minimal(capsys):
    code = run_cli(["stress-audit", "--config", os.path.join(CONFIGS, "minimal.ini"),
                    "--samples", "5000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coercivity: c = " in out and "h_bar = " in out
    assert "certificates passed" in out


def test_run_minimal_and_determinism(tmp_path):
    cfgfile = os.path.join(CONFIGS, "minimal.ini")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", cfgfile, "--output", str(out1)]) == 0
    assert run_cli(["run", "--config", cfgfile, "--output", str(out2)]) == 0
    assert filecmp.cmp(out1 / "ledger.csv", out2 / "ledger.csv", shallow=False)
    # quiescent scenario: ledger rows are all zeros
    text = (out1 / "ledger.csv").read_text().splitlines()
    assert all(row.split(",")[1] == "0.0" for row in text[1:])


def test_run_coupled_determinism(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.02\ndt = 0.002\nseed = 5\n"
        "[exponent]\npreset = constant\nvalue = 2.2\n"
        "[rheology]\nnu0 = 0.05\nnu1 = 0.005\n"
        "[kinetic]\npreset = uniform\nn_particles = 256\nmass = 0.1\nvmax = 0.4\n"
        "[fluid]\ninitial = stream_bump\namplitude = 0.05\n"
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", str(p), "--output", str(out1)]) == 0
    assert run_cli(["run", "--config", str(p), "--output", str(out2)]) == 0
    for name in ("ledger.csv", "u_final.vkf", "particles_final.vkf"):
        assert filecmp.cmp(out1 / name, out2 / name, shallow=False)


def test_run_cfl_blowup_exit_3(tmp_path):
    p = tmp_path / "stiff.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 1.0\ndt = 0.05\n"
        "[exponent]\npreset = constant\nvalue = 2.0\n"
        "[rheology]\nnu0 = 0.5\nnu1 = 0.0\n"
        "[fluid]\ninitial = stream_bump\namplitude = 0.1\n"
    )
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 3


def _resting_fluid_ini(path, cfl_factor):
    # at rest, with s = 2 and nu0 = 0.5 on a 16^2 mesh, the CFL bound is the
    # diffusive h^2 / (2 nu0) = 3.90625e-3; dt = 3e-3 lies between 0.5x and 1x
    path.write_text(
        "[domain]\nnx = 16\nny = 16\n"
        f"[run]\nt_end = 0.006\ndt = 0.003\ncfl_factor = {cfl_factor}\n"
        "[exponent]\npreset = constant\nvalue = 2.0\n"
        "[rheology]\nnu0 = 0.5\nnu1 = 0.0\n"
    )
    return path


def test_run_honours_cfl_factor(tmp_path):
    loose = _resting_fluid_ini(tmp_path / "loose.ini", 1.0)
    assert run_cli(["run", "--config", str(loose), "--output", str(tmp_path / "a")]) == 0
    tight = _resting_fluid_ini(tmp_path / "tight.ini", 0.5)
    with pytest.raises(CFLViolation):
        run_scenario(load_config(tight), outdir=str(tmp_path / "b"))
    assert run_cli(["run", "--config", str(tight), "--output", str(tmp_path / "c")]) == 3


@pytest.mark.parametrize("cfl_factor", [0.0, -0.5])
def test_config_rejects_nonpositive_cfl_factor(tmp_path, cfl_factor):
    p = _resting_fluid_ini(tmp_path / "bad.ini", cfl_factor)
    with pytest.raises(ConfigError):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


def test_config_rejects_dt_not_dividing_t_end(tmp_path):
    # 0.1 / 0.03 = 3.33 steps: the run would silently stop at t = 0.09
    p = tmp_path / "uneven.ini"
    p.write_text("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.03\n")
    with pytest.raises(ConfigError, match="divide"):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2
    base = load_config(_resting_fluid_ini(tmp_path / "even.ini", 1.0))
    with pytest.raises(ConfigError):
        dataclasses.replace(base, dt=0.004)


@pytest.mark.parametrize("extra", [
    "[kinetic]\npreset = maxwellian\ntemperatur = 0.1\n",
    "[exponent]\npreset = constant\nvalue = 2.0\namplitud = 0.1\n",
    "[fluid]\ninitial = rest\namplitde = 0.1\n",
    "[kinetics]\npreset = uniform\n",
], ids=["kinetic-key", "exponent-key", "fluid-key", "section"])
def test_config_rejects_unknown_keys(tmp_path, extra):
    p = tmp_path / "typo.ini"
    p.write_text("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.01\ndt = 0.005\n" + extra)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


def test_run_bad_exponent_exit_4(tmp_path):
    p = tmp_path / "low.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
        "[exponent]\npreset = constant\nvalue = 1.5\n"
    )
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 4


def test_energy_report_fits_order(tmp_path, capsys):
    # synthetic ledgers with residual proportional to dt
    from sprayflow.coupling import EnergyLedger, LedgerRow

    paths = []
    for k, dt in enumerate((0.01, 0.005, 0.0025)):
        led = EnergyLedger()
        for i in range(1, 4):
            led.append(LedgerRow(i * dt, 1.0, 1.0, 0.0, 0.0, 0.5 * dt))
        path = tmp_path / f"l{k}.csv"
        led.write_csv(path)
        paths.append(str(path))
    assert run_cli(["energy-report", *paths]) == 0
    out = capsys.readouterr().out
    order = float(out.strip().splitlines()[-1].split(":")[1])
    assert order == pytest.approx(1.0, abs=1e-6)
