import dataclasses
import filecmp
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sprayflow import cli, exponent, rheology, snapshots, studies
from sprayflow.cli import main
from sprayflow.config import (
    ConfigError,
    ExponentSpec,
    FluidSpec,
    KineticSpec,
    ScenarioConfig,
    load_config,
    module_rng,
)
from sprayflow.fluid import CFLViolation
from sprayflow.grid import DIM, Grid
from sprayflow.rheology import CoercivityError
from sprayflow.run import run_scenario
from sprayflow.snapshots import (
    KIND_PARTICLES,
    KIND_SCALAR,
    KIND_TENSOR,
    KIND_U_FACE,
    KIND_V_FACE,
    Snapshot,
    SnapshotError,
    particles_to_table,
    read_snapshot,
    table_to_particles,
    write_particles,
    write_snapshot,
)

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# the commands that run a scenario, and so share run's exit codes
RUNS = (["run"], ["study", "energy"])


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


@pytest.mark.parametrize("rows", ["zero", "one", "block", "two-blocks-and-one"])
def test_particle_snapshot_in_row_blocks_matches_the_whole_table(tmp_path, rows):
    n = {"zero": 0, "one": 1, "block": snapshots.BLOCK_ROWS,
         "two-blocks-and-one": 2 * snapshots.BLOCK_ROWS + 1}[rows]
    rng = np.random.default_rng(n)
    X, V = rng.random((n, 2)), rng.standard_normal((n, 2))
    w, fv = rng.random(n), rng.random(n)
    whole, blocked = tmp_path / "whole.vkf", tmp_path / "blocked.vkf"
    write_snapshot(whole, Snapshot(KIND_PARTICLES, 0.25, particles_to_table(X, V, w, fv)))
    write_particles(blocked, 0.25, X, V, w, fv)
    assert blocked.read_bytes() == whole.read_bytes()


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


@pytest.mark.parametrize("cut", [3, 16 + 4], ids=["in-dims", "in-time"])
def test_snapshot_cut_inside_its_header_exit_2(tmp_path, capsys, cut):
    # cut after the fixed header plus `cut` bytes of the dims and time fields
    good = tmp_path / "good.vkf"
    write_snapshot(good, Snapshot(KIND_SCALAR, 0.0, np.ones((4, 4))))
    path = tmp_path / "cut.vkf"
    path.write_bytes(good.read_bytes()[:snapshots._HEADER.size + cut])
    with pytest.raises(SnapshotError, match="truncated header"):
        read_snapshot(path)
    assert run_cli(["norm", "--field", str(path), "--exponent", "constant:2"]) == 2
    assert run_cli(["norm", "--field", str(good), "--exponent", str(path)]) == 2
    assert capsys.readouterr().err.count("cannot read") == 2


@pytest.mark.parametrize("extra", ["one-byte", "two-particle-rows"])
def test_snapshot_with_trailing_bytes_exit_2(tmp_path, capsys, extra):
    # the header fixes the payload's size, so anything after it is corruption
    # (here, particle rows appended to a table); it must not read as the table
    rng = np.random.default_rng(3)
    table = particles_to_table(rng.random((5, 2)), rng.random((5, 2)), rng.random(5), rng.random(5))
    path = tmp_path / "long.vkf"
    write_snapshot(path, Snapshot(KIND_PARTICLES, 0.0, table))
    tail = b"\x00" if extra == "one-byte" else table[:2].astype("<f8").tobytes()
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(SnapshotError, match="trailing"):
        read_snapshot(path)
    field = tmp_path / "field.vkf"
    write_snapshot(field, Snapshot(KIND_SCALAR, 0.0, np.full((4, 4), 2.0)))
    field.write_bytes(field.read_bytes() + tail)
    good = tmp_path / "good.vkf"
    write_snapshot(good, Snapshot(KIND_SCALAR, 0.0, np.full((4, 4), 2.0)))
    assert run_cli(["norm", "--field", str(field), "--exponent", "constant:2"]) == 2
    assert run_cli(["norm", "--field", str(good), "--exponent", str(field)]) == 2
    assert capsys.readouterr().err.count("cannot read") == 2


def test_snapshot_of_another_dimension_exit_2(tmp_path, capsys):
    # a 4x4 scalar snapshot whose header claims d = 3, packed by hand
    path = tmp_path / "d3.vkf"
    path.write_bytes(struct.pack("<4sIIBB", b"VKF1", 1, 3, KIND_SCALAR, 2)
                     + struct.pack("<2Qd", 4, 4, 0.0) + np.ones((4, 4)).astype("<f8").tobytes())
    with pytest.raises(SnapshotError, match="dimension 3"):
        read_snapshot(path)
    assert run_cli(["norm", "--field", str(path), "--exponent", "constant:2"]) == 2
    assert "cannot read" in capsys.readouterr().err


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


# every key of every section, each set to a value that is not its default;
# [exponent] holds one preset's keys at a time
EVERY_KEY_INI = """
[domain]
nx = 16
ny = 8
lx = 4.0
ly = 2.0
[run]
t_end = 0.5
dt = 0.01
seed = 9
cfl_factor = 0.5
output_every = 3
output_dir = elsewhere
[exponent]
{exponent}
[rheology]
nu0 = 0.2
nu1 = 0.01
theta = 0.1
[kinetic]
preset = maxwellian
n_particles = 5
mass = 0.02
vmax = 0.7
temperature = 0.3
[fluid]
initial = stream_bump
amplitude = 0.2
"""


@pytest.mark.parametrize("preset, params", [
    ("constant", {"value": 2.5}),
    ("sinusoidal", {"base": 2.4, "amplitude": 0.1}),
    ("two_phase_switch", {"switch_time": 0.25, "value_before": 2.1,
                          "base_after": 2.3, "amplitude_after": 0.1}),
])
def test_config_round_trip_every_key(tmp_path, preset, params):
    keys = "\n".join(f"{k} = {v}" for k, v in {"preset": preset, **params}.items())
    p = tmp_path / "every.ini"
    p.write_text(EVERY_KEY_INI.format(exponent=keys))
    cfg = load_config(p)
    expected = ScenarioConfig(
        grid=Grid(16, 8, 4.0, 2.0), t_end=0.5, dt=0.01, seed=9, nu0=0.2, nu1=0.01,
        theta=0.1, exponent=ExponentSpec(preset, params),
        kinetic=KineticSpec("maxwellian", 5, 0.02, 0.7, 0.3),
        fluid=FluidSpec("stream_bump", 0.2),
        cfl_factor=0.5, output_every=3, output_dir="elsewhere",
    )
    assert cfg == expected
    assert repr(cfg) == repr(expected)  # 9 and 9.0 compare equal; their reprs do not
    # a field with a default that no key of the file sets would still hold it
    for obj in (cfg, cfg.grid, cfg.kinetic, cfg.fluid):
        for f in dataclasses.fields(obj):
            if f.default is not dataclasses.MISSING:
                assert getattr(obj, f.name) != f.default, f"{type(obj).__name__}.{f.name}"


def test_config_minimal_file_yields_dataclass_defaults(tmp_path):
    p = tmp_path / "defaults.ini"
    p.write_text("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
                 "[exponent]\nvalue = 2.0\n")
    cfg = load_config(p)
    expected = ScenarioConfig(grid=Grid(16, 16), t_end=0.1, dt=0.01,
                              exponent=ExponentSpec(params={"value": 2.0}),
                              kinetic=KineticSpec(), fluid=FluidSpec())
    assert cfg == expected
    assert repr(cfg) == repr(expected)


@pytest.mark.parametrize("text, missing", [
    ("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\n", "dt"),
    ("[domain]\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n", "nx"),
    ("[domain]\nnx = 16\nny = 16\n", "t_end"),
], ids=["run-dt", "domain-nx", "run-section"])
def test_config_missing_required_key(tmp_path, text, missing):
    p = tmp_path / "missing.ini"
    p.write_text(text + "[exponent]\nvalue = 2.0\n")
    with pytest.raises(ConfigError, match=missing):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


def test_dimension_is_not_a_setting(tmp_path):
    cfg = load_config(os.path.join(CONFIGS, "minimal.ini"))
    assert cfg.d == DIM == 2
    with pytest.raises(TypeError):
        dataclasses.replace(cfg, d=3)


def test_module_rng_streams_independent():
    a = module_rng(0, "kinetic").random(4)
    b = module_rng(0, "fluid").random(4)
    a2 = module_rng(0, "kinetic").random(4)
    assert not np.array_equal(a, b)
    np.testing.assert_array_equal(a, a2)


# -- subcommands --------------------------------------------------------------

def test_validate_shipped_configs(capsys):
    # the covering each shipped config passes the pre-run gate with
    covering = {
        "minimal.ini": "covering: 1 balls, radius 1.41421",
        "acceptance.ini": "covering: 1 balls, radius 1.41421",
        "two_phase.ini": "covering: 1 balls, radius 1.41421",
    }
    for name, line in covering.items():
        assert run_cli(["validate", "--config", os.path.join(CONFIGS, name)]) == 0
        assert line in capsys.readouterr().out.splitlines()


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
    assert vals["luxemburg norm"] == 2.0  # a constant exponent needs no bisection


def test_norm_prints_a_modular_past_the_double_range(tmp_path, capsys):
    # (1e120)^3 over the unit square is 1e360: no overflow warning, no inf
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 1e120)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["norm", "--field", str(snap), "--exponent", "constant:3"]) == 0
    lines = dict(line.split(":", 1) for line in capsys.readouterr().out.strip().splitlines())
    mantissa, exponent = lines["modular"].strip().split("e")
    assert float(mantissa) == pytest.approx(1.0, rel=1e-9) and int(exponent) == 360
    assert float(lines["luxemburg norm"]) == pytest.approx(1e120, rel=1e-12)


@pytest.mark.parametrize("spec", ["constant:abc", "constant", "constant:2:3"],
                         ids=["not-a-number", "missing-value", "extra-number"])
def test_norm_malformed_exponent_spec_exit_2(tmp_path, capsys, spec):
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 2.0)))
    assert run_cli(["norm", "--field", str(snap), "--exponent", spec]) == 2
    assert "exponent spec" in capsys.readouterr().err


@pytest.mark.parametrize("kind, shape", [
    (KIND_PARTICLES, (8, 6)), (KIND_SCALAR, (16,)), (KIND_SCALAR, (16, 16, 3)),
    (KIND_TENSOR, (16, 16)), (KIND_TENSOR, (16, 16, 2)), (7, (16, 16)),
    (KIND_U_FACE, (1, 16)),
], ids=["particle-table", "one-d", "scalar-three-d", "tensor-two-d", "tensor-two-comp",
        "unknown-kind", "u-face-without-cells"])
def test_norm_refuses_a_payload_that_is_no_mesh_field(tmp_path, capsys, kind, shape):
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(kind, 0.0, np.full(shape, 2.0)))
    assert run_cli(["norm", "--field", str(snap), "--exponent", "constant:2"]) == 2
    captured = capsys.readouterr()
    assert "not a mesh field" in captured.err
    assert "modular" not in captured.out


@pytest.mark.parametrize("kind, shape", [
    (KIND_U_FACE, (17, 16)), (KIND_V_FACE, (16, 17)), (KIND_TENSOR, (16, 16, 3)),
], ids=["u-face", "v-face", "tensor"])
def test_norm_takes_face_and_tensor_fields(tmp_path, capsys, kind, shape):
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(kind, 0.0, np.full(shape, 2.0)))
    assert run_cli(["norm", "--field", str(snap), "--exponent", "constant:2"]) == 0
    assert "luxemburg norm" in capsys.readouterr().out


@pytest.mark.parametrize("kind, shape", [(KIND_U_FACE, (17, 16)), (KIND_V_FACE, (16, 17))],
                         ids=["u-face", "v-face"])
def test_norm_weights_face_fields_with_the_run_cell_size(tmp_path, capsys, kind, shape):
    # a 16^2 run's faces carry cells of side 1/16: 272 faces of |2|^2 / 256
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(kind, 0.0, np.full(shape, 2.0)))
    argv = ["norm", "--field", str(snap), "--exponent", "constant:2", "--extent", "1"]
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    assert "modular:  4.25\n" in out


def test_norm_samples_a_preset_exponent_at_the_faces(tmp_path, capsys):
    # sinusoidal s at the u-faces, given as a snapshot of the face shape,
    # gives what the preset spec gives
    grid = Grid(16, 16)
    faces = np.stack(np.meshgrid(np.arange(17) * grid.h, (np.arange(16) + 0.5) * grid.h,
                                 indexing="ij"), axis=-1)
    s = exponent.sinusoidal_field(grid, 1.0, 2.0, 0.3).sample(0.0, faces)
    field, expo = tmp_path / "field.vkf", tmp_path / "s.vkf"
    write_snapshot(field, Snapshot(KIND_U_FACE, 0.0, np.full((17, 16), 1.5)))
    write_snapshot(expo, Snapshot(KIND_U_FACE, 0.0, s))
    assert run_cli(["norm", "--field", str(field), "--exponent", "sinusoidal:2:0.3"]) == 0
    from_spec = capsys.readouterr().out
    assert run_cli(["norm", "--field", str(field), "--exponent", str(expo)]) == 0
    assert capsys.readouterr().out == from_spec


def test_norm_exponent_snapshot_of_another_shape_exit_2(tmp_path, capsys):
    field, expo = tmp_path / "field.vkf", tmp_path / "s.vkf"
    write_snapshot(field, Snapshot(KIND_U_FACE, 0.0, np.full((17, 16), 2.0)))
    write_snapshot(expo, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 2.0)))
    assert run_cli(["norm", "--field", str(field), "--exponent", str(expo)]) == 2
    captured = capsys.readouterr()
    assert "shape" in captured.err
    assert "modular" not in captured.out


def test_norm_time_dependent_exponent_exit_2(tmp_path, capsys):
    # two slabs, s = 3 then 2.2 + 0.2 sin sin: no single exponent to take
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 2.0)))
    spec = "two_phase_switch:0.5:3:2.2:0.2"
    assert run_cli(["norm", "--field", str(snap), "--exponent", spec]) == 2
    captured = capsys.readouterr()
    assert "slabs" in captured.err
    assert "modular" not in captured.out


def test_stress_audit_minimal(capsys):
    code = run_cli(["stress-audit", "--config", os.path.join(CONFIGS, "minimal.ini"),
                    "--samples", "5000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coercivity: c = " in out and "h_bar = " in out
    assert "certificates passed" in out


@pytest.mark.parametrize("argv", [
    ["stress-audit", "--samples", "0"],
    ["stress-audit", "--samples", "-5"],
    ["pressure-test", "--samples", "3"],
], ids=["stress-audit-zero", "stress-audit-negative", "pressure-test-three"])
def test_samples_below_the_library_minimum_exit_2(capsys, argv):
    code = run_cli(argv + ["--config", os.path.join(CONFIGS, "minimal.ini")])
    assert code == 2
    assert "--samples" in capsys.readouterr().err


def test_stress_audit_exit_4_only_for_certificate_errors(monkeypatch):
    argv = ["stress-audit", "--config", os.path.join(CONFIGS, "minimal.ini"), "--samples", "100"]

    def no_constant(law):
        raise CoercivityError("coercivity constant exceeds 2**64")

    monkeypatch.setattr(cli, "certify_coercive", no_constant)
    assert run_cli(argv) == 4

    def broken(law):
        raise TypeError("a programming error")

    monkeypatch.setattr(cli, "certify_coercive", broken)
    with pytest.raises(TypeError):
        run_cli(argv)


def test_run_minimal_and_determinism(tmp_path, capsys):
    # minimal.ini has no particles: the report reads the ledger, not the ensemble
    cfgfile = os.path.join(CONFIGS, "minimal.ini")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--config", cfgfile, "--output", str(out1)]) == 0
    out = capsys.readouterr().out
    assert "finished t = 0.05 after 10 steps: " in out
    assert "max drag antisymmetry: 0.000e+00" in out
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
    for command in RUNS:
        assert run_cli([*command, "--config", str(p), "--output", str(tmp_path / "o")]) == 3


def test_run_escaping_particle_exit_3_keeps_the_last_state(tmp_path, capsys):
    # at vmax = 1e6 a particle crosses the unit box ~2000 times in one step,
    # more than reflect's 100 mirrorings
    text = open(os.path.join(CONFIGS, "acceptance.ini")).read()
    assert "vmax = 0.5" in text
    p = tmp_path / "fast.ini"
    p.write_text(text.replace("vmax = 0.5", "vmax = 1e6"))
    out = tmp_path / "o"
    assert run_cli(["run", "--config", str(p), "--output", str(out)]) == 3
    assert "numeric failure: " in capsys.readouterr().err
    assert (out / "ledger.csv").read_text().startswith("t,E_fluid")
    for name in ("u_final.vkf", "v_final.vkf", "particles_final.vkf"):
        assert read_snapshot(out / name).time == 0.0


@pytest.mark.parametrize("where", ["flag", "config"])
def test_run_output_path_is_a_file_exit_2(tmp_path, capsys, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    cfgfile = os.path.join(CONFIGS, "minimal.ini")
    if where == "flag":
        args = ["--config", cfgfile, "--output", str(taken)]
    else:
        p = tmp_path / "to_file.ini"
        text = open(cfgfile).read()
        assert "output_dir = out/minimal" in text
        p.write_text(text.replace("out/minimal", str(taken)))
        args = ["--config", str(p)]
    for command in RUNS:
        assert run_cli(command + args) == 2
        assert "cannot write output" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


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


def test_config_rejects_switch_off_the_step_grid(tmp_path):
    # 0.2501 / 0.002 = 125.05 steps: the switch would fall inside a step
    text = open(os.path.join(CONFIGS, "two_phase.ini")).read()
    assert "switch_time = 0.25" in text
    p = tmp_path / "switch.ini"
    p.write_text(text.replace("switch_time = 0.25", "switch_time = 0.2501"))
    with pytest.raises(ConfigError, match="multiple of dt"):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extent", ["0", "nan", "inf", "-1"])
def test_config_rejects_extent_not_finite_and_positive(tmp_path, extent):
    p = tmp_path / "extent.ini"
    p.write_text(f"[domain]\nnx = 16\nny = 16\nlx = {extent}\nly = {extent}\n"
                 "[run]\nt_end = 0.1\ndt = 0.01\n")
    with pytest.raises(ConfigError, match="finite and positive"):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("extent", ["0", "nan", "-1"])
def test_norm_rejects_extent_not_finite_and_positive(tmp_path, capsys, extent):
    snap = tmp_path / "field.vkf"
    write_snapshot(snap, Snapshot(KIND_SCALAR, 0.0, np.full((16, 16), 2.0)))
    argv = ["norm", "--field", str(snap), "--exponent", "constant:2", "--extent", extent]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert "finite and positive" in captured.err
    assert "modular" not in captured.out


@pytest.mark.parametrize("extra", [
    "[kinetic]\npreset = maxwellian\ntemperatur = 0.1\n",
    "[exponent]\npreset = constant\nvalue = 2.0\namplitud = 0.1\n",
    "[fluid]\ninitial = rest\namplitde = 0.1\n",
    "[kinetics]\npreset = uniform\n",
], ids=["kinetic-key", "exponent-key", "fluid-key", "section"])
def test_config_rejects_unknown_keys(tmp_path, capsys, extra):
    p = tmp_path / "typo.ini"
    p.write_text("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.01\ndt = 0.005\n" + extra)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(p)
    for command in RUNS:
        assert run_cli([*command, "--config", str(p), "--output", str(tmp_path / "o")]) == 2
        assert "config error: unknown" in capsys.readouterr().err


@pytest.mark.parametrize("keys", [
    "preset = constant\nvalue = 2.5\nbase = 2.2\n",
    "preset = sinusoidal\nbase = 2.2\nvalue = 2.5\n",
    "preset = two_phase_switch\nswitch_time = 0.05\namplitude = 0.1\n",
    "value = 2.5\nswitch_time = 0.05\n",
    "preset = two_phase_switch\nvalue_before = 2.0\n",
    "preset = two_phase_switch\nswitch_time = 0.5\n",
    "preset = constant\nvalue = nan\n",
    "preset = sinusoidal\nbase = 2.2\namplitude = inf\n",
], ids=["constant-base", "sinusoidal-value", "switch-amplitude", "default-preset",
        "switch-missing-time", "switch-after-t-end", "value-nan", "amplitude-inf"])
def test_config_rejects_exponent_keys_the_preset_cannot_build(tmp_path, keys):
    p = tmp_path / "mixed.ini"
    p.write_text("[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
                 "[exponent]\n" + keys)
    with pytest.raises(ConfigError, match="preset"):
        load_config(p)
    assert run_cli(["validate", "--config", str(p)]) == 2


@pytest.mark.parametrize("old, new", [
    ("initial = stream_bump", "initial = vortex"),
    ("preset = uniform", "preset = gaussian"),
    ("n_particles = 4096", "n_particles = 0"),
], ids=["fluid-initial", "kinetic-preset", "uniform-without-particles"])
def test_config_rejects_presets_the_run_cannot_build(tmp_path, old, new):
    text = open(os.path.join(CONFIGS, "acceptance.ini")).read()
    assert old in text
    p = tmp_path / "preset.ini"
    p.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match="preset"):
        load_config(p)
    assert run_cli(["validate", "--config", str(p)]) == 2
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("rheology", [
    "nu0 = -0.1\nnu1 = 0.1\n",
    "nu0 = 0.1\ntheta = 1.5\n",
    "nu0 = 0.0\nnu1 = 0.0\n",
], ids=["negative-nu0", "theta-above-one", "no-viscosity"])
def test_config_rejects_rheology_the_stress_law_refuses(tmp_path, rheology):
    p = tmp_path / "rheology.ini"
    p.write_text(open(os.path.join(CONFIGS, "minimal.ini")).read().split("[rheology]")[0]
                 + "[rheology]\n" + rheology)
    with pytest.raises(ConfigError, match="rheology"):
        load_config(p)
    assert run_cli(["validate", "--config", str(p)]) == 2
    assert run_cli(["stress-audit", "--config", str(p), "--samples", "100"]) == 2
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("name, old, new", [
    ("acceptance", "seed = 3", "seed = -1"),
    ("acceptance", "output_every = 0", "output_every = -1"),
    ("acceptance", "mass = 0.05", "mass = -0.05"),
    ("acceptance", "vmax = 0.5", "vmax = 0"),
    ("two_phase", "temperature = 0.1", "temperature = 0"),
    ("two_phase", "temperature = 0.1", "temperature = -1"),
    ("two_phase", "amplitude = 0.08", "amplitude = nan"),
    ("two_phase", "amplitude = 0.08", "amplitude = inf"),
    ("two_phase", "amplitude = 0.08", "amplitude = -inf"),
], ids=["negative-seed", "negative-output-every", "negative-mass", "zero-vmax",
        "zero-temperature", "negative-temperature", "nan-amplitude", "inf-amplitude",
        "negative-inf-amplitude"])
def test_config_rejects_values_the_run_cannot_use(tmp_path, name, old, new):
    text = open(os.path.join(CONFIGS, f"{name}.ini")).read()
    assert old in text
    p = tmp_path / "bad.ini"
    p.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=new.split(" = ")[0]):
        load_config(p)
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command", ["validate", "run"])
def test_covering_failure_exit_4(tmp_path, capsys, command):
    # s rises by 8 from wall to centre: even the smallest admissible balls
    # see more than the oscillation cap (3d+2)/(d+2)/d = 1
    p = tmp_path / "wiggly.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
        "[exponent]\npreset = sinusoidal\nbase = 2.2\namplitude = 8\n"
    )
    argv = [command, "--config", str(p)]
    if command == "run":
        argv += ["--output", str(tmp_path / "o")]
    assert run_cli(argv) == 4
    captured = capsys.readouterr()
    assert "covering" in captured.out + captured.err


def test_run_scenario_skips_the_log_holder_estimate(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the run computed the log-Hoelder modulus")

    monkeypatch.setattr(exponent, "log_holder_modulus", forbidden)
    run_scenario(load_config(os.path.join(CONFIGS, "minimal.ini")), outdir=str(tmp_path))


def test_run_scenario_samples_no_certificate(tmp_path, monkeypatch):
    # monotonicity is structural and coercivity closed-form: the pre-run gate
    # evaluates neither the sampled sweep nor the margin, at any binding
    def forbidden(*args, **kwargs):
        raise AssertionError("the run sampled a stress certificate")

    for name in ("certify_monotone", "coercivity_margin"):
        target = getattr(rheology, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("sprayflow")]:
            if getattr(module, name, None) is target:
                monkeypatch.setattr(module, name, forbidden)
    run_scenario(load_config(os.path.join(CONFIGS, "minimal.ini")), outdir=str(tmp_path))


def test_run_bad_exponent_exit_4(tmp_path):
    p = tmp_path / "low.ini"
    p.write_text(
        "[domain]\nnx = 16\nny = 16\n[run]\nt_end = 0.1\ndt = 0.01\n"
        "[exponent]\npreset = constant\nvalue = 1.5\n"
    )
    for command in RUNS:
        assert run_cli([*command, "--config", str(p), "--output", str(tmp_path / "o")]) == 4


def test_run_law_without_growth_exit_4(tmp_path, capsys):
    # acceptance.ini with nu1 = 0: S = nu0 xi has no (s-1)-growth for
    # s_max = 2.35, so no finite coercivity constant exists
    with open(os.path.join(CONFIGS, "acceptance.ini")) as fh:
        text = fh.read()
    assert "nu1 = 0.005\n" in text and "t_end = 1.0\n" in text
    p = tmp_path / "no_growth.ini"
    p.write_text(text.replace("nu1 = 0.005\n", "nu1 = 0.0\n")
                 .replace("t_end = 1.0\n", "t_end = 0.004\n"))
    assert run_cli(["run", "--config", str(p), "--output", str(tmp_path / "o")]) == 4
    assert "nu1 = 0" in capsys.readouterr().err


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


@pytest.mark.parametrize("ledgers", [
    [[(0.01, 1e-3), (0.01, 2e-3)], [(0.005, 1e-3), (0.01, 1e-3)]],
    [[(0.02, 1e-3), (0.01, 2e-3)], [(0.005, 1e-3), (0.01, 1e-3)]],
    [[(0.01, 1e-3), (0.02, 2e-3)], [(0.01, 1e-3), (0.02, 2e-3)]],
    [[(0.01, 1e-3), (0.02, 2e-3)], [(0.01, 1e-3), (0.02, 5e-3)]],
    [[(0.01, 1e-3), (0.02, float("nan"))], [(0.005, 1e-3), (0.01, 1e-3)]],
    [[(0.01, 0.0), (0.02, 0.0)], [(0.005, 0.0), (0.01, 0.0)]],
], ids=["zero-dt", "decreasing-t", "same-ledger-twice", "one-dt", "nan-residual",
        "zero-residual"])
def test_energy_report_refuses_ledgers_it_cannot_fit_exit_2(tmp_path, capsys, ledgers):
    # (t, residual_cum) per row; the first two rows give the ledger's dt
    paths = [_write_ledger(tmp_path / f"l{k}.csv",
                           [(t, 1.0, 1.0, 0.0, 0.0, r) for t, r in rows])
             for k, rows in enumerate(ledgers)]
    dts = [rows[1][0] - rows[0][0] for rows in ledgers]
    with pytest.raises(ValueError):
        studies.fitted_order(dts, [rows[-1][1] for rows in ledgers])
    assert run_cli(["energy-report", *paths]) == 2
    captured = capsys.readouterr()
    assert "fitted convergence order" not in captured.out
    assert "cannot fit" in captured.err


def test_energy_report_and_norm_unreadable_input_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert run_cli(["energy-report", missing]) == 2
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("t,E\n0.1,1.0\n")
    assert run_cli(["energy-report", str(wrong)]) == 2
    assert run_cli(["norm", "--field", str(tmp_path / "missing.vkf"),
                    "--exponent", "constant:2"]) == 2
    bad = tmp_path / "bad.vkf"
    bad.write_bytes(b"NOPE" + b"\x00" * 40)
    assert run_cli(["norm", "--field", str(bad), "--exponent", "constant:2"]) == 2
    err = capsys.readouterr().err
    assert err.count("cannot read") == 4


def _write_ledger(path, rows):
    from sprayflow.coupling import EnergyLedger, LedgerRow

    led = EnergyLedger()
    for r in rows:
        led.append(LedgerRow(*r))
    led.write_csv(path)
    return str(path)


def test_ledger_diff_exit_codes(tmp_path, capsys):
    base = np.array([[0.002 * (i + 1), 1.0 - 0.01 * i, 0.5, 0.1 * i, 0.2 * i, 1e-6 * i]
                     for i in range(4)])
    a = _write_ledger(tmp_path / "a.csv", base)
    same = _write_ledger(tmp_path / "same.csv", base)
    close, far = base.copy(), base.copy()
    close[3, 5] += 1e-13 * 3e-6        # relative to the column's max |a| = 3e-6
    far[3, 5] += 1e-11 * 3e-6
    close = _write_ledger(tmp_path / "close.csv", close)
    far = _write_ledger(tmp_path / "far.csv", far)
    assert run_cli(["ledger-diff", a, same]) == 0
    out = capsys.readouterr().out
    assert "residual_cum: max|a-b| = 0.000e+00" in out
    assert run_cli(["ledger-diff", a, close]) == 0
    assert run_cli(["ledger-diff", a, far]) == 1
    assert "residual_cum" in capsys.readouterr().out
    blown = base.copy()
    blown[3, 1] = np.nan
    blown = _write_ledger(tmp_path / "blown.csv", blown)
    assert run_cli(["ledger-diff", a, blown]) == 1

    short = _write_ledger(tmp_path / "short.csv", base[:3])
    assert run_cli(["ledger-diff", a, short]) == 2
    renamed = tmp_path / "renamed.csv"
    renamed.write_text(open(a).read().replace("E_kin", "E_kinetic"))
    assert run_cli(["ledger-diff", a, str(renamed)]) == 2
    extra = tmp_path / "extra.csv"
    extra.write_text(open(a).read().rstrip("\n") + ",0.0\n")
    assert run_cli(["ledger-diff", str(extra), a]) == 2
    assert run_cli(["ledger-diff", a, str(tmp_path / "missing.csv")]) == 2


def test_pressure_test_minimal_reports(capsys):
    assert run_cli(["pressure-test", "--config", os.path.join(CONFIGS, "minimal.ini")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,resolution,sample,ratio"
    split = lines.index("band_lo,band_hi,sup_p,sup_grad_p")
    bounds = [line.split(",") for line in lines[1:split]]
    assert sorted({(kind, res) for kind, res, _, _ in bounds}) == [
        (kind, res) for kind in ("p1", "p2", "p3") for res in ("16", "32")]
    assert len(bounds) == 3 * 2 * 10
    assert all(np.isfinite(float(r)) and float(r) > 0.0 for *_, r in bounds)
    bands = [[float(v) for v in line.split(",")] for line in lines[split + 1:]]
    assert len(bands) == 3
    sup_p = [band[2] for band in bands]
    assert sup_p[0] > sup_p[1] > sup_p[2]


# -- reports and studies -----------------------------------------------------

def _short_acceptance_ini(tmp_path) -> str:
    """acceptance.ini cut to t_end = 0.1 (50 steps)."""
    text = open(os.path.join(CONFIGS, "acceptance.ini")).read()
    assert "t_end = 1.0" in text
    ini = tmp_path / "short.ini"
    ini.write_text(text.replace("t_end = 1.0", "t_end = 0.1"))
    return str(ini)


def test_run_reports_the_ledger(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "ra"
    assert run_cli(["run", "--config", _short_acceptance_ini(tmp_path),
                    "--output", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "finished t = 0.1 after 50 steps: " in out
    for label in ("max drag antisymmetry: ", "residual = ", "E_fluid = ", "ledger: "):
        assert label in out
    assert (outdir / "ledger.csv").is_file()
    assert not (tmp_path / "out").exists()


def test_study_energy_fits_the_residual_order(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    outdir = tmp_path / "ec"
    assert run_cli(["study", "energy", "--config", _short_acceptance_ini(tmp_path),
                    "--output", str(outdir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[1].split(",")[0] for line in lines[:3]] == [
        "dt = 0.002", "dt = 0.001", "dt = 0.0005"]
    assert all("accumulated residual = " in line for line in lines[:3])
    assert lines[3].startswith("fitted convergence order: ")
    assert float(lines[3].split(": ")[1]) >= 0.9
    assert all((outdir / f"dt_{k}" / "ledger.csv").is_file() for k in range(3))
    assert not (tmp_path / "out").exists()


def test_study_mms_reports_orders_and_needs_sympy(monkeypatch, capsys):
    monkeypatch.setattr(cli, "manufactured_errors", lambda: [4e-4, 1e-4, 2.5e-5])
    assert run_cli(["study", "mms"]) == 0
    out = capsys.readouterr().out
    assert "n =   32: L2 error = 4.000000e-04" in out
    assert "observed orders: 2.000, 2.000" in out
    monkeypatch.undo()
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert run_cli(["study", "mms"]) == 2
    assert "needs sympy (the dev extra)" in capsys.readouterr().err


# -- packaging ----------------------------------------------------------------

def test_runtime_imports_need_only_numpy_and_scipy():
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    code = ("import sys, sprayflow, sprayflow.cli, sprayflow.studies; "
            "assert 'sympy' not in sys.modules, 'sympy imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert [d.split(">")[0] for d in project["dependencies"]] == ["numpy", "scipy"]
    assert "sympy" in project["optional-dependencies"]["dev"]
