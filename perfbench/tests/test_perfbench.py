"""The benchmark's own checks: hermetic inputs and transparent tracing."""

import dataclasses
import json
import os

import pytest

from perfbench import harness
from perfbench.spans import LAYER_METRICS, TARGETS, Tracer
from perfbench.workloads import WORKLOADS, generate_ini
from sprayflow.config import load_config

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")


def _load(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return load_config(str(path))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_input(tmp_path, workload):
    text = generate_ini(workload, 11)
    assert generate_ini(workload, 11) == text
    assert generate_ini(workload, 12) != text
    assert _load(tmp_path, text).seed == 11


def test_acceptance_workload_is_the_shipped_config(tmp_path):
    shipped = load_config(os.path.join(ROOT, "configs", "acceptance.ini"))
    generated = _load(tmp_path, generate_ini("acceptance", shipped.seed))
    assert dataclasses.replace(generated, output_dir=shipped.output_dir) == shipped


def _short_acceptance(tmp_path, n_steps=10):
    cfg = _load(tmp_path, generate_ini("acceptance", 3))
    return dataclasses.replace(cfg, t_end=n_steps * cfg.dt)


def test_traced_and_untraced_ledgers_identical(tmp_path):
    cfg = _short_acceptance(tmp_path)
    with harness.step_probe(cfg.d) as probe:
        plain = harness.run_repeat(cfg, str(tmp_path / "plain"), probe)
    tracer = Tracer()
    with tracer.installed(), harness.step_probe(cfg.d) as probe:
        traced = harness.run_repeat(cfg, str(tmp_path / "traced"), probe)
    assert plain.ledger_sha256 is not None
    assert traced.ledger_sha256 == plain.ledger_sha256
    assert all(plain.checks.values()) and all(traced.checks.values())
    assert tracer.missing == []
    metrics = tracer.layer_metrics()
    assert metrics["kinetic.interpolate_velocity_calls"] == (3, "count")
    assert metrics["fluid.sym_gradient_calls"] == (2, "count")


def test_missing_wrap_target_is_counted(tmp_path):
    cfg = _short_acceptance(tmp_path, n_steps=2)
    targets = [t for t in TARGETS if t[0] != "kinetic.interpolate_velocity"]
    targets += [
        ("kinetic.interpolate_velocity", "sprayflow.kinetic", "interpolate_removed"),
        ("fluid.gone", "sprayflow.fluid", "FluidOps.gone"),
        ("nowhere.fn", "sprayflow.nowhere", "fn"),
    ]
    tracer = Tracer(targets)
    with tracer.installed(), harness.step_probe(cfg.d) as probe:
        rep = harness.run_repeat(cfg, str(tmp_path / "out"), probe)
    assert tracer.missing == ["kinetic.interpolate_velocity", "fluid.gone", "nowhere.fn"]
    assert rep.error is None
    metrics = tracer.layer_metrics()
    assert metrics["kinetic.interpolate_velocity_calls"] == (0, "count")
    assert metrics["fluid.sym_gradient_calls"] == (2, "count")


def test_benchmark_json_lists_the_emitted_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    layer = {name: unit for name, (_, _, _, unit) in LAYER_METRICS.items()}
    layer.update(harness.RUN_LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer
