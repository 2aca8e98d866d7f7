"""Command-line front end.

Exit codes: 0 success, 1 ledgers differ (ledger-diff), 2 config/parse error
or unusable input or output path, 3 numeric failure (blow-up, CFL refusal,
escaping particle), 4 certificate (validation) failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, ExponentSpec, load_config
from .coupling import LEDGER_RTOL, EnergyLedger, ledger_differences
from .exponent import PRESETS, CoveringError, build_covering, log_holder_modulus
from .exponent import preset_parameters, validate as validate_field
from .fluid import BlowUp, CFLViolation
from .grid import Grid
from .kinetic import EscapeError
from .orlicz import TENSOR_COMP_WEIGHTS, luxemburg_norm, modular
from .pressure import verify_bounds, verify_locality
from .rheology import CoercivityError, certify_coercive, certify_monotone
from .run import CertificateFailure, build_scene, run_scenario
from .snapshots import KIND_SCALAR, KIND_TENSOR, KIND_U_FACE, KIND_V_FACE, read_snapshot
from .studies import fitted_order

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CERTIFICATE = 4


def _load(path):
    try:
        return load_config(path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def _read(reader, path):
    """reader(path), or exit 2 when the file cannot be read."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:  # SnapshotError is a ValueError
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    field = cfg.exponent.build(cfg.grid, cfg.t_end)
    report = validate_field(field)
    print(f"s range: [{report.s_min:.6g}, {report.s_max:.6g}]")
    print(f"required lower bound: {report.s_min_required:.6g}")
    print(f"log-Hoelder modulus per slab: {log_holder_modulus(field)}")
    if not report.passed:
        print("validation FAILED")
        return EXIT_CERTIFICATE
    try:
        cov = build_covering(field)
    except CoveringError as exc:
        print(f"covering FAILED: {exc}")
        return EXIT_CERTIFICATE
    print(f"covering: {cov.centers.shape[0]} balls, radius {cov.radius:.6g}")
    print("validation passed")
    return EXIT_OK


def _exponent_values(spec: str, grid: Grid, t_end: float, points: np.ndarray):
    """s at points (..., 2) of the mesh, from a snapshot path (whose payload
    must have the points' shape) or from "preset:x:y" with the preset's value
    parameters in signature order; a malformed spec, a snapshot of another
    shape, or a preset that builds more than one time slab, exits 2."""
    if ":" not in spec and spec not in PRESETS:
        s = _read(read_snapshot, spec).data
        if s.shape != points.shape[:-1]:
            print(f"exponent snapshot {spec} has shape {s.shape}, "
                  f"the field {points.shape[:-1]}", file=sys.stderr)
            sys.exit(EXIT_CONFIG)
        return s
    name, *numbers = spec.split(":")
    if name not in PRESETS:
        print(f"unknown exponent preset: {name}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    keys = preset_parameters(name)
    try:
        if len(numbers) > len(keys):
            raise ValueError(f"{name} takes at most {len(keys)} numbers ({', '.join(keys)})")
        exp = ExponentSpec(name, dict(zip(keys, map(float, numbers))))
        nslabs = len(exp.check(t_end).starts)
        if nslabs > 1:
            raise ValueError(f"{name} builds {nslabs} time slabs; norm takes one exponent")
    except ValueError as exc:  # ConfigError is a ValueError
        print(f"bad exponent spec {spec!r}: {exc}", file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    return exp.build(grid, t_end).sample(0.0, points)


# per mesh-field kind: trailing component axes, the run's cell counts from the
# payload's (n0, n1), and the positions' offsets from a cell's corner in cells
_MESH_KINDS = {
    KIND_SCALAR: ((), (0, 0), (0.5, 0.5)),
    KIND_U_FACE: ((), (1, 0), (0.0, 0.5)),
    KIND_V_FACE: ((), (0, 1), (0.5, 0.0)),
    KIND_TENSOR: ((3,), (0, 0), (0.5, 0.5)),
}


def cmd_norm(args) -> int:
    snap = _read(read_snapshot, args.field)
    data = snap.data
    # mesh fields only: cell or face values of a run's mesh, packed cell tensors
    comps, extra, offset = _MESH_KINDS.get(snap.kind, (None, None, None))
    if (comps is None or data.ndim != 2 + len(comps) or data.shape[2:] != comps
            or min(data.shape[0] - extra[0], data.shape[1] - extra[1]) < 1):
        print(f"{args.field}: kind {snap.kind} with shape {data.shape} is not a mesh field",
              file=sys.stderr)
        return EXIT_CONFIG
    cw = TENSOR_COMP_WEIGHTS if snap.kind == KIND_TENSOR else None
    n0, n1 = data.shape[0], data.shape[1]
    nx, ny = n0 - extra[0], n1 - extra[1]
    try:
        grid = Grid(nx, ny, args.extent, args.extent * ny / nx)
    except ValueError as exc:
        print(f"bad --extent: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    points = np.stack(np.meshgrid((np.arange(n0) + offset[0]) * grid.h,
                                  (np.arange(n1) + offset[1]) * grid.h, indexing="ij"), axis=-1)
    s = _exponent_values(args.exponent, grid, 1.0, points)
    w = np.full((n0, n1), grid.cell_volume)
    print(f"modular:  {modular(data, s, w, cw):.12g}")
    print(f"luxemburg norm: {luxemburg_norm(data, s, w, cw):.12g}")
    return EXIT_OK


def cmd_stress_audit(args) -> int:
    cfg = _load(args.config)
    field, law, _, _ = build_scene(cfg)
    try:
        mono = certify_monotone(law, n_samples=args.samples, seed=cfg.seed)
    except ValueError as exc:  # a sample count below the sweep's minimum
        print(f"bad --samples {args.samples}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"monotonicity: worst inner product {mono.worst:.6g} "
          f"(scale {mono.scale:.6g}, {mono.n_samples} pairs)")
    try:
        cert = certify_coercive(law)
    except CoercivityError as exc:
        print(f"coercivity FAILED: {exc}")
        return EXIT_CERTIFICATE
    print(f"coercivity: c = {cert.c:g}, h_bar = {cert.h_bar:g}, "
          f"worst margin {cert.worst_margin:.3e}")
    if cert.theta is not None:
        print(f"regularized growth: c_theta = {cert.theta.c:g}, "
              f"h_theta = {cert.theta.h_bar:g}, worst margin {cert.theta.worst_margin:.3e}")
    if not (mono.ok and cert.ok):
        print("certificates FAILED")
        return EXIT_CERTIFICATE
    print("certificates passed")
    return EXIT_OK


def cmd_pressure_test(args) -> int:
    cfg = _load(args.config)
    grids = [Grid(cfg.grid.nx * f, cfg.grid.ny * f, cfg.grid.lx, cfg.grid.ly) for f in (1, 2)]
    try:
        reports = [verify_bounds(grid, n_samples=args.samples, seed=cfg.seed) for grid in grids]
    except ValueError as exc:  # a sample count below the report's minimum
        print(f"bad --samples {args.samples}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print("kind,resolution,sample,ratio")
    for grid, by_kind in zip(grids, reports):
        for kind, rep in by_kind.items():
            for i, r in enumerate(rep.ratios):
                print(f"{kind},{grid.nx},{i},{r:.8g}")
    grid = cfg.grid
    loc = verify_locality(grid, (0.5 * grid.lx, 0.5 * grid.ly), 0.15 * grid.lx)
    print("band_lo,band_hi,sup_p,sup_grad_p")
    for (lo, hi), sp, sg in zip(
        zip(loc.band_edges, loc.band_edges[1:]), loc.sup_p, loc.sup_grad_p
    ):
        print(f"{lo:.6g},{hi:.6g},{sp:.8g},{sg:.8g}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load(args.config)
    try:
        result = run_scenario(cfg, outdir=args.output)
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (BlowUp, CFLViolation, EscapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except OSError as exc:  # the output path is a file, or not writable
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    last = result.ledger.last if result.ledger.rows else None
    if last:
        print(f"finished t = {last.t:g}: E_fluid = {last.E_fluid:.6g}, "
              f"E_kin = {last.E_kin:.6g}, residual = {last.residual_cum:.3e}")
    print(f"ledger: {result.ledger_path}")
    return EXIT_OK


def cmd_energy_report(args) -> int:
    dts, residuals = [], []
    for path in args.ledgers:
        led = _read(EnergyLedger.read_csv, path)
        if len(led.rows) < 2:
            print(f"ledger {path} too short", file=sys.stderr)
            return EXIT_CONFIG
        dts.append(led.rows[1].t - led.rows[0].t)
        residuals.append(led.last.residual_cum)
        print(f"{path}: dt = {dts[-1]:g}, accumulated residual = {residuals[-1]:.6e}")
    if len(dts) >= 2:
        try:
            order = fitted_order(dts, residuals)
        except ValueError as exc:
            print(f"cannot fit a convergence order: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"fitted convergence order: {order:.3f}")
    return EXIT_OK


def cmd_ledger_diff(args) -> int:
    try:
        diffs = ledger_differences(EnergyLedger.read_csv(args.a), EnergyLedger.read_csv(args.b))
    except (OSError, ValueError) as exc:
        print(f"cannot compare ledgers: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for col, (diff, rel) in diffs.items():
        print(f"{col}: max|a-b| = {diff:.3e}, relative to max|a| {rel:.3e}")
    if not all(rel <= LEDGER_RTOL for _, rel in diffs.values()):  # False for NaN
        print(f"ledgers differ beyond {LEDGER_RTOL:g} relative")
        return EXIT_MISMATCH
    print(f"ledgers agree to {LEDGER_RTOL:g} relative")
    return EXIT_OK


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sprayflow")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an exponent field and its covering")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("norm", help="modular and Luxemburg norm of a field snapshot")
    p.add_argument("--field", required=True)
    p.add_argument("--exponent", required=True,
                   help="snapshot path or preset spec like constant:2.5")
    p.add_argument("--extent", type=float, default=1.0)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("stress-audit", help="monotonicity and coercivity certificates")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(fn=cmd_stress_audit)

    p = sub.add_parser("pressure-test", help="pressure-solver bound and locality reports")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(fn=cmd_pressure_test)

    p = sub.add_parser("run", help="execute a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("energy-report", help="fit residual convergence order from ledgers")
    p.add_argument("ledgers", nargs="+")
    p.set_defaults(fn=cmd_energy_report)

    p = sub.add_parser("ledger-diff", help="per-column difference of two ledgers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_ledger_diff)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
