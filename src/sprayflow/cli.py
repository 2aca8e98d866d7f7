"""Command-line front end.

Commands raise; main() alone turns a failure into an exit code and one line
on stderr, and any other exception is a bug that keeps its traceback:

    ConfigError (bad config, input or option)   2   config error: ...
    OSError (unwritable output path)            2   cannot write output: ...
    CertificateFailure (and its subclasses)     4   certificate failure: ...
    BlowUp, CFLViolation, EscapeError           3   numeric failure: ...

Two report verdicts are printed on stdout: stress-audit's "certificates
FAILED" returns 4, and ledger-diff returns 1 when the ledgers differ.
validate runs the run's pre-run gate (run.certify) on the stress law alone
(run.build_law), so it fails as run does, with a CertificateFailure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import ConfigError, PresetSpec, build_preset, load_config, preset_parameters
from .coupling import LEDGER_RTOL, EnergyLedger, ledger_differences
from .exponent import PRESETS, CertificateFailure, log_holder_modulus, required_s_min
from .fluid import BlowUp, CFLViolation
from .grid import DIM, Grid
from .kinetic import EscapeError
from .orlicz import TENSOR_COMP_WEIGHTS, log_modular, luxemburg_norm, modular
from .pressure import verify_bounds, verify_locality
from .rheology import certify_coercive, certify_monotone, coercivity_margin
from .run import build_law, certify, run_scenario
from .snapshots import KIND_SCALAR, KIND_TENSOR, KIND_U_FACE, KIND_V_FACE, read_snapshot
from .studies import MMS_MESHES, dt_study, fitted_order, manufactured_errors, observed_orders

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_CERTIFICATE = 4


def _read(reader, path):
    """reader(path); a file it cannot read is a ConfigError."""
    try:
        return reader(path)
    except (OSError, ValueError) as exc:  # SnapshotError is a ValueError
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def cmd_validate(args) -> int:
    law = build_law(load_config(args.config))
    print(f"s range: [{law.exponent.s_min:.6g}, {law.exponent.s_max:.6g}]")
    print(f"required lower bound: {required_s_min(DIM):.6g}")
    print(f"log-Hoelder modulus per slab: {log_holder_modulus(law.exponent)}")
    cov = certify(law)
    print(f"covering: {cov.centers.shape[0]} balls, radius {cov.radius:.6g}")
    print("validation passed")
    return EXIT_OK


def _exponent_values(spec: str, grid: Grid, t_end: float, points: np.ndarray):
    """s at points (..., 2) of the mesh, from a snapshot path (whose payload
    must have the points' shape) or from "preset:x:y" with the preset's value
    parameters in signature order; a malformed spec, a snapshot of another
    shape, or a preset that builds more than one time slab, is a ConfigError."""
    if ":" not in spec and spec not in PRESETS:
        s = _read(read_snapshot, spec).data
        if s.shape != points.shape[:-1]:
            raise ConfigError(f"exponent snapshot {spec} has shape {s.shape}, "
                              f"the field {points.shape[:-1]}")
        return s
    name, *numbers = spec.split(":")
    if name not in PRESETS:
        raise ConfigError(f"unknown exponent preset: {name}")
    keys = tuple(preset_parameters("exponent", name))
    try:
        if len(numbers) > len(keys):
            raise ValueError(f"{name} takes at most {len(keys)} numbers ({', '.join(keys)})")
        field = build_preset("exponent", PresetSpec(name, dict(zip(keys, map(float, numbers)))),
                             grid, t_end)
        nslabs = len(field.starts)
        if nslabs > 1:
            raise ValueError(f"{name} builds {nslabs} time slabs; norm takes one exponent")
    except ValueError as exc:  # ConfigError is a ValueError
        raise ConfigError(f"bad exponent spec {spec!r}: {exc}") from exc
    return field.sample(0.0, points)


# per mesh-field kind: trailing component axes, the run's cell counts from the
# payload's (n0, n1), and the positions' offsets from a cell's corner in cells
_MESH_KINDS = {
    KIND_SCALAR: ((), (0, 0), (0.5, 0.5)),
    KIND_U_FACE: ((), (1, 0), (0.0, 0.5)),
    KIND_V_FACE: ((), (0, 1), (0.5, 0.0)),
    KIND_TENSOR: ((3,), (0, 0), (0.5, 0.5)),
}


def _exp_text(log_e: float) -> str:
    """exp(log_e) as mantissa and decimal exponent, also past the double range."""
    if not np.isfinite(log_e):
        return f"{np.exp(log_e):.12g}"
    exp10, frac = divmod(log_e / np.log(10.0), 1.0)
    mantissa, shift = f"{10.0 ** frac:.9e}".split("e")  # shift is 1 when it rounds to 10
    return f"{mantissa}e{int(exp10) + int(shift):+d}"


def cmd_norm(args) -> int:
    snap = _read(read_snapshot, args.field)
    data = snap.data
    # mesh fields only: cell or face values of a run's mesh, packed cell tensors
    comps, extra, offset = _MESH_KINDS.get(snap.kind, (None, None, None))
    if (comps is None or data.ndim != 2 + len(comps) or data.shape[2:] != comps
            or min(data.shape[0] - extra[0], data.shape[1] - extra[1]) < 1):
        raise ConfigError(f"{args.field}: kind {snap.kind} with shape {data.shape} "
                          "is not a mesh field")
    if not np.isfinite(data).all():  # a run never writes one
        raise ConfigError(f"{args.field}: the field holds a non-finite value")
    cw = TENSOR_COMP_WEIGHTS if snap.kind == KIND_TENSOR else None
    n0, n1 = data.shape[0], data.shape[1]
    nx, ny = n0 - extra[0], n1 - extra[1]
    try:
        grid = Grid(nx, ny, args.extent, args.extent * ny / nx)
    except ValueError as exc:
        raise ConfigError(f"bad --extent: {exc}") from exc
    points = np.stack(np.meshgrid((np.arange(n0) + offset[0]) * grid.h,
                                  (np.arange(n1) + offset[1]) * grid.h, indexing="ij"), axis=-1)
    s = _exponent_values(args.exponent, grid, 1.0, points)
    w = np.full((n0, n1), grid.cell_volume)
    try:
        with np.errstate(over="ignore"):  # past the double range it prints from its log
            value = modular(data, s, w, cw)
    except ValueError as exc:  # s not finite and positive somewhere
        raise ConfigError(f"bad exponent {args.exponent!r}: {exc}") from exc
    text = f"{value:.12g}" if np.isfinite(value) else _exp_text(log_modular(data, s, w, cw))
    print(f"modular:  {text}")
    print(f"luxemburg norm: {luxemburg_norm(data, s, w, cw):.12g}")
    return EXIT_OK


def cmd_stress_audit(args) -> int:
    cfg = load_config(args.config)
    law = build_law(cfg)
    try:
        mono = certify_monotone(law, n_samples=args.samples, seed=cfg.seed)
    except ValueError as exc:  # a sample count below the sweep's minimum
        raise ConfigError(f"bad --samples {args.samples}: {exc}") from exc
    print(f"monotonicity: worst inner product {mono.worst:.6g} "
          f"(scale {mono.scale:.6g}, {mono.n_samples} pairs)")
    cert = certify_coercive(law)
    margin = coercivity_margin(law, cert.c, cert.h_bar)
    print(f"coercivity: c = {cert.c:g}, h_bar = {cert.h_bar:g}, worst margin {margin.worst:.3e}")
    ok = mono.ok and margin.ok
    if cert.theta is not None:
        margin = coercivity_margin(law, cert.theta.c, cert.theta.h_bar, regularized=True)
        print(f"regularized growth: c_theta = {cert.theta.c:g}, "
              f"h_theta = {cert.theta.h_bar:g}, worst margin {margin.worst:.3e}")
        ok = ok and margin.ok
    if not ok:
        print("certificates FAILED")
        return EXIT_CERTIFICATE
    print("certificates passed")
    return EXIT_OK


def cmd_pressure_test(args) -> int:
    cfg = load_config(args.config)
    grids = [Grid(cfg.grid.nx * f, cfg.grid.ny * f, cfg.grid.lx, cfg.grid.ly) for f in (1, 2)]
    try:
        reports = [verify_bounds(grid, n_samples=args.samples, seed=cfg.seed) for grid in grids]
    except ValueError as exc:  # a sample count below the report's minimum
        raise ConfigError(f"bad --samples {args.samples}: {exc}") from exc
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
    result = run_scenario(load_config(args.config), outdir=args.output)
    rows = result.ledger.rows
    last = rows[-1]
    print(f"finished t = {last.t:g} after {len(rows)} steps: E_fluid = {last.E_fluid:.6g}, "
          f"E_kin = {last.E_kin:.6g}, residual = {last.residual_cum:.3e}")
    print(f"max drag antisymmetry: {max(r.antisymmetry_defect for r in rows):.3e}")
    print(f"ledger: {result.ledger_path}")
    return EXIT_OK


def _report_order(paths, dts, residuals) -> int:
    """Print each ledger's dt and residual, then the fitted order of two or
    more; ConfigError when they cannot be fitted."""
    for path, dt, r in zip(paths, dts, residuals):
        print(f"{path}: dt = {dt:g}, accumulated residual = {r:.6e}")
    if len(dts) >= 2:
        try:
            order = fitted_order(dts, residuals)
        except ValueError as exc:
            raise ConfigError(f"cannot fit a convergence order: {exc}") from exc
        print(f"fitted convergence order: {order:.3f}")
    return EXIT_OK


def cmd_energy_report(args) -> int:
    dts, residuals = [], []
    for path in args.ledgers:
        led = _read(EnergyLedger.read_csv, path)
        if len(led.rows) < 2:
            raise ConfigError(f"ledger {path} too short")
        dts.append(led.rows[1].t - led.rows[0].t)
        residuals.append(led.last.residual_cum)
    return _report_order(args.ledgers, dts, residuals)


def cmd_study_energy(args) -> int:
    cfg = load_config(args.config)
    dts, residuals, paths = dt_study(cfg, args.output or cfg.output_dir)
    return _report_order(paths, dts, residuals)


def cmd_study_mms(args) -> int:
    try:
        errors = manufactured_errors()
    except ImportError as exc:
        raise ConfigError(f"study mms needs sympy (the dev extra): {exc}") from exc
    for n, err in zip(MMS_MESHES, errors):
        print(f"n = {n:4d}: L2 error = {err:.6e}")
    print("observed orders:", ", ".join(f"{o:.3f}" for o in observed_orders(errors)))
    return EXIT_OK


def cmd_ledger_diff(args) -> int:
    try:
        diffs = ledger_differences(EnergyLedger.read_csv(args.a), EnergyLedger.read_csv(args.b))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot compare ledgers: {exc}") from exc
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

    p = sub.add_parser("study", help="convergence studies; they report and do not gate")
    study = p.add_subparsers(dest="study", required=True)
    p = study.add_parser("energy", help="residual order of a scenario at dt, dt/2, dt/4")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_study_energy)
    p = study.add_parser("mms", help="manufactured-solution L2 errors and orders")
    p.set_defaults(fn=cmd_study_mms)

    p = sub.add_parser("ledger-diff", help="per-column difference of two ledgers")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=cmd_ledger_diff)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # the output path is a file, or not writable
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except (BlowUp, CFLViolation, EscapeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
