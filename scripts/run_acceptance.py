#!/usr/bin/env python3
"""Run the reference coupled scenario and print the conservation checks.

    run_acceptance.py [CONFIG] [--output DIR]

The ledger and the final state go to DIR (default out/run_acceptance), not to
the config's output_dir, so a `sprayflow run` of the same config keeps its
own files."""

import argparse
import os

import numpy as np

from sprayflow.config import load_config
from sprayflow.grid import DIM
from sprayflow.run import build_scene, run_scenario

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.ini")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("config", nargs="?", default=CONFIG)
    ap.add_argument("--output", default="out/run_acceptance")
    args = ap.parse_args()
    cfg = load_config(args.config)
    result = run_scenario(cfg, outdir=args.output)
    *_, p0 = build_scene(cfg)
    p = result.particles
    last = result.ledger.last
    mass_drift = abs(p.mass - p0.mass) / p0.mass
    growth_err = abs(p.fval.max() / p0.fval.max() / np.exp(DIM * last.t) - 1.0)
    defect = max(r.antisymmetry_defect for r in result.ledger.rows)
    print(f"steps: {len(result.ledger.rows)}, final t = {last.t:g}")
    print(f"mass drift:              {mass_drift:.3e}")
    print(f"sup-growth relative err: {growth_err:.3e}")
    print(f"max drag antisymmetry:   {defect:.3e}")
    print(f"accumulated residual:    {last.residual_cum:.3e}")
    print(f"E_fluid = {last.E_fluid:.6e}, E_kin = {last.E_kin:.6e}")
    print(f"ledger: {result.ledger_path}")


if __name__ == "__main__":
    main()
