#!/usr/bin/env python3
"""Run the reference coupled scenario at dt, dt/2, dt/4 and fit the order of
the accumulated energy-budget residual (`sprayflow.studies.dt_study`).
Ledgers land in the output dir so `sprayflow energy-report` can re-fit them
later."""

import argparse
import os
import sys

from sprayflow.config import load_config
from sprayflow.studies import dt_study, fitted_order


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default=os.path.join(os.path.dirname(__file__), "..", "configs", "acceptance.ini"))
    ap.add_argument("--output", default="out/energy_convergence")
    args = ap.parse_args()

    dts, residuals, paths = dt_study(load_config(args.config), args.output)
    for dt, r, path in zip(dts, residuals, paths):
        print(f"dt = {dt:g}: accumulated residual = {r:.6e}  ({path})")
    try:
        order = fitted_order(dts, residuals)
    except ValueError as exc:
        print(f"cannot fit a convergence order: {exc}", file=sys.stderr)
        return 2
    print(f"fitted order: {order:.3f}")
    return 0 if order >= 0.9 else 1


if __name__ == "__main__":
    sys.exit(main())
