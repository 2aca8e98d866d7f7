#!/usr/bin/env python3
"""Manufactured-solution convergence study for the Newtonian fluid solver
(`sprayflow.studies.manufactured_errors`): print the L2 error per mesh and
the observed orders; exit 1 if an order falls below 1.5."""

import sys

import numpy as np

from sprayflow.studies import MMS_MESHES, manufactured_errors


def main():
    errors = manufactured_errors()
    for n, err in zip(MMS_MESHES, errors):
        print(f"n = {n:4d}: L2 error = {err:.6e}")
    orders = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
    print("observed orders:", ", ".join(f"{o:.3f}" for o in orders))
    return 0 if min(orders) >= 1.5 else 1


if __name__ == "__main__":
    sys.exit(main())
