"""Rectangular mesh shared by all modules.

The fluid solver is a staggered (MAC) scheme, so the mesh object only fixes
cell counts and extents; face/center array shapes are derived where needed.
Cells must be square: the compact stencils below assume a single spacing h.
The mesh, the particle arrays and the CIC kernel are all two-dimensional, so
the spatial dimension d of the paper's bounds is the constant DIM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 2


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")
        if not all(np.isfinite(ell) and ell > 0 for ell in (self.lx, self.ly)):
            raise ValueError(
                f"domain extents must be finite and positive, got {self.lx} x {self.ly}")
        hx, hy = self.lx / self.nx, self.ly / self.ny
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError("cells must be square (lx/nx == ly/ny)")
        # every cell weight is h^2: zero, subnormal or inf makes them meaningless
        if not np.finfo(float).tiny <= self.cell_volume < np.inf:
            raise ValueError(f"cell area h^2 = {self.cell_volume} of the {self.lx} x {self.ly} "
                             "domain is not a normal double")
        # the projection's 5-point Laplacian symbols lie below 8/h^2 (fluid.FluidOps);
        # as a Python float the quotient overflows to inf without a warning
        if not 8.0 / float(self.cell_volume) < np.inf:
            raise ValueError(f"Laplacian symbol bound 8/h^2 of the {self.lx} x {self.ly} "
                             f"domain overflows (h^2 = {self.cell_volume})")

    @property
    def h(self) -> float:
        return self.lx / self.nx

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_volume(self) -> float:
        return self.h * self.h

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.lx, self.ly))

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Cell-center coordinates as the open pair (nx, 1), (1, ny), which
        broadcast to the (nx, ny) mesh (ij indexing); np.broadcast_arrays
        gives full arrays where a caller needs them."""
        x = (np.arange(self.nx) + 0.5) * self.h
        y = (np.arange(self.ny) + 0.5) * self.h
        return np.meshgrid(x, y, indexing="ij", sparse=True)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Strict interior test for an (n, 2) array of positions."""
        x, y = points[:, 0], points[:, 1]
        return (x > 0) & (x < self.lx) & (y > 0) & (y < self.ly)
