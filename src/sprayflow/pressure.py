"""Auxiliary pressure problems solved spectrally on a padded periodic box.

The three whole-plane Poisson problems
    -lap p1 =  div div (alpha zeta)      (tensor source)
    -lap p2 = -div div (u (x) u zeta)    (tensor source, opposite sign)
    -lap p3 =  div F                     (vector source)
are approximated by embedding the physical domain centrally in a periodic box
four diameters wide, zero-extending the source, and inverting the exact
Fourier symbols.  Sources live on the physical mesh, as a run's S, u (x) u
and F do; solve() and residual() embed them.  The box refuses a padding
factor that leaves no zero cell between the domain and its edge, so an
embedded source never touches the box boundary.  Whole-plane uniqueness
(decay at infinity) is replaced by the zero-mean condition on the box; the
padding error is measured by the locality report, never assumed away.  The
paper's fourth problem, -lap p4 = div div (theta beta), has p1's operator, so
its source goes through p1 as the tensor theta beta.

Symmetric tensors are packed (a11, a22, a12); all transforms are numpy FFTs,
so solve residuals sit at FFT roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid
from .orlicz import TENSOR_COMP_WEIGHTS, modular

KINDS = ("p1", "p2", "p3")

_TENSOR_KINDS = {"p1": -1.0, "p2": +1.0}


@dataclass(frozen=True)
class PaddedBox:
    """Periodic computational box holding the physical domain centrally.

    The box leaves at least one zero cell between the domain and each of its
    edges, so a source embedded from the domain mesh is compactly supported
    inside it; a factor too small for that margin is refused."""

    inner: Grid
    factor: float = 4.0

    def __post_init__(self):
        if min(self.offset) < 1:
            raise ValueError(f"padding factor {self.factor} leaves no zero cell "
                             "between the domain and the box edge")

    @property
    def n(self) -> int:
        cells = int(np.ceil(self.factor * self.inner.diameter / self.inner.h))
        return cells + cells % 2  # even count keeps the embedding symmetric

    @property
    def offset(self) -> tuple[int, int]:
        return ((self.n - self.inner.nx) // 2, (self.n - self.inner.ny) // 2)

    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray]:
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.inner.h)
        return np.meshgrid(k, k, indexing="ij")

    def embed(self, field: np.ndarray) -> np.ndarray:
        """Zero-extend an inner-domain field (trailing axes pass through)."""
        ox, oy = self.offset
        out = np.zeros((self.n, self.n) + field.shape[2:])
        out[ox : ox + self.inner.nx, oy : oy + self.inner.ny] = field
        return out

    def extract(self, field: np.ndarray) -> np.ndarray:
        ox, oy = self.offset
        return field[ox : ox + self.inner.nx, oy : oy + self.inner.ny]


def _rhs_hat(kind: str, source: np.ndarray, box: PaddedBox):
    """The box wavenumbers kx, ky and the Fourier transform of the right-hand
    side of -lap p = rhs (zero mode kept), for a source on the domain mesh:
    (nx, ny, 3) packed tensor for p1 and p2, (nx, ny, 2) vector for p3."""
    if kind not in KINDS:
        raise ValueError(f"unknown pressure problem kind: {kind!r}")
    if not np.any(source):
        raise ValueError("empty source")
    want = 2 if kind == "p3" else 3
    if source.shape != (box.inner.nx, box.inner.ny, want):
        raise ValueError("source shape does not match the domain mesh")
    src = box.embed(source)
    kx, ky = box.wavenumbers()
    if kind == "p3":
        fx = np.fft.fft2(src[..., 0])
        fy = np.fft.fft2(src[..., 1])
        return kx, ky, 1j * (kx * fx + ky * fy)
    a11, a22, a12 = (np.fft.fft2(src[..., k]) for k in range(3))
    return kx, ky, _TENSOR_KINDS[kind] * (kx**2 * a11 + ky**2 * a22 + 2.0 * kx * ky * a12)


def solve(kind: str, source: np.ndarray, box: PaddedBox) -> np.ndarray:
    """Zero-mean box solution for a source on the domain mesh, via the exact
    Fourier symbols; box.extract() restricts it to the domain."""
    kx, ky, rhat = _rhs_hat(kind, source, box)
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0  # zero mode handled explicitly below
    phat = rhat / k2
    phat[0, 0] = 0.0
    return np.real(np.fft.ifft2(phat))


def residual(kind: str, source: np.ndarray, box: PaddedBox, p: np.ndarray) -> float:
    """Max-norm defect of -lap p = (rhs with its mean removed), spectrally."""
    kx, ky, rhat = _rhs_hat(kind, source, box)
    lhs = np.real(np.fft.ifft2((kx**2 + ky**2) * np.fft.fft2(p)))
    rhat[0, 0] = 0.0
    rhs = np.real(np.fft.ifft2(rhat))
    return float(np.abs(lhs - rhs).max())


def gradient(box: PaddedBox, p: np.ndarray) -> np.ndarray:
    kx, ky = box.wavenumbers()
    phat = np.fft.fft2(p)
    gx = np.real(np.fft.ifft2(1j * kx * phat))
    gy = np.real(np.fft.ifft2(1j * ky * phat))
    return np.stack([gx, gy], axis=-1)


# -- verification reports ----------------------------------------------------

@dataclass
class BoundReport:
    ratios: tuple[float, ...]       # per sample, skipped (zero) samples omitted

    @property
    def worst(self) -> float:
        return max(self.ratios) if self.ratios else 0.0


def _bump(grid: Grid, center: tuple[float, float], radius: float) -> np.ndarray:
    """(1 - rho^2)_+^3 at the cell centres, rho = distance to center / radius."""
    xc, yc = grid.cell_centers()
    rho2 = ((xc - center[0]) ** 2 + (yc - center[1]) ** 2) / radius**2
    return np.clip(1.0 - rho2, 0.0, None) ** 3


def _random_bump_tensor(rng: np.random.Generator, grid: Grid) -> np.ndarray:
    cx = rng.uniform(0.3, 0.7) * grid.lx
    cy = rng.uniform(0.3, 0.7) * grid.ly
    rad = rng.uniform(0.1, 0.25) * grid.lx
    return _bump(grid, (cx, cy), rad)[..., None] * rng.standard_normal(3)


def verify_bounds(grid: Grid, n_samples: int = 10, seed: int = 0) -> dict[str, BoundReport]:
    """Empirical operator-norm ratios ||p|| / ||source|| per problem kind.

    The norms are fixed: ||p||_2 / ||src||_2 for p1 and p3, and
    ||p||_2 / ||src||_4^2 for p2, whose source is quadratic.  A tensor
    source is measured pointwise in the Frobenius norm (a12 weighted twice,
    orlicz.TENSOR_COMP_WEIGHTS), a vector source in the Euclidean norm.  The
    box is the default PaddedBox.  All-zero draws are skipped, not counted
    as ratios.
    """
    if n_samples < 10:
        raise ValueError("need at least 10 samples per kind")
    box = PaddedBox(grid)
    w = np.full((grid.nx, grid.ny), grid.cell_volume)
    rng = np.random.default_rng(seed)
    out: dict[str, BoundReport] = {}

    for kind in ("p1", "p2", "p3"):
        cw = None if kind == "p3" else TENSOR_COMP_WEIGHTS
        ratios = []
        for _ in range(n_samples):
            src = _random_bump_tensor(rng, grid)[..., : 2 if kind == "p3" else 3]
            if not np.any(src):
                continue
            p = box.extract(solve(kind, src, box))
            num = modular(p, 2.0, w) ** 0.5
            if kind == "p2":
                den = modular(src, 4.0, w, cw) ** 0.5     # ||src||_4^2
            else:
                den = modular(src, 2.0, w, cw) ** 0.5
            if den == 0.0:
                continue
            ratios.append(num / den)
        out[kind] = BoundReport(tuple(ratios))
    return out


@dataclass
class LocalityReport:
    band_edges: tuple[float, ...]
    sup_p: tuple[float, ...]        # per band, scaled by the source sup
    sup_grad_p: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        return all(a >= b for a, b in zip(self.sup_p, self.sup_p[1:]))


def verify_locality(
    grid: Grid,
    center: tuple[float, float],
    radius: float,
    factor: float = 4.0,
) -> LocalityReport:
    """Far-field decay of the p1 pressure for a source supported in one ball.

    The source is a bump times a seed-0 random symmetric tensor.  Measures
    sup |p| and sup |grad p| over three distance bands outside the ball,
    relative to the source sup; the harmonic far field decays like a
    multipole, so the band maxima must be monotone decreasing.
    """
    box = PaddedBox(grid, factor)
    src = _bump(grid, center, radius)[..., None] * np.random.default_rng(0).standard_normal(3)
    p = solve("p1", src, box)
    gp = gradient(box, p)

    # distances on the full box
    n, h = box.n, grid.h
    ox, oy = box.offset
    bx = (np.arange(n) + 0.5) * h - ox * h
    by = (np.arange(n) + 0.5) * h - oy * h
    gx, gy = np.meshgrid(bx, by, indexing="ij")
    dist = np.hypot(gx - center[0], gy - center[1])

    scale = float(np.abs(src).max())
    edges = (radius, 2.0 * radius, 4.0 * radius, 8.0 * radius)
    sup_p, sup_gp = [], []
    for lo, hi in zip(edges, edges[1:]):
        band = (dist >= lo) & (dist < hi)
        if not band.any():
            raise ValueError("distance band is empty; ball too large for the box")
        sup_p.append(float(np.abs(p[band]).max()) / scale)
        sup_gp.append(float(np.sqrt(np.sum(gp[band] ** 2, axis=-1)).max()) / scale)
    return LocalityReport(edges, tuple(sup_p), tuple(sup_gp))
