"""Binary snapshot format for fields and particle states.

Layout (all little-endian):
    magic   4 bytes  b"VKF1"
    version u32      currently 1
    d       u32      spatial dimension, must be grid.DIM = 2
    kind    u8       see KIND_* constants
    ndim    u8       number of payload axes
    dims    u64 * ndim
    time    f64
    payload f64, row-major (C order)

Round-trips are bitwise exact: the payload is the raw IEEE-754 buffer.  The
file ends with the payload; a short payload or trailing bytes are an error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .grid import DIM

MAGIC = b"VKF1"
VERSION = 1

KIND_SCALAR = 0      # cell-centered scalar (nx, ny)
KIND_U_FACE = 1      # x-face velocity component (nx+1, ny)
KIND_V_FACE = 2      # y-face velocity component (nx, ny+1)
KIND_TENSOR = 3      # packed symmetric tensor (nx, ny, 3)
KIND_PARTICLES = 4   # particle table (n, 6): X, V, w, fval

_HEADER = struct.Struct("<4sIIBB")


class SnapshotError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Snapshot:
    kind: int
    time: float
    data: np.ndarray


# rows of the particle table formed and written at a time, so that writing
# a snapshot never holds the whole (n, 6) table
BLOCK_ROWS = 8192


def _write(path, kind: int, time: float, shape: tuple[int, ...], blocks) -> None:
    """Header, then the payload as C-ordered blocks that tile it row-wise."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, DIM, kind, len(shape)))
        fh.write(struct.pack(f"<{len(shape)}Q", *shape))
        fh.write(struct.pack("<d", time))
        for block in blocks:
            fh.write(memoryview(np.ascontiguousarray(block, dtype="<f8")))


def write_snapshot(path, snap: Snapshot) -> None:
    data = np.ascontiguousarray(snap.data, dtype="<f8")
    _write(path, snap.kind, snap.time, data.shape, (data,))


def write_particles(path, time: float, X, V, w, fval) -> None:
    """The particle table particles_to_table(X, V, w, fval) as a snapshot,
    formed BLOCK_ROWS rows at a time."""
    n = len(w)
    blocks = (particles_to_table(X[a:a + BLOCK_ROWS], V[a:a + BLOCK_ROWS],
                                 w[a:a + BLOCK_ROWS], fval[a:a + BLOCK_ROWS])
              for a in range(0, n, BLOCK_ROWS))
    _write(path, KIND_PARTICLES, time, (n, 6), blocks)


def read_snapshot(path) -> Snapshot:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise SnapshotError("truncated header")
        magic, version, d, kind, ndim = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"unsupported version {version}")
        if d != DIM:
            raise SnapshotError(f"dimension {d}, expected {DIM}")
        fields = fh.read(8 * ndim + 8)
        if len(fields) < 8 * ndim + 8:
            raise SnapshotError("truncated header")
        *dims, time = struct.unpack(f"<{ndim}Qd", fields)
        count = int(np.prod(dims)) if ndim else 1
        buf = fh.read(8 * count)
        if len(buf) != 8 * count:
            raise SnapshotError("truncated payload")
        if fh.read(1):
            raise SnapshotError(f"trailing bytes after the {count}-value payload")
        data = np.frombuffer(buf, dtype="<f8").reshape(dims).copy()
    return Snapshot(kind=kind, time=time, data=data)


def particles_to_table(X, V, w, fval) -> np.ndarray:
    return np.column_stack([X, V, w, fval])


def table_to_particles(table: np.ndarray):
    if table.ndim != 2 or table.shape[1] != 6:
        raise SnapshotError("particle table must be (n, 6)")
    return table[:, 0:2].copy(), table[:, 2:4].copy(), table[:, 4].copy(), table[:, 5].copy()
