"""Binary snapshot format for fields and particle states.

Layout (all little-endian):
    magic   4 bytes  b"VKF1"
    version u32      currently 1
    d       u32      spatial dimension of the producing run
    kind    u8       see KIND_* constants
    ndim    u8       number of payload axes
    dims    u64 * ndim
    time    f64
    payload f64, row-major (C order)

Round-trips are bitwise exact: the payload is the raw IEEE-754 buffer.
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
    d: int = DIM


def write_snapshot(path, snap: Snapshot) -> None:
    data = np.ascontiguousarray(snap.data, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, snap.d, snap.kind, data.ndim))
        fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
        fh.write(struct.pack("<d", snap.time))
        fh.write(memoryview(data))


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
        dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        (time,) = struct.unpack("<d", fh.read(8))
        count = int(np.prod(dims)) if ndim else 1
        buf = fh.read(8 * count)
        if len(buf) != 8 * count:
            raise SnapshotError("truncated payload")
        data = np.frombuffer(buf, dtype="<f8").reshape(dims).copy()
    return Snapshot(kind=kind, time=time, data=data, d=d)


def particles_to_table(X, V, w, fval) -> np.ndarray:
    return np.column_stack([X, V, w, fval])


def table_to_particles(table: np.ndarray):
    if table.ndim != 2 or table.shape[1] != 6:
        raise SnapshotError("particle table must be (n, 6)")
    return table[:, 0:2].copy(), table[:, 2:4].copy(), table[:, 4].copy(), table[:, 5].copy()
