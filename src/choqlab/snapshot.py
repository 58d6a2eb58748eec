"""Field snapshot files and solve-result sidecars.

Snapshot layout (little-endian throughout):

    bytes 0..3    magic "CHQF"
    bytes 4..7    format version (u32, currently 1)
    bytes 8..11   dimension N (u32, always 1)
    bytes 12..15  points (u32)
    bytes 16..23  extent (f64)
    rest          float64 samples

Round-trips are bitwise; any malformed header raises FormatError with the
byte offset of the defect.  Solve results additionally get a key = value
text sidecar next to the snapshot.  Every output file of the lab, these and
the CSV reports, is written through atomic_write.
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import FormatError, OutOfRange
from .spectral import Field, Grid

__all__ = ["atomic_write", "save_field", "load_field", "save_solve_sidecar"]

MAGIC = b"CHQF"
VERSION = 1


def atomic_write(path, data: bytes) -> None:
    """Write data to path through a temp file beside it and os.replace: a
    reader sees the old bytes or the new ones, and a failed write leaves the
    old file and no temp file."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{os.fspath(path)}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_field(u: Field, path) -> None:
    g = u.grid
    header = MAGIC + struct.pack("<IIId", VERSION, 1, g.points, g.extent)
    data = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    atomic_write(path, header + data)


def load_field(path) -> Field:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise FormatError("file shorter than the magic", 0)
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}", 0)
    if len(raw) < 12:
        raise FormatError("truncated fixed header", 4)
    version, ndim = struct.unpack_from("<II", raw, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}, expected {VERSION}", 4)
    if ndim != 1:
        raise FormatError(f"dimension {ndim} is not supported (N must be 1)", 8)
    off = 24
    if len(raw) < off:
        raise FormatError("truncated grid header", 12)
    n, ext = struct.unpack_from("<Id", raw, 12)
    if len(raw) != off + 8 * n:
        raise FormatError(
            f"payload has {len(raw) - off} bytes, expected {8 * n}", off)
    vals = np.frombuffer(raw, dtype="<f8", count=n, offset=off)
    try:
        grid = Grid(1, ext, n)
    except OutOfRange as exc:
        raise FormatError(f"invalid grid in header: {exc}", 8) from exc
    return Field(grid, vals)


def save_solve_sidecar(result, path, extra) -> None:
    """key = value companion file for a SolveResult, its Newton record and
    the extra mapping of further keys."""
    lines = [
        "format = choqlab-solve v1",
        f"level = {result.level!r}",
        f"lambda = {result.lam!r}",
        f"poho_residual = {result.poho_residual!r}",
        f"grad_residual = {result.grad_residual!r}",
        f"iterations = {result.iterations}",
        f"descent_stop = {result.descent_stop!r}",
        f"converged = {result.converged}",
        f"mass = {result.mass!r}",
    ]
    for f in fields(result.newton):
        lines.append(f"newton.{f.name} = {getattr(result.newton, f.name)!r}")
    for k, v in extra.items():
        lines.append(f"{k} = {v!r}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())
