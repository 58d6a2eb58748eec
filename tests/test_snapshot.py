"""Field snapshot format and solve sidecars."""

import os
import struct
from dataclasses import fields

import numpy as np
import pytest

from choqlab.errors import FormatError
from choqlab.harness import write_report
from choqlab.snapshot import load_field, save_field, save_solve_sidecar
from choqlab.spectral import Field
from conftest import make_positive_field


def test_roundtrip_bitwise(tmp_path, grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    path = tmp_path / "field.chqf"
    save_field(u, path)
    v = load_field(path)
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)  # bitwise
    # double roundtrip produces identical bytes
    path2 = tmp_path / "field2.chqf"
    save_field(v, path2)
    assert path.read_bytes() == path2.read_bytes()
    # version-1 layout with N written as 1: magic, version, N, points, extent
    raw = path.read_bytes()
    assert raw[:4] == b"CHQF"
    assert struct.unpack_from("<IIId", raw, 4) == (1, 1, 1024, 48.0)
    assert len(raw) == 24 + 8 * 1024


def test_wrong_magic(tmp_path, grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    path = tmp_path / "field.chqf"
    save_field(u, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_field(path)
    assert "CHQF" in str(err.value)
    assert err.value.offset == 0


def test_truncated_file(tmp_path, grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    path = tmp_path / "field.chqf"
    save_field(u, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FormatError):
        load_field(path)


def test_version_mismatch(tmp_path, grid_unit, rng):
    u = make_positive_field(grid_unit, rng)
    path = tmp_path / "field.chqf"
    save_field(u, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError) as err:
        load_field(path)
    assert err.value.offset == 4


def test_rejects_other_dimensions(tmp_path):
    # a well-formed N=2 file (16x16 samples, isotropic) is refused at the
    # dimension field, not loaded onto 1D operators
    n, extent = 16, 10.0
    header = b"CHQF" + struct.pack("<II", 1, 2)
    header += struct.pack("<2I", n, n) + struct.pack("<2d", extent, extent)
    path = tmp_path / "plane.chqf"
    path.write_bytes(header + np.zeros(n * n).astype("<f8").tobytes())
    with pytest.raises(FormatError, match="N must be 1") as err:
        load_field(path)
    assert err.value.offset == 8


def test_sidecar(tmp_path, autonomous_mu0):
    path = tmp_path / "solve.txt"
    save_solve_sidecar(autonomous_mu0, path, extra={"note": "unit"})
    text = path.read_text()
    assert f"level = {autonomous_mu0.level!r}" in text
    assert f"lambda = {autonomous_mu0.lam!r}" in text
    assert "note = 'unit'" in text
    assert "descent_stop = 'handover'" in text
    for f in fields(autonomous_mu0.newton):
        assert f"newton.{f.name} = {getattr(autonomous_mu0.newton, f.name)!r}" in text


def test_failed_writes_keep_old_files(tmp_path, grid_unit, rng, autonomous_mu0,
                                      monkeypatch):
    # every output file goes through one atomic writer: a write that fails
    # at the rename leaves the old bytes and no temp file
    u = make_positive_field(grid_unit, rng)
    snap, side, report = (tmp_path / name
                          for name in ("u.chqf", "u.chqf.txt", "r.csv"))
    save_field(u, snap)
    save_solve_sidecar(autonomous_mu0, side, extra={})
    write_report([("a", 1)], report, ("key", "value"))
    before = [path.read_bytes() for path in (snap, side, report)]

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    writes = (lambda: save_field(Field(grid_unit, 2.0 * u.values), snap),
              lambda: save_solve_sidecar(autonomous_mu0, side,
                                         extra={"note": "new"}),
              lambda: write_report([("b", 2)], report, ("key", "value")))
    for write in writes:
        with pytest.raises(OSError, match="rename failed"):
            write()
    assert [path.read_bytes() for path in (snap, side, report)] == before
    assert not list(tmp_path.glob("*.tmp"))
