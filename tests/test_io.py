"""Artifact formats: the 16-bit PGM map round trip, the reader's rejection
of files it did not write, and the writers' rejection of maps that are not
2-D."""
import tracemalloc

import numpy as np
import pytest

from mmdepth import io
from mmdepth.io import read_pgm16, write_map_csv, write_pgm16

# One pixel, 1.000 m.
PGM_1X1 = b"P5\n1 1\n65535\n\x03\xe8"


def reference_pgm16(map_m) -> bytes:
    """write_pgm16's file, quantized from the whole map at once."""
    arr = np.asarray(map_m, dtype=float)
    mm = np.full(arr.shape, 65535, dtype=np.uint16)
    finite = np.isfinite(arr)
    mm[finite] = np.clip(np.rint(arr[finite] * 1000.0), 0, 65534).astype(np.uint16)
    h, w = arr.shape
    return f"P5\n{w} {h}\n65535\n".encode("ascii") + mm.astype(">u2").tobytes()


def test_pgm16_round_trip(tmp_path):
    # 2.570 m and 8.224 m quantize to 0x0A0A and 0x2020, whitespace bytes
    # right after the header, which the reader must not skip as header.
    values = np.array(
        [
            [2.570, 8.224, np.inf, -0.3, 70.0],
            [1.23449, 1.23451, 65.534, 0.0, 0.0004],
        ]
    )
    path = tmp_path / "map.pgm"
    write_pgm16(path, values)
    assert path.read_bytes().startswith(b"P5\n5 2\n65535\n\n\n  ")
    back = read_pgm16(path)
    expect = np.array(
        [
            [2.570, 8.224, np.inf, 0.0, 65.534],
            [1.234, 1.235, 65.534, 0.0, 0.0],
        ]
    )
    assert back.shape == (2, 5)
    assert np.array_equal(back, expect)
    assert path.read_bytes() == reference_pgm16(values)


@pytest.mark.parametrize("block", [1, 7, io._ROWS])
@pytest.mark.parametrize("rows", [1, 37, 65, 720])
def test_pgm16_block_size_does_not_change_the_bytes(tmp_path, monkeypatch, block, rows):
    # Heights that are not a multiple of the block, with NaN, +-inf,
    # negatives, values past 65.534 m and halfway millimetres scattered in.
    monkeypatch.setattr(io, "_ROWS", block)
    rng = np.random.default_rng(rows)
    values = rng.uniform(-2.0, 80.0, size=(rows, 13))
    special = [np.nan, np.inf, -np.inf, -0.3, -0.0004, -0.0, 65.534, 65.5345, 70.0, 1e10, -1e10, 1.2345]
    values.flat[rng.choice(values.size, len(special), replace=False)] = special
    values[rng.random(values.shape) < 0.1] = np.nan
    path = tmp_path / "map.pgm"
    write_pgm16(path, values)
    assert path.read_bytes() == reference_pgm16(values)


def test_pgm16_clamps_huge_values_without_warnings(tmp_path):
    # Scaled to millimeters, |1e306| overflows to inf before the clamp; the
    # suite turns numpy's overflow warning into an error.
    path = tmp_path / "map.pgm"
    values = np.array([[1e306, -1e306, np.inf, np.nan, 65.5344]])
    write_pgm16(path, values)
    data = path.read_bytes()
    assert data[:-10] == b"P5\n5 1\n65535\n"
    assert np.frombuffer(data[-10:], dtype=">u2").tolist() == [65534, 0, 65535, 65535, 65534]


def test_pgm16_writes_a_block_at_a_time(tmp_path):
    # Quantizing the whole 720 x 1280 map at once held 16.6 MiB beyond it.
    values = np.random.default_rng(0).uniform(0.0, 10.0, size=(720, 1280))
    values[::7] = np.inf
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_pgm16(tmp_path / "map.pgm", values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert (tmp_path / "map.pgm").read_bytes() == reference_pgm16(values)


@pytest.mark.parametrize(
    "reader, data, match",
    [
        (read_pgm16, b"P2\n1 1\n65535\n0\n", "not a binary PGM file"),
        (read_pgm16, b"P5\n1 1\n255\n\x00", "expected 16-bit PGM \\(maxval 65535\\), got 255"),
        (read_pgm16, PGM_1X1 + b"\x00\x00", "trailing bytes after the last pixel"),
        (read_pgm16, b"P5\n-1 2\n65535\n\x00\x00", "negative PGM size -1 x 2"),
        (read_pgm16, b"P5\n2 x\n65535\n", "malformed PGM header: 'x' is not an integer"),
        (read_pgm16, b"P5\n2 2\n65535.0\n", "malformed PGM header: '65535.0' is not an integer"),
    ],
)
def test_readers_reject_foreign_files(tmp_path, reader, data, match):
    path = tmp_path / "artifact"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        reader(path)


def test_truncated_pgm_rejected(tmp_path):
    # Cut a 2 x 2 PGM at every byte: inside the magic, each header token and
    # the whitespace after it, and each pixel. Every cut raises the same
    # ValueError, not numpy's buffer errors or a maxval complaint about a
    # cut-off "65535".
    path = tmp_path / "map.pgm"
    write_pgm16(path, np.array([[1.0, 2.0], [np.inf, 3.0]]))
    pgm = path.read_bytes()
    assert len(pgm) == len(b"P5\n2 2\n65535\n") + 2 * 4
    assert np.array_equal(read_pgm16(path), [[1.0, 2.0], [np.inf, 3.0]])
    for cut in range(len(pgm)):
        path.write_bytes(pgm[:cut])
        with pytest.raises(ValueError, match=f"truncated PGM: {cut} bytes"):
            read_pgm16(path)


@pytest.mark.parametrize("writer", [write_pgm16, write_map_csv])
@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_writers_reject_maps_that_are_not_2d(tmp_path, writer, shape):
    path = tmp_path / "map"
    with pytest.raises(ValueError, match="map must be 2-D"):
        writer(path, np.ones(shape))
    assert not path.exists()
