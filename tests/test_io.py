"""Artifact formats: the 16-bit PGM map and record dump round trips, the
readers' rejection of files they did not write, and the writers' rejection
of maps that are not 2-D."""
import struct

import numpy as np
import pytest

from mmdepth.io import read_pgm16, read_records, write_map_csv, write_pgm16, write_records
from mmdepth.waveform import SensingRecord

# One beam, n_p = 1, l_d = 0, sample 1 + 2j.
RECORD_DUMP = b"MMDR" + struct.pack("<II", 1, 1) + struct.pack("<III", 0, 1, 0) + struct.pack("<dd", 1.0, 2.0)


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


def test_records_round_trip_every_bit(tmp_path):
    # Infinite parts and signed zeros come back as written: a reader that
    # rebuilt re + 1j * im would turn an infinite imaginary part into a NaN
    # real part.
    samples = np.array(
        [complex(1.5, np.inf), complex(-0.0, 2.0), complex(3.0, -0.0), complex(-np.inf, -0.0), 0.25 - 1e-300j]
    )
    records = [SensingRecord(beam=7, n_p=3, l_d=2, samples=samples), SensingRecord(0, 1, 4, samples[::-1])]
    path = tmp_path / "records.bin"
    write_records(path, records)
    header = b"MMDR" + struct.pack("<II", 1, 2)
    beam7 = struct.pack("<III", 7, 3, 2) + b"".join(struct.pack("<dd", z.real, z.imag) for z in samples)
    assert path.read_bytes().startswith(header + beam7)
    back = read_records(path)
    assert [(r.beam, r.n_p, r.l_d) for r in back] == [(7, 3, 2), (0, 1, 4)]
    for a, b in zip(back, records):
        assert a.samples.dtype == complex and a.samples.flags.writeable
        assert a.samples.tobytes() == b.samples.tobytes()
    # The dump the rejection cases below corrupt is itself valid.
    path.write_bytes(RECORD_DUMP)
    assert read_records(path)[0].samples.tolist() == [1.0 + 2.0j]


@pytest.mark.parametrize(
    "reader, data, match",
    [
        (read_pgm16, b"P2\n1 1\n65535\n0\n", "not a binary PGM file"),
        (read_pgm16, b"P5\n1 1\n255\n\x00", "expected 16-bit PGM \\(maxval 65535\\), got 255"),
        (read_records, b"MMDX" + RECORD_DUMP[4:], "not a record dump \\(bad magic\\)"),
        (read_records, b"MMDR" + struct.pack("<II", 2, 1) + RECORD_DUMP[12:], "unsupported record dump version 2"),
        (read_records, RECORD_DUMP + b"\x00", "trailing bytes after last record"),
    ],
)
def test_readers_reject_foreign_files(tmp_path, reader, data, match):
    path = tmp_path / "artifact"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        reader(path)


@pytest.mark.parametrize("writer", [write_pgm16, write_map_csv])
@pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
def test_writers_reject_maps_that_are_not_2d(tmp_path, writer, shape):
    path = tmp_path / "map"
    with pytest.raises(ValueError, match="map must be 2-D"):
        writer(path, np.ones(shape))
    assert not path.exists()
