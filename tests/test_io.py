"""Artifact formats: the 16-bit PGM map round trip."""
import numpy as np

from mmdepth.io import read_pgm16, write_pgm16


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
