"""
Artifact file formats: 16-bit PGM maps and CSV maps.

Every writer here is byte-deterministic: no timestamps, no host names, no
float formatting that depends on locale. Reruns with the same inputs must
produce identical bytes so that map artifacts can be diffed directly.

PGM convention: binary P5, maxval 65535, big-endian samples, one sample per
pixel holding the map value quantized to millimeters. The value 65535 is
reserved as the missing / no-return sentinel (rays that leave the scene,
pixels with +inf); finite values clamp to [0, 65534] mm.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "write_pgm16",
    "read_pgm16",
    "write_map_csv",
]

PGM_SENTINEL = 65535        # missing / no return
# Map rows per block of PGM encoding; working memory is O(_ROWS * cols).
_ROWS = 32


def write_pgm16(path, map_m: np.ndarray) -> None:
    """
    Write a map of meters as a millimeter-quantized 16-bit binary PGM.

    Non-finite entries become the sentinel 65535; finite ones round to the
    nearest millimeter and clamp to [0, 65534]. The samples are scaled,
    rounded, clamped and written _ROWS map rows at a time, so the working
    memory beyond the map is one block.
    """
    arr = np.asarray(map_m, dtype=float)
    if arr.ndim != 2:
        raise ValueError("map must be 2-D")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        for start in range(0, h, _ROWS):
            rows = arr[start : start + _ROWS]
            with np.errstate(over="ignore"):  # |value| above ~1.8e305 m: inf, clamped below
                mm = np.multiply(rows, 1000.0)
            np.rint(mm, out=mm)
            np.clip(mm, 0, PGM_SENTINEL - 1, out=mm)
            mm[~np.isfinite(rows)] = PGM_SENTINEL
            fh.write(mm.astype(">u2"))


def read_pgm16(path) -> np.ndarray:
    """
    Read a PGM written by write_pgm16 back to meters (sentinel -> +inf). A
    file cut short anywhere, or with bytes after the last pixel, raises a
    ValueError saying so.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    def truncated(what: str) -> ValueError:
        return ValueError(f"truncated PGM: {len(data)} bytes, {what}")

    if data[:2] != b"P5"[: len(data)]:
        raise ValueError("not a binary PGM file")
    # Header is three whitespace-separated tokens after the magic, each
    # followed by a whitespace byte; the pixels start right after maxval's.
    tokens: list[bytes] = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise truncated("the header is cut short")
        tokens.append(data[start:pos])
    pos += 1

    def number(token: bytes) -> int:
        try:
            return int(token)
        except ValueError:
            raise ValueError(f"malformed PGM header: {token.decode('latin-1')!r} is not an integer") from None

    w, h, maxval = map(number, tokens)
    if maxval != 65535:
        raise ValueError(f"expected 16-bit PGM (maxval 65535), got {maxval}")
    if w < 0 or h < 0:
        raise ValueError(f"negative PGM size {w} x {h}")
    end = pos + 2 * w * h
    if end > len(data):
        raise truncated(f"the pixels end at byte {end}")
    if end < len(data):
        raise ValueError("trailing bytes after the last pixel")
    mm = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos).reshape(h, w)
    out = mm.astype(float) / 1000.0
    out[mm == PGM_SENTINEL] = np.inf
    return out


def write_map_csv(path, map_m: np.ndarray) -> None:
    """
    Write a 2-D map as CSV, one map row per line, full float precision.

    repr() of a Python float round-trips exactly, so the file carries the
    same doubles the array held; +inf serializes as 'inf'.
    """
    arr = np.asarray(map_m, dtype=float)
    if arr.ndim != 2:
        raise ValueError("map must be 2-D")
    with open(path, "w", newline="") as fh:
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")

