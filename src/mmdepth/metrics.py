"""
Map scoring against ray-cast truth, and the range estimation bound.

Errors are computed only where the truth map is finite: pixels whose rays
leave the scene carry the +inf sentinel and say nothing about estimator
quality. RMSE and MAE are the usual per-pixel aggregates

    RMSE = sqrt(mean(e^2)),    MAE = mean(|e|)

over the K valid pixels, both in meters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import SPEED_OF_LIGHT

__all__ = ["ErrorReport", "map_errors", "crlb_range"]

# Map rows per block of error gathering; working memory is O(_ROWS * cols) beyond the K errors.
_ROWS = 32


@dataclass(frozen=True)
class ErrorReport:
    """Aggregate per-pixel error of one map against its reference."""

    rmse_m: float
    mae_m: float
    bias_m: float       # mean signed error (estimate - truth), diagnostic
    n_valid: int        # pixels with finite truth, the averaging count K
    n_total: int


def map_errors(estimate: np.ndarray, truth: np.ndarray) -> ErrorReport:
    """
    Score an estimated map against a reference of the same shape.

    Pixels with non-finite truth are excluded from all aggregates. A
    non-finite estimate at a valid truth pixel is a real estimator failure
    and propagates into the aggregates rather than being masked.

    The K errors are gathered into one array in row-major order, _ROWS rows
    (a 0-d or 1-d map is one row) at a time, and each aggregate is a mean
    over that array: bias over the signed errors, then MAE and RMSE over
    them made absolute and squared in place.
    """
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {ref.shape}")
    valid = np.isfinite(ref)
    k = int(np.count_nonzero(valid))
    if k == 0:
        raise ValueError("truth map has no finite pixels to score against")
    cols = ref.shape[-1] if ref.ndim else 1
    est, ref, valid = (a.reshape(-1, cols) for a in (est, ref, valid))
    err = np.empty(k)
    diff = np.empty((min(_ROWS, len(ref)), cols))
    pos = 0
    with np.errstate(invalid="ignore"):  # inf - inf lands only on excluded pixels
        for start in range(0, len(ref), _ROWS):
            v = valid[start : start + _ROWS]
            block = np.subtract(est[start : start + _ROWS], ref[start : start + _ROWS], out=diff[: len(v)])[v]
            err[pos : pos + len(block)] = block
            pos += len(block)
    bias = float(np.mean(err))
    mae = float(np.mean(np.abs(err, out=err)))
    rmse = float(np.sqrt(np.mean(np.square(err, out=err))))
    return ErrorReport(rmse_m=rmse, mae_m=mae, bias_m=bias, n_valid=k, n_total=int(ref.size))


def crlb_range(snr: float, n_int: int, bandwidth_hz: float) -> float:
    """
    Cramer-Rao lower bound on monostatic range variance, in m^2.

    For a flat-spectrum unit-energy pulse the mean-square bandwidth is
    eta^2 = (2*pi)^2 / 12, and integrating n_int symbols at per-sample SNR
    `snr` bounds the delay variance by 1 / (2 * n_int * eta^2 * B^2 * snr).
    Range is c * tau / 2 for round-trip delay, hence

        var(rho) >= c^2 / (8 * n_int * eta^2 * B^2 * snr).
    """
    if snr <= 0 or n_int < 1 or bandwidth_hz <= 0:
        raise ValueError("snr, n_int and bandwidth must be positive")
    eta_sq = (2.0 * np.pi) ** 2 / 12.0
    return SPEED_OF_LIGHT**2 / (8.0 * n_int * eta_sq * bandwidth_hz**2 * snr)
