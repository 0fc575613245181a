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
    """
    est = np.asarray(estimate, dtype=float)
    ref = np.asarray(truth, dtype=float)
    if est.shape != ref.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {ref.shape}")
    valid = np.isfinite(ref)
    k = int(valid.sum())
    if k == 0:
        raise ValueError("truth map has no finite pixels to score against")
    err = est[valid] - ref[valid]
    return ErrorReport(
        rmse_m=float(np.sqrt(np.mean(err**2))),
        mae_m=float(np.mean(np.abs(err))),
        bias_m=float(np.mean(err)),
        n_valid=k,
        n_total=int(ref.size),
    )


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
