"""
Per-beam delay estimation and the post-processing that turns delays into maps.

The processing ladder, lowest to highest:

  cross_correlation    matched filter of one record against the preamble,
                       one output per candidate delay bin q = 0 .. l_d.
  basic_correlator     argmax of the matched filter, the one-path estimator.
  sic_candidates       successive interference cancellation: matched-filter
                       the record once, then repeatedly detect the strongest
                       correlation peak and subtract its least-squares
                       contribution in the correlation domain (the peak times
                       the shifted preamble autocorrelation) while anything
                       clears the threshold. Returns the candidate delay set
                       of the beam.
  joint_processing     resolves each beam's candidate set against the sets of
                       its already-processed neighbors, preferring delays the
                       neighborhood has not seen (new scatterers enter the
                       field of view at most a few beams wide), and fills
                       beams with no detections from the previous beam in
                       raster order.
  build_bank /         sub-sample refinement: correlate the record window at
  massive_correlator   the selected coarse delay against a bank of fractionally
                       delayed preamble replicas on a ratio-times finer grid,
                       all beams in one matrix product.
  construct_maps       delays to range, range to depth through the beam angles.
  interpolate_map      nearest or cubic-convolution upscaling to display size.

Amplitudes here are in record units: the least-squares coefficient of a path
already contains the transmit scaling, so the estimators never need to know
the link budget. Only the detection threshold references the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT

from .channel import PULSE_HALF_WIDTH, raised_cosine

__all__ = [
    "cross_correlation",
    "preamble_energy",
    "correlation_threshold",
    "tail_noise_variance",
    "basic_correlator",
    "SicResult",
    "sic_candidates",
    "joint_processing",
    "CorrelatorBank",
    "build_bank",
    "massive_correlator",
    "construct_maps",
    "interpolate_map",
]


def _matched_filter(samples: np.ndarray, preamble: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Matched filter through one FFT product, and the preamble spectrum it used.

    The FFT size is the power of two at or above the record length, so none
    of the full-overlap lags 0 .. len(samples) - n_p wraps around.
    """
    if len(samples) < len(preamble):
        raise ValueError("record shorter than preamble")
    nfft = 1 << (len(samples) - 1).bit_length()
    spectrum = np.fft.fft(preamble, nfft)
    c = np.fft.ifft(np.fft.fft(samples, nfft) * spectrum.conj())
    return c[: len(samples) - len(preamble) + 1].copy(), spectrum


def cross_correlation(samples: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """
    Matched-filter the record: c[q] = sum_n s*[n] y[n + q].

    With a record of length n_p + l_d the full-overlap lags are exactly
    q = 0 .. l_d, so a path at integer delay d peaks at c[d] with value
    (LS coefficient) * (preamble energy).
    """
    return _matched_filter(samples, preamble)[0]


def preamble_energy(preamble: np.ndarray) -> float:
    """E_Q = sum |s[n]|^2; the matched-filter gain of a unit path."""
    return float(np.vdot(preamble, preamble).real)


def correlation_threshold(preamble: np.ndarray, noise_var: float, gamma: float = 4.0) -> float:
    """
    Detection threshold on |c[q]|^2.

    The matched-filter output noise has variance E_Q * noise_var per bin
    (noise_var is the per-sample record noise variance sigma_n^2 * ||w||^2),
    so gamma is the detection margin in amplitude: gamma = 4 places the
    threshold 12 dB above the correlation noise floor.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma**2 * preamble_energy(preamble) * noise_var


def tail_noise_variance(samples: np.ndarray, n_tail: int = 8) -> float:
    """
    Per-sample noise variance estimated from the record tail.

    The last samples of a record are signal-free when the delay window guard
    exceeds the pulse half-width, so their mean power estimates the noise
    variance. With the default 8 samples the estimate itself has ~35%
    relative scatter; prefer the analytic variance when the link budget is
    known.
    """
    if not 0 < n_tail <= len(samples):
        raise ValueError("n_tail must be in (0, record length]")
    tail = samples[-n_tail:]
    return float(np.mean(np.abs(tail) ** 2))


def basic_correlator(samples: np.ndarray, preamble: np.ndarray) -> int:
    """Strongest-path delay estimate; ties resolve to the smallest lag."""
    c = cross_correlation(samples, preamble)
    return int(np.argmax(np.abs(c) ** 2))


@dataclass
class SicResult:
    """Candidate set of one beam, in detection order."""

    delays: np.ndarray          # int lags, unique, first-detection order
    coefficients: np.ndarray    # complex LS coefficients per delay
    iterations: int             # cancellation passes actually run
    truncated: bool             # True when the iteration cap cut the loop


def sic_candidates(
    samples: np.ndarray,
    preamble: np.ndarray,
    threshold: float,
    max_iterations: int = 32,
) -> SicResult:
    """
    Successive interference cancellation on one record.

    Each pass takes the strongest matched-filter bin and subtracts that
    path's least-squares contribution c[q]/E_Q * s[n - q] before looking
    again; this keeps weak paths detectable next to strong ones whose
    sidelobes would otherwise bury them. The loop ends when no bin clears
    `threshold` (units of |c|^2) or after max_iterations passes, whichever
    is first. Re-detections of an already-cancelled delay refine its
    coefficient instead of adding a duplicate.

    The record is filtered once. Subtracting a path from the record changes
    the filter output by the path coefficient times the preamble
    autocorrelation R shifted to its delay, so each pass updates
    c[q'] -= coeff * R[q' - q] instead of filtering again (the
    matching-pursuit inner-product update). R covers lags -l_d .. l_d and
    comes from the same preamble spectrum as the filter, with E_Q = R[0].
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    c, spectrum = _matched_filter(samples, preamble)
    l_d = len(c) - 1
    auto = np.fft.ifft(np.abs(spectrum) ** 2)
    r = np.concatenate([auto[len(auto) - l_d :], auto[: l_d + 1]])  # r[l_d + k] = R[k]
    e_q = r[l_d].real
    order: list[int] = []
    coeffs: dict[int, complex] = {}
    iterations = 0
    truncated = False
    while True:
        q = int(np.argmax(np.abs(c) ** 2))
        if np.abs(c[q]) ** 2 <= threshold:
            break
        if iterations == max_iterations:
            truncated = True
            break
        coeff = c[q] / e_q
        if q not in coeffs:
            order.append(q)
            coeffs[q] = 0.0
        coeffs[q] += coeff
        c -= coeff * r[l_d - q : 2 * l_d + 1 - q]
        iterations += 1
    return SicResult(
        delays=np.array(order, dtype=int),
        coefficients=np.array([coeffs[q] for q in order], dtype=complex),
        iterations=iterations,
        truncated=truncated,
    )


def joint_processing(
    delay_sets: list[np.ndarray],
    n_bar_h: int,
    n_bar_v: int,
) -> tuple[np.ndarray, np.ndarray]:
    """
    Pick one delay per beam from the per-beam candidate sets.

    Beams are visited in raster order (top row first, left to right). The
    neighborhood of beam (h, v) is the union of the candidate sets at
    (h-1, v), (h, v-1), (h-1, v-1) and (h+1, v-1), all already visited.
    Delays also present in the neighborhood are explained by surfaces already
    seen nearby, so the selection prefers the smallest delay NOT in the
    neighborhood (a newly entering scatterer); if every candidate is known,
    it falls back to the smallest candidate. Beams with empty candidate sets
    inherit the previous selection in raster order (the leading gap, if any,
    copies the first valid selection backwards).

    Returns
    -------
    selected : (n_bar_v, n_bar_h) int array of delay bins.
    filled : bool array, True where the value came from hole filling.
    """
    if len(delay_sets) != n_bar_h * n_bar_v:
        raise ValueError("need one candidate set per beam")
    sets = [set(int(q) for q in np.asarray(d).ravel()) for d in delay_sets]
    selected = np.full((n_bar_v, n_bar_h), -1, dtype=int)
    for v in range(n_bar_v):
        for h in range(n_bar_h):
            t = sets[v * n_bar_h + h]
            if not t:
                continue
            neigh: set[int] = set()
            for dh, dv in ((-1, 0), (0, -1), (-1, -1), (+1, -1)):
                hh, vv = h + dh, v + dv
                if 0 <= hh < n_bar_h and 0 <= vv < n_bar_v:
                    neigh |= sets[vv * n_bar_h + hh]
            fresh = t - neigh
            selected[v, h] = min(fresh) if fresh else min(t)
    flat = selected.ravel()
    filled = flat < 0
    if filled.all():
        raise ValueError("no beam produced any delay candidate")
    valid = np.flatnonzero(~filled)
    # Forward fill: carry[i] is the most recent valid index at or before i,
    # clamped up to the first valid index so a leading gap copies backwards.
    carry = np.maximum.accumulate(np.where(~filled, np.arange(flat.size), 0))
    flat[:] = flat[np.maximum(carry, valid[0])]
    return selected, filled.reshape(n_bar_v, n_bar_h)


@dataclass
class CorrelatorBank:
    """
    Fractional-delay replica bank for sub-sample refinement.

    rows[k] is the preamble delayed by (k - delta) / (ratio * f_s); the
    center row k = delta is the unshifted reference.
    """

    ratio: int                # fine-grid oversampling factor R
    delta: int                # rows span shifts -delta .. +delta
    rows: np.ndarray          # (2*delta + 1, n_p) complex replicas

    @property
    def n_p(self) -> int:
        return self.rows.shape[1]


def build_bank(preamble: np.ndarray, ratio: int, rolloff: float = 0.25) -> CorrelatorBank:
    """
    Build the replica bank of fractionally delayed preamble copies.

    Row k holds the preamble passed through the same raised-cosine pulse
    the transmitter applies, delayed by (k - delta) / ratio of a sample, so
    the rows live on the c / (2 * ratio * f_s) range grid and the row
    matching a path's fractional delay reproduces its record window
    exactly. delta = ratio / 2 rows on each side of center cover one full
    coarse bin.

    A time shift preserves the energy of the continuous waveform, but
    sampling its fractional shifts does not, so the rows are rescaled to a
    common energy. Without this the argmax statistic drifts toward the
    higher-energy rows near zero shift.
    """
    if ratio < 2 or ratio % 2:
        raise ValueError("ratio must be an even integer >= 2")
    delta = ratio // 2
    n_p = len(preamble)
    taps = np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1, dtype=float)
    rows = np.empty((2 * delta + 1, n_p), dtype=complex)
    for k in range(2 * delta + 1):
        frac = (k - delta) / ratio
        kernel = raised_cosine(taps - frac, 1.0, rolloff)
        rows[k] = np.convolve(preamble, kernel)[
            PULSE_HALF_WIDTH : PULSE_HALF_WIDTH + n_p
        ]
    norms = np.linalg.norm(rows, axis=1)
    rows *= (norms[delta] / norms)[:, None]
    return CorrelatorBank(ratio=ratio, delta=delta, rows=rows)


def massive_correlator(
    samples: np.ndarray | list[np.ndarray],
    bank: CorrelatorBank,
    coarse_delay: int | np.ndarray,
) -> float | np.ndarray:
    """
    Refine beam delays to the bank's fine grid.

    samples is one record with a scalar coarse_delay, or a stack of records
    (a 2-D array or a list) with one coarse delay per row. The raw record
    windows starting at the selected coarse bins are correlated against
    every replica in one product, and the winning shift comes back as a
    fraction of a coarse sample (in -1/2 .. +1/2), to be added to the coarse
    delay: a float for one record, an array for a stack.
    """
    single = np.ndim(coarse_delay) == 0
    records = [samples] if single else samples
    delays = np.atleast_1d(coarse_delay)
    if len(records) != len(delays):
        raise ValueError("need one coarse delay per record")
    n_p = bank.n_p
    if any(d < 0 or d + n_p > len(y) for y, d in zip(records, delays)):
        raise ValueError("coarse delay window leaves the record")
    windows = np.array([y[d : d + n_p] for y, d in zip(records, delays)])
    g = windows @ bank.rows.conj().T
    fine = (np.argmax(np.abs(g), axis=1) - bank.delta) / bank.ratio
    return float(fine[0]) if single else fine


def construct_maps(
    coarse_delays: np.ndarray,
    fine_offsets: np.ndarray,
    theta_z: np.ndarray,
    phi: np.ndarray,
    sample_period_s: float,
) -> tuple[np.ndarray, np.ndarray]:
    """
    Convert selected delays to range and depth maps.

    Range is the round-trip delay halved, rho = (c * T_s / 2) * (q + dq);
    depth is the boresight component of the range vector through each beam's
    pointing angles, d = |rho * sin(theta_z) * sin(phi)|.
    """
    q = np.asarray(coarse_delays, dtype=float) + np.asarray(fine_offsets, dtype=float)
    range_map = 0.5 * SPEED_OF_LIGHT * sample_period_s * q
    depth_map = np.abs(range_map * np.sin(theta_z) * np.sin(phi))
    return range_map, depth_map


def _keys_kernel(x: np.ndarray, a: float = -0.5) -> np.ndarray:
    """Cubic convolution kernel; exact on linear ramps."""
    x = np.abs(x)
    return np.where(
        x <= 1.0,
        (a + 2.0) * x**3 - (a + 3.0) * x**2 + 1.0,
        np.where(x < 2.0, a * (x**3 - 5.0 * x**2 + 8.0 * x - 4.0), 0.0),
    )


def _axis_matrix(src_n: int, out_n: int, method: str) -> np.ndarray:
    j = np.arange(out_n)
    if method == "nearest":
        src = np.floor((j + 0.5) * src_n / out_n).astype(int)
        mat = np.zeros((out_n, src_n))
        mat[j, src] = 1.0
        return mat
    # Cubic convolution: 4 taps around the continuous source coordinate,
    # border taps clamped onto the edge sample.
    src = (j + 0.5) * src_n / out_n - 0.5
    i0 = np.floor(src).astype(int)
    frac = src - i0
    mat = np.zeros((out_n, src_n))
    for off in (-1, 0, 1, 2):
        idx = np.clip(i0 + off, 0, src_n - 1)
        np.add.at(mat, (j, idx), _keys_kernel(frac - off))
    return mat


def interpolate_map(map_in: np.ndarray, out_shape: tuple[int, int], method: str = "bicubic") -> np.ndarray:
    """
    Upscale a map to out_shape = (rows, cols).

    method "nearest" replicates source pixels (source row floor((i+0.5)*S/T));
    method "bicubic" is separable cubic convolution with a = -0.5 and clamped
    borders, which reproduces linear ramps exactly. Downscaling is out of
    scope and rejected, as are non-finite inputs under "bicubic" (the kernel
    would smear them); fill or mask sentinels first.
    """
    arr = np.asarray(map_in, dtype=float)
    if arr.ndim != 2:
        raise ValueError("map must be 2-D")
    rows_out, cols_out = out_shape
    if rows_out < arr.shape[0] or cols_out < arr.shape[1]:
        raise ValueError("interpolate_map only upscales")
    if method not in ("nearest", "bicubic"):
        raise ValueError(f"unknown method {method!r}")
    if method == "bicubic" and not np.all(np.isfinite(arr)):
        raise ValueError("bicubic interpolation needs finite inputs")
    a_v = _axis_matrix(arr.shape[0], rows_out, method)
    a_h = _axis_matrix(arr.shape[1], cols_out, method)
    return a_v @ arr @ a_h.T
