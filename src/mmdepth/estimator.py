"""
Per-beam delay estimation and the post-processing that turns delays into maps.

The processing ladder, lowest to highest:

  cross_correlation    matched filter of one record, or of a stack of records,
                       against the preamble: one output per candidate delay
                       bin q = 0 .. l_d. A stack is filtered in blocks of
                       records by FFT against one preamble spectrum.
  basic_correlator     argmax of the matched filter, the one-path estimator.
  cancel_candidates    successive interference cancellation on one matched-
                       filter row: repeatedly detect the strongest correlation
                       peak and subtract its least-squares contribution in
                       the correlation domain (the peak times the shifted
                       preamble autocorrelation, preamble_autocorrelation)
                       while anything clears the threshold. Returns the
                       candidate delay set of the beam.
  sic_candidates       the same on one record: cross_correlation followed by
                       cancel_candidates.
  joint_processing     resolves each beam's candidate set against the sets of
                       its already-processed neighbors, preferring delays the
                       neighborhood has not seen (new scatterers enter the
                       field of view at most a few beams wide), and fills
                       beams with no detections from the previous beam in
                       raster order.
  build_bank /         sub-sample refinement: correlate the record window at
  massive_correlator   the selected coarse delay against a bank of fractionally
                       delayed preamble replicas on a ratio-times finer grid
                       (all replicas from one kernel-by-shifted-preamble
                       product), all beams in one matrix product.
  construct_maps       delays to range, range to depth through the beam angles.
  interpolate_map      nearest or cubic-convolution upscaling to display size.

Amplitudes here are in record units: the least-squares coefficient of a path
already contains the transmit scaling, so the estimators never need to know
the link budget. Only the detection threshold references the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PULSE_HALF_WIDTH, SPEED_OF_LIGHT, raised_cosine

__all__ = [
    "cross_correlation",
    "preamble_autocorrelation",
    "preamble_energy",
    "correlation_threshold",
    "tail_noise_variance",
    "basic_correlator",
    "SicResult",
    "cancel_candidates",
    "sic_candidates",
    "joint_processing",
    "CorrelatorBank",
    "build_bank",
    "massive_correlator",
    "construct_maps",
    "interpolate_map",
]


# Records per block of matched filtering; working memory is O(_BLOCK * nfft).
_BLOCK = 32


def _fft_size(n_record: int) -> int:
    """Power of two at or above the record length: no full-overlap lag wraps."""
    return 1 << (n_record - 1).bit_length()


def cross_correlation(samples: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """
    Matched-filter a record: c[q] = sum_n s*[n] y[n + q].

    With a record of length n_p + l_d the full-overlap lags are exactly
    q = 0 .. l_d, so a path at integer delay d peaks at c[d] with value
    (LS coefficient) * (preamble energy). samples is one record or an
    (M, n_p + l_d) stack, giving one row of lags per record. Each row is an
    FFT product with the one preamble spectrum, taken over blocks of _BLOCK
    records; a row does not depend on the others or on the block size.
    """
    samples = np.asarray(samples)
    n, n_p = samples.shape[-1], len(preamble)
    if n < n_p:
        raise ValueError("record shorter than preamble")
    nfft = _fft_size(n)
    spectrum = np.fft.fft(preamble, nfft).conj()
    rows = samples.reshape(-1, n)
    c = np.empty((len(rows), n - n_p + 1), dtype=complex)
    for start in range(0, len(rows), _BLOCK):
        block = np.fft.ifft(np.fft.fft(rows[start : start + _BLOCK], nfft) * spectrum)
        c[start : start + _BLOCK] = block[:, : n - n_p + 1]
    return c.reshape(samples.shape[:-1] + c.shape[1:])


def preamble_autocorrelation(preamble: np.ndarray, l_d: int) -> np.ndarray:
    """
    Preamble autocorrelation R[k] = sum_n s*[n] s[n + k] over lags
    k = -l_d .. l_d, returned as r with r[l_d + k] = R[k], so E_Q = r[l_d].

    It comes from the spectrum cross_correlation uses on records of length
    n_p + l_d (same FFT size), which is what cancellation in the
    correlation domain needs.
    """
    nfft = _fft_size(len(preamble) + l_d)
    auto = np.fft.ifft(np.abs(np.fft.fft(preamble, nfft)) ** 2)
    return np.concatenate([auto[nfft - l_d :], auto[: l_d + 1]])


def preamble_energy(preamble: np.ndarray) -> float:
    """E_Q = sum |s[n]|^2; the matched-filter gain of a unit path."""
    return float(np.vdot(preamble, preamble).real)


def correlation_threshold(
    preamble: np.ndarray, noise_var: float | np.ndarray, gamma: float = 4.0
) -> float | np.ndarray:
    """
    Detection threshold on |c[q]|^2.

    The matched-filter output noise has variance E_Q * noise_var per bin
    (noise_var is the per-sample record noise variance sigma_n^2 * ||w||^2),
    so gamma is the detection margin in amplitude: gamma = 4 places the
    threshold 12 dB above the correlation noise floor. An array of noise
    variances, one per beam, gives one threshold per beam.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return gamma**2 * preamble_energy(preamble) * noise_var


def tail_noise_variance(samples: np.ndarray, n_tail: int = 8) -> float | np.ndarray:
    """
    Per-sample noise variance estimated from the record tail.

    The last samples of a record are signal-free when the delay window guard
    exceeds the pulse half-width, so their mean power estimates the noise
    variance. The mean of n_tail samples of complex Gaussian noise scatters
    by 1/sqrt(n_tail) relative: ~35% at this function's default of 8, 12.5%
    at the pipeline's default estimator.tail_samples of 64. Prefer the
    analytic variance when the link budget is known. samples is one record
    (a float comes back) or a stack of records (one value per row).
    """
    samples = np.asarray(samples)
    if not 0 < n_tail <= samples.shape[-1]:
        raise ValueError("n_tail must be in (0, record length]")
    power = np.mean(np.abs(samples[..., -n_tail:]) ** 2, axis=-1)
    return float(power) if power.ndim == 0 else power


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


def cancel_candidates(
    correlation: np.ndarray,
    autocorrelation: np.ndarray,
    threshold: float,
    max_iterations: int = 32,
) -> SicResult:
    """
    Successive interference cancellation on one matched-filter row.

    correlation is one record's cross_correlation, c[q] for q = 0 .. l_d,
    and autocorrelation is preamble_autocorrelation(preamble, l_d). Each
    pass takes the strongest bin q and subtracts that path's least-squares
    contribution c[q]/E_Q * s[n - q] before looking again; this keeps weak
    paths detectable next to strong ones whose sidelobes would otherwise
    bury them. The loop ends when no bin clears `threshold` (units of
    |c|^2) or after max_iterations passes, whichever is first.
    Re-detections of an already-cancelled delay refine its coefficient
    instead of adding a duplicate.

    Subtracting a path from the record changes the filter output by the
    path coefficient times the autocorrelation R shifted to its delay, so
    each pass updates c[q'] -= coeff * R[q' - q] instead of filtering again
    (the matching-pursuit inner-product update). The input row is not
    modified.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    c = np.array(correlation, dtype=complex)
    l_d = len(c) - 1
    r = autocorrelation  # r[l_d + k] = R[k]
    if c.ndim != 1 or r.shape != (2 * l_d + 1,):
        raise ValueError("need one correlation row and its autocorrelation over lags -l_d .. l_d")
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


def sic_candidates(
    samples: np.ndarray,
    preamble: np.ndarray,
    threshold: float,
    max_iterations: int = 32,
) -> SicResult:
    """
    Successive interference cancellation on one record: the record is
    matched-filtered once, then cancel_candidates runs on that row.
    """
    c = cross_correlation(samples, preamble)
    return cancel_candidates(c, preamble_autocorrelation(preamble, len(c) - 1), threshold, max_iterations)


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

    conj_rows[k] is the conjugated preamble delayed by (k - delta) / (ratio
    * f_s), the form the correlation uses; row k = delta is unshifted.
    """

    ratio: int                # fine-grid oversampling factor R
    delta: int                # rows span shifts -delta .. +delta
    conj_rows: np.ndarray     # (2*delta + 1, n_p) conjugated complex replicas

    @property
    def n_p(self) -> int:
        return self.conj_rows.shape[1]


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
    higher-energy rows near zero shift. The bank keeps the rows conjugated.
    """
    if ratio < 2 or ratio % 2:
        raise ValueError("ratio must be an even integer >= 2")
    delta = ratio // 2
    n_p = len(preamble)
    taps = np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1, dtype=float)
    frac = (np.arange(2 * delta + 1) - delta) / ratio
    kernels = raised_cosine(taps - frac[:, None], 1.0, rolloff)  # (2*delta + 1, 17)
    # shifted[j, n] = s[n + PULSE_HALF_WIDTH - j], zero outside the preamble,
    # so kernels @ shifted is the centred slice of each row's convolution.
    padded = np.zeros(n_p + 2 * PULSE_HALF_WIDTH, dtype=complex)
    padded[PULSE_HALF_WIDTH : PULSE_HALF_WIDTH + n_p] = preamble
    shifted = np.ascontiguousarray(np.lib.stride_tricks.sliding_window_view(padded, n_p)[::-1])
    rows = (kernels @ shifted.view(float)).view(complex)  # one real GEMM
    norms = np.linalg.norm(rows, axis=1)
    rows *= (norms[delta] / norms)[:, None]
    return CorrelatorBank(ratio=ratio, delta=delta, conj_rows=rows.conj())


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
    records = np.atleast_2d(samples)
    delays = np.atleast_1d(coarse_delay)
    if len(records) != len(delays):
        raise ValueError("need one coarse delay per record")
    n_p = bank.n_p
    if np.any((delays < 0) | (delays + n_p > records.shape[1])):
        raise ValueError("coarse delay window leaves the record")
    windows = np.lib.stride_tricks.sliding_window_view(records, n_p, axis=1)[np.arange(len(delays)), delays]
    g = windows @ bank.conj_rows.T
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
