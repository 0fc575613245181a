"""
Per-beam delay estimation and the post-processing that turns delays into maps.

The processing ladder, lowest to highest:

  cross_correlation    matched filter of one record, or of a stack of records,
                       against the preamble: one output per candidate delay
                       bin q = 0 .. l_d. A stack is filtered in blocks of
                       records by a partitioned FFT filter: each preamble
                       section meets its record window, and one inverse
                       transform of the summed products gives every lag.
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
                       its four upper and left neighbors on a boolean (beam
                       row, beam column, delay) grid, preferring delays the
                       neighborhood has not seen (new scatterers enter the
                       field of view at most a few beams wide), and fills
                       beams with no detections from the previous beam in
                       raster order. No visiting order enters the picks.
  build_bank /         sub-sample refinement: score the matched-filter row
  massive_correlator   around the selected coarse delay against a bank of
                       fractionally delayed preamble replicas on a ratio-times
                       finer grid. Every replica is the 17-tap pulse kernel at
                       its fractional shift applied to the preamble, so its
                       correlation with the record is that kernel applied to
                       the 17 lags of the row around the pick: the bank keeps
                       only the kernels, and one small product scores every
                       replica for every beam.
  construct_maps       delays to range, range to depth through the beam angles.
  interpolate_map      nearest or cubic-convolution upscaling to display size.

Amplitudes here are in record units: the least-squares coefficient of a path
already contains the transmit scaling, so the estimators never need to know
the link budget. Only the detection threshold references the noise level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PULSE_HALF_WIDTH, SPEED_OF_LIGHT, pulse_window
from .waveform import _preamble_filter, preamble_autocorrelation

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


# Records per block of matched filtering; working memory is at most _BLOCK * _fft_size(n_p + l_d) complex.
_BLOCK = 32


def cross_correlation(samples: np.ndarray, preamble: np.ndarray) -> np.ndarray:
    """
    Matched-filter a record: c[q] = sum_n s*[n] y[n + q].

    With a record of length n_p + l_d the full-overlap lags are exactly
    q = 0 .. l_d, so a path at integer delay d peaks at c[d] with value
    (LS coefficient) * (preamble energy). samples is one record or an
    (M, n_p + l_d) stack, giving one row of lags per record. Blocks of
    _BLOCK records go through the partitioned correlator that also filters
    the noise rows of waveform.matched_filter_rows
    (waveform._preamble_filter, overlap-save): the preamble is cut into
    sections at the transform size of waveform._plan, the record window of
    each section is transformed and multiplied by the section's conjugate
    spectrum, and one inverse transform of the sum gives lags 0 .. l_d. A
    row does not depend on the others or on the block size.
    """
    samples = np.asarray(samples)
    n, n_p = samples.shape[-1], len(preamble)
    if n < n_p:
        raise ValueError("record shorter than preamble")
    rows = samples.reshape(-1, n)
    c = np.empty((len(rows), n - n_p + 1), dtype=complex)
    _preamble_filter(rows, preamble, c, _BLOCK)
    return c.reshape(samples.shape[:-1] + c.shape[1:])


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


def tail_noise_variance(samples: np.ndarray, n_tail: int) -> float | np.ndarray:
    """
    Per-sample noise variance estimated from the last n_tail record samples.

    This is the record model's noise level, over the whole delay-window
    guard, n_tail = sim.guard_taps, of a record. The pipeline forms no
    record: it takes its levels from waveform.matched_filter_rows, which
    equal this on the records of synthesize_records within 5.8e-16
    relative. The guard follows the latest path's delay, so its samples
    hold noise and at most the truncated pulse tails of the latest paths,
    and their mean power estimates the noise variance. The mean of n_tail
    samples of complex Gaussian noise scatters by 1/sqrt(n_tail) relative,
    12.5% at the default guard of 64; a record without noise has a zero
    tail, hence a zero threshold. samples is one record (a float comes
    back) or a stack of records (one value per row).
    """
    samples = np.asarray(samples)
    if not 0 < n_tail <= samples.shape[-1]:
        raise ValueError("n_tail must be in (0, record length]")
    power = np.mean(np.abs(samples[..., -n_tail:]) ** 2, axis=-1)
    return float(power) if power.ndim == 0 else power


def basic_correlator(samples: np.ndarray, preamble: np.ndarray) -> int:
    """Strongest-path delay estimate of one record; ties resolve to the smallest lag."""
    if np.ndim(samples) != 1:
        raise ValueError("basic_correlator takes one record")
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
    |c|^2; the stop test reads the |c|^2 the peak was picked on) or after
    max_iterations passes, whichever is first.
    Re-detections of an already-cancelled delay refine its coefficient
    instead of adding a duplicate.

    Subtracting a path from the record changes the filter output by the
    path coefficient times the autocorrelation R shifted to its delay, so
    each pass updates c[q'] -= coeff * R[q' - q] instead of filtering again
    (the matching-pursuit inner-product update). Every pass writes |c|^2 and
    that update into two arrays allocated once per call. The input row is
    not modified.
    """
    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    c = np.array(correlation, dtype=complex)
    l_d = len(c) - 1
    r = autocorrelation  # r[l_d + k] = R[k]
    if c.ndim != 1 or r.shape != (2 * l_d + 1,):
        raise ValueError("need one correlation row and its autocorrelation over lags -l_d .. l_d")
    e_q = r[l_d].real
    power = np.empty(l_d + 1)
    update = np.empty_like(c)
    order: list[int] = []
    coeffs: dict[int, complex] = {}
    iterations = 0
    truncated = False
    while True:
        np.abs(c, out=power)
        q = int(np.square(power, out=power).argmax())
        if power[q] <= threshold:
            break
        if iterations == max_iterations:
            truncated = True
            break
        coeff = c[q] / e_q
        if q not in coeffs:
            order.append(q)
            coeffs[q] = 0.0
        coeffs[q] += coeff
        c -= np.multiply(coeff, r[l_d - q : 2 * l_d + 1 - q], out=update)
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
    Pick one delay per beam from the per-beam candidate sets (1-D, bins >= 0).

    The neighborhood of beam (h, v) is the union of the candidate sets at
    (h-1, v), (h, v-1), (h-1, v-1) and (h+1, v-1). Delays also present in
    the neighborhood are explained by surfaces already seen nearby, so the
    selection prefers the smallest delay NOT in the neighborhood (a newly
    entering scatterer); if every candidate is known, it falls back to the
    smallest candidate. A pick depends only on the neighbors' candidate
    sets, not on their picks, so no visiting order enters it. Beams with
    empty candidate sets inherit the previous selection in raster order
    (the leading gap, if any, copies the first valid selection backwards).
    On the boolean (n_bar_v, n_bar_h, sorted distinct bins) grid the
    neighborhood is four shifted ORs and the first True is the smallest.

    The neighborhood is raster-causal: it holds the neighbors that a scan
    of rows top to bottom, each left to right, visits before (h, v). So the
    rule is not mirror-equivariant, although the chain that feeds it is.
    Fed the left-right mirrored candidate sets of pillar_room at sim seeds
    0-2, it changed 84-92 of its 256 picks (flipped back), 49-58 on
    one_wall and 18-26 on two_walls. Symmetric neighborhoods measured
    worse on all three scenes and seeds: pillar_room depth MAE read
    0.421-0.449 m with all 8 neighbors and 0.430-0.454 m with the 4 edge
    neighbors, against 0.375-0.421 m under this, the paper's rule.

    Returns
    -------
    selected : (n_bar_v, n_bar_h) int array of delay bins.
    filled : bool array, True where the value came from hole filling.
    """
    if len(delay_sets) != n_bar_h * n_bar_v:
        raise ValueError("need one candidate set per beam")
    bins, column = np.unique(np.concatenate(delay_sets).astype(int), return_inverse=True)
    if bins.size and bins[0] < 0:
        raise ValueError(f"delay bins must be >= 0, got {bins[0]}")
    beam = np.repeat(np.arange(len(delay_sets)), list(map(len, delay_sets)))
    # The grid sits inside one empty beam of padding above, left and right.
    pad = np.zeros((n_bar_v + 1, n_bar_h + 2, bins.size), dtype=bool)
    cand = pad[1:, 1:-1]
    cand[beam // n_bar_h, beam % n_bar_h, column] = True
    seen = pad[1:, :-2] | pad[:-1, 1:-1] | pad[:-1, :-2] | pad[:-1, 2:]
    fresh = cand & ~seen
    filled = ~cand.any(axis=-1)
    if filled.all():
        raise ValueError(
            "no beam produced any delay candidate: every beam's matched filter stayed below its "
            "threshold, gamma^2 E_p times its record's tail noise level"
        )
    selected = bins[np.where(fresh.any(axis=-1), fresh.argmax(axis=-1), cand.argmax(axis=-1))]
    flat, hole = selected.ravel(), filled.ravel()
    valid = np.flatnonzero(~hole)
    # Forward fill: carry[i] is the most recent valid index at or before i,
    # clamped up to the first valid index so a leading gap copies backwards.
    carry = np.maximum.accumulate(np.where(~hole, np.arange(flat.size), 0))
    flat[:] = flat[np.maximum(carry, valid[0])]
    return selected, filled


@dataclass
class CorrelatorBank:
    """
    Fractional-delay replica bank for sub-sample refinement, kept as kernels.

    Replica k, the preamble delayed by (k - delta) / (ratio * f_s), is
    np.convolve(preamble, kernels[k]): real pulse taps applied to the
    preamble at integer shifts -PULSE_HALF_WIDTH .. +PULSE_HALF_WIDTH, so
    n_p + 16 samples long. Row k = delta is the unit impulse. The replicas
    themselves are never formed.
    """

    ratio: int                # fine-grid oversampling factor R
    delta: int                # kernels span shifts -delta .. +delta
    kernels: np.ndarray       # (2*delta + 1, 17) real taps, scaled to a common replica energy


def build_bank(preamble: np.ndarray, ratio: int, rolloff: float = 0.25) -> CorrelatorBank:
    """
    Build the replica bank of fractionally delayed preamble copies.

    Replica k is the preamble passed through the same raised-cosine pulse
    the transmitter applies, delayed by (k - delta) / ratio of a sample, so
    the replicas live on the c / (2 * ratio * f_s) range grid and the one
    matching a path's fractional delay reproduces its part of the record
    exactly. delta = ratio / 2 replicas on each side of center cover one
    full coarse bin. The pulse spans 17 taps, so replica k is kernels[k]
    applied to the preamble at 17 integer shifts, and the bank keeps only
    the kernels.

    A time shift preserves the energy of the continuous waveform, but
    sampling its fractional shifts does not, so the kernels are rescaled to
    a common replica energy. Without this the argmax statistic drifts toward
    the higher-energy replicas near zero shift. Replica k's energy is
    kernels[k] @ G @ kernels[k] with G[i, j] = R[j - i] the 17 x 17 Toeplitz
    Gram matrix of the shifted preambles, R from preamble_autocorrelation,
    so no replica is formed to measure it.
    """
    if ratio < 2 or ratio % 2:
        raise ValueError("ratio must be an even integer >= 2")
    delta = ratio // 2
    frac = (np.arange(2 * delta + 1) - delta) / ratio
    kernels = pulse_window(-frac, rolloff)  # (2*delta + 1, 17): p(k - frac), k = -8..8
    taps = np.arange(2 * PULSE_HALF_WIDTH + 1)
    auto = preamble_autocorrelation(preamble, 2 * PULSE_HALF_WIDTH)
    gram = auto[2 * PULSE_HALF_WIDTH + taps[None, :] - taps[:, None]]  # G[i, j] = R[j - i]
    norms = np.sqrt(np.einsum("ki,ij,kj->k", kernels, gram, kernels).real)
    kernels *= (norms[delta] / norms)[:, None]
    return CorrelatorBank(ratio=ratio, delta=delta, kernels=kernels)


def massive_correlator(
    correlation: np.ndarray,
    bank: CorrelatorBank,
    coarse_delay: int | np.ndarray,
) -> float | np.ndarray:
    """
    Refine beam delays to the bank's fine grid.

    correlation is one record's matched-filter row (cross_correlation, lags
    0 .. l_d) with a scalar coarse_delay, or an (M, l_d + 1) matrix of rows
    with one coarse delay per row. Replica k's correlation with the record
    at coarse delay d is kernels[k] applied to the row's 17 lags
    c[d - 8 .. d + 8]; lags outside 0 .. l_d read as 0. One
    (M, 17) @ (17, 2*delta + 1) product scores every replica of every beam.
    The winning shift comes back as a fraction of a coarse sample (in
    -1/2 .. +1/2), to be added to the coarse delay: a float for one row, an
    array for a matrix.
    """
    single = np.ndim(coarse_delay) == 0
    rows = np.atleast_2d(correlation)
    delays = np.atleast_1d(coarse_delay)
    if rows.ndim != 2 or len(rows) != len(delays):
        raise ValueError("need one coarse delay per correlation row")
    l_d = rows.shape[1] - 1
    if np.any((delays < 0) | (delays > l_d)):
        raise ValueError("coarse delay outside the lags 0 .. l_d")
    lag = delays[:, None] + np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1)
    lags = np.take_along_axis(rows, np.clip(lag, 0, l_d), axis=1)
    lags[(lag < 0) | (lag > l_d)] = 0
    g = lags @ bank.kernels.T
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


def _cubic_matrix(src_n: int, out_n: int) -> np.ndarray:
    # Cubic convolution: 4 taps around the continuous source coordinate,
    # border taps clamped onto the edge sample.
    j = np.arange(out_n)
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
    if method == "nearest":  # a gather: a one-hot product would turn 0 * inf into NaN
        rows, cols = (np.floor((np.arange(t) + 0.5) * s / t).astype(int) for s, t in zip(arr.shape, out_shape))
        return arr[np.ix_(rows, cols)]
    if not np.all(np.isfinite(arr)):
        raise ValueError("bicubic interpolation needs finite inputs")
    return _cubic_matrix(arr.shape[0], rows_out) @ arr @ _cubic_matrix(arr.shape[1], cols_out).T
