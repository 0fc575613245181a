"""
Sensing preambles and per-beam receive-record synthesis.

The default preamble is the 3328-sample single-carrier PHY preamble: a short
training field of sixteen Ga128 repetitions closed by -Ga128, then a channel
estimation field built from Gu512 = [-Gb, -Ga, +Gb, -Ga] and
Gv512 = [-Gb, +Ga, -Gb, -Ga] followed by a trailing -Gb128, the whole thing
pi/2-BPSK rotated (sample n multiplied by j^n). Golay complementarity makes
its aperiodic autocorrelation essentially a delta, which is what lets a
single matched filter per beam resolve multipath taps.

synthesize_records applies the tapped channels of mmdepth.channel, one
tap line per beam, to a preamble and adds circular complex noise scaled by
each beam's combiner norm, producing the (M, n_p + l_d) record array the
estimators consume; synthesize_rx is its one-beam case. It is the plain
reference model: one zero-padded FFT convolution per block of beams, at
the power of two at or above the record length.

The matched filter of mmdepth.estimator and the noise rows of
matched_filter_rows go through one partitioned FFT correlator
(_preamble_filter, overlap-save after T. G. Stockham, "High-speed
convolution and correlation", AFIPS SJCC 1966): the preamble is cut into
sections of a transform size just above the delay window, 512 points for
the default preamble and a 114-sample window, instead of one transform of
the whole 4096-point record. _plan picks the size from n_p and l_d alone;
where partitioning does not pay, a short preamble or a wide window, it
keeps one block at the full size. The conjugate spectra of the preamble
sections are built once per preamble and window and kept
(_section_spectra), so a caller that filters one record or one block at a
time pays for them once.

matched_filter_rows gives what the estimators read of those records, their
matched-filter rows and tail noise levels, without forming them: the
signal's rows are the taps times the preamble autocorrelation
(preamble_autocorrelation), and only the noise rows, drawn as
synthesize_records draws them, are filtered.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .channel import RadioConfig, noise_variance

__all__ = [
    "PREAMBLE_LENGTH",
    "golay_pair_128",
    "make_preamble",
    "pi_half_rotate",
    "SensingRecord",
    "preamble_autocorrelation",
    "matched_filter_rows",
    "synthesize_records",
    "synthesize_rx",
]

PREAMBLE_LENGTH = 3328  # STF (17*128) + CEF (9*128) samples

# Beams per block of record synthesis and of matched_filter_rows' noise rows; working memory is
# at most _BLOCK * _fft_size(n_p + l_d) complex, plus _BLOCK noise rows.
_BLOCK = 32

# Delay and seed sequences of the length-128 Golay generator.
_GOLAY_D = (1, 8, 2, 4, 16, 32, 64)
_GOLAY_W = (-1, -1, -1, -1, 1, -1, -1)


def golay_pair_128() -> tuple[np.ndarray, np.ndarray]:
    """
    The binary complementary pair (Ga128, Gb128).

    Built by the seven-stage delay-and-weight recursion

        A_k(n) = W_k A_{k-1}(n) + B_{k-1}(n - D_k)
        B_k(n) = W_k A_{k-1}(n) - B_{k-1}(n - D_k)

    from A_0 = B_0 = delta, with D = (1, 8, 2, 4, 16, 32, 64) and
    W = (-1, -1, -1, -1, 1, -1, -1), reading the results out time-reversed.
    The pair satisfies corr(Ga) + corr(Gb) = 256 * delta.
    """
    n = 128
    a = np.zeros(n)
    b = np.zeros(n)
    a[0] = 1.0
    b[0] = 1.0
    for d, w in zip(_GOLAY_D, _GOLAY_W):
        a_new = w * a.copy()
        a_new[d:] += b[:-d]
        b_new = w * a.copy()
        b_new[d:] -= b[:-d]
        a, b = a_new, b_new
    return a[::-1].copy(), b[::-1].copy()


_QUARTER_TURNS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def pi_half_rotate(symbols: np.ndarray) -> np.ndarray:
    """Apply the pi/2 rotation s[n] = x[n] * j^n (exact quarter turns)."""
    n = np.arange(len(symbols))
    return symbols * _QUARTER_TURNS[n % 4]


def _preamble_3328() -> np.ndarray:
    ga, gb = golay_pair_128()
    stf = np.concatenate([np.tile(ga, 16), -ga])
    gu = np.concatenate([-gb, -ga, gb, -ga])
    gv = np.concatenate([-gb, ga, -gb, -ga])
    cef = np.concatenate([gu, gv, -gb])
    return pi_half_rotate(np.concatenate([stf, cef]))


def make_preamble(
    kind: str = "golay_80211ad",
    length: int = PREAMBLE_LENGTH,
    seed: int | np.random.SeedSequence = 0,
) -> np.ndarray:
    """
    Unit-modulus complex sensing preamble of the given length.

    kind "golay_80211ad" is the 3328-sample structured preamble; shorter
    lengths take its prefix (the STF keeps its correlation structure under
    truncation at Ga128 boundaries), longer ones are rejected. kind "pn" is
    a seeded unit-modulus QPSK sequence of any positive length, useful for
    sweeps over preamble length.
    """
    if length < 1:
        raise ValueError("preamble length must be positive")
    if kind == "golay_80211ad":
        if length > PREAMBLE_LENGTH:
            raise ValueError(
                f"structured preamble has {PREAMBLE_LENGTH} samples; {length} requested"
            )
        return _preamble_3328()[:length]
    if kind == "pn":
        rng = np.random.default_rng(seed)
        quad = rng.integers(0, 4, size=length)
        return np.exp(1j * (np.pi / 4.0 + np.pi / 2.0 * quad))
    raise ValueError(f"unknown preamble kind {kind!r}")


@dataclass
class SensingRecord:
    """One beam's received record plus the shape facts estimators need."""

    beam: int                 # flattened beam index m
    n_p: int                  # preamble length in samples
    l_d: int                  # delay-window length in samples
    samples: np.ndarray       # complex record, length n_p + l_d

    def __post_init__(self):
        if len(self.samples) != self.n_p + self.l_d:
            raise ValueError(
                f"record length {len(self.samples)} != n_p + l_d = {self.n_p + self.l_d}"
            )


def _fft_size(n_record: int) -> int:
    """Power of two at or above the record length: no full-overlap lag wraps."""
    return 1 << (n_record - 1).bit_length()


def _plan(n_p: int, l_d: int) -> tuple[int, int]:
    """
    Transform size and section step of the preamble filter (_preamble_filter)
    for an n_p-sample preamble and an l_d-sample delay window.

    At a power-of-two size > l_d the preamble is cut into sections of
    step = size - l_d samples, and a record row is correlated in
    ceil(n_p / step) section transforms and one inverse. The one-block plan,
    size _fft_size(n_p + l_d) with step = size, takes two transforms. The
    plan is the one with the fewest transformed points; a tie goes to one
    block, then to the smaller size. A transform costs about the same per
    point from 256 to 2048 points, so points stand for time there, but
    below 256 its fixed cost per call outweighs its arithmetic; and a
    section shorter than the window (size < 2 * l_d) transforms more
    overlap than preamble. No partition uses such sizes.
    """
    whole = _fft_size(n_p + l_d)
    plans = [(2 * whole, 0, whole, whole)]  # (points, tie order, size, step)
    size = _fft_size(max(256, 2 * l_d))
    while size < whole:
        step = size - l_d
        plans.append(((-(-n_p // step) + 1) * size, size, size, step))
        size *= 2
    return min(plans)[2:]


@functools.lru_cache(maxsize=16)
def _section_spectra(dtype: str, data: bytes, l_d: int) -> tuple[int, int, np.ndarray]:
    """
    The plan (_plan) of _preamble_filter and the conjugate spectra of the
    zero-padded preamble sections it multiplies by, read-only, one row per
    section. The preamble enters as its dtype and bytes, so that calls with
    equal preambles and windows share one build; the dtype is part of the
    key because a complex preamble and a real one twice as long can have
    the same bytes.
    """
    preamble = np.frombuffer(data, dtype=dtype)
    n_p = len(preamble)
    size, step = _plan(n_p, l_d)
    padded = np.concatenate([preamble, np.zeros(size)])
    sections = padded[np.add.outer(range(0, n_p, step), np.arange(size))]
    sections[:, step:] = 0.0
    spectra = np.fft.fft(sections).conj()
    spectra.flags.writeable = False
    return size, step, spectra


def _preamble_filter(rows: np.ndarray, preamble: np.ndarray, out: np.ndarray, block: int) -> None:
    """
    Correlate records with the preamble at the transform size of
    _plan(n_p, l_d): out[i, q] = sum_n s*[n] rows[i, n + q] for
    q = 0 .. l_d = out.shape[1] - 1. Section k of the preamble,
    s[k*step : (k+1)*step], meets the record window
    rows[i, k*step : k*step + size], and one inverse transform of the sum of
    the K products gives every lag (overlap-save). With one section
    (step = size) it is one transform each way at the one-block size.

    Blocks of `block` rows go through one reused (block, size) buffer, plus
    a second one when there are several sections, both transformed in
    place. A row does not depend on the others or on the block size. The
    section spectra are built once per preamble and window
    (_section_spectra).
    """
    preamble = np.asarray(preamble)
    l_d = out.shape[1] - 1
    size, step, spectra = _section_spectra(preamble.dtype.str, preamble.tobytes(), l_d)
    buf = np.empty((min(block, len(rows)), size), dtype=complex)
    spare = np.empty_like(buf) if len(spectra) > 1 else buf
    for first in range(0, len(rows), block):
        part = buf[: min(block, len(rows) - first)]
        work = spare[: len(part)]
        rows_in = rows[first : first + len(part)]
        for k, spectrum in enumerate(spectra):
            dst = work if k else part
            window = rows_in[:, k * step : k * step + size]
            if window.shape[1] < size:  # runs past the record end: zero-pad
                dst[:, : window.shape[1]] = window
                dst[:, window.shape[1] :] = 0.0
                window = dst
            np.fft.fft(window, out=dst)
            dst *= spectrum
            if k:
                part += work
        np.fft.ifft(part, out=part)
        out[first : first + len(part)] = part[:, : out.shape[1]]


def _draw_noise(
    rows: np.ndarray,
    noise: Sequence[np.random.Generator | np.random.SeedSequence | int],
    radio: RadioConfig,
    combine_norm_sq: np.ndarray,
    draw: np.ndarray,
) -> None:
    """
    The record model's noise: write beam k's noise into rows[k] of a complex
    (K, n) array whose rows are contiguous, a C-contiguous array or the
    first n columns of a wider row-strided block. Each beam draws its real
    then its imaginary parts from its own generator, one standard-normal
    (2, n) draw into the reused buffer draw, scaled by
    sigma_n * ||w_k|| / sqrt(2) (combine_norm_sq[k] = ||w_k||^2).
    synthesize_records adds these rows to its signal and matched_filter_rows
    filters them, so both see the same bits.
    """
    sigma = np.sqrt(noise_variance(radio) * combine_norm_sq / 2.0)
    pairs = rows.view(float).reshape(len(rows), rows.shape[1], 2).transpose(0, 2, 1)  # (re, im) of each row
    for pair, gen, s in zip(pairs, noise, sigma):
        np.random.default_rng(gen).standard_normal(out=draw)
        np.multiply(draw, s, out=pair)


def synthesize_records(
    taps: np.ndarray,
    preamble: np.ndarray,
    radio: RadioConfig,
    combine_norm_sq: np.ndarray,
    noise: Sequence[np.random.Generator | np.random.SeedSequence | int] | None = None,
) -> np.ndarray:
    """
    Form the received records of M beams, one row each,

        y_m[n] = sqrt(E_s) * sum_d taps[m, d] * s[n - d] + nu_m[n],

    for n = 0 .. n_p+l_d-1, with taps of shape (M, l_d) and nu_m circular
    complex noise of variance sigma_n^2 * ||w_m||^2 per sample
    (combine_norm_sq[m] = ||w_m||^2). The convolutions are FFT products
    over blocks of _BLOCK beams: each block's tap lines are zero-padded to
    _fft_size(n_p + l_d), so no sample wraps, and transformed, multiplied
    by the preamble's spectrum and transformed back in one reused buffer.
    The last sample of a record drawn without noise is exactly 0. The
    number of noise generators is checked before any transform.

    noise is None for clean records (no noise draw), or one Generator or seed (for
    np.random.default_rng) per beam. Row m draws its real then its imaginary
    parts from its own generator, into one reused (2, n) array (_draw_noise),
    and a block's noise rows are drawn into its transform buffer once its
    signal is out, so a beam's noise does not depend on the other beams or
    on the block size.
    """
    taps = np.asarray(taps)
    preamble = np.asarray(preamble)
    m, l_d = taps.shape
    n = len(preamble) + l_d
    if noise is not None and len(noise) != m:
        raise ValueError("need one noise generator per beam")
    nfft = _fft_size(n)
    spectrum = np.fft.fft(preamble, nfft)
    amp = np.sqrt(radio.symbol_energy_j)
    norms = np.asarray(combine_norm_sq)
    draw = np.empty((2, n))
    buf = np.empty((min(_BLOCK, m), nfft), dtype=complex)
    y = np.zeros((m, n), dtype=complex)
    for start in range(0, m, _BLOCK):
        part = slice(start, start + len(buf))
        block = buf[: len(y[part])]
        block[:, :l_d] = taps[part]
        block[:, l_d:] = 0.0
        np.fft.fft(block, out=block)
        block *= spectrum
        np.fft.ifft(block, out=block)
        np.multiply(block[:, : n - 1], amp, out=y[part, : n - 1])
        if noise is not None:
            _draw_noise(block[:, :n], noise[part], radio, norms[part], draw)
            y[part] += block[:, :n]
    return y


def preamble_autocorrelation(preamble: np.ndarray, l_d: int) -> np.ndarray:
    """
    Preamble autocorrelation R[k] = sum_n s*[n] s[n + k] over lags
    k = -l_d .. l_d, returned as r with r[l_d + k] = R[k], so E_Q = r[l_d].

    It is the circular autocorrelation at nfft = _fft_size(n_p + l_d), which
    is exact here: R vanishes beyond lag n_p - 1, so the alias R[k - nfft]
    of a lag k <= l_d would need k >= nfft - n_p + 1 >= l_d + 1. Exact R is
    what cancellation in the correlation domain and the signal rows of
    matched_filter_rows need, however the matched filter partitions its
    transforms.
    """
    nfft = _fft_size(len(preamble) + l_d)
    auto = np.fft.ifft(np.abs(np.fft.fft(preamble, nfft)) ** 2)
    return np.concatenate([auto[nfft - l_d :], auto[: l_d + 1]])


def matched_filter_rows(
    taps: np.ndarray,
    preamble: np.ndarray,
    radio: RadioConfig,
    combine_norm_sq: np.ndarray,
    noise: Sequence[np.random.Generator | np.random.SeedSequence | int] | None,
    n_tail: int,
) -> tuple[np.ndarray, np.ndarray]:
    """
    What the estimators read of the records of synthesize_records, without
    forming them: the (M, l_d + 1) matched-filter rows, c[q] = sum_n
    s*[n] y[n + q] for q = 0 .. l_d, and the (M,) tail noise levels, the
    mean power of each record's last n_tail samples. Both are linear in the
    record, so its two parts are taken apart:

      signal  the filtered convolution is sqrt(E_s) * taps @ T with
              T[d, q] = R[q - d] (preamble_autocorrelation), one product
              over all beams. Its last n_tail samples, the pulse tails of
              the latest paths, are one small product of the last n_tail - 1
              taps with the preamble's last samples.
      noise   each beam's noise rows come from _draw_noise, the draw
              synthesize_records adds to its signal, and only these rows
              go through the partitioned filter (_preamble_filter), _BLOCK
              beams at a time; their last n_tail samples join the signal's.

    The result equals cross_correlation and tail_noise_variance of the
    records up to rounding: within 7.5e-16 of each row's peak and 5.8e-16
    relative, measured on the three benchmark scenes and on one_wall and
    pillar_room at os 2, at sim seeds 0-4. The noise draws are those of the
    records. A row does not depend on the others or on the block size.
    """
    taps = np.asarray(taps)
    preamble = np.asarray(preamble)
    m, l_d = taps.shape
    n_p = len(preamble)
    n = n_p + l_d
    if noise is not None and len(noise) != m:
        raise ValueError("need one noise generator per beam")
    if not 0 < n_tail <= n:
        raise ValueError("n_tail must be in (0, record length]")
    amp = np.sqrt(radio.symbol_energy_j)
    r = preamble_autocorrelation(preamble, l_d)
    d = np.arange(l_d)[:, None]
    correlation = taps @ r[l_d + np.arange(l_d + 1) - d]  # T[d, q] = R[q - d]
    correlation *= amp
    # Tail sample n - n_tail + j reads s[n - n_tail + j - d] of tap d, zero
    # unless d > l_d - n_tail + j: only the last n_tail - 1 taps reach it.
    first = max(0, l_d - n_tail + 1)
    at = (n - n_tail) + np.arange(n_tail) - d[first:]
    shifted = np.where((at >= 0) & (at < n_p), preamble[np.clip(at, 0, n_p - 1)], 0.0)
    tail = taps[:, first:] @ shifted
    tail *= amp
    if noise is not None:
        norms = np.asarray(combine_norm_sq)
        draw = np.empty((2, n))
        rows = np.empty((min(_BLOCK, m), n), dtype=complex)
        filtered = np.empty((len(rows), l_d + 1), dtype=complex)
        for start in range(0, m, _BLOCK):
            part = slice(start, start + len(rows))
            size = len(taps[part])
            _draw_noise(rows[:size], noise[part], radio, norms[part], draw)
            _preamble_filter(rows[:size], preamble, filtered[:size], size)
            correlation[part] += filtered[:size]
            tail[part] += rows[:size, -n_tail:]
    return correlation, np.mean(np.abs(tail) ** 2, axis=-1)


def synthesize_rx(
    taps: np.ndarray,
    preamble: np.ndarray,
    radio: RadioConfig,
    combine_norm_sq: float,
    rng: np.random.Generator | np.random.SeedSequence | int | None = None,
    beam: int = 0,
) -> SensingRecord:
    """
    The record of one beam: synthesize_records on a single tap line.

    rng is a Generator or a seed for np.random.default_rng; pass rng=None
    for a clean record (no noise draw).
    """
    taps = np.asarray(taps)
    samples = synthesize_records(
        taps[None, :], preamble, radio, np.array([combine_norm_sq]), None if rng is None else [rng]
    )[0]
    return SensingRecord(beam=beam, n_p=len(preamble), l_d=len(taps), samples=samples)
