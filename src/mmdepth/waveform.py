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
estimators consume. The convolutions share one preamble spectrum and run as
FFT products over blocks of beams, transformed in place in one reused
zero-padded block buffer (the matched filter of mmdepth.estimator runs
through the same buffer); synthesize_rx is its one-beam case.
"""

from __future__ import annotations

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
    "synthesize_records",
    "synthesize_rx",
]

PREAMBLE_LENGTH = 3328  # STF (17*128) + CEF (9*128) samples

# Beams per block of record synthesis; working memory is O(_BLOCK * nfft).
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


def _fft_filter(rows: np.ndarray, spectrum: np.ndarray, out: np.ndarray, scale: float, block: int) -> None:
    """
    Set out[i] = scale * ifft(fft(rows[i], nfft) * spectrum)[:keep] for every
    row i, with nfft = len(spectrum) and keep = out.shape[1].

    Blocks of `block` rows are copied into one zero-padded (block, nfft)
    buffer that is transformed, multiplied and transformed back in place,
    so the working memory beyond out is that one buffer. A row does not
    depend on the others or on the block size.
    """
    width = rows.shape[1]
    buf = np.empty((min(block, len(rows)), len(spectrum)), dtype=complex)
    for start in range(0, len(rows), block):
        part = buf[: min(block, len(rows) - start)]
        part[:, :width] = rows[start : start + block]
        part[:, width:] = 0.0
        np.fft.fft(part, out=part)
        part *= spectrum
        np.fft.ifft(part, out=part)
        np.multiply(part[:, : out.shape[1]], scale, out=out[start : start + block])


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
    with one preamble spectrum, at the power-of-two size at or above
    n_p + l_d so nothing wraps, over blocks of _BLOCK beams transformed in
    place in one reused block buffer; the last sample of a record drawn
    without noise is exactly 0.

    noise is None for clean records (no noise draw), or one Generator or seed (for
    np.random.default_rng) per beam. Row m draws its real then its imaginary
    parts from its own generator, into one reused (2, n) array, so a beam's
    noise does not depend on the other beams or on the block size.
    """
    taps = np.asarray(taps)
    preamble = np.asarray(preamble)
    m, l_d = taps.shape
    n = len(preamble) + l_d
    spectrum = np.fft.fft(preamble, _fft_size(n))
    y = np.zeros((m, n), dtype=complex)
    _fft_filter(taps, spectrum, y[:, : n - 1], np.sqrt(radio.symbol_energy_j), _BLOCK)
    if noise is not None:
        if len(noise) != m:
            raise ValueError("need one noise generator per beam")
        sigma = np.sqrt(noise_variance(radio) * np.asarray(combine_norm_sq) / 2.0)
        draw = np.empty((2, n))
        for row, gen, s in zip(y, noise, sigma):
            np.random.default_rng(gen).standard_normal(out=draw)
            draw *= s
            row.real += draw[0]
            row.imag += draw[1]
    return y


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
