"""
Geometric backscatter channel: the free-space radar equation (path_gain, for
scalars or arrays; mmdepth.scene sends every scatterer through it),
band-limited pulse shaping, and beamformed channel taps. The package's two
physical constants, SPEED_OF_LIGHT and BOLTZMANN, are defined here once.

The channel between the co-located arrays is a sum of single-bounce
scatterer contributions. For scatterer g at round-trip delay tau and angles
(theta_z, theta_x), seen through transmit beam f and combining vector w, the
discrete-time tap sequence is

    h[d] = sum_g amp_g * (w^H a_g) * (a_g^H f) * p(d*T_s - tau_g)

where amp_g already carries sqrt(G_g), the carrier phase e^(-j*2*pi*f_c*tau),
and any scattering phase; a_g is the UPA response at the scatterer's angles
(identical for departure and arrival, monostatic); and p is the composite
raised-cosine pulse of the transmit and receive filters. With a separable
(Kronecker) beam the coupling is a product of two real per-axis power series
(_power_series): O(paths * 2(n_v + n_h)) real multiply-adds per beam, with no
N-wide product and no complex modulus; a general weight vector costs
O(paths * N). A grid-matched codebook's factors repeat across the mirrors of
its beam grid, so only half of each axis' patterns is formed: V*ceil(H/2) +
ceil(V/2)*H pattern rows rather than 2M for a V x H grid of M beams. The
pulse adds O(paths * L_p); a a^H (N x N) is never formed.
Each path costs one complex exponential per array axis (axis_response
forms the other elements as its powers) and three sines/cosines for its
17-tap pulse window (pulse_window); raised_cosine stays the definition.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .codebook import UpaConfig, axis_response

__all__ = [
    "SPEED_OF_LIGHT",
    "BOLTZMANN",
    "RadioConfig",
    "noise_variance",
    "path_gain",
    "raised_cosine",
    "pulse_window",
    "pulse_taps",
    "beamformed_taps_batch",
    "delay_window_length",
    "PULSE_HALF_WIDTH",
]

SPEED_OF_LIGHT = 299792458.0     # m/s, exact in the SI
BOLTZMANN = 1.380649e-23         # J/K, exact in the SI since 2019
_T0_K = 290.0                    # reference temperature of a noise figure

# Truncation of the composite pulse, in symbol periods on each side of the peak.
PULSE_HALF_WIDTH = 8
_PULSE_OFFSETS = np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1)
# Half-width, in taps, of the bands around u = 0 and |u| = 1/(2 beta) where
# pulse_window takes raised_cosine's values. Near |u| = 1/(2 beta) both forms
# lose digits to cancellation, ~1e-16 / distance relative; outside 1e-3 they
# agree within 1e-13.
_LIMIT_BAND = 1e-3

# Paths per block of tap synthesis; working memory is O(_BLOCK * M), plus N for dense weights.
_BLOCK = 1024


@dataclass(frozen=True)
class RadioConfig:
    """Front-end and waveform constants."""

    carrier_hz: float = 60e9          # f_c
    bandwidth_hz: float = 2e9         # B; sample rate f_S = B
    tx_power_dbm: float = 30.0        # transmit power driving E_s
    noise_figure_db: float = 7.0      # receiver NF, referred to 290 K
    rolloff: float = 0.25             # raised-cosine beta

    def __post_init__(self):
        if self.carrier_hz <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("carrier and bandwidth must be positive")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError("rolloff must lie in [0, 1]")
        for name in ("tx_power_dbm", "noise_figure_db"):
            try:  # the link budget takes both as linear powers
                10.0 ** (getattr(self, name) / 10.0)
            except OverflowError:
                raise ValueError(f"radio.{name} {getattr(self, name)!r} overflows as a linear power") from None

    @property
    def sample_period_s(self) -> float:
        """T_s = 1 / B."""
        return 1.0 / self.bandwidth_hz

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def symbol_energy_j(self) -> float:
        """E_s = P_tx * T_s."""
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0) * self.sample_period_s


def noise_variance(radio: RadioConfig) -> float:
    """
    Thermal noise power per complex sample at the element level:
    sigma_n^2 = k_B * T_0 * B * 10^(NF/10)  [W], with T_0 = 290 K, the
    temperature a noise figure is defined at.

    At 2 GHz and NF 7 dB this is 4.013e-11 W (about -73.97 dBm). The
    post-combining noise variance is sigma_n^2 * ||w||^2.
    """
    return BOLTZMANN * _T0_K * radio.bandwidth_hz * 10.0 ** (radio.noise_figure_db / 10.0)


def path_gain(
    sigma_rcs_sqm: float | np.ndarray,
    range_m: float | np.ndarray,
    wavelength_m: float,
) -> float | np.ndarray:
    """
    Monostatic backscatter power gain, the free-space radar equation

        G = lambda^2 * sigma_RCS / ((4 pi)^3 * rho^4)

    between isotropic elements: the array model has no element pattern, so
    an element gain would also be radiated behind the array. The array gain
    enters through the beam weights (beamformed_taps_batch).

    Takes scalars or arrays; any range <= 0 or RCS < 0 raises ValueError.
    """
    if np.any(range_m <= 0):
        raise ValueError("range must be positive")
    if np.any(sigma_rcs_sqm < 0):
        raise ValueError("RCS must be >= 0")
    return wavelength_m**2 * sigma_rcs_sqm / ((4.0 * np.pi) ** 3 * range_m**4.0)


def raised_cosine(t: np.ndarray, sample_period_s: float, rolloff: float) -> np.ndarray:
    """
    Composite pulse p(t) of the matched transmit/receive filter pair: the
    raised cosine

        p(t) = sinc(t/T) * cos(pi*beta*t/T) / (1 - (2*beta*t/T)^2)

    with the removable singularity at |t| = T/(2*beta) evaluated by its limit
    (pi/4) * sinc(1/(2*beta)). p(0) = 1 and p(k*T) = 0 for nonzero integer k,
    so integer-delay paths produce single-tap channels.
    """
    t = np.asarray(t, dtype=float)
    u = t / sample_period_s
    if rolloff == 0.0:
        return np.sinc(u)
    sing = np.abs(np.abs(u) - 1.0 / (2.0 * rolloff)) <= 1e-12
    denom = 1.0 - (2.0 * rolloff * u) ** 2
    denom = np.where(sing, 1.0, denom)  # placeholder, overwritten below
    vals = np.sinc(u) * np.cos(np.pi * rolloff * u) / denom
    # Below rolloff ~2.8e-309, 1/(2 beta) overflows and no sample is singular.
    limit = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff)) if sing.any() else 0.0
    return np.where(sing, limit, vals)


def delay_window_length(max_delay_s: float, sample_period_s: float, guard: int) -> int:
    """
    Channel tap window length L_d = ceil(max_delay / T_s) + guard. A guard
    above PULSE_HALF_WIDTH holds the truncated pulse tail of the
    latest-arriving path; the pipeline reads each beam's noise level, and so
    its detection threshold, from the last guard samples of its record.
    """
    if max_delay_s < 0:
        raise ValueError("max delay must be >= 0")
    return int(np.ceil(max_delay_s / sample_period_s)) + guard


def _pulse_centers(delays_s: np.ndarray, l_d: int, sample_period_s: float) -> np.ndarray:
    """
    Nearest tap round(tau/T_s) of each delay. Raises a ValueError listing
    the offending path indices if any path's 17-tap window leaves [0, l_d).
    """
    center = np.round(delays_s / sample_period_s).astype(int)
    bad = np.nonzero((center - PULSE_HALF_WIDTH < 0) | (center + PULSE_HALF_WIDTH >= l_d))[0]
    if bad.size:
        raise ValueError(
            f"path delays outside the L_d={l_d} tap window for path indices {bad.tolist()[:20]}"
            + ("..." if bad.size > 20 else "")
        )
    return center


def pulse_window(offset: np.ndarray, rolloff: float) -> np.ndarray:
    """
    The composite pulse at the 17 taps around each offset: (P, 17) values
    val[i, k + 8] = raised_cosine(k + e_i, 1, rolloff), k = -8..8, for
    offsets e = c - tau/T_s with |e| <= 1/2 (c the centre tap of delay tau).

    Three sines/cosines per offset replace 17 sincs and cosines. With
    u = k + e, sin(pi u) = (-1)^k sin(pi e); cos(pi beta u) follows by angle
    addition, [cos(pi beta e), sin(pi beta e)] times a (2, 17) table over k;
    the denominator pi u (1 - (2 beta u)^2) is plain arithmetic. Rows with a
    tap within _LIMIT_BAND of u = 0 or |u| = 1/(2 beta) take raised_cosine's
    own values, limits included; the others agree with it within 1e-13.
    """
    e = np.asarray(offset, dtype=float)
    # A tap k + e lies on |u| = 1/(2 beta) only where |e| is the distance
    # from 1/(2 beta) to the nearest integer, and only inside the window.
    size = np.abs(e)
    near = size <= _LIMIT_BAND
    half = 0.5 / rolloff if rolloff else np.inf
    if half <= PULSE_HALF_WIDTH + 0.5 + _LIMIT_BAND:
        near |= np.abs(size - abs(half - round(half))) <= _LIMIT_BAND
    exact = np.flatnonzero(near)
    angle = np.pi * rolloff * _PULSE_OFFSETS
    table = np.stack([np.cos(angle), -np.sin(angle)])
    table *= (1.0 - 2.0 * (_PULSE_OFFSETS % 2)) / np.pi          # (-1)^k / pi
    sin_e, beta_e = np.sin(np.pi * e), np.pi * rolloff * e
    val = np.stack([sin_e * np.cos(beta_e), sin_e * np.sin(beta_e)], axis=1) @ table
    u = e[:, None] + _PULSE_OFFSETS
    den = (2.0 * rolloff) * u
    den *= den
    np.subtract(1.0, den, out=den)
    den *= u
    den[exact] = 1.0
    val /= den
    if exact.size:
        val[exact] = raised_cosine(u[exact], 1.0, rolloff)
    return val


def pulse_taps(delays_s: np.ndarray, l_d: int, sample_period_s: float, rolloff: float):
    """
    Pulse sample positions and values for a batch of path delays.

    For each delay tau the pulse contributes at integer taps
    d = round(tau/T_s) - 8 .. round(tau/T_s) + 8 with value p(d*T_s - tau),
    evaluated by pulse_window.

    Returns
    -------
    (idx, val) : (P, 17) int array of tap indices and float array of pulse
    values. Raises if any path's tap window leaves [0, l_d).

    Raises
    ------
    ValueError
        Listing the offending path indices, if any delay falls outside the
        representable window.
    """
    delays_s = np.asarray(delays_s, dtype=float)
    center = _pulse_centers(delays_s, l_d, sample_period_s)
    idx = center[:, None] + _PULSE_OFFSETS
    return idx, pulse_window(center - delays_s / sample_period_s, rolloff)


def _power_series(f: np.ndarray) -> np.ndarray:
    """
    Real W, (M, 2n), with W @ b.view(float) = |f . b|^2 for conjugated factor
    rows f, (M, n), and b = axis_response. As b[r] conj(b[r']) = b[r - r'],
    |f . b|^2 = rho_0 + 2 Re sum_{d>0} rho_d b[d], rho_d = sum_r f[r+d] conj(f[r]);
    W holds w_0 = rho_0, w_d = 2 rho_d as [Re w_d, -Im w_d].
    """
    n = f.shape[1]
    rho = np.stack([np.sum(f[:, d:] * f[:, : n - d].conj(), axis=1) for d in range(n)], axis=1)
    rho[:, 1:] *= 2.0
    return rho.conj().view(float)


def _mirror_split(grid: np.ndarray, axis: int) -> int:
    """
    How many leading beams of a factor grid's axis to pattern: ceil(len/2)
    where the grid equals its own mirror along that axis, so the trailing
    beams repeat the leading ones in reverse, else the whole axis.
    """
    n = grid.shape[axis]
    return -(-n // 2) if np.array_equal(grid, np.flip(grid, axis)) else n


def _longest_run(c_sorted: np.ndarray) -> int:
    """
    Length of the longest run of equal sorted centre taps, with runs cut at
    _BLOCK edges: the most paths that one coupling product reads.
    """
    start = np.ones(len(c_sorted) + 1, dtype=bool)  # the last entry closes the last run
    np.not_equal(c_sorted[1:], c_sorted[:-1], out=start[1:-1])
    start[::_BLOCK] = True
    return int(np.diff(np.flatnonzero(start)).max()) if len(c_sorted) else 0


def beamformed_taps_batch(
    paths,
    weights: np.ndarray | tuple[np.ndarray, np.ndarray],
    upa: UpaConfig,
    radio: RadioConfig,
    l_d: int,
) -> np.ndarray:
    """
    Channel taps for every beam of a matched codebook at once.

    weights is either the (M, N) codebook matrix, used as both f_m and w_m,
    or its per-axis factors (b_v, b_h) as beam grids of shapes
    (n_bar_v, n_bar_h, n_v) and (n_bar_v, n_bar_h, n_h), with
    f_m = kron(b_v[m], b_h[m]) for the row-major beam m; an (M, n) pair is
    taken as a one-column grid. Other shapes raise ValueError. The per-path
    coupling is |a_g^H f_m|^2; with factors it is the product of two axis
    patterns, each a real (beams, 2n) @ (2n, paths) product (_power_series).

    A grid-matched codebook is mirror-symmetric: b_v repeats across the
    left-right mirror of the grid and b_h across the up-down mirror
    (codebook.sensor_grid is sign-symmetric). Where a factor grid equals its
    mirror, only the leading half of that axis is patterned, so a block of
    paths costs V*ceil(H/2) + ceil(V/2)*H pattern rows rather than 2M, and
    the four quadrants of the coupling multiply those rows and their
    reversed views. A grid without the symmetry is patterned whole.

    Paths are sorted by their pulse-centre tap and taken in blocks of
    _BLOCK. A block forms its axis patterns (a dense matrix: its coupling),
    frees its axis responses, then forms amp * pulse; every run of its paths
    sharing a centre tap c then adds coupling @ (amp * pulse) to
    taps[:, c-8 : c+9] in one real product. The pattern products span the
    whole block, but the factored coupling buffer holds only as many paths
    as the longest run, cut at block edges (a property of the scene's
    delays, not of the seed). A block forms its coupling for greedy chunks
    of consecutive whole runs that fit, so a block whose runs all fit is
    one chunk. No pattern or run product changes shape, and so no tap
    changes a bit, whatever the chunks.

    Returns
    -------
    np.ndarray, shape (M, l_d), complex taps per beam.
    """
    factored = isinstance(weights, tuple)
    parts, widths = (weights, (upa.n_v, upa.n_h)) if factored else ((weights,), (upa.n,))
    shapes = [np.shape(w) for w in parts]
    if (
        [s[-1:] for s in shapes] != [(n,) for n in widths]
        or len({s[:-1] for s in shapes}) != 1
        or not 2 <= len(shapes[0]) <= 2 + factored
    ):
        raise ValueError(f"weights of shapes {shapes} do not match (M, n) for n in {widths}")
    m = int(np.prod(shapes[0][:-1]))
    ts = radio.sample_period_s
    center = _pulse_centers(paths.delay_s, l_d, ts).astype(np.int32)  # taps fit int32, at half the bytes
    order = np.argsort(center, kind="stable").astype(np.int32)
    amplitude = paths.amplitude.astype(complex, copy=False)
    if factored:
        grid_v, grid_h = (f.reshape(-1, 1, n) if f.ndim == 2 else f for f, n in zip(weights, widths))
        rows, cols = grid_v.shape[:2]
        # Pattern the left hc beam columns of b_v and the top vc beam rows of b_h.
        hc, vc = _mirror_split(grid_v, 1), _mirror_split(grid_h, 0)
        w_v = _power_series(grid_v[:, :hc].reshape(-1, upa.n_v).conj())
        w_h = _power_series(grid_h[:vc].reshape(-1, upa.n_h).conj())
        # b_v's pattern rows, then b_h's.
        pat_buf = np.empty((rows * hc + vc * cols, _BLOCK))
        chunk_len = _longest_run(center[order])
        cpl_buf = np.empty((m, chunk_len))

        def patterns(b_v, b_h):
            n = len(b_v)
            np.matmul(w_v, b_v.view(float).T, out=pat_buf[: rows * hc, :n])
            np.matmul(w_h, b_h.view(float).T, out=pat_buf[rows * hc :, :n])
            return pat_buf

        def coupling(pat, lo, hi):
            n = hi - lo
            p_v = pat[: rows * hc, lo:hi].reshape(rows, hc, n)
            p_h = pat[rows * hc :, lo:hi].reshape(vc, cols, n)
            # Beam (v, h) takes b_v's pattern from column min(h, cols-1-h)
            # and b_h's from row min(v, rows-1-v).
            p_vr = p_v[:, : cols - hc][:, ::-1]
            p_hr = p_h[: rows - vc][::-1]
            out = cpl_buf[:, :n]
            cpl = out.reshape(rows, cols, n)
            np.multiply(p_v[:vc], p_h[:, :hc], out=cpl[:vc, :hc])
            np.multiply(p_vr[:vc], p_h[:, hc:], out=cpl[:vc, hc:])
            np.multiply(p_v[vc:], p_hr[:, :hc], out=cpl[vc:, :hc])
            np.multiply(p_vr[vc:], p_hr[:, hc:], out=cpl[vc:, hc:])
            return out

    else:
        w_conj = weights.conj()
        chunk_len = _BLOCK

        def patterns(b_v, b_h):
            a = (b_v[:, :, None] * b_h[:, None, :]).reshape(len(b_v), -1)
            return np.abs(w_conj @ a.T) ** 2

        def coupling(cpl, lo, hi):
            return cpl[:, lo:hi]

    taps = np.zeros((m, l_d), dtype=complex)
    # Real view, (M, 2*l_d): tap d occupies columns 2d (re) and 2d+1 (im).
    acc = taps.view(float)
    width = 2 * (2 * PULSE_HALF_WIDTH + 1)
    for start in range(0, len(order), _BLOCK):
        sel = order[start : start + _BLOCK]
        c_blk = center[sel]
        b_v = axis_response(np.cos(paths.theta_z[sel]), upa.n_v, upa.spacing_wavelengths)
        b_h = axis_response(np.cos(paths.theta_x[sel]), upa.n_h, upa.spacing_wavelengths)
        pat = patterns(b_v, b_h)                     # what coupling reads
        del b_v, b_h  # freed before the pulse is formed, so the per-path arrays do not peak together
        # amp * pulse viewed as (P_b, 34) floats, so each group is a real GEMM.
        offset = c_blk - paths.delay_s[sel] / ts
        shaped = (amplitude[sel][:, None] * pulse_window(offset, radio.rolloff)).view(float)
        runs = np.r_[0, np.flatnonzero(np.diff(c_blk)) + 1, len(sel)].tolist()
        first = 0
        while first < len(runs) - 1:
            # The most consecutive whole runs, from runs[first], that fit a chunk.
            last = bisect_right(runs, runs[first] + chunk_len) - 1
            base = runs[first]
            cpl = coupling(pat, base, runs[last])        # (M, paths) real
            for lo, hi in zip(runs[first:last], runs[first + 1 : last + 1]):
                col = 2 * (c_blk[lo] - PULSE_HALF_WIDTH)
                acc[:, col : col + width] += cpl[:, lo - base : hi - base] @ shaped[lo:hi]
            first = last
        del cpl, runs  # not held while the next block forms its pulse
    return taps
