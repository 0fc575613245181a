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
O(paths * N). The pulse adds O(paths * L_p); a a^H (N x N) is never formed.
"""

from __future__ import annotations

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
    tx_gain_dbi: float = 0.0,
    rx_gain_dbi: float = 0.0,
) -> float | np.ndarray:
    """
    Monostatic backscatter power gain, the free-space radar equation

        G = G_T * G_R * lambda^2 * sigma_RCS / ((4 pi)^3 * rho^4).

    Takes scalars or arrays; any range <= 0 or RCS < 0 raises ValueError.
    """
    if np.any(range_m <= 0):
        raise ValueError("range must be positive")
    if np.any(sigma_rcs_sqm < 0):
        raise ValueError("RCS must be >= 0")
    g_t = 10.0 ** (tx_gain_dbi / 10.0)
    g_r = 10.0 ** (rx_gain_dbi / 10.0)
    return g_t * g_r * wavelength_m**2 * sigma_rcs_sqm / ((4.0 * np.pi) ** 3 * range_m**4.0)


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
    limit = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return np.where(sing, limit, vals)


def delay_window_length(max_delay_s: float, sample_period_s: float, guard: int = 2 * PULSE_HALF_WIDTH) -> int:
    """
    Channel tap window length L_d = ceil(max_delay / T_s) + guard. The
    default guard of 16 taps absorbs the truncated pulse tails of the
    latest-arriving path.
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


def _pulse_values(center: np.ndarray, delays_s: np.ndarray, sample_period_s: float, rolloff: float):
    """(idx, val) of the 17-tap pulse window around each centre tap."""
    idx = center[:, None] + _PULSE_OFFSETS[None, :]
    t = idx * sample_period_s - delays_s[:, None]
    return idx, raised_cosine(t, sample_period_s, rolloff)


def pulse_taps(delays_s: np.ndarray, l_d: int, sample_period_s: float, rolloff: float):
    """
    Pulse sample positions and values for a batch of path delays.

    For each delay tau the pulse contributes at integer taps
    d = round(tau/T_s) - 8 .. round(tau/T_s) + 8 with value p(d*T_s - tau).

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
    return _pulse_values(center, delays_s, sample_period_s, rolloff)


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
    or its per-axis factors (b_v, b_h) of shapes (M, n_v) and (M, n_h) with
    f_m = kron(b_v[m], b_h[m]); other shapes raise ValueError. The per-path
    coupling is |a_g^H f_m|^2; with factors it is the product of two axis
    patterns, each a real (M, 2n) @ (2n, paths) product (_power_series).

    Paths are sorted by their pulse-centre tap and taken in blocks of
    _BLOCK. Within a block every run of paths sharing a centre tap c adds
    coupling @ (amp * pulse) to taps[:, c-8 : c+9] in one real product.

    Returns
    -------
    np.ndarray, shape (M, l_d), complex taps per beam.
    """
    factored = isinstance(weights, tuple)
    parts, widths = (weights, (upa.n_v, upa.n_h)) if factored else ((weights,), (upa.n,))
    shapes = [np.shape(w) for w in parts]
    if [s[1:] for s in shapes] != [(n,) for n in widths] or len({s[0] for s in shapes}) != 1:
        raise ValueError(f"weights of shapes {shapes} do not match (M, n) for n in {widths}")
    ts = radio.sample_period_s
    center = _pulse_centers(paths.delay_s, l_d, ts)
    order = np.argsort(center, kind="stable")
    amplitude = paths.amplitude.astype(complex, copy=False)
    if factored:
        w_v, w_h = (_power_series(f.conj()) for f in weights)

        def coupling(b_v, b_h):
            cpl = w_v @ b_v.view(float).T
            cpl *= w_h @ b_h.view(float).T
            return cpl

    else:
        w_conj = weights.conj()

        def coupling(b_v, b_h):
            a = (b_v[:, :, None] * b_h[:, None, :]).reshape(len(b_v), -1)
            return np.abs(w_conj @ a.T) ** 2

    taps = np.zeros((shapes[0][0], l_d), dtype=complex)
    # Real view, (M, 2*l_d): tap d occupies columns 2d (re) and 2d+1 (im).
    acc = taps.view(float)
    width = 2 * (2 * PULSE_HALF_WIDTH + 1)
    for start in range(0, len(order), _BLOCK):
        sel = order[start : start + _BLOCK]
        c_blk = center[sel]
        _, val = _pulse_values(c_blk, paths.delay_s[sel], ts, radio.rolloff)
        # amp * pulse viewed as (P_b, 34) floats, so each group is a real GEMM.
        shaped = (amplitude[sel][:, None] * val).view(float)
        b_v = axis_response(np.cos(paths.theta_z[sel]), upa.n_v, upa.spacing_wavelengths)
        b_h = axis_response(np.cos(paths.theta_x[sel]), upa.n_h, upa.spacing_wavelengths)
        cpl = coupling(b_v, b_h)                     # (M, P_b) real
        bounds = np.flatnonzero(np.diff(c_blk)) + 1
        for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(sel)]):
            col = 2 * (c_blk[lo] - PULSE_HALF_WIDTH)
            acc[:, col : col + width] += cpl[:, lo:hi] @ shaped[lo:hi]
    return taps
