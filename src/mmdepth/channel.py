"""
Geometric backscatter channel: radar-equation path gains, band-limited pulse
shaping, and beamformed channel taps.

The channel between the co-located arrays is a sum of single-bounce
scatterer contributions. For scatterer g at round-trip delay tau and angles
(theta_z, theta_x), seen through transmit beam f and combining vector w, the
discrete-time tap sequence is

    h[d] = sum_g amp_g * (w^H a_g) * (a_g^H f) * p(d*T_s - tau_g)

where amp_g already carries sqrt(G_g), the carrier phase e^(-j*2*pi*f_c*tau),
and any scattering phase; a_g is the UPA response at the scatterer's angles
(identical for departure and arrival, monostatic); and p is the composite
raised-cosine pulse of the transmit and receive filters. Everything here is
O(paths * (N + L_p)) per beam; the N x N outer product a a^H is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import c as SPEED_OF_LIGHT
from scipy.constants import k as BOLTZMANN

from .codebook import UpaConfig

__all__ = [
    "RadioConfig",
    "noise_variance",
    "path_gain",
    "raised_cosine",
    "pulse_taps",
    "beamformed_taps_batch",
    "delay_window_length",
    "PULSE_HALF_WIDTH",
]

# Truncation of the composite pulse, in symbol periods on each side of the peak.
PULSE_HALF_WIDTH = 8


@dataclass(frozen=True)
class RadioConfig:
    """Front-end and waveform constants."""

    carrier_hz: float = 60e9          # f_c
    bandwidth_hz: float = 2e9         # B; sample rate f_S = B
    tx_power_dbm: float = 30.0        # transmit power driving E_s
    noise_figure_db: float = 7.0      # receiver NF
    temperature_k: float = 290.0      # reference noise temperature
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
    sigma_n^2 = k_B * T * B * 10^(NF/10)  [W].

    At 290 K, 2 GHz, NF 7 dB this is 4.013e-11 W (about -73.97 dBm). The
    post-combining noise variance is sigma_n^2 * ||w||^2.
    """
    return BOLTZMANN * radio.temperature_k * radio.bandwidth_hz * 10.0 ** (radio.noise_figure_db / 10.0)


def path_gain(
    sigma_rcs_sqm: float,
    range_m: float,
    wavelength_m: float,
    tx_gain_dbi: float = 0.0,
    rx_gain_dbi: float = 0.0,
    pl_exponent: float = 1.0,
) -> float:
    """
    Monostatic backscatter power gain

        G = G_T * G_R * lambda^2 * sigma_RCS / ((4 pi)^3 * rho^(2*PL)).

    PL = 1 keeps the beam-aggregate return of an extended surface roughly
    range-independent (footprint area grows as rho^2 while per-path gain
    falls as rho^-2), which matches the flat error-vs-distance behavior of
    wall scenes.
    """
    if range_m <= 0:
        raise ValueError("range must be positive")
    if sigma_rcs_sqm < 0:
        raise ValueError("RCS must be >= 0")
    g_t = 10.0 ** (tx_gain_dbi / 10.0)
    g_r = 10.0 ** (rx_gain_dbi / 10.0)
    return g_t * g_r * wavelength_m**2 * sigma_rcs_sqm / ((4.0 * np.pi) ** 3 * range_m ** (2.0 * pl_exponent))


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
    sing = np.isclose(np.abs(u), 1.0 / (2.0 * rolloff), rtol=0.0, atol=1e-12)
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
    center = np.round(delays_s / sample_period_s).astype(int)
    offsets = np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1)
    idx = center[:, None] + offsets[None, :]
    bad = np.nonzero((idx[:, 0] < 0) | (idx[:, -1] >= l_d))[0]
    if bad.size:
        raise ValueError(
            f"path delays outside the L_d={l_d} tap window for path indices {bad.tolist()[:20]}"
            + ("..." if bad.size > 20 else "")
        )
    t = idx * sample_period_s - delays_s[:, None]
    val = raised_cosine(t, sample_period_s, rolloff)
    return idx, val


def beamformed_taps_batch(
    paths,
    weights: np.ndarray,
    upa: UpaConfig,
    radio: RadioConfig,
    l_d: int,
    chunk: int = 8192,
) -> np.ndarray:
    """
    Channel taps for every beam of a matched codebook at once.

    weights is the (M, N) codebook matrix used as both f_m and w_m, so the
    per-path coupling is |a_g^H f_m|^2. Paths are processed in chunks with
    one BLAS product per chunk; memory stays at O(chunk * (M + N)).

    Returns
    -------
    np.ndarray, shape (M, l_d), complex taps per beam.
    """
    from scipy.sparse import csr_matrix

    m_beams = weights.shape[0]
    taps = np.zeros((m_beams, l_d), dtype=complex)
    idx_all, val_all = pulse_taps(paths.delay_s, l_d, radio.sample_period_s, radio.rolloff)
    k_d = 2.0 * np.pi * upa.spacing_wavelengths
    p_total = paths.delay_s.shape[0]
    n_taps = idx_all.shape[1]
    w_conj = weights.conj()
    for start in range(0, p_total, chunk):
        sl = slice(start, min(start + chunk, p_total))
        p_c = sl.stop - sl.start
        b_v = np.exp(-1j * k_d * np.outer(np.cos(paths.theta_z[sl]), np.arange(upa.n_v)))
        b_h = np.exp(-1j * k_d * np.outer(np.cos(paths.theta_x[sl]), np.arange(upa.n_h)))
        # Steering matrix for the chunk, (P_c, N), then all beams in one GEMM.
        a = (b_v[:, :, None] * b_h[:, None, :]).reshape(-1, upa.n)
        g = w_conj @ a.T                      # (M, P_c) = (a^H f)* per beam/path
        coupling = np.abs(g) ** 2             # (w^H a)(a^H f) with w = f
        amp = coupling * paths.amplitude[sl][None, :]
        # Sparse pulse matrix (P_c, l_d): one 17-tap row per path, so the
        # scatter onto the delay axis is a single sparse product per chunk.
        rows = np.repeat(np.arange(p_c), n_taps)
        spread = csr_matrix(
            (val_all[sl].reshape(-1), (rows, idx_all[sl].reshape(-1))),
            shape=(p_c, l_d),
        )
        taps += spread.T.dot(amp.T).T
    return taps
