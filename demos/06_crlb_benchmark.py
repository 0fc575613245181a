"""
Benchmarking the delay refinement against the Cramer-Rao bound.

For a single path in white noise the range variance of any unbiased
estimator is bounded below by c^2 / (8 * N * eta^2 * B^2 * snr): halve the
noise or double the integration and the bound halves; double the bandwidth
and it quarters. A healthy estimator should track the bound within a small
factor in its asymptotic (post-threshold) SNR regime and peel away below
it, where the coarse argmax starts picking sidelobes.

This demo Monte-Carlos the full coarse-plus-fine estimate over a ladder of
per-sample SNRs and prints the variance ratio against the bound.
"""
import numpy as np

from mmdepth.channel import SPEED_OF_LIGHT, RadioConfig, noise_variance, pulse_taps
from mmdepth.estimator import basic_correlator, build_bank, massive_correlator
from mmdepth.metrics import crlb_range
from mmdepth.waveform import make_preamble, synthesize_rx

radio = RadioConfig()
preamble = make_preamble("golay_80211ad", 3328)
ts = radio.sample_period_s
bandwidth = 1.0 / ts
sigma = noise_variance(radio)
n_p = len(preamble)
l_d = 160
true_delay = 80.3
trials = 300

idx, val = pulse_taps(np.array([true_delay * ts]), l_d, ts, radio.rolloff)
bank = build_bank(preamble, 100, radio.rolloff)
true_rho = 0.5 * SPEED_OF_LIGHT * ts * true_delay

print(f"single path at {true_rho:.3f} m, {trials} trials per point")
print(f"{'snr/sample':>12} {'post-MF':>9} {'crlb sigma':>11} {'mc sigma':>9} {'var ratio':>9}")

rng = np.random.default_rng(1)
for snr_db in (-24.0, -18.0, -12.0, -6.0):
    snr = 10.0 ** (snr_db / 10.0)
    amp = np.sqrt(snr * sigma / radio.symbol_energy_j)
    taps = np.zeros(l_d, dtype=complex)
    np.add.at(taps, idx[0], amp * val[0])
    bound = crlb_range(snr, n_p, bandwidth)
    est = np.empty(trials)
    for t in range(trials):
        y = synthesize_rx(taps, preamble, radio, 1.0, rng=rng).samples
        q = basic_correlator(y, preamble)
        est[t] = 0.5 * SPEED_OF_LIGHT * ts * (q + massive_correlator(y, bank, q))
    var = est.var()
    print(
        f"{snr_db:>9.0f} dB {snr_db + 10 * np.log10(n_p):>6.1f} dB "
        f"{np.sqrt(bound) * 100:>8.3f} cm {np.sqrt(var) * 100:>6.3f} cm "
        f"{var / bound:>9.2f}"
    )

print("\nThe ratio stays a little above 1 while the post-matched-filter SNR")
print("is comfortably positive, and the fine-grid quantization floor shows")
print("up at high SNR where the bound drops below the 0.075 cm step.")
