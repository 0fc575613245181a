"""
One beam, one record: the delay-estimation ladder from the inside.

A sensing record is the preamble convolved with the beam's channel taps
plus receiver noise. Everything the estimator does happens on this one
vector: matched filtering, peak picking, successive cancellation when
several surfaces share the beam, and a fractional-delay replica bank that
refines the winning bin far below the sample period.

This demo builds records with known path parameters and walks each rung,
printing estimate against truth.
"""
import numpy as np

from mmdepth.channel import SPEED_OF_LIGHT, RadioConfig, noise_variance, pulse_taps
from mmdepth.estimator import (
    basic_correlator,
    build_bank,
    correlation_threshold,
    cross_correlation,
    massive_correlator,
    preamble_energy,
    sic_candidates,
)
from mmdepth.waveform import make_preamble, synthesize_rx

radio = RadioConfig()
preamble = make_preamble("golay_80211ad", 3328)
ts = radio.sample_period_s
l_d = 160
bin_m = 0.5 * SPEED_OF_LIGHT * ts
print(f"sample period {ts * 1e9:.2f} ns -> one delay bin = {bin_m * 100:.2f} cm of range\n")


def make_record(delays_samples, amplitudes, rng=None):
    idx, val = pulse_taps(np.asarray(delays_samples, float) * ts, l_d, ts, radio.rolloff)
    taps = np.zeros(l_d, dtype=complex)
    for p in range(idx.shape[0]):
        np.add.at(taps, idx[p], amplitudes[p] * val[p])
    return synthesize_rx(taps, preamble, radio, 1.0, rng=rng).samples


# --- rung 1: matched filter and argmax ------------------------------------
true_delay = 93
y = make_record([true_delay], [1e-5])
c = cross_correlation(y, preamble)
est = basic_correlator(y, preamble)
print(f"single path at bin {true_delay}: argmax of |c|^2 lands at {est}")
print(f"peak-to-next ratio {np.sort(np.abs(c))[-1] / np.sort(np.abs(c))[-2]:.1f}x\n")

# --- rung 2: cancellation separates overlapping returns --------------------
delays = [60, 71, 112]
amps = np.array([1.0, 0.25, 0.12]) * 1e-5        # 18 dB dynamic range
y = make_record(delays, amps)
e_q = preamble_energy(preamble)
thr = (0.3 * np.sqrt(radio.symbol_energy_j) * amps.min() * e_q) ** 2
res = sic_candidates(y, preamble, thr)
print(f"three paths at {delays}, amplitudes within 18 dB:")
print(f"    detected delays {sorted(res.delays.tolist())} in {res.iterations} passes")
recovered = np.abs(res.coefficients) / np.sqrt(radio.symbol_energy_j)
print(f"    recovered amplitudes {np.sort(recovered)[::-1].round(7)}\n")

# --- rung 3: fractional refinement -----------------------------------------
bank = build_bank(preamble, 100, radio.rolloff)
true_delay = 80.37
y = make_record([true_delay], [1e-5])
q = basic_correlator(y, preamble)
f = massive_correlator(cross_correlation(y, preamble), bank, q)
fine_step_m = bin_m / bank.ratio
print(f"off-grid path at {true_delay} samples: coarse bin {q}, refined {q + f:.2f}")
print(f"    range error {abs(q + f - true_delay) * bin_m * 100:.4f} cm "
      f"on a {fine_step_m * 100:.4f} cm fine grid\n")

# --- the same two rungs under noise -----------------------------------------
rng = np.random.default_rng(0)
sigma = noise_variance(radio)
amp = np.sqrt(0.03 * sigma / radio.symbol_energy_j)     # -15 dB per sample
y = make_record([true_delay], [amp], rng=rng)
thr = correlation_threshold(preamble, sigma, gamma=4.0)
res = sic_candidates(y, preamble, thr)
q = int(res.delays[0])
f = massive_correlator(cross_correlation(y, preamble), bank, q)
print("with noise at -15 dB per-sample SNR (the matched filter adds 35 dB):")
print(f"    detected bin {q}, refined {q + f:.2f}, "
      f"range error {abs(q + f - true_delay) * bin_m * 100:.3f} cm")
