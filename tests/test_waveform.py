"""
Preamble construction and sensing-record synthesis.

The FFT-batched record synthesis is checked against the direct per-beam
convolution and noise draws it replaced (reference_records).
"""
import numpy as np
import pytest

from mmdepth import waveform
from mmdepth.waveform import (
    SensingRecord,
    golay_pair_128,
    make_preamble,
    pi_half_rotate,
    synthesize_records,
    synthesize_rx,
)
from mmdepth.channel import noise_variance


def reference_records(taps, preamble, radio, combine_norm_sq, seeds=None):
    """One np.convolve and one generator per beam, the direct form of each record."""
    m, l_d = taps.shape
    n = len(preamble) + l_d
    out = np.zeros((m, n), dtype=complex)
    for k in range(m):
        out[k, : n - 1] = np.sqrt(radio.symbol_energy_j) * np.convolve(preamble, taps[k])
        if seeds is not None:
            rng = np.random.default_rng(seeds[k])
            scale = np.sqrt(noise_variance(radio) * float(combine_norm_sq[k]) / 2.0)
            out[k] += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return out


@pytest.fixture(scope="module")
def beam_taps(tapline):
    """Tap lines of eleven beams with one to four off-grid paths each."""
    rng = np.random.default_rng(7)
    rows = []
    for _ in range(11):
        count = int(rng.integers(1, 5))
        amps = 1e-5 * rng.uniform(0.1, 1.0, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        rows.append(tapline(rng.uniform(10, 40, count), amps, l_d=60))
    return np.array(rows), rng.uniform(0.5, 300.0, len(rows))


class TestGolay:
    def test_pair_128_complementarity(self):
        a, b = golay_pair_128()
        ra = np.correlate(a, a, "full")
        rb = np.correlate(b, b, "full")
        total = ra + rb
        assert total[127] == pytest.approx(256.0)
        assert np.allclose(np.delete(total, 127), 0.0, atol=1e-9)

    def test_pair_entries_are_binary(self):
        a, b = golay_pair_128()
        assert set(np.unique(a)) <= {-1.0, 1.0}
        assert set(np.unique(b)) <= {-1.0, 1.0}


class TestPiHalfRotation:
    def test_quarter_turn_sequence(self):
        s = pi_half_rotate(np.ones(8))
        assert np.allclose(s[:4], [1, 1j, -1, -1j])
        assert np.allclose(s[4:], s[:4])

    def test_rotation_is_exact_unit_modulus(self):
        s = pi_half_rotate(np.ones(1000))
        assert np.all(np.abs(s) == 1.0)


class TestMakePreamble:
    def test_reference_preamble_shape(self, golay_preamble):
        assert golay_preamble.shape == (3328,)
        assert np.allclose(np.abs(golay_preamble), 1.0)

    def test_golay_prefix_and_length_cap(self, golay_preamble):
        prefix = make_preamble("golay_80211ad", 1000)
        assert np.array_equal(prefix, golay_preamble[:1000])
        with pytest.raises(ValueError):
            make_preamble("golay_80211ad", 5000)

    def test_pn_is_seeded_and_unit_modulus(self):
        a = make_preamble("pn", 256, seed=4)
        b = make_preamble("pn", 256, seed=4)
        c = make_preamble("pn", 256, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.allclose(np.abs(a), 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_preamble("chirp", 256)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: make_preamble("pn", 0), "preamble length must be positive"),
        (lambda: make_preamble("golay_80211ad", -1), "preamble length must be positive"),
        (lambda: SensingRecord(beam=0, n_p=4, l_d=2, samples=np.zeros(5)), "record length 5 != n_p \\+ l_d = 6"),
    ],
)
def test_invalid_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestSynthesizeRx:
    def test_noiseless_record_is_scaled_convolution(self, radio, pn_preamble):
        taps = np.zeros(40, dtype=complex)
        taps[7] = 0.5 - 0.25j
        rec = synthesize_rx(taps, pn_preamble, radio, 256.0, rng=None)
        n_p = len(pn_preamble)
        assert rec.samples.shape == (n_p + 40,)
        expected = np.sqrt(radio.symbol_energy_j) * np.convolve(pn_preamble, taps)
        assert np.allclose(rec.samples[: n_p + 39], expected)
        assert rec.samples[-1] == 0.0
        assert rec.n_p == n_p and rec.l_d == 40

    def test_noise_scales_with_combine_norm(self, radio, pn_preamble):
        taps = np.zeros(40, dtype=complex)
        rng = np.random.default_rng(0)
        rec = synthesize_rx(taps, pn_preamble, radio, 256.0, rng=rng)
        measured = np.mean(np.abs(rec.samples) ** 2)
        assert measured == pytest.approx(256.0 * noise_variance(radio), rel=0.1)

    def test_noise_is_reproducible_from_rng_state(self, radio, pn_preamble):
        taps = np.zeros(16, dtype=complex)
        a = synthesize_rx(taps, pn_preamble, radio, 1.0, rng=np.random.default_rng(42))
        b = synthesize_rx(taps, pn_preamble, radio, 1.0, rng=np.random.default_rng(42))
        assert np.array_equal(a.samples, b.samples)
        # a seed is turned into the generator default_rng would give
        for seed in (42, np.random.SeedSequence(42)):
            c = synthesize_rx(taps, pn_preamble, radio, 1.0, rng=seed)
            assert np.array_equal(a.samples, c.samples)


class TestSynthesizeRecords:
    @pytest.mark.parametrize("kind", ["golay", "pn"])
    def test_matches_direct_convolution(self, radio, golay_preamble, pn_preamble, beam_taps, kind):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        taps, norms = beam_taps
        got = synthesize_records(taps, preamble, radio, norms)
        ref = reference_records(taps, preamble, radio, norms)
        assert got.shape == (len(taps), len(preamble) + taps.shape[1])
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(got[:, -1] == 0.0)

    def test_noise_is_each_beams_own_draw(self, radio, pn_preamble, beam_taps):
        taps, norms = beam_taps
        seeds = np.random.SeedSequence(5).spawn(len(taps))
        silent = np.zeros_like(taps)
        # Zero taps leave only the noise, which must be the per-beam draw bit for bit.
        noise = synthesize_records(silent, pn_preamble, radio, norms, seeds)
        assert np.array_equal(noise, reference_records(silent, pn_preamble, radio, norms, seeds))
        clean = synthesize_records(taps, pn_preamble, radio, norms)
        noisy = synthesize_records(taps, pn_preamble, radio, norms, seeds)
        assert np.array_equal(noisy, clean + noise)

    def test_synthesize_rx_is_the_one_row_case(self, radio, golay_preamble, beam_taps):
        taps, norms = beam_taps
        seeds = np.random.SeedSequence(9).spawn(len(taps))
        stack = synthesize_records(taps, golay_preamble, radio, norms, seeds)
        for k in range(len(taps)):
            rec = synthesize_rx(taps[k], golay_preamble, radio, float(norms[k]), rng=seeds[k], beam=k)
            assert np.array_equal(rec.samples, stack[k])
            assert (rec.beam, rec.n_p, rec.l_d) == (k, len(golay_preamble), taps.shape[1])

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_block_size_does_not_matter(self, radio, golay_preamble, beam_taps, monkeypatch, block):
        taps, norms = beam_taps
        seeds = np.random.SeedSequence(3).spawn(len(taps))
        want = synthesize_records(taps, golay_preamble, radio, norms, seeds)
        monkeypatch.setattr(waveform, "_BLOCK", block)
        assert np.array_equal(synthesize_records(taps, golay_preamble, radio, norms, seeds), want)

    def test_noise_generator_count_validated(self, radio, pn_preamble, beam_taps):
        taps, norms = beam_taps
        with pytest.raises(ValueError, match="one noise generator per beam"):
            synthesize_records(taps, pn_preamble, radio, norms, [1, 2])
