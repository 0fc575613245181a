"""
Preamble construction and sensing-record synthesis.

The FFT-batched record synthesis is checked against the direct per-beam
convolution and noise draws (reference_records), and the partitioned
preamble filter of the matched filter against the direct sums, over a grid
of preamble lengths and delay windows that covers one-block and partitioned
plans. matched_filter_rows is checked against the matched filter and tail
level of the records it does not form.
"""
import tracemalloc

import numpy as np
import pytest

from mmdepth import waveform
from mmdepth.waveform import (
    SensingRecord,
    golay_pair_128,
    make_preamble,
    matched_filter_rows,
    pi_half_rotate,
    synthesize_records,
    synthesize_rx,
)
from mmdepth.channel import noise_variance
from mmdepth.estimator import cross_correlation, tail_noise_variance


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

    def test_allocates_one_block_buffer_beyond_its_output(self, radio, golay_preamble):
        # The blocks are transformed in place and every beam's noise is drawn
        # into one reused array: fresh transforms and complex noise
        # temporaries held about 4 MiB beyond the records here.
        rng = np.random.default_rng(4)
        taps = rng.standard_normal((256, 114)) + 1j * rng.standard_normal((256, 114))
        seeds = np.random.SeedSequence(4).spawn(256)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y = synthesize_records(taps, golay_preamble, radio, np.ones(256), seeds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert y.shape == (256, 3442)
        assert peak < y.nbytes + waveform._BLOCK * 4096 * 16 + 2**19

    def test_noise_generator_count_validated(self, radio, pn_preamble, beam_taps):
        taps, norms = beam_taps
        with pytest.raises(ValueError, match="one noise generator per beam"):
            synthesize_records(taps, pn_preamble, radio, norms, [1, 2])

    def test_noise_generator_count_checked_before_any_transform(self, radio, pn_preamble, beam_taps, monkeypatch):
        class Transformed(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Transformed

        taps, norms = beam_taps
        monkeypatch.setattr(np.fft, "fft", refuse)
        with pytest.raises(Transformed):  # synthesis transforms through the patched call
            synthesize_records(taps, pn_preamble, radio, norms)
        with pytest.raises(ValueError, match="one noise generator per beam"):
            synthesize_records(taps, pn_preamble, radio, norms, [1, 2])


def dense_taps(seed, m, l_d):
    """Complex taps on every bin, so that the last ones reach the record tail."""
    rng = np.random.default_rng(seed)
    return 1e-5 * (rng.standard_normal((m, l_d)) + 1j * rng.standard_normal((m, l_d)))


class TestMatchedFilterRows:
    @pytest.mark.parametrize(
        "kind, length, n_tail",
        [("golay_80211ad", 3328, 64), ("golay_80211ad", 128, 64), ("golay_80211ad", 128, 200), ("pn", 3328, 64)],
    )
    @pytest.mark.parametrize("noisy", [False, True])
    def test_equals_the_filtered_records(self, radio, kind, length, n_tail, noisy):
        # A 128-sample preamble is shorter than the 160-tap window, and a
        # 200-sample tail reaches back past the start of the last path's preamble.
        preamble = make_preamble(kind, length, seed=4)
        taps = dense_taps(length + n_tail, 12, 160)
        norms = np.random.default_rng(1).uniform(0.5, 300.0, 12)
        seeds = np.random.SeedSequence(8).spawn(12) if noisy else None
        rows, noise = matched_filter_rows(taps, preamble, radio, norms, seeds, n_tail)
        records = synthesize_records(taps, preamble, radio, norms, seeds)
        want_rows, want_noise = cross_correlation(records, preamble), tail_noise_variance(records, n_tail)
        assert rows.shape == (12, 161) and noise.shape == (12,)
        assert np.all(np.abs(rows - want_rows) <= 1e-14 * np.abs(want_rows).max(axis=1, keepdims=True))
        assert np.all(np.abs(noise - want_noise) <= 1e-14 * want_noise)

    def test_noise_alone_is_the_record_models_draw(self, radio, golay_preamble):
        # Zero taps leave the noise rows, which must filter to the records' bits.
        taps = np.zeros((7, 114), dtype=complex)
        seeds = np.random.SeedSequence(2).spawn(7)
        rows, noise = matched_filter_rows(taps, golay_preamble, radio, np.arange(1.0, 8.0), seeds, 64)
        records = synthesize_records(taps, golay_preamble, radio, np.arange(1.0, 8.0), seeds)
        assert np.array_equal(rows, cross_correlation(records, golay_preamble))
        assert np.array_equal(noise, tail_noise_variance(records, 64))

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_block_size_does_not_matter(self, radio, golay_preamble, monkeypatch, block):
        taps = dense_taps(3, 11, 114)
        seeds = np.random.SeedSequence(3).spawn(11)
        want = matched_filter_rows(taps, golay_preamble, radio, np.ones(11), seeds, 64)
        monkeypatch.setattr(waveform, "_BLOCK", block)
        got = matched_filter_rows(taps, golay_preamble, radio, np.ones(11), seeds, 64)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_holds_one_block_of_noise_rows(self, radio, golay_preamble):
        # 256 records of the default preamble are 13.4 MiB. Beyond its rows
        # it holds one block of noise rows, the filter's two block buffers
        # and arrays under 1 MiB in all (tails, autocorrelation, spectra).
        taps = dense_taps(4, 256, 114)
        seeds = np.random.SeedSequence(4).spawn(256)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows, _ = matched_filter_rows(taps, golay_preamble, radio, np.ones(256), seeds, 64)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + waveform._BLOCK * (3442 + 2 * 512) * 16 + 2**20

    def test_arguments_validated(self, radio, pn_preamble, beam_taps):
        taps, norms = beam_taps
        with pytest.raises(ValueError, match="one noise generator per beam"):
            matched_filter_rows(taps, pn_preamble, radio, norms, [1, 2], 64)
        for n_tail in (0, len(pn_preamble) + taps.shape[1] + 1):
            with pytest.raises(ValueError, match="n_tail"):
                matched_filter_rows(taps, pn_preamble, radio, norms, None, n_tail)


# Preamble lengths (golay prefixes, and a pn preamble longer than the
# structured one) and delay windows of the filter grid: they reach the
# one-block plan, partitions into 256- to 2048-point sections, and windows
# on either side of a power of two.
GRID_LENGTHS = [1, 7, 128, 398, 399, 3328, 4096]
GRID_WINDOWS = [9, 114, 238, 511, 512, 600]


def grid_preamble(n_p):
    if n_p > waveform.PREAMBLE_LENGTH:
        return make_preamble("pn", n_p, seed=2)
    return make_preamble("golay_80211ad", n_p)


class TestPreambleFilter:
    @pytest.mark.parametrize("n_p", GRID_LENGTHS)
    @pytest.mark.parametrize("l_d", GRID_WINDOWS)
    def test_synthesis_matches_direct_convolution(self, radio, n_p, l_d):
        rng = np.random.default_rng(n_p * 1000 + l_d)
        taps = rng.standard_normal((3, l_d)) + 1j * rng.standard_normal((3, l_d))
        preamble = grid_preamble(n_p)
        got = synthesize_records(taps, preamble, radio, np.ones(3))
        ref = reference_records(taps, preamble, radio, np.ones(3))
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.all(got[:, -1] == 0.0)
        assert np.array_equal(synthesize_records(taps[1:2], preamble, radio, np.ones(1)), got[1:2])

    @pytest.mark.parametrize("n_p", GRID_LENGTHS)
    @pytest.mark.parametrize("l_d", [0, *GRID_WINDOWS])
    def test_correlation_matches_direct_sum(self, n_p, l_d):
        rng = np.random.default_rng(n_p * 1000 + l_d + 1)
        records = rng.standard_normal((3, n_p + l_d)) + 1j * rng.standard_normal((3, n_p + l_d))
        preamble = grid_preamble(n_p)
        got = cross_correlation(records, preamble)
        ref = np.array([np.correlate(y, preamble, "valid") for y in records])
        assert got.shape == ref.shape == (3, l_d + 1)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(cross_correlation(records[1], preamble), got[1])

    def test_section_spectra_are_built_once_per_preamble_and_window(self, radio, golay_preamble):
        rng = np.random.default_rng(5)
        records = rng.standard_normal((4, 3442)) + 1j * rng.standard_normal((4, 3442))
        waveform._section_spectra.cache_clear()
        rows = cross_correlation(records, golay_preamble)
        assert waveform._section_spectra.cache_info()[:2] == (0, 1)  # (hits, misses)
        for block in (1, 3):  # the same filter over other blocks of records
            again = np.concatenate([
                cross_correlation(records[i : i + block], golay_preamble.copy()) for i in range(0, 4, block)
            ])
            assert np.array_equal(again, rows)
        # The noise rows of matched_filter_rows go through the same filter.
        matched_filter_rows(np.zeros((4, 114)), golay_preamble, radio, np.ones(4), [0, 1, 2, 3], 64)
        info = waveform._section_spectra.cache_info()
        assert (info.hits, info.misses) == (4 + 2 + 1, 1)
        size, step, spectra = waveform._section_spectra(golay_preamble.dtype.str, golay_preamble.tobytes(), 114)
        assert (size, step) == waveform._plan(3328, 114)
        assert spectra.shape == (9, 512) and not spectra.flags.writeable

    def test_preambles_with_equal_bytes_and_other_dtypes_keep_their_own_spectra(self):
        # 128 complex samples and 256 real ones share their bytes; at one window both must filter right.
        preamble = make_preamble("pn", 128, seed=1)
        rng = np.random.default_rng(6)
        for p in (preamble, preamble.view(float)):
            y = rng.standard_normal(len(p) + 114) + 1j * rng.standard_normal(len(p) + 114)
            ref = np.correlate(y, p, "valid")
            assert np.abs(cross_correlation(y, p) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_default_preamble_is_cut_into_nine_512_point_sections(self):
        size, step = waveform._plan(3328, 114)
        assert size == 512 and step == 512 - 114
        assert -(-3328 // step) == 9  # nine preamble sections to correlate

    def test_plans_of_the_benchmark_windows(self):
        # one_wall at 7 m, two_walls and pillar_room: 238, 114 and 140 taps.
        # pillar_room's 512-point plan ties the 1024-point one (10 x 512 = 5 x 1024 points).
        assert [waveform._plan(3328, l_d) for l_d in (238, 114, 140)] == [(1024, 786), (512, 398), (512, 372)]

    def test_one_block_where_partitioning_measured_slower(self):
        # Wide windows on the structured preamble, and short preambles.
        for n_p, l_d in [(3328, l_d) for l_d in range(500, 769)] + [
            (n_p, l_d) for n_p in range(1, 129) for l_d in range(0, 1025, 3)
        ]:
            whole = waveform._fft_size(n_p + l_d)
            assert waveform._plan(n_p, l_d) == (whole, whole), (n_p, l_d)

    @pytest.mark.parametrize("n_p", GRID_LENGTHS)
    @pytest.mark.parametrize("l_d", [0, *GRID_WINDOWS])
    def test_a_partition_halves_the_transform_at_least(self, n_p, l_d):
        # Two (block, size) buffers of a partition fit in the one-block buffer.
        size, step = waveform._plan(n_p, l_d)
        whole = waveform._fft_size(n_p + l_d)
        assert (size, step) == (whole, whole) or (256 <= size <= whole // 2 and step == size - l_d > 0)
