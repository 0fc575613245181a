"""
Delay-estimation ladder tests: matched filter, SIC, joint beam selection,
fractional-delay refinement, and map construction.

Oracles are synthetic records built from the same pulse model the channel
uses, so every expected value is known by construction. The correlation-domain
cancellation, the stacked matched filter, the one-product replica bank and
the stacked refinement are also checked against their record-domain, direct
and one-beam-at-a-time references on noisy multipath records.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import c as SPEED_OF_LIGHT

from mmdepth import estimator
from mmdepth.channel import PULSE_HALF_WIDTH, noise_variance, raised_cosine
from mmdepth.estimator import (
    CorrelatorBank,
    basic_correlator,
    build_bank,
    cancel_candidates,
    construct_maps,
    correlation_threshold,
    cross_correlation,
    interpolate_map,
    joint_processing,
    massive_correlator,
    preamble_autocorrelation,
    preamble_energy,
    sic_candidates,
    tail_noise_variance,
)
from mmdepth.waveform import synthesize_rx


@pytest.fixture(scope="module")
def record_builder(radio, golay_preamble, tapline):
    """Noiseless single- or multi-path records with known path parameters."""

    def build(delay_samples, amplitudes, l_d=160):
        taps = tapline(delay_samples, amplitudes, l_d=l_d)
        return synthesize_rx(taps, golay_preamble, radio, 1.0, rng=None).samples

    return build


def reference_sic(samples, preamble, threshold, max_iterations=32):
    """Record-domain SIC: subtract each path from the record and re-correlate."""
    e_q = preamble_energy(preamble)
    n_p = len(preamble)
    working = np.array(samples, dtype=complex, copy=True)
    order, coeffs = [], {}
    iterations, truncated = 0, False
    while True:
        c = np.correlate(working, preamble, mode="valid")
        q = int(np.argmax(np.abs(c) ** 2))
        if np.abs(c[q]) ** 2 <= threshold:
            break
        if iterations == max_iterations:
            truncated = True
            break
        coeff = c[q] / e_q
        if q not in coeffs:
            order.append(q)
            coeffs[q] = 0.0
        coeffs[q] += coeff
        working[q : q + n_p] -= coeff * preamble
        iterations += 1
    return np.array(order, dtype=int), np.array([coeffs[q] for q in order]), iterations, truncated


def reference_bank(preamble, ratio, rolloff=0.25):
    """Replica bank built row by row, one np.convolve per fractional shift."""
    delta = ratio // 2
    n_p = len(preamble)
    taps = np.arange(-PULSE_HALF_WIDTH, PULSE_HALF_WIDTH + 1, dtype=float)
    rows = np.empty((2 * delta + 1, n_p), dtype=complex)
    for k in range(2 * delta + 1):
        kernel = raised_cosine(taps - (k - delta) / ratio, 1.0, rolloff)
        rows[k] = np.convolve(preamble, kernel)[PULSE_HALF_WIDTH : PULSE_HALF_WIDTH + n_p]
    norms = np.linalg.norm(rows, axis=1)
    return rows * (norms[delta] / norms)[:, None]


@pytest.fixture(scope="module")
def noisy_multipath(radio, tapline):
    """
    Noisy record with two to six off-grid paths and its gamma = 4 threshold.
    The strong paths sit 10-30 dB above the threshold amplitude, the weakest
    only 1.05-1.3 times above it.
    """

    def build(preamble, seed, l_d=160):
        rng = np.random.default_rng(seed)
        e_q = preamble_energy(preamble)
        noise_var = noise_variance(radio)
        # Amplitude whose matched-filter peak sits exactly on the gamma = 4 threshold.
        edge = 4.0 * np.sqrt(noise_var / e_q) / np.sqrt(radio.symbol_energy_j)
        count = int(rng.integers(2, 7))
        delays = rng.uniform(10, l_d - 20, count)
        amps = edge * 10 ** rng.uniform(0.5, 1.5, count) * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
        amps[-1] = edge * rng.uniform(1.05, 1.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        taps = tapline(delays, amps, l_d=l_d)
        y = synthesize_rx(taps, preamble, radio, 1.0, rng=rng).samples
        return y, correlation_threshold(preamble, noise_var, gamma=4.0)

    return build


class TestCrossCorrelation:
    def test_full_overlap_lag_count(self, record_builder, golay_preamble):
        y = record_builder([40], [1e-5], l_d=160)
        c = cross_correlation(y, golay_preamble)
        assert c.shape == (161,)

    def test_peak_value_is_coefficient_times_energy(self, radio, record_builder, golay_preamble):
        amp = 2e-5
        y = record_builder([93], [amp])
        c = cross_correlation(y, golay_preamble)
        expected = np.sqrt(radio.symbol_energy_j) * amp * preamble_energy(golay_preamble)
        assert c[93] == pytest.approx(expected, rel=1e-12)

    def test_short_record_rejected(self, golay_preamble):
        with pytest.raises(ValueError, match="shorter"):
            cross_correlation(golay_preamble[:100], golay_preamble)

    def test_matches_direct_sum(self, noisy_multipath, golay_preamble, pn_preamble):
        for preamble in (golay_preamble, pn_preamble):
            y, _ = noisy_multipath(preamble, 21)
            ref = np.correlate(y, preamble, mode="valid")
            c = cross_correlation(y, preamble)
            assert c.shape == ref.shape
            assert np.abs(c - ref).max() <= 1e-12 * np.abs(ref).max()


    @pytest.mark.parametrize("kind", ["golay", "pn"])
    def test_stack_equals_per_row_calls(self, noisy_multipath, golay_preamble, pn_preamble, kind):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        stack = np.array([noisy_multipath(preamble, 40 + k)[0] for k in range(7)])
        c = cross_correlation(stack, preamble)
        assert c.shape == (7, 161)
        assert np.array_equal(c, np.array([cross_correlation(y, preamble) for y in stack]))
        assert np.array_equal(cross_correlation(stack[:, None], preamble)[:, 0], c)  # any leading shape

    @pytest.mark.parametrize("block", [1, 5, 64])
    def test_block_size_does_not_matter(self, noisy_multipath, golay_preamble, monkeypatch, block):
        stack = np.array([noisy_multipath(golay_preamble, 60 + k)[0] for k in range(7)])
        want = cross_correlation(stack, golay_preamble)
        monkeypatch.setattr(estimator, "_BLOCK", block)
        assert np.array_equal(cross_correlation(stack, golay_preamble), want)


class TestPreambleAutocorrelation:
    @pytest.mark.parametrize("kind", ["golay", "pn"])
    def test_matches_direct_sum(self, golay_preamble, pn_preamble, kind):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        l_d = 160
        r = preamble_autocorrelation(preamble, l_d)
        # R[k] = sum_n s*[n] s[n + k]; np.correlate(s, s, "full")[n_p - 1 + k] is that sum
        full = np.correlate(preamble, preamble, "full")
        n_p = len(preamble)
        ref = full[n_p - 1 - l_d : n_p + l_d]
        assert r.shape == (2 * l_d + 1,)
        assert np.abs(r - ref).max() <= 1e-12 * preamble_energy(preamble)
        assert r[l_d].real == pytest.approx(preamble_energy(preamble), rel=1e-12)


class TestEnergyAndThreshold:
    def test_unit_modulus_energy_is_length(self, golay_preamble, pn_preamble):
        assert preamble_energy(golay_preamble) == pytest.approx(3328.0, rel=1e-12)
        assert preamble_energy(pn_preamble) == pytest.approx(256.0, rel=1e-12)

    def test_threshold_formula(self, pn_preamble):
        # gamma^2 * E_Q * sigma^2 with E_Q = 256
        assert correlation_threshold(pn_preamble, 2e-3, gamma=4.0) == pytest.approx(
            16.0 * 256.0 * 2e-3, rel=1e-12
        )

    def test_threshold_rejects_bad_gamma(self, pn_preamble):
        with pytest.raises(ValueError, match="gamma"):
            correlation_threshold(pn_preamble, 1e-3, gamma=0.0)

    def test_tail_noise_variance_mean_power(self):
        y = np.zeros(100, dtype=complex)
        y[-8:] = 2.0
        assert tail_noise_variance(y, n_tail=8) == pytest.approx(4.0, rel=1e-12)

    def test_tail_window_validated(self):
        y = np.zeros(16, dtype=complex)
        with pytest.raises(ValueError):
            tail_noise_variance(y, n_tail=0)
        with pytest.raises(ValueError):
            tail_noise_variance(y, n_tail=17)
        with pytest.raises(ValueError):
            tail_noise_variance(np.zeros((3, 16), dtype=complex), n_tail=17)

    @pytest.mark.parametrize("n_tail", [1, 8, 64, 200])
    def test_tail_noise_variance_stack_equals_per_row(self, n_tail):
        rng = np.random.default_rng(n_tail)
        stack = rng.standard_normal((9, 300)) + 1j * rng.standard_normal((9, 300))
        stack *= rng.uniform(0.1, 10.0, (9, 1))
        got = tail_noise_variance(stack, n_tail)
        loop = [tail_noise_variance(row, n_tail) for row in stack]
        assert isinstance(loop[0], float)
        assert got.shape == (9,)
        assert np.array_equal(got, loop)

    def test_threshold_on_array_equals_scalar_calls(self, golay_preamble):
        noise = np.random.default_rng(2).uniform(1e-14, 1e-10, 12)
        got = correlation_threshold(golay_preamble, noise, gamma=3.5)
        loop = [correlation_threshold(golay_preamble, float(v), gamma=3.5) for v in noise]
        assert np.array_equal(got, loop)


class TestBasicCorrelator:
    def test_on_grid_single_path_exact(self, record_builder, golay_preamble):
        y = record_builder([93], [1e-5])
        assert basic_correlator(y, golay_preamble) == 93

    def test_tie_resolves_to_smallest_lag(self):
        preamble = np.ones(2, dtype=complex)
        samples = np.ones(5, dtype=complex)
        assert basic_correlator(samples, preamble) == 0


class TestSicCandidates:
    def threshold_for(self, radio, preamble, weakest_amp):
        e_q = preamble_energy(preamble)
        return (0.3 * np.sqrt(radio.symbol_energy_j) * weakest_amp * e_q) ** 2

    def test_single_path_coefficient(self, radio, record_builder, golay_preamble):
        amp = 1e-5
        y = record_builder([40], [amp])
        res = sic_candidates(y, golay_preamble, self.threshold_for(radio, golay_preamble, amp))
        assert res.delays.tolist() == [40]
        assert res.coefficients[0] == pytest.approx(
            np.sqrt(radio.symbol_energy_j) * amp, rel=1e-10
        )
        assert not res.truncated

    def test_twenty_db_dynamic_range(self, radio, record_builder, golay_preamble):
        amps = [1e-5, 3e-6, 1e-6]
        y = record_builder([30, 75, 120], amps)
        res = sic_candidates(y, golay_preamble, self.threshold_for(radio, golay_preamble, amps[-1]))
        assert set(res.delays.tolist()) == {30, 75, 120}

    def test_empty_record_yields_empty_set(self, radio, golay_preamble):
        y = np.zeros(3328 + 160, dtype=complex)
        res = sic_candidates(y, golay_preamble, self.threshold_for(radio, golay_preamble, 1e-6))
        assert res.delays.size == 0
        assert res.iterations == 0
        assert not res.truncated

    def test_iteration_cap_sets_truncated(self, radio, record_builder, golay_preamble):
        y = record_builder([30, 90], [1e-5, 1e-5])
        res = sic_candidates(
            y, golay_preamble, self.threshold_for(radio, golay_preamble, 1e-5), max_iterations=1
        )
        assert res.truncated
        assert res.iterations == 1
        assert res.delays.size == 1

    def test_bad_iteration_cap_rejected(self, golay_preamble):
        with pytest.raises(ValueError, match="max_iterations"):
            sic_candidates(np.zeros(4000, dtype=complex), golay_preamble, 1.0, max_iterations=0)

    @pytest.mark.parametrize("kind", ["golay", "pn"])
    @pytest.mark.parametrize("max_iterations", [32, 3])
    def test_matches_record_domain_reference(
        self, noisy_multipath, golay_preamble, pn_preamble, kind, max_iterations
    ):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        truncated_seen = 0
        for seed in range(8):
            y, thr = noisy_multipath(preamble, seed)
            delays, coeffs, iterations, truncated = reference_sic(y, preamble, thr, max_iterations)
            res = sic_candidates(y, preamble, thr, max_iterations)
            assert res.delays.tolist() == delays.tolist()
            assert res.iterations == iterations
            assert res.truncated == truncated
            np.testing.assert_allclose(res.coefficients, coeffs, rtol=1e-12)
            truncated_seen += truncated
        # The 3-pass cap has to bite, or the truncation branch goes unchecked.
        assert (truncated_seen > 0) == (max_iterations == 3)


class TestCancelCandidates:
    @pytest.mark.parametrize("kind", ["golay", "pn"])
    @pytest.mark.parametrize("max_iterations", [32, 3])
    def test_rows_of_a_stack_match_sic_candidates_and_reference(
        self, noisy_multipath, golay_preamble, pn_preamble, kind, max_iterations
    ):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        pairs = [noisy_multipath(preamble, seed) for seed in range(8)]
        stack = np.array([y for y, _ in pairs])
        correlation = cross_correlation(stack, preamble)
        auto = preamble_autocorrelation(preamble, 160)
        for row, (y, thr) in zip(correlation, pairs):
            res = cancel_candidates(row, auto, thr, max_iterations)
            one = sic_candidates(y, preamble, thr, max_iterations)
            assert res.delays.tolist() == one.delays.tolist()
            assert np.array_equal(res.coefficients, one.coefficients)
            assert (res.iterations, res.truncated) == (one.iterations, one.truncated)
            delays, coeffs, iterations, truncated = reference_sic(y, preamble, thr, max_iterations)
            assert res.delays.tolist() == delays.tolist()
            assert (res.iterations, res.truncated) == (iterations, truncated)
            np.testing.assert_allclose(res.coefficients, coeffs, rtol=1e-12)

    def test_input_row_is_left_alone(self, noisy_multipath, golay_preamble):
        y, thr = noisy_multipath(golay_preamble, 3)
        row = cross_correlation(y, golay_preamble)
        kept = row.copy()
        res = cancel_candidates(row, preamble_autocorrelation(golay_preamble, 160), thr)
        assert res.iterations > 0
        assert np.array_equal(row, kept)

    def test_arguments_validated(self, golay_preamble):
        row = np.zeros(161, dtype=complex)
        auto = preamble_autocorrelation(golay_preamble, 160)
        with pytest.raises(ValueError, match="max_iterations"):
            cancel_candidates(row, auto, 1.0, max_iterations=0)
        with pytest.raises(ValueError, match="autocorrelation"):
            cancel_candidates(row, preamble_autocorrelation(golay_preamble, 159), 1.0)
        with pytest.raises(ValueError, match="one correlation row"):
            cancel_candidates(np.zeros((2, 161), dtype=complex), auto, 1.0)


def sets_to_list(rows):
    return [np.array(sorted(s), dtype=int) for s in rows]


class TestJointProcessing:
    def test_prefers_delay_unseen_by_neighbors(self):
        selected, filled = joint_processing(sets_to_list([{5}, {5, 9}, {9}]), 3, 1)
        assert selected.tolist() == [[5, 9, 9]]
        assert not filled.any()

    def test_fallback_is_smallest_candidate(self):
        selected, _ = joint_processing(sets_to_list([{3, 7}, {3, 7}]), 2, 1)
        assert selected.tolist() == [[3, 3]]

    def test_upper_right_diagonal_counts_as_neighbor(self):
        # Row 0: beams {4} and {4, 6}. Beam (h=0, v=1) sees (0,0) and the
        # (+1,-1) diagonal (1,0), so 6 is known and 8 is the fresh choice.
        rows = sets_to_list([{4}, {4, 6}, {6, 8}, {10}])
        selected, _ = joint_processing(rows, 2, 2)
        assert selected[1, 0] == 8

    def test_hole_filling_raster_order(self):
        selected, filled = joint_processing(sets_to_list([set(), {4}, set(), {7}]), 4, 1)
        assert selected.tolist() == [[4, 4, 4, 7]]
        assert filled.tolist() == [[True, False, True, False]]

    def test_fill_carries_across_rows(self):
        selected, filled = joint_processing(sets_to_list([{3}, set(), set(), {9}]), 2, 2)
        assert selected.tolist() == [[3, 3], [3, 9]]
        assert filled.sum() == 2

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError, match="no beam"):
            joint_processing([np.array([], dtype=int)] * 4, 2, 2)

    def test_set_count_validated(self):
        with pytest.raises(ValueError, match="per beam"):
            joint_processing(sets_to_list([{1}, {2}]), 2, 2)

    @settings(derandomize=True, max_examples=50)
    @given(
        st.lists(
            st.sets(st.integers(min_value=0, max_value=30), max_size=4),
            min_size=12,
            max_size=12,
        ).filter(lambda rows: any(rows))
    )
    def test_selection_membership_invariant(self, rows):
        selected, filled = joint_processing(sets_to_list(rows), 4, 3)
        assert selected.shape == (3, 4) and filled.shape == (3, 4)
        flat_sel = selected.ravel()
        flat_fill = filled.ravel()
        for i, s in enumerate(rows):
            if not flat_fill[i]:
                assert flat_sel[i] in s
        # every filled beam carries some detected beam's selection
        detected_values = {int(flat_sel[i]) for i in range(12) if not flat_fill[i]}
        for i in range(12):
            if flat_fill[i]:
                assert int(flat_sel[i]) in detected_values


class TestCorrelatorBank:
    def test_rows_share_common_energy(self, golay_preamble, radio):
        bank = build_bank(golay_preamble, 8, radio.rolloff)
        norms = np.linalg.norm(bank.conj_rows, axis=1)
        assert np.allclose(norms, norms[bank.delta], rtol=1e-12)

    def test_center_row_is_unshifted_preamble(self, golay_preamble, radio):
        bank = build_bank(golay_preamble, 4, radio.rolloff)
        assert np.allclose(bank.conj_rows[bank.delta].conj(), golay_preamble, atol=1e-12)

    def test_row_count_spans_one_coarse_bin(self, pn_preamble):
        bank = build_bank(pn_preamble, 10)
        assert bank.conj_rows.shape == (11, 256)
        assert bank.delta == 5

    @pytest.mark.parametrize("kind", ["golay", "pn"])
    @pytest.mark.parametrize("ratio", [2, 8, 100])
    def test_matches_per_row_convolution(self, golay_preamble, pn_preamble, radio, kind, ratio):
        preamble = golay_preamble if kind == "golay" else pn_preamble
        rows = build_bank(preamble, ratio, radio.rolloff).conj_rows.conj()
        ref = reference_bank(preamble, ratio, radio.rolloff)
        assert rows.shape == ref.shape
        assert np.all(np.abs(rows - ref).max(axis=1) <= 1e-14 * np.linalg.norm(ref, axis=1))

    def test_real_preamble_gives_complex_rows(self, radio):
        preamble = np.tile([1.0, -1.0, -1.0, 1.0], 16)
        rows = build_bank(preamble, 4, radio.rolloff).conj_rows.conj()
        assert rows.dtype == complex and rows.shape == (5, 64)
        assert np.abs(rows - reference_bank(preamble, 4, radio.rolloff)).max() <= 1e-14 * 8.0

    def test_ratio_must_be_even_and_at_least_two(self, pn_preamble):
        with pytest.raises(ValueError, match="even"):
            build_bank(pn_preamble, 5)
        with pytest.raises(ValueError, match="even"):
            build_bank(pn_preamble, 1)


class TestMassiveCorrelator:
    @pytest.mark.parametrize("offset", [-0.25, 0.0, 0.25])
    def test_grid_aligned_offsets_recover_exactly(
        self, radio, record_builder, golay_preamble, offset
    ):
        y = record_builder([50 + offset], [1e-5])
        bank = build_bank(golay_preamble, 4, radio.rolloff)
        assert massive_correlator(y, bank, 50) == offset

    def test_random_offsets_within_one_fine_step(self, radio, record_builder, golay_preamble):
        # Nearest-grid quantization errs by half a step, plus a hair when an
        # offset lands on a midpoint and the argmax tips to the neighbor; one
        # full step is the operational bound.
        bank = build_bank(golay_preamble, 100, radio.rolloff)
        rng = np.random.default_rng(5)
        for _ in range(10):
            offset = rng.uniform(-0.5, 0.5)
            y = record_builder([80 + offset], [1e-5])
            est = massive_correlator(y, bank, 80)
            assert abs(est - offset) <= 1.0 / 100

    def test_window_bounds_validated(self, golay_preamble, radio):
        bank = build_bank(golay_preamble, 4, radio.rolloff)
        y = np.zeros(3328 + 160, dtype=complex)
        with pytest.raises(ValueError, match="window"):
            massive_correlator(y, bank, -1)
        with pytest.raises(ValueError, match="window"):
            massive_correlator(y, bank, 161)
        # A stack is rejected when any one row's window leaves its record.
        stack = np.zeros((3, 3328 + 160), dtype=complex)
        for bad in ([5, -1, 7], [5, 7, 161]):
            with pytest.raises(ValueError, match="window"):
                massive_correlator(stack, bank, np.array(bad))
        with pytest.raises(ValueError, match="one coarse delay per record"):
            massive_correlator(stack, bank, np.array([1, 2]))

    def test_stack_equals_per_row_loop(self, noisy_multipath, golay_preamble, radio):
        bank = build_bank(golay_preamble, 100, radio.rolloff)
        records = [noisy_multipath(golay_preamble, 100 + k)[0] for k in range(6)]
        coarse = np.array([0, 17, 58, 99, 140, 160])
        loop = np.array([massive_correlator(y, bank, int(d)) for y, d in zip(records, coarse)])
        assert np.array_equal(massive_correlator(records, bank, coarse), loop)
        assert np.array_equal(massive_correlator(np.stack(records), bank, coarse), loop)


    def test_one_product_bank_keeps_the_picks(self, noisy_multipath, golay_preamble, radio):
        bank = build_bank(golay_preamble, 100, radio.rolloff)
        ref = CorrelatorBank(100, 50, reference_bank(golay_preamble, 100, radio.rolloff).conj())
        stack = np.array([noisy_multipath(golay_preamble, 200 + k)[0] for k in range(12)])
        strongest = np.array([basic_correlator(y, golay_preamble) for y in stack])
        for coarse in (strongest, np.full(12, 40), np.arange(12) * 13):
            want = massive_correlator(stack, ref, coarse)
            assert np.array_equal(massive_correlator(stack, bank, coarse), want)


class TestConstructMaps:
    def test_range_formula(self, radio):
        ts = radio.sample_period_s
        rng_map, _ = construct_maps(
            np.array([[100]]), np.array([[0.5]]), np.array([[np.pi / 2]]),
            np.array([[np.pi / 2]]), ts,
        )
        assert rng_map[0, 0] == pytest.approx(0.5 * SPEED_OF_LIGHT * ts * 100.5, rel=1e-12)

    def test_depth_is_boresight_projection(self, radio):
        ts = radio.sample_period_s
        theta_z = np.array([[np.pi / 3]])
        phi = np.array([[np.pi / 4]])
        rng_map, depth = construct_maps(np.array([[80]]), np.array([[0.0]]), theta_z, phi, ts)
        assert depth[0, 0] == pytest.approx(
            rng_map[0, 0] * np.sin(np.pi / 3) * np.sin(np.pi / 4), rel=1e-12
        )

    def test_depth_magnitude_never_negative(self, radio):
        ts = radio.sample_period_s
        theta_z = np.array([[np.pi / 3, 2 * np.pi / 3]])
        phi = np.array([[np.pi / 2, 3 * np.pi / 2]])
        _, depth = construct_maps(
            np.array([[40, 40]]), np.zeros((1, 2)), theta_z, phi, ts
        )
        assert (depth >= 0).all()

    def test_shapes_preserved(self, radio):
        shape = (2, 3)
        rng_map, depth = construct_maps(
            np.full(shape, 10), np.zeros(shape), np.full(shape, np.pi / 2),
            np.full(shape, np.pi / 2), radio.sample_period_s,
        )
        assert rng_map.shape == shape and depth.shape == shape


class TestInterpolateMap:
    def test_constant_map_stays_constant(self):
        src = np.full((4, 4), 5.0)
        for method in ("nearest", "bicubic"):
            out = interpolate_map(src, (8, 8), method)
            assert np.allclose(out, 5.0, rtol=1e-12)

    def test_nearest_replicates_blocks(self):
        src = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = interpolate_map(src, (4, 4), "nearest")
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float
        )
        assert np.array_equal(out, expected)

    def test_bicubic_exact_on_linear_ramp_away_from_borders(self):
        src = np.add.outer(np.arange(6.0), 2.0 * np.arange(6.0))
        out = interpolate_map(src, (12, 12), "bicubic")
        r = np.arange(12)
        sr = (r + 0.5) * 6 / 12 - 0.5
        expected = np.add.outer(sr, 2.0 * sr)
        # rows/cols 3..8 read only interior source samples (no border clamp)
        assert np.allclose(out[3:9, 3:9], expected[3:9, 3:9], atol=1e-12)

    def test_output_shape(self):
        out = interpolate_map(np.zeros((5, 7)), (10, 21), "nearest")
        assert out.shape == (10, 21)

    def test_downscale_rejected(self):
        with pytest.raises(ValueError, match="upscale"):
            interpolate_map(np.zeros((8, 8)), (4, 16))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            interpolate_map(np.zeros((4, 4)), (8, 8), "lanczos")

    def test_bicubic_rejects_non_finite(self):
        src = np.zeros((4, 4))
        src[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            interpolate_map(src, (8, 8), "bicubic")

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            interpolate_map(np.zeros(16), (8, 8))
