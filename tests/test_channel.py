"""Radio link pieces: budgets, pulses, and beamformed channel taps."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants

from mmdepth import channel
from mmdepth.channel import (
    _BLOCK,
    BOLTZMANN,
    SPEED_OF_LIGHT,
    RadioConfig,
    noise_variance,
    path_gain,
    raised_cosine,
    pulse_taps,
    beamformed_taps_batch,
    delay_window_length,
    PULSE_HALF_WIDTH,
)
from mmdepth.codebook import SceneView, UpaConfig, design_codebook, steering_vector
from mmdepth.scene import PathSet


def random_paths(rng, count, ts):
    return PathSet(
        delay_s=rng.uniform(10, 100, count) * ts,
        amplitude=(rng.normal(size=count) + 1j * rng.normal(size=count)) * 1e-6,
        theta_z=rng.uniform(0.3, np.pi - 0.3, count),
        theta_x=rng.uniform(0.3, np.pi - 0.3, count),
        range_m=np.ones(count),
        specular=np.zeros(count, dtype=bool),
    )


def test_constants_are_the_exact_si_values():
    # scipy is the test-side reference; the package itself runs without it.
    assert SPEED_OF_LIGHT == constants.c
    assert BOLTZMANN == constants.k


class TestLinkBudget:
    def test_default_noise_variance(self, radio):
        # k T B F for 2 GHz bandwidth, NF 7 dB, 290 K
        assert noise_variance(radio) == pytest.approx(
            4.013389186937507e-11, rel=1e-12
        )

    def test_symbol_energy(self, radio):
        # 30 dBm = 1 W over one 0.5 ns symbol
        assert radio.symbol_energy_j == pytest.approx(5e-10, rel=1e-12)

    def test_path_gain_reference_value(self):
        # lambda^2 * sigma / ((4 pi)^3 * rho^4) = 25e-6 / (1984.40 * 7^4)
        # for sigma = 1 m^2 at 7 m and lambda = 5 mm.
        assert path_gain(1.0, 7.0, 5e-3) == pytest.approx(5.247086896280114e-12, rel=1e-12)

    def test_path_gain_distance_laws(self):
        assert path_gain(1.0, 3.5, 5e-3) / path_gain(1.0, 7.0, 5e-3) == pytest.approx(16.0)
        assert path_gain(1.0, 14.0, 5e-3) / path_gain(1.0, 7.0, 5e-3) == pytest.approx(1.0 / 16.0)

    def test_path_gain_on_arrays_equals_scalar_loop(self):
        rng = np.random.default_rng(5)
        sigma = np.r_[0.0, rng.uniform(0.0, 3.0, 2000)]
        rho = rng.uniform(0.2, 20.0, 2001)
        args = (4.99e-3, 2.0, -1.0)
        gains = path_gain(sigma, rho, *args)
        loop = np.array([path_gain(s, r, *args) for s, r in zip(sigma, rho)])
        assert gains.shape == (2001,) and gains[0] == 0.0
        # Same expression; only rho ** 4.0 may round differently, since numpy
        # powers an array with its own loop and a scalar with C pow.
        assert np.allclose(gains, loop, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("sigma, rho, match", [
        (np.ones(3), np.array([1.0, 0.0, 2.0]), "range"),
        (np.ones(3), np.array([1.0, 2.0, -1e-9]), "range"),
        (np.array([1.0, -1e-12, 0.0]), np.ones(3), "RCS"),
        (1.0, 0.0, "range"),
        (-1.0, 1.0, "RCS"),
    ])
    def test_path_gain_rejects_any_bad_entry(self, sigma, rho, match):
        with pytest.raises(ValueError, match=match):
            path_gain(sigma, rho, 5e-3)

    def test_antenna_gains_multiply(self):
        base = path_gain(1.0, 5.0, 5e-3)
        assert path_gain(1.0, 5.0, 5e-3, tx_gain_dbi=3.0, rx_gain_dbi=3.0) == (
            pytest.approx(base * 10 ** 0.6)
        )


class TestRaisedCosine:
    def test_nyquist_zero_crossings(self):
        t = np.arange(-6, 7, dtype=float)
        for rolloff in (0.25, 0.0):
            p = raised_cosine(2.0 * t, 2.0, rolloff)
            assert p[6] == pytest.approx(1.0)
            assert np.allclose(np.delete(p, 6), 0.0, atol=1e-12)
        # Without excess bandwidth the pulse is the sinc itself.
        t = np.linspace(-7.5, 7.5, 301)
        assert np.array_equal(raised_cosine(t, 2.0, 0.0), np.sinc(t / 2.0))

    def test_singularity_point_finite(self):
        # |t| = T / (2 beta) = 2.0 for beta = 0.25
        p = raised_cosine(np.array([2.0, -2.0]), 1.0, 0.25)
        expected = (np.pi / 4) * np.sinc(2.0)
        assert np.allclose(p, expected)
        # within 1e-12 of the singularity the limit is taken as is
        near = raised_cosine(np.array([2.0 + 5e-13, -2.0 - 5e-13]), 1.0, 0.25)
        assert np.all(near == expected)

    @settings(derandomize=True, max_examples=40)
    @given(st.floats(min_value=0.0, max_value=7.5))
    def test_even_symmetry(self, t):
        left = raised_cosine(np.array([-t]), 1.0, 0.25)
        right = raised_cosine(np.array([t]), 1.0, 0.25)
        assert left[0] == pytest.approx(right[0], abs=1e-14)


class TestPulseTaps:
    def test_window_and_values(self, radio):
        ts = radio.sample_period_s
        tau = 41.3 * ts
        idx, val = pulse_taps(np.array([tau]), 160, ts, radio.rolloff)
        assert idx.shape == val.shape == (1, 2 * PULSE_HALF_WIDTH + 1)
        assert idx[0, 0] == 41 - PULSE_HALF_WIDTH
        expected = raised_cosine(idx[0] * ts - tau, ts, radio.rolloff)
        assert np.allclose(val[0], expected)

    def test_out_of_window_raises_with_offenders(self, radio):
        ts = radio.sample_period_s
        with pytest.raises(ValueError, match="\\[1\\]"):
            pulse_taps(np.array([50 * ts, 1e-6]), 160, ts, radio.rolloff)

    def test_batch_names_offender_past_first_block(self, radio):
        # The window is checked over all paths before blocking, so the
        # message carries the path's index in the PathSet.
        paths = random_paths(np.random.default_rng(2), _BLOCK + 50, radio.sample_period_s)
        bad = _BLOCK + 17
        paths.delay_s[bad] = 1e-6
        weights = np.ones((1, 4), dtype=complex)
        with pytest.raises(ValueError, match=f"\\[{bad}\\]"):
            beamformed_taps_batch(paths, weights, UpaConfig(n_h=2, n_v=2), radio, 160)


class TestBeamformedTaps:
    def test_same_beam_coupling_is_nonnegative_power(self, radio):
        # with w = f the per-path coupling is |a^H f|^2, so a single path
        # with unit amplitude yields taps whose phase comes from the path
        rng = np.random.default_rng(1)
        upa = UpaConfig(n_h=3, n_v=3)
        paths = random_paths(rng, 1, radio.sample_period_s)
        paths.amplitude[:] = 1.0
        f = np.exp(1j * rng.uniform(0, 2 * np.pi, 9))
        taps = beamformed_taps_batch(paths, f[None, :], upa, radio, 160)[0]
        peak = taps[np.argmax(np.abs(taps))]
        assert peak.real == pytest.approx(np.abs(peak), rel=1e-9)

    # Enough paths for two blocks, with delays spread over ~90 centre taps.
    N_PATHS = _BLOCK + 1500

    @pytest.mark.parametrize("slr", [0.0, 3.0])
    def test_factored_matches_contraction_and_dense(self, radio, slr):
        upa = UpaConfig(n_h=4, n_v=3)
        cb = design_codebook(upa, SceneView(), slr_delta_h=slr, slr_delta_v=slr)
        paths = random_paths(np.random.default_rng(3), self.N_PATHS, radio.sample_period_s)
        got = beamformed_taps_batch(paths, cb.axis_factors, upa, radio, 160)
        dense = beamformed_taps_batch(paths, cb.weights, upa, radio, 160)
        # Reference: the explicit w^H (a a^H) f contraction of criterion 9,
        # with w = f = each codebook row.
        idx, val = pulse_taps(paths.delay_s, 160, radio.sample_period_s, radio.rolloff)
        w = cb.weights
        ref = np.zeros((cb.m, 160), dtype=complex)
        for q in range(len(paths)):
            a = steering_vector(paths.theta_z[q], paths.theta_x[q], upa)
            coupling = np.einsum("mi,ij,mj->m", w.conj(), np.outer(a, a.conj()), w)
            ref[:, idx[q]] += paths.amplitude[q] * coupling[:, None] * val[q]
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.abs(got - dense).max() <= 1e-13 * scale

    @pytest.mark.parametrize("factored", [True, False])
    def test_path_order_does_not_matter(self, radio, factored):
        upa = UpaConfig(n_h=4, n_v=3)
        cb = design_codebook(upa, SceneView(), slr_delta_h=3.0, slr_delta_v=3.0)
        weights = cb.axis_factors if factored else cb.weights
        rng = np.random.default_rng(4)
        paths = random_paths(rng, self.N_PATHS, radio.sample_period_s)
        perm = rng.permutation(len(paths))
        shuffled = PathSet(
            delay_s=paths.delay_s[perm],
            amplitude=paths.amplitude[perm],
            theta_z=paths.theta_z[perm],
            theta_x=paths.theta_x[perm],
            range_m=paths.range_m[perm],
            specular=paths.specular[perm],
        )
        taps = beamformed_taps_batch(paths, weights, upa, radio, 160)
        again = beamformed_taps_batch(shuffled, weights, upa, radio, 160)
        assert np.abs(again - taps).max() <= 1e-13 * np.abs(taps).max()

    @pytest.mark.parametrize("factored", [True, False])
    @pytest.mark.parametrize("block", [1, 7, _BLOCK])
    def test_block_size_does_not_matter(self, radio, monkeypatch, factored, block):
        upa = UpaConfig(n_h=4, n_v=3)
        cb = design_codebook(upa, SceneView(), slr_delta_h=3.0, slr_delta_v=3.0)
        weights = cb.axis_factors if factored else cb.weights
        paths = random_paths(np.random.default_rng(6), 2 * _BLOCK + 300, radio.sample_period_s)
        want = beamformed_taps_batch(paths, weights, upa, radio, 160)
        monkeypatch.setattr(channel, "_BLOCK", block)
        got = beamformed_taps_batch(paths, weights, upa, radio, 160)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("slr", [0.0, 3.0])
    def test_series_coupling_at_full_size(self, radio, slr):
        # One unit-amplitude path per integer delay: p(0) = 1 exactly, so the
        # centre tap is the coupling, plus neighbours' pulse tails at nonzero
        # integer offsets, where p is zero up to ~1e-16 rounding.
        upa = UpaConfig()
        cb = design_codebook(upa, SceneView(), slr_delta_h=slr, slr_delta_v=slr)
        rng = np.random.default_rng(7)
        # Pattern nulls of the untapered beam 37 on both axes: its steering
        # cosine plus q / (n * spacing) for q = 1..n-1.
        m = 37
        k_null = np.arange(1, upa.n_v) / (upa.n_v * upa.spacing_wavelengths)
        cos_z = np.cos(cb.theta_z.ravel()[m]) + np.r_[k_null, -k_null]
        cos_x = np.cos(cb.theta_x.ravel()[m]) + np.r_[k_null, -k_null]
        cos_z, cos_x = cos_z[np.abs(cos_z) <= 1], cos_x[np.abs(cos_x) <= 1]
        null_z, null_x = (g.ravel() for g in np.meshgrid(np.arccos(cos_z), np.arccos(cos_x)))
        theta_z = np.r_[rng.uniform(0.0, np.pi, 200), cb.theta_z.ravel(), null_z]
        theta_x = np.r_[rng.uniform(0.0, np.pi, 200), cb.theta_x.ravel(), null_x]
        count = len(theta_z)
        paths = PathSet(
            delay_s=(PULSE_HALF_WIDTH + 1 + np.arange(count)) * radio.sample_period_s,
            amplitude=np.ones(count, dtype=complex),
            theta_z=theta_z,
            theta_x=theta_x,
            range_m=np.ones(count),
            specular=np.zeros(count, dtype=bool),
        )
        l_d = count + 2 * PULSE_HALF_WIDTH + 2
        taps = beamformed_taps_batch(paths, cb.axis_factors, upa, radio, l_d)
        got = taps[:, PULSE_HALF_WIDTH + 1 : PULSE_HALF_WIDTH + 1 + count]
        ref = np.abs(np.array([
            steering_vector(tz, tx, upa).conj() @ cb.weights.T for tz, tx in zip(theta_z, theta_x)
        ]).T) ** 2
        peak = ref.max()
        assert np.abs(got - ref).max() <= 1e-12 * peak
        # The series is not a modulus, so near the nulls it may dip below
        # zero, but only by rounding.
        assert got.real.min() >= -1e-12 * peak
        if slr == 0.0:
            assert np.abs(got[m, 200 + cb.m :]).max() <= 1e-12 * peak

    @pytest.mark.parametrize("case, match", [
        ("rows", r"\(256, 16\), \(1, 16\)"),
        ("width", r"\(256, 16\), \(256, 15\)"),
        ("dense", r"\(256, 255\)"),
    ])
    def test_mismatched_weights_are_rejected(self, radio, case, match):
        upa = UpaConfig()
        cb = design_codebook(upa, SceneView())
        b_v, b_h = cb.axis_factors
        weights = {
            "rows": (b_v, b_h[:1]),
            "width": (b_v, b_h[:, :-1]),
            "dense": cb.weights[:, :-1],
        }[case]
        # A path outside the tap window would raise too; the shape check comes first.
        paths = random_paths(np.random.default_rng(8), 3, radio.sample_period_s)
        paths.delay_s[0] = 1e-6
        with pytest.raises(ValueError, match=match):
            beamformed_taps_batch(paths, weights, upa, radio, 160)


class TestDelayWindow:
    def test_guard_extends_window(self):
        assert delay_window_length(50e-9, 0.5e-9, guard=16) == 116
        assert delay_window_length(50e-9, 0.5e-9, guard=64) == 164

    def test_rounds_up_fractional_bins(self):
        assert delay_window_length(50.2e-9, 0.5e-9, guard=0) == 101

    def test_negative_delay_rejected(self):
        assert delay_window_length(0.0, 0.5e-9, guard=16) == 16
        with pytest.raises(ValueError, match="max delay must be >= 0"):
            delay_window_length(-1e-12, 0.5e-9)
