"""Radio link pieces: budgets, pulses, and beamformed channel taps."""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import constants

from mmdepth import channel
from mmdepth.channel import (
    _BLOCK,
    _LIMIT_BAND,
    _PULSE_OFFSETS,
    _power_series,
    _pulse_centers,
    BOLTZMANN,
    SPEED_OF_LIGHT,
    RadioConfig,
    noise_variance,
    path_gain,
    raised_cosine,
    pulse_taps,
    pulse_window,
    beamformed_taps_batch,
    delay_window_length,
    PULSE_HALF_WIDTH,
)
from mmdepth.codebook import SceneView, UpaConfig, axis_response, design_codebook, steering_vector
from mmdepth.scene import PathSet, build_scene, trace_backscatter_paths


def random_paths(rng, count, ts):
    return PathSet(
        delay_s=rng.uniform(10, 100, count) * ts,
        amplitude=(rng.normal(size=count) + 1j * rng.normal(size=count)) * 1e-6,
        theta_z=rng.uniform(0.3, np.pi - 0.3, count),
        theta_x=rng.uniform(0.3, np.pi - 0.3, count),
        range_m=np.ones(count),
        specular=np.zeros(count, dtype=bool),
    )


def factor_grids(cb):
    """A codebook's axis factors as (n_bar_v, n_bar_h, n) beam grids, as the pipeline passes them."""
    return tuple(f.reshape(cb.n_bar_v, cb.n_bar_h, -1) for f in cb.axis_factors)


def reference_beamformed_taps(paths, weights, upa, radio, l_d):
    """
    Taps with each block's coupling formed whole: both axis patterns for all
    M beams of (M, n) factors, or |w^H a|^2 for a dense (M, N) matrix.
    """
    ts = radio.sample_period_s
    center = _pulse_centers(paths.delay_s, l_d, ts)
    order = np.argsort(center, kind="stable")
    amplitude = paths.amplitude.astype(complex, copy=False)
    factored = isinstance(weights, tuple)
    if factored:
        w_v, w_h = (_power_series(f.conj()) for f in weights)
    taps = np.zeros((len(weights[0]) if factored else len(weights), l_d), dtype=complex)
    acc = taps.view(float)
    width = 2 * (2 * PULSE_HALF_WIDTH + 1)
    for start in range(0, len(order), channel._BLOCK):
        sel = order[start : start + channel._BLOCK]
        c_blk = center[sel]
        val = pulse_window(c_blk - paths.delay_s[sel] / ts, radio.rolloff)
        shaped = (amplitude[sel][:, None] * val).view(float)
        b_v = axis_response(np.cos(paths.theta_z[sel]), upa.n_v, upa.spacing_wavelengths)
        b_h = axis_response(np.cos(paths.theta_x[sel]), upa.n_h, upa.spacing_wavelengths)
        if factored:
            cpl = w_v @ b_v.view(float).T
            cpl *= w_h @ b_h.view(float).T
        else:
            a = (b_v[:, :, None] * b_h[:, None, :]).reshape(len(sel), -1)
            cpl = np.abs(weights.conj() @ a.T) ** 2
        bounds = np.flatnonzero(np.diff(c_blk)) + 1
        for lo, hi in zip(np.r_[0, bounds], np.r_[bounds, len(sel)]):
            col = 2 * (c_blk[lo] - PULSE_HALF_WIDTH)
            acc[:, col : col + width] += cpl[:, lo:hi] @ shaped[lo:hi]
    return taps


def paths_on_taps(rng, centers, ts):
    """Random paths whose pulse-centre taps are the given integers."""
    paths = random_paths(rng, len(centers), ts)
    return dataclasses.replace(paths, delay_s=(centers + rng.uniform(-0.45, 0.45, len(centers))) * ts)


def longest_run(centers):
    """The longest run of equal sorted centre taps, cut at the _BLOCK edges."""
    c = np.sort(centers)
    starts = np.union1d(np.flatnonzero(np.diff(c)) + 1, np.arange(0, len(c), _BLOCK))
    return np.diff(np.r_[starts, len(c)]).max()


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
        gains = path_gain(sigma, rho, 4.99e-3)
        loop = np.array([path_gain(s, r, 4.99e-3) for s, r in zip(sigma, rho)])
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

    def test_tiny_rolloff_is_the_sinc_and_warns_nothing(self):
        # Below rolloff ~2.8e-309, 1/(2 beta) overflows to inf: no sample is
        # singular, and the limit sinc(inf) = NaN must not be evaluated.
        t = np.linspace(-7.5, 7.5, 61)
        e = np.array([0.0, 0.3, -0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(raised_cosine(np.array([0.0]), 1.0, 2.2e-309), [1.0])
            assert np.array_equal(raised_cosine(t, 1.0, 2.2e-309), np.sinc(t))
            assert np.array_equal(pulse_window(e, 1e-310), pulse_window(e, 0.0))

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


def singular_offsets(rolloff):
    """Offsets e, |e| <= 1/2, that put a window tap k + e on |u| = 1/(2 beta)."""
    if rolloff == 0.0:
        return np.array([])
    half = 0.5 / rolloff
    marks = np.r_[half - _PULSE_OFFSETS, -half - _PULSE_OFFSETS]
    return np.unique(marks[np.abs(marks) <= 0.5])


class TestPulseWindow:
    @pytest.mark.parametrize("ts", [0.5e-9, 1.0])
    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.5, 1.0])
    def test_pulse_taps_match_the_definition(self, rolloff, ts):
        offsets = np.r_[0.0, 1e-13, -1e-13, 0.5, -0.5, singular_offsets(rolloff)]
        offsets = np.r_[offsets, np.random.default_rng(9).uniform(-0.5, 0.5, 200)]
        delays = (40 + np.arange(len(offsets)) - offsets) * ts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, val = pulse_taps(delays, 300 + len(offsets), ts, rolloff)
            ref = raised_cosine(idx * ts - delays[:, None], ts, rolloff)
        assert np.abs(val - ref).max() <= 1e-13
        # At u = 0 and at the singular points the values are the reference's own.
        u = idx - delays[:, None] / ts
        assert np.array_equal(val[np.abs(u) <= 1e-12], ref[np.abs(u) <= 1e-12])
        if rolloff:
            on = np.abs(np.abs(u) - 0.5 / rolloff) <= 1e-12
            assert on.sum() >= len(singular_offsets(rolloff))
            limit = (np.pi / 4.0) * np.sinc(0.5 / rolloff)
            assert np.all(val[on] == limit) and np.all(ref[on] == limit)

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 0.5, 1.0])
    def test_rows_near_u_zero_and_singular_points_are_the_reference(self, rolloff):
        centres = np.r_[0.0, singular_offsets(rolloff)]
        e = np.clip((centres[:, None] + [0.0, 1e-13, -1e-13, 0.9 * _LIMIT_BAND, -0.9 * _LIMIT_BAND]).ravel(), -0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = pulse_window(e, rolloff)
        assert np.array_equal(got, raised_cosine(e[:, None] + _PULSE_OFFSETS, 1.0, rolloff))
        assert pulse_window(np.zeros(1), rolloff)[0, PULSE_HALF_WIDTH] == 1.0

    @settings(derandomize=True, max_examples=200)
    @given(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1.0)),
        st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=8),
    )
    def test_agrees_with_raised_cosine_everywhere(self, rolloff, offsets):
        e = np.array(offsets)
        got = pulse_window(e, rolloff)
        assert got.shape == (len(e), len(_PULSE_OFFSETS)) and got.flags.c_contiguous
        assert np.abs(got - raised_cosine(e[:, None] + _PULSE_OFFSETS, 1.0, rolloff)).max() <= 1e-13


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
        got = beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160)
        dense = beamformed_taps_batch(paths, cb.weights, upa, radio, 160)
        # Reference: the explicit w^H (a a^H) f contraction of criterion 9,
        # with w = f = each codebook row, from the definitions: the pulse from
        # raised_cosine and the steering vector from one exponential per element.
        ts = radio.sample_period_s
        idx = np.round(paths.delay_s / ts).astype(int)[:, None] + _PULSE_OFFSETS
        val = raised_cosine(idx * ts - paths.delay_s[:, None], ts, radio.rolloff)
        k_d = 2 * np.pi * upa.spacing_wavelengths
        w = cb.weights
        ref = np.zeros((cb.m, 160), dtype=complex)
        for q in range(len(paths)):
            a = np.kron(
                np.exp(-1j * k_d * np.cos(paths.theta_z[q]) * np.arange(upa.n_v)),
                np.exp(-1j * k_d * np.cos(paths.theta_x[q]) * np.arange(upa.n_h)),
            )
            coupling = np.einsum("mi,ij,mj->m", w.conj(), np.outer(a, a.conj()), w)
            ref[:, idx[q]] += paths.amplitude[q] * coupling[:, None] * val[q]
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert np.abs(got - dense).max() <= 1e-13 * scale

    @pytest.mark.parametrize("factored", [True, False])
    def test_path_order_does_not_matter(self, radio, factored):
        upa = UpaConfig(n_h=4, n_v=3)
        cb = design_codebook(upa, SceneView(), slr_delta_h=3.0, slr_delta_v=3.0)
        weights = factor_grids(cb) if factored else cb.weights
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
        weights = factor_grids(cb) if factored else cb.weights
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
        taps = beamformed_taps_batch(paths, factor_grids(cb), upa, radio, l_d)
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
        ("grid rows", r"\(16, 16, 16\), \(8, 16, 16\)"),
        ("grid width", r"\(16, 16, 16\), \(16, 16, 15\)"),
        ("grid vs pair", r"\(16, 16, 16\), \(256, 16\)"),
        ("flat", r"\(4096,\), \(4096,\)"),
        ("dense", r"\(256, 255\)"),
        ("dense grid", r"\(16, 16, 256\)"),
    ])
    def test_mismatched_weights_are_rejected(self, radio, case, match):
        upa = UpaConfig()
        cb = design_codebook(upa, SceneView())
        b_v, b_h = cb.axis_factors
        g_v, g_h = factor_grids(cb)
        weights = {
            "rows": (b_v, b_h[:1]),
            "width": (b_v, b_h[:, :-1]),
            "grid rows": (g_v, g_h[:8]),
            "grid width": (g_v, g_h[..., :-1]),
            "grid vs pair": (g_v, b_h),
            "flat": (b_v.ravel(), b_h.ravel()),
            "dense": cb.weights[:, :-1],
            "dense grid": cb.weights.reshape(16, 16, -1),
        }[case]
        # A path outside the tap window would raise too; the shape check comes first.
        paths = random_paths(np.random.default_rng(8), 3, radio.sample_period_s)
        paths.delay_s[0] = 1e-6
        with pytest.raises(ValueError, match=match):
            beamformed_taps_batch(paths, weights, upa, radio, 160)


class TestSharedAxisPatterns:
    """Mirrored beams of a factor grid share their axis patterns."""

    @pytest.mark.parametrize("os", [1, 2])
    def test_bit_equal_to_all_beam_patterns(self, radio, os):
        # Full blocks: each pattern product then has the shape the all-beams
        # coupling gives it, up to its row count.
        upa = UpaConfig()
        cb = design_codebook(upa, SceneView(os_h=os, os_v=os))
        paths = random_paths(np.random.default_rng(9), 2 * _BLOCK, radio.sample_period_s)
        got = beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160)
        assert np.array_equal(got, reference_beamformed_taps(paths, cb.axis_factors, upa, radio, 160))

    @pytest.mark.parametrize("n_v, n_h, os_h, slr", [
        (3, 4, 1, 0.0), (6, 5, 1, 3.0), (16, 16, 2, 0.0), (5, 3, 1, 3.0),
    ])
    def test_matches_all_beam_patterns(self, radio, n_v, n_h, os_h, slr):
        upa = UpaConfig(n_h=n_h, n_v=n_v)
        cb = design_codebook(upa, SceneView(os_h=os_h), slr_delta_h=slr, slr_delta_v=slr)
        paths = random_paths(np.random.default_rng(10), _BLOCK + 1500, radio.sample_period_s)
        want = reference_beamformed_taps(paths, cb.axis_factors, upa, radio, 160)
        scale = np.abs(want).max()
        assert np.abs(beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160) - want).max() <= 1e-13 * scale
        # An (M, n) pair is a one-column grid: no sharing, same taps.
        assert np.abs(beamformed_taps_batch(paths, cb.axis_factors, upa, radio, 160) - want).max() <= 1e-13 * scale

    def test_asymmetric_grid_is_patterned_whole(self, radio):
        upa = UpaConfig(n_h=3, n_v=2)
        rng = np.random.default_rng(11)
        g_v, g_h = (np.exp(2j * np.pi * rng.uniform(size=(4, 5, n))) for n in (upa.n_v, upa.n_h))
        # Symmetric on one axis only: b_v mirrors left-right, b_h does not mirror up-down.
        g_v = np.concatenate([g_v[:, :3], g_v[:, 1::-1]], axis=1)
        assert channel._mirror_split(g_v, 1) == 3 and channel._mirror_split(g_h, 0) == 4
        # Full blocks of short runs, so that the coupling is formed in chunks.
        paths = random_paths(rng, 2 * _BLOCK, radio.sample_period_s)
        assert longest_run(_pulse_centers(paths.delay_s, 160, radio.sample_period_s)) < 100
        want = reference_beamformed_taps(paths, (g_v.reshape(20, -1), g_h.reshape(20, -1)), upa, radio, 160)
        got = beamformed_taps_batch(paths, (g_v, g_h), upa, radio, 160)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_v, n_h, os_v, os_h", [(3, 4, 1, 1), (6, 5, 1, 1), (16, 16, 1, 2), (3, 4, 3, 1)])
    def test_pattern_rows_per_block(self, radio, monkeypatch, n_v, n_h, os_v, os_h):
        # V * ceil(H/2) rows of b_v patterns and ceil(V/2) * H of b_h, not 2M.
        upa = UpaConfig(n_h=n_h, n_v=n_v)
        cb = design_codebook(upa, SceneView(os_h=os_h, os_v=os_v))
        rows, series = [], channel._power_series

        def count(f):
            rows.append(len(f))
            return series(f)

        monkeypatch.setattr(channel, "_power_series", count)
        paths = random_paths(np.random.default_rng(12), 5, radio.sample_period_s)
        beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160)
        v, h = cb.n_bar_v, cb.n_bar_h
        assert rows == [v * -(-h // 2), -(-v // 2) * h]


class TestRunChunks:
    """
    With factors, the coupling buffer holds the longest run of equal centre
    taps (cut at block edges), and each chunk of whole runs that fits is
    coupled at once: the taps keep every bit of whole-block coupling. The
    cases are whole blocks, as in test_bit_equal_to_all_beam_patterns: a
    partial block's pattern product may round differently from the
    reference's, chunks or not.
    """

    @pytest.fixture(scope="class")
    def upa(self):
        return UpaConfig()

    @pytest.fixture(scope="class")
    def cb(self, upa):
        return design_codebook(upa, SceneView())

    def test_one_run_longer_than_a_block(self, radio, upa, cb):
        # 1500 paths on tap 40, cut at the first block edge, then short runs.
        rng = np.random.default_rng(13)
        centers = np.r_[np.full(1500, 40), rng.integers(41, 150, 2 * _BLOCK - 1500)]
        assert channel._longest_run(centers) == longest_run(centers) == _BLOCK
        paths = paths_on_taps(rng, rng.permutation(centers), radio.sample_period_s)
        got = beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160)
        assert np.array_equal(got, reference_beamformed_taps(paths, cb.axis_factors, upa, radio, 160))

    def test_runs_that_fill_the_buffer_next_to_single_paths(self, radio, upa, cb):
        # Greedy chunks of 50: [50], [1, 49], [1, 1, 48], [50], [1], ... and
        # the block edges cut some runs short.
        lengths = [50, 1, 49, 1, 1, 48, 50, 1] * 11
        centers = np.repeat(10 + np.arange(len(lengths)), lengths)[: 2 * _BLOCK]
        assert channel._longest_run(centers) == longest_run(centers) == 50
        rng = np.random.default_rng(14)
        paths = paths_on_taps(rng, rng.permutation(centers), radio.sample_period_s)
        got = beamformed_taps_batch(paths, factor_grids(cb), upa, radio, 160)
        assert np.array_equal(got, reference_beamformed_taps(paths, cb.axis_factors, upa, radio, 160))
        # The dense matrix couples each block whole, as before.
        dense = beamformed_taps_batch(paths, cb.weights, upa, radio, 160)
        assert np.array_equal(dense, reference_beamformed_taps(paths, cb.weights, upa, radio, 160))

    def test_heap_holds_the_longest_run_not_a_block(self, radio, upa, cb):
        # two_walls: 39 runs cut at block edges, the longest 230 paths. A
        # coupling buffer of a whole block held M x _BLOCK floats, 2 MiB.
        paths = trace_backscatter_paths(build_scene({"builtin": "two_walls"}, cb.view), radio.wavelength_m, 0.05, 0)
        ts = radio.sample_period_s
        l_d = delay_window_length(paths.max_delay_s, ts, guard=64)
        centers = _pulse_centers(paths.delay_s, l_d, ts)
        longest = longest_run(centers)
        assert longest < _BLOCK // 4
        # The same paths on one centre tap: every block is one run, and the
        # buffer must hold a whole block, as it did for any paths before.
        one_tap = dataclasses.replace(paths, delay_s=np.full(len(paths), (centers.min() + 0.25) * ts))
        peaks = []
        for p in (paths, one_tap):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                beamformed_taps_batch(p, factor_grids(cb), upa, radio, l_d)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] > 0.8 * cb.m * (_BLOCK - longest) * 8


class TestDelayWindow:
    def test_guard_extends_window(self):
        assert delay_window_length(50e-9, 0.5e-9, guard=16) == 116
        assert delay_window_length(50e-9, 0.5e-9, guard=64) == 164

    def test_rounds_up_fractional_bins(self):
        assert delay_window_length(50.2e-9, 0.5e-9, guard=0) == 101

    def test_negative_delay_rejected(self):
        assert delay_window_length(0.0, 0.5e-9, guard=16) == 16
        with pytest.raises(ValueError, match="max delay must be >= 0"):
            delay_window_length(-1e-12, 0.5e-9, guard=16)
