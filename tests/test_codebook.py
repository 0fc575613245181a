"""Sensing codebook: focal-plane grid, steering algebra, tapers, quantization."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmdepth.codebook import (
    UpaConfig,
    SceneView,
    sensor_grid,
    grid_angles,
    axis_response,
    steering_vector,
    slr_weights,
    quantize_phases,
    beam_grid,
    design_codebook,
    radiation_pattern,
)


def grid_ray_error(view, n_bar_h, n_bar_v):
    """Worst relative mismatch between each design ray and its grid point.

    The design direction of a beam is (cos theta_x, u_y, cos theta_z) with
    u_y fixed by unit norm; extending that ray from the device to the
    y = F_L plane must land on the beam's own grid point.
    """
    pts = sensor_grid(view, n_bar_h, n_bar_v).reshape(-1, 3)
    tz, tx, _ = grid_angles(pts)
    ux = np.cos(tx)
    uz = np.cos(tz)
    uy = np.sqrt(1.0 - ux**2 - uz**2)
    hit = np.stack([ux, uy, uz], axis=-1) * (view.focal_length_m / uy)[:, None]
    scale = np.linalg.norm(pts, axis=1, keepdims=True)
    return float(np.max(np.abs(hit - pts) / scale))


class TestSensorGrid:
    def test_points_on_focal_plane(self):
        view = SceneView()
        pts = sensor_grid(view, 16, 16)
        assert pts.shape == (16, 16, 3)
        assert np.allclose(pts[..., 1], view.focal_length_m)

    @pytest.mark.parametrize("focal_length_m", [0.02, 1.0])
    def test_angles_do_not_depend_on_focal_length(self, focal_length_m, monkeypatch):
        # The sensor scales with F_L, so a constant F_L loses no setting.
        want = grid_angles(sensor_grid(SceneView(), 16, 9))
        monkeypatch.setattr(SceneView, "focal_length_m", focal_length_m)
        got = grid_angles(sensor_grid(SceneView(), 16, 9))
        for g, w in zip(got, want):
            assert np.allclose(g, w, rtol=1e-13, atol=0)

    def test_aspect_ratio_sets_vertical_span(self):
        view = SceneView(fov_deg=100.0, aspect_ratio=16 / 9)
        pts = sensor_grid(view, 16, 16)
        span_h = pts[..., 0].max() - pts[..., 0].min()
        span_v = pts[..., 2].max() - pts[..., 2].min()
        assert span_v == pytest.approx(span_h / (16 / 9), rel=1e-12)

    def test_grid_rays_match_points(self):
        view = SceneView(fov_deg=100.0, aspect_ratio=16 / 9)
        assert grid_ray_error(view, 16, 16) < 1e-9

    def test_oversampling_refines_the_same_plate(self):
        view = SceneView()
        coarse = sensor_grid(view, 16, 16)
        fine = sensor_grid(view, 32, 32)
        assert fine.shape == (32, 32, 3)
        span = lambda p: (p[..., 0].max() - p[..., 0].min())
        assert span(fine) > span(coarse)  # denser grid reaches closer to the rim

    def test_angles_consistent_with_depth_factor(self):
        view = SceneView()
        pts = sensor_grid(view, 16, 16).reshape(-1, 3)
        tz, tx, phi = grid_angles(pts)
        uy = np.sqrt(1.0 - np.cos(tx) ** 2 - np.cos(tz) ** 2)
        assert np.allclose(uy, np.sin(tz) * np.sin(phi), atol=1e-12)


class TestSteeringVector:
    def test_unit_modulus_and_length(self):
        upa = UpaConfig(n_h=4, n_v=4)
        a = steering_vector(1.1, 2.0, upa)
        assert a.shape == (16,)
        assert np.allclose(np.abs(a), 1.0)

    def test_separable_axis_structure(self):
        upa = UpaConfig(n_h=3, n_v=2)
        tz, tx = 1.3, 0.9
        a = steering_vector(tz, tx, upa)
        k_d = 2 * np.pi * upa.spacing_wavelengths
        b_v = np.exp(-1j * k_d * np.cos(tz) * np.arange(2))
        b_h = np.exp(-1j * k_d * np.cos(tx) * np.arange(3))
        assert np.allclose(a, np.kron(b_v, b_h))

    def test_axis_response_keeps_input_shape(self):
        cos = np.cos(np.linspace(0.3, 2.8, 12)).reshape(3, 4)
        grid = axis_response(cos, 5, 0.5)
        assert grid.shape == (3, 4, 5)
        assert axis_response(cos[0], 5, 0.5).shape == (4, 5)
        assert axis_response(cos[1, 2], 5, 0.5).shape == (5,)
        # Every entry is the same function of its own cosine, whatever the shape.
        assert np.array_equal(axis_response(cos[0], 5, 0.5), grid[0])
        assert np.array_equal(axis_response(cos[1, 2], 5, 0.5), grid[1, 2])
        assert np.array_equal(axis_response(cos.ravel(), 5, 0.5).reshape(3, 4, 5), grid)
        expect = np.exp(-1j * np.pi * cos[1, 2] * np.arange(5))
        assert np.allclose(grid[1, 2], expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 33, 64])
    @pytest.mark.parametrize("spacing", [0.5, 0.37])
    def test_axis_response_matches_the_exponential(self, n, spacing):
        # The powers of one exponential per angle against one exponential per element.
        cos = np.r_[-1.0, 0.0, 1.0, np.random.default_rng(n).uniform(-1.0, 1.0, 500)]
        got = axis_response(cos, n, spacing)
        direct = np.exp(-1j * 2 * np.pi * spacing * np.multiply.outer(cos, np.arange(n)))
        assert got.shape == (len(cos), n) and got.flags.c_contiguous
        assert np.abs(got - direct).max() <= 1e-13
        assert np.abs(np.abs(got) - 1.0).max() <= 1e-13
        assert np.all(got[:, 0] == 1.0)

    @settings(derandomize=True, max_examples=60)
    @given(st.floats(min_value=-1.0, max_value=1.0), st.integers(min_value=1, max_value=64))
    def test_axis_response_is_conjugate_symmetric_bit_for_bit(self, cos, n):
        # Mirror-symmetric beams and paths rely on exact conjugates.
        mirrored = axis_response(-cos, n, 0.5)
        assert np.array_equal(mirrored, axis_response(cos, n, 0.5).conj())
        grid = np.linspace(-1.0, 1.0, 201)
        assert np.array_equal(axis_response(-grid, n, 0.5), axis_response(grid, n, 0.5).conj())


class TestSlrWeights:
    def test_known_endpoint_value(self):
        # Gaussian taper for N = 16, delta = 4: w[0] = exp(-49/32).
        w = slr_weights(16, 4.0)
        assert w[0] == pytest.approx(np.exp(-49 / 32), rel=1e-12)

    def test_symmetric_about_center_element(self):
        # Center lands on element 8 of 16, so the last element is unpaired.
        w = slr_weights(16, 4.0)
        assert w[7] == pytest.approx(1.0)
        for k in range(1, 8):
            assert w[7 - k] == pytest.approx(w[7 + k], rel=1e-12)

    def test_zero_delta_is_uniform(self):
        assert np.allclose(slr_weights(8, 0.0), 1.0)


class TestQuantizePhases:
    def test_example_snap(self):
        v = np.array([np.exp(1j * 0.26 * np.pi)])
        q = quantize_phases(v, 2)
        assert np.angle(q[0]) == pytest.approx(np.pi / 2)

    def test_modulus_preserved(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        q = quantize_phases(v, 2)
        assert np.allclose(np.abs(q), np.abs(v))

    def test_midpoint_ties_take_smaller_phase(self):
        v = np.array([np.exp(1j * np.pi / 4)])  # exactly between 0 and pi/2
        q = quantize_phases(v, 2)
        assert np.angle(q[0]) == pytest.approx(0.0, abs=1e-12)

    @settings(derandomize=True, max_examples=50)
    @given(st.floats(min_value=-np.pi, max_value=np.pi), st.integers(1, 4))
    def test_phase_error_bounded(self, phase, bits):
        q = quantize_phases(np.array([np.exp(1j * phase)]), bits)
        err = np.angle(q[0] * np.exp(-1j * phase))
        assert abs(err) <= np.pi / 2**bits + 1e-12

    @settings(derandomize=True, max_examples=25)
    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    def test_idempotent(self, phase):
        v = np.array([np.exp(1j * phase)])
        once = quantize_phases(v, 2)
        assert np.allclose(quantize_phases(once, 2), once)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: sensor_grid(SceneView(), 0, 16), "grid dimensions must be positive"),
        (lambda: sensor_grid(SceneView(), 16, -1), "grid dimensions must be positive"),
        (lambda: slr_weights(0, 3.0), "n must be positive"),
        (lambda: slr_weights(16, -0.5), "delta must be >= 0"),
        (lambda: slr_weights(16, float("nan")), "delta must be >= 0"),
        # A negative taper used to be skipped silently, as if it were 0.
        (lambda: design_codebook(UpaConfig(n_h=4, n_v=4), SceneView(), slr_delta_h=-3.0), "delta must be >= 0"),
        (lambda: design_codebook(UpaConfig(n_h=4, n_v=4), SceneView(), slr_delta_v=-0.5), "delta must be >= 0"),
        (lambda: quantize_phases(np.ones(4, dtype=complex), 0), "bits must be >= 1"),
        (lambda: radiation_pattern(np.zeros(256, dtype=complex), UpaConfig(), 1.0, 1.0), "beam has zero pattern"),
    ],
)
def test_invalid_arguments_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestDesignCodebook:
    def test_beam_count_and_shapes(self):
        cb = design_codebook(UpaConfig(), SceneView())
        assert cb.m == 256
        assert cb.weights.shape == (256, 256)
        assert cb.theta_z.shape == (16, 16)
        assert cb.grid_points.shape == (16, 16, 3)

    def test_oversampling_multiplies_beams(self):
        cb = design_codebook(UpaConfig(), SceneView(os_h=2, os_v=2))
        assert cb.m == 1024
        assert cb.n_bar_h == 32 and cb.n_bar_v == 32

    def test_beam_grid_is_the_codebook_grid(self):
        # Rows follow the vertical axis, columns the horizontal one.
        upa, view = UpaConfig(n_h=4, n_v=2), SceneView(os_h=3, os_v=2)
        assert beam_grid(upa, view) == (4, 12)
        cb = design_codebook(upa, view)
        assert (cb.n_bar_v, cb.n_bar_h) == beam_grid(upa, view) == cb.theta_z.shape

    def test_combine_norm_for_ideal_weights(self):
        cb = design_codebook(UpaConfig(), SceneView())
        assert np.allclose(cb.combine_norm_sq, 256.0)

    def test_pattern_peaks_at_design_direction(self):
        upa = UpaConfig()
        cb = design_codebook(upa, SceneView())
        m = 100
        tz_design = cb.theta_z.reshape(-1)[m]
        tx_design = cb.theta_x.reshape(-1)[m]
        tz = np.linspace(0.3, np.pi - 0.3, 121)
        tx = np.full_like(tz, tx_design)
        pat = radiation_pattern(cb.weights[m], upa, tz, tx)
        assert abs(tz[np.argmax(pat)] - tz_design) <= (tz[1] - tz[0])

    def test_quantized_codebook_phase_set(self):
        cb = design_codebook(UpaConfig(), SceneView(), phase_bits=2)
        phases = np.angle(cb.weights)
        snapped = np.round(phases / (np.pi / 2)) * (np.pi / 2)
        residual = np.angle(np.exp(1j * (phases - snapped)))
        assert np.allclose(residual, 0.0, atol=1e-9)
        assert cb.axis_factors is None

    @pytest.mark.parametrize("slr_h, slr_v", [(0.0, 0.0), (2.5, 1.5)])
    def test_axis_factors_kron_to_weights(self, slr_h, slr_v):
        upa = UpaConfig(n_h=5, n_v=3)
        cb = design_codebook(upa, SceneView(), slr_delta_h=slr_h, slr_delta_v=slr_v)
        b_v, b_h = cb.axis_factors
        assert b_v.shape == (cb.m, upa.n_v) and b_h.shape == (cb.m, upa.n_h)
        kron = (b_v[:, :, None] * b_h[:, None, :]).reshape(cb.m, upa.n)
        assert np.array_equal(kron, cb.weights)

    @pytest.mark.parametrize("os_v, os_h", [(1, 1), (2, 2), (2, 1)])
    @pytest.mark.parametrize("n_h, n_v", [(3, 4), (5, 3), (16, 16)])
    @pytest.mark.parametrize("slr", [0.0, 3.0])
    @pytest.mark.parametrize("fov, aspect", [(100.0, 16.0 / 9.0), (73.0, 1.3)])
    def test_axis_factors_repeat_across_mirrors(self, os_v, os_h, n_h, n_v, slr, fov, aspect):
        # The sensor grid is sign-symmetric, so b_v repeats bit for bit
        # across the left-right mirror of the beam grid and b_h across the
        # up-down mirror: channel taps pattern only half of each axis.
        upa = UpaConfig(n_h=n_h, n_v=n_v)
        view = SceneView(fov_deg=fov, aspect_ratio=aspect, os_h=os_h, os_v=os_v)
        cb = design_codebook(upa, view, slr_delta_h=slr, slr_delta_v=slr)
        g_v, g_h = (f.reshape(cb.n_bar_v, cb.n_bar_h, -1) for f in cb.axis_factors)
        assert g_v.tobytes() == g_v[:, ::-1].tobytes()
        assert g_h.tobytes() == g_h[::-1].tobytes()
        assert design_codebook(upa, view, slr_delta_h=slr, slr_delta_v=slr, phase_bits=2).axis_factors is None

    @pytest.mark.parametrize("slr, phase_bits", [(0.0, None), (2.5, None), (2.5, 2)])
    def test_only_the_factors_are_held_and_weights_keep_their_bits(self, slr, phase_bits):
        upa = UpaConfig()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cb = design_codebook(upa, SceneView(), slr_delta_h=slr, slr_delta_v=slr, phase_bits=phase_bits)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # The dense weights, computed as design_codebook did when it stored them.
        b_v = axis_response(np.cos(cb.theta_z).reshape(-1), upa.n_v, upa.spacing_wavelengths)
        b_h = axis_response(np.cos(cb.theta_x).reshape(-1), upa.n_h, upa.spacing_wavelengths)
        if slr:
            b_v = b_v * slr_weights(upa.n_v, slr)[None, :]
            b_h = b_h * slr_weights(upa.n_h, slr)[None, :]
        want = (b_v[:, :, None] * b_h[:, None, :]).reshape(-1, upa.n)
        if phase_bits is None:
            # 256 x 256 complex weights are 1 MiB; the factors are 2 x 64 KiB.
            assert held < 0.25 * 2**20
            assert "weights" not in vars(cb) and cb.dense is None
            assert cb.axis_factors[0].tobytes() == b_v.tobytes() and cb.axis_factors[1].tobytes() == b_h.tobytes()
        else:
            want = quantize_phases(want, phase_bits)
            assert cb.axis_factors is None and cb.dense.tobytes() == want.tobytes()
        weights = cb.weights
        assert weights.tobytes() == want.tobytes() and weights.shape == (cb.m, upa.n)
        assert cb.weights is weights  # formed once, then kept
        assert cb.combine_norm_sq.tobytes() == np.sum(np.abs(weights) ** 2, axis=1).tobytes()

    def test_codebooks_compare_by_identity(self):
        # Field-wise equality would compare arrays, whose truth value is ambiguous.
        cb, other = design_codebook(UpaConfig(), SceneView()), design_codebook(UpaConfig(), SceneView())
        assert cb == cb
        assert (cb == other) is False and cb != other
