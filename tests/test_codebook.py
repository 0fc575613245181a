"""Sensing codebook: focal-plane grid, steering algebra, tapers, quantization."""
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
    design_codebook,
    radiation_pattern,
    beam_index,
    beam_vh,
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

    def test_beam_index_roundtrip(self):
        cb = design_codebook(UpaConfig(), SceneView())
        for m in (0, 17, 255):
            v, h = beam_vh(m, cb.n_bar_h)
            assert beam_index(v, h, cb.n_bar_h) == m
