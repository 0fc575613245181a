"""Scene geometry: ray-cast truth maps and the diffuse backscatter tracer."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.transform import Rotation

from mmdepth import scene as scene_module
from mmdepth.channel import RadioConfig, path_gain
from mmdepth.codebook import SceneView, sensor_grid
from mmdepth.scene import (
    BACKSCATTER_GAIN,
    BUILTIN_SCENES,
    MATERIALS,
    Material,
    PathSet,
    PlanarFacet,
    DevicePose,
    Scene,
    _facet_window,
    _ray_quad,
    _subdivide,
    _visible_rows,
    build_scene,
    ground_truth_maps,
    trace_backscatter_paths,
    scene_from_dict,
    scene_to_dict,
    save_scene,
    load_scene,
)

C = 299792458.0


def facing_wall(distance, half_w, half_h, material=None):
    """Rectangle at y = distance, centered on boresight, facing the device."""
    verts = np.array(
        [
            [-half_w, distance, -half_h],
            [half_w, distance, -half_h],
            [half_w, distance, half_h],
            [-half_w, distance, half_h],
        ]
    )
    return PlanarFacet(
        vertices=verts,
        material=material or MATERIALS["concrete"],
    )


def wall_scene(distance=7.0, span=12.0, **kwargs):
    wall = facing_wall(distance, span, span, **kwargs)
    return Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))


def reference_subdivide(facet, cell_size_m):
    """Cells from an (n_u * n_w, 1) meshgrid of (u, w), with both tangents formed per cell."""
    v = facet.vertices
    n_u = max(1, int(np.ceil(np.linalg.norm(v[1] - v[0]) / cell_size_m)))
    n_w = max(1, int(np.ceil(np.linalg.norm(v[3] - v[0]) / cell_size_m)))
    uu, ww = np.meshgrid((np.arange(n_u) + 0.5) / n_u, (np.arange(n_w) + 0.5) / n_w, indexing="ij")
    uu, ww = uu.reshape(-1, 1), ww.reshape(-1, 1)
    centers = (1 - uu) * (1 - ww) * v[0] + uu * (1 - ww) * v[1] + uu * ww * v[2] + (1 - uu) * ww * v[3]
    du = (1 - ww) * (v[1] - v[0]) + ww * (v[2] - v[3])
    dw = (1 - uu) * (v[3] - v[0]) + uu * (v[2] - v[1])
    return centers, np.linalg.norm(np.cross(du, dw), axis=1) / (n_u * n_w)


def reference_ray_quad(origin, dirs, facet):
    """Inside test on explicit hit points: cross(edge, p - v_i) . n >= -1e-12."""
    v = facet.vertices
    n = facet.normal
    denom = dirs @ n
    offset = np.dot(v[0] - origin, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(np.abs(denom) > 1e-15, offset / denom, -1.0)
    pts = origin + t[..., None] * dirs
    inside = np.ones(t.shape, dtype=bool)
    for i in range(4):
        edge = v[(i + 1) % 4] - v[i]
        side = np.cross(edge, pts - v[i]) @ n
        inside &= side >= -1e-12
    return np.where((t > 1e-12) & inside, t, np.inf)


# A convex, non-rectangular quad in its own plane coordinates, wound
# counter-clockwise, placed in space by a rotation and an offset.
QUAD_2D = np.array([[0.0, 0.0], [2.0, 0.3], [1.6, 1.8], [-0.4, 1.2]])
QUAD_AXES = Rotation.from_euler("zyx", [25.0, -35.0, 15.0], degrees=True).as_matrix()[:, [0, 2]]
QUAD_OFFSET = np.array([-0.7, 3.0, -0.4])
DEVICE = np.array([0.2, -0.5, 0.3])


def reference_visible(scene, targets, skip_facet):
    """Occlusion as one test per facet: no other facet is hit before the target."""
    origin = scene.device.position
    delta = targets - origin
    dist = np.linalg.norm(delta, axis=1)
    dirs = delta / dist[:, None]
    vis = np.ones(len(targets), dtype=bool)
    for j, facet in enumerate(scene.facets):
        if j == skip_facet:
            continue
        t = _ray_quad(origin, dirs, facet)
        vis &= ~(t < dist - 1e-9)
    return vis


def reference_first_hit(scene, dirs, skip_facet=None):
    """The all-facet cast: every ray (N, 3) against every facet."""
    t_best = np.full(dirs.shape[0], np.inf)
    for j, facet in enumerate(scene.facets):
        if j != skip_facet:
            t_best = np.minimum(t_best, _ray_quad(scene.device.position, dirs, facet))
    return t_best


def reference_truth_maps(scene, view, resolution):
    """ground_truth_maps with every sensor ray tested against every facet."""
    rows, cols = resolution
    pts = sensor_grid(view, cols, rows).reshape(-1, 3)
    dirs_dev = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    t = reference_first_hit(scene, scene.device.to_world(dirs_dev))
    depth = np.where(np.isfinite(t), t * dirs_dev[:, 1], np.inf)
    return t.reshape(rows, cols), depth.reshape(rows, cols)


def assert_truth_matches_reference(scene, view, resolution):
    got = ground_truth_maps(scene, view, resolution)
    ref = reference_truth_maps(scene, view, resolution)
    assert np.array_equal(got[0], ref[0]), "range"
    assert np.array_equal(got[1], ref[1]), "depth"
    return ref


def to_world(q):
    return QUAD_OFFSET + q @ QUAD_AXES.T


def quad_targets(rng):
    """Plane points that must hit (interior, edges, corners, 1e-9 m in) and miss (1e-9 m out)."""
    hits = [QUAD_2D, rng.dirichlet(np.ones(4), size=200) @ QUAD_2D]
    misses = []
    s = np.linspace(0.0, 1.0, 21)[:, None]
    for i in range(4):
        a, b = QUAD_2D[i], QUAD_2D[(i + 1) % 4]
        hits.append(a + s * (b - a))
        edge = b - a
        outward = np.array([edge[1], -edge[0]]) / np.linalg.norm(edge)
        mid = a + s[1:-1] * (b - a)
        hits.append(mid - 1e-9 * outward)
        misses.append(mid + 1e-9 * outward)
    return to_world(np.concatenate(hits)), to_world(np.concatenate(misses))


class TestRayQuad:
    @pytest.mark.parametrize("winding", [1, -1])
    def test_matches_cross_product_reference(self, winding):
        facet = PlanarFacet(vertices=to_world(QUAD_2D)[::winding], material=MATERIALS["wood"])
        hits, misses = quad_targets(np.random.default_rng(4))
        for targets, expect_hit in ((hits, True), (misses, False)):
            delta = targets - DEVICE
            dist = np.linalg.norm(delta, axis=1)
            dirs = delta / dist[:, None]
            t = _ray_quad(DEVICE, dirs, facet)
            assert np.array_equal(t, reference_ray_quad(DEVICE, dirs, facet))
            assert np.all(np.isfinite(t) == expect_hit)
            # rays pointing away from the plane miss
            assert np.all(np.isinf(_ray_quad(DEVICE, -dirs, facet)))
            if expect_hit:
                assert np.allclose(t, dist, rtol=1e-12)

    def test_facet_is_frozen_and_edge_normals_point_inward(self):
        verts = to_world(QUAD_2D)
        facet = PlanarFacet(vertices=verts, material=MATERIALS["wood"])
        with pytest.raises(dataclasses.FrozenInstanceError):
            facet.vertices = verts + 1.0
        with pytest.raises(ValueError):
            facet.vertices[0, 0] = 5.0
        verts[0, 0] = 5.0  # the caller's array was copied
        assert facet.vertices[0, 0] != 5.0
        inward = (facet.vertices.mean(axis=0) - facet.vertices) * facet.edge_normals
        assert np.all(inward.sum(axis=1) > 0)
        assert np.allclose(facet.edge_normals @ facet.normal, 0.0, atol=1e-15)


class TestMaterials:
    def test_scatter_ratio_table(self):
        expected = {
            "concrete": 0.40,
            "ceilingboard": 0.30,
            "wood": 0.15,
            "floorboard": 0.15,
            "drywall": 0.10,
            "glass": 0.00,
        }
        for name, ratio in expected.items():
            assert MATERIALS[name].scatter_ratio == pytest.approx(ratio)


class TestGroundTruth:
    def test_center_and_edge_ranges(self):
        view = SceneView(fov_deg=100.0, aspect_ratio=16 / 9)
        rng_map, dep_map = ground_truth_maps(wall_scene(7.0), view, (17, 17))
        # center pixel looks straight down boresight
        assert rng_map[8, 8] == pytest.approx(7.0, rel=1e-9)
        assert dep_map[8, 8] == pytest.approx(7.0, rel=1e-9)
        # horizontal FoV edge pixel: the edge ray of a 100 degree FoV
        mid = rng_map[8, 0]
        assert mid <= 7.0 / np.cos(np.radians(50.0)) + 1e-9
        assert mid > 7.0

    def test_depth_is_boresight_component(self):
        view = SceneView()
        rng_map, dep_map = ground_truth_maps(wall_scene(5.0), view, (9, 9))
        assert np.allclose(dep_map, 5.0, atol=1e-9)  # flat facing wall
        assert np.all(rng_map >= dep_map - 1e-12)

    def test_mirror_symmetry(self):
        view = SceneView()
        rng_map, _ = ground_truth_maps(wall_scene(6.0), view, (16, 16))
        assert np.allclose(rng_map, rng_map[:, ::-1], rtol=1e-9)
        assert np.allclose(rng_map, rng_map[::-1, :], rtol=1e-9)

    def test_miss_is_inf(self):
        view = SceneView()
        scene = wall_scene(4.0, span=0.5)  # small plate far inside the FoV
        rng_map, dep_map = ground_truth_maps(scene, view, (16, 16))
        assert np.isinf(rng_map[0, 0])
        assert np.isinf(dep_map[0, 0])
        assert np.isfinite(rng_map[8, 8])

    def test_display_cast_keeps_one_copy_of_the_rays(self):
        # At 720 x 1280 each (rows * cols, 3) direction array is 21 MiB;
        # holding the sensor points and the device- and world-frame rays at
        # once took the cast to 85 MiB.
        view = SceneView()
        scene = build_scene({"builtin": "pillar_room"}, view)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ground_truth_maps(scene, view, (720, 1280))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_display_cast_works_a_band_at_a_time(self):
        # The two 7 MiB maps plus one band of rays and facet-pass temporaries;
        # normalising and rotating the whole (rows * cols, 3) grid at once
        # peaked at 56 MiB.
        view = SceneView()
        scene = build_scene({"builtin": "pillar_room"}, view)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ground_truth_maps(scene, view, (720, 1280))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 44 * 2**20


class TestCulledTruth:
    """The per-facet image windows give the all-facet cast's maps exactly."""

    @pytest.mark.parametrize("name", ["one_wall", "two_walls", "pillar_room"])
    @pytest.mark.parametrize("resolution", [(9, 16), (17, 17), (144, 256)])
    def test_builtins(self, name, resolution):
        view = SceneView()
        scene = build_scene({"builtin": name}, view)
        assert_truth_matches_reference(scene, view, resolution)
        # Every builtin facet is far enough from the device to be windowed.
        assert all(
            _facet_window(scene, f, view, *resolution) != (slice(None), slice(None))
            for f in scene.facets
        )

    def test_pillar_room_display(self):
        view = SceneView()
        scene = build_scene({"builtin": "pillar_room"}, view)
        windows = [_facet_window(scene, f, view, 720, 1280) for f in scene.facets]
        rays = sum(np.empty((720, 1280))[w].size for w in windows)
        assert rays < 0.3 * 720 * 1280 * len(scene.facets)  # 1.67M of 12.0M
        assert_truth_matches_reference(scene, view, (720, 1280))

    @staticmethod
    def room(*facets):
        back = facing_wall(4.0, 6.0, 4.0)  # behind everything, so every map has hits
        return Scene(facets=[back, *facets], device=DevicePose(position=np.zeros(3)))

    def test_facet_straddling_the_device_plane(self):
        view = SceneView()
        floor = PlanarFacet([[-1, -2, -1], [1, -2, -1], [1, 3, -1], [-1, 3, -1]], MATERIALS["wood"])
        # A vertex in the device plane straight below the device: its image
        # is only defined once the near plane cuts it off.
        kite = PlanarFacet([[0, 0, -0.5], [1, 1, -0.5], [0, 2, -0.5], [-1, 1, -0.5]], MATERIALS["wood"])
        for facet in (floor, kite):
            scene = self.room(facet)
            window = _facet_window(scene, facet, view, 9, 16)
            assert window is not None and window != (slice(None), slice(None))
            rng_map, _ = assert_truth_matches_reference(scene, view, (9, 16))
            assert np.any(rng_map < 4.0)  # the facet is in the maps

    def test_facet_behind_the_device(self):
        view = SceneView()
        behind = facing_wall(-1.0, 3.0, 3.0)
        scene = self.room(behind)
        assert _facet_window(scene, behind, view, 9, 16) is None
        assert_truth_matches_reference(scene, view, (9, 16))

    def test_facet_within_a_millimetre_takes_all_rays(self):
        view = SceneView()
        # Side wall in the plane x = 0.5 mm: the rightmost rays hit it
        # before the near plane, so it cannot be windowed.
        side = PlanarFacet(
            [[5e-4, -1, -1], [5e-4, 4, -1], [5e-4, 4, 1], [5e-4, -1, 1]], MATERIALS["wood"]
        )
        scene = self.room(side)
        assert _facet_window(scene, side, view, 9, 16) == (slice(None), slice(None))
        rng_map, _ = assert_truth_matches_reference(scene, view, (9, 16))
        assert np.any(rng_map < 1e-3)

    def test_edge_inside_ray_quad_slack(self):
        # The wall's left edge lies 1e-13 m right of column k's rays, which
        # _ray_quad's edge slack still counts as hits; the one-pixel margin
        # keeps them in the window.
        view = SceneView()
        rows, cols, k, depth = 9, 16, 5, 3.0
        x_k = sensor_grid(view, cols, rows)[0, k, 0]
        x0 = x_k * depth / view.focal_length_m + 1e-13
        wall = PlanarFacet(
            [[x0, depth, -1], [x0 + 1, depth, -1], [x0 + 1, depth, 1], [x0, depth, 1]],
            MATERIALS["concrete"],
        )
        scene = Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))
        rng_map, _ = assert_truth_matches_reference(scene, view, (rows, cols))
        assert np.all(np.isinf(rng_map[:, k - 1])) and np.any(np.isfinite(rng_map[:, k]))

    def test_rotated_quad_under_rotated_translated_pose(self):
        view = SceneView()
        quad = PlanarFacet(vertices=to_world(QUAD_2D), material=MATERIALS["wood"])
        back = PlanarFacet(to_world(3.0 * QUAD_2D - 1.5) + [0.0, 2.0, 0.0], MATERIALS["concrete"])
        pose = DevicePose(position=DEVICE, boresight=[-0.3, 1.0, -0.2], up=[0.3, 0.1, 1.0])
        scene = Scene(facets=[quad, back], device=pose)
        for resolution in ((9, 16), (40, 31)):
            rng_map, _ = assert_truth_matches_reference(scene, view, resolution)
            assert np.any(np.isfinite(rng_map)) and np.any(np.isinf(rng_map))

    @pytest.mark.parametrize("block", [1, 7, scene_module._ROWS])
    @pytest.mark.parametrize("rows", [1, 37, 65, 720])
    def test_band_size_does_not_change_the_maps(self, monkeypatch, block, rows):
        # Heights that are not a multiple of the band, on the pillar room and
        # on a room whose windows are the whole grid (a side wall within a
        # millimetre), empty (a wall behind the device) and a few rows (a
        # low plate).
        monkeypatch.setattr(scene_module, "_ROWS", block)
        view = SceneView()
        side = PlanarFacet(
            [[5e-4, -1, -1], [5e-4, 4, -1], [5e-4, 4, 1], [5e-4, -1, 1]], MATERIALS["wood"]
        )
        plate = PlanarFacet([[-1, 2, -1.2], [1, 2, -1.2], [1, 2, -1.0], [-1, 2, -1.0]], MATERIALS["wood"])
        behind = facing_wall(-1.0, 3.0, 3.0)
        for scene in (build_scene({"builtin": "pillar_room"}, view), self.room(side, behind, plate)):
            rng_map, _ = assert_truth_matches_reference(scene, view, (rows, 24))
            assert np.any(np.isfinite(rng_map))

    @settings(max_examples=60, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.3, 1.0), min_size=4, max_size=4),
        start=st.floats(0.0, 2.0 * np.pi),
        axes=st.tuples(st.floats(0.05, 3.0), st.floats(0.05, 3.0)),
        quad_angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
        offset=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
        pose_angles=st.tuples(*[st.floats(-180.0, 180.0)] * 3),
        resolution=st.sampled_from([(9, 16), (17, 17), (12, 5)]),
    )
    def test_random_convex_quads_and_poses(
        self, gaps, start, axes, quad_angles, offset, pose_angles, resolution
    ):
        # Points at increasing angles on an ellipse are a convex quad.
        theta = start + 2.0 * np.pi * np.cumsum([0.0, *gaps[:3]]) / sum(gaps)
        q2d = np.column_stack([axes[0] * np.cos(theta), axes[1] * np.sin(theta)])
        plane = Rotation.from_euler("zyx", quad_angles, degrees=True).as_matrix()
        quad = PlanarFacet(vertices=np.asarray(offset) + q2d @ plane[:, [0, 2]].T, material=MATERIALS["wood"])
        rot = Rotation.from_euler("zyx", pose_angles, degrees=True).as_matrix()
        pose = DevicePose(position=np.full(3, 0.1), boresight=rot[:, 1], up=rot[:, 2])
        assert_truth_matches_reference(Scene(facets=[quad], device=pose), SceneView(), resolution)


class TestSubdivide:
    """Cells per row and column give the per-cell formula's cells bit for bit."""

    SKEWED = PlanarFacet(  # convex, in the tilted plane y = 5 + 0.1 x + 0.05 z, no two edges parallel
        vertices=np.array([[-1.0, 4.85, -1.0], [2.0, 5.175, -0.5], [1.5, 5.25, 2.0], [-0.5, 5.01, 1.2]]),
        material=MATERIALS["concrete"],
    )

    @staticmethod
    def assert_matches_reference(facet, cell_size_m):
        centers, areas = _subdivide(facet, cell_size_m)
        want_centers, want_areas = reference_subdivide(facet, cell_size_m)
        assert centers.shape == want_centers.shape and areas.shape == want_areas.shape
        assert centers.tobytes() == want_centers.tobytes() and areas.tobytes() == want_areas.tobytes()
        v = facet.vertices  # a planar quad's area is half its diagonals' cross product
        assert areas.sum() == pytest.approx(0.5 * np.linalg.norm(np.cross(v[2] - v[0], v[3] - v[1])), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
    @pytest.mark.parametrize("cell_size_m", [0.05, 0.3])
    def test_builtin_facets(self, name, cell_size_m):
        for facet in build_scene({"builtin": name}, SceneView()).facets:
            self.assert_matches_reference(facet, cell_size_m)

    @pytest.mark.parametrize("facet", [
        SKEWED,
        facing_wall(3.0, 0.01, 1.0),   # one cell wide in u
        facing_wall(3.0, 1.0, 0.01),   # one cell wide in w
        facing_wall(3.0, 0.01, 0.01),  # one cell
    ])
    def test_other_facets(self, facet):
        self.assert_matches_reference(facet, 0.05)
        assert len(_subdivide(facet, 0.05)[0]) == len(reference_subdivide(facet, 0.05)[0])

    def test_cells_are_u_major(self):
        centers, _ = _subdivide(facing_wall(3.0, 0.1, 0.05), 0.05)  # n_u = 4, n_w = 2
        assert centers.shape == (8, 3)
        assert np.allclose(centers[:, 0], np.repeat([-0.075, -0.025, 0.025, 0.075], 2), rtol=0, atol=1e-15)
        assert np.allclose(centers[:, 2], np.tile([-0.025, 0.025], 4), rtol=0, atol=1e-15)


class TestTracer:
    def test_path_geometry_and_delay(self):
        scene = wall_scene(7.0, span=2.0)
        paths = trace_backscatter_paths(scene, 5e-3, cell_size_m=0.5)
        assert len(paths.delay_s) > 0
        assert np.all(paths.range_m >= 7.0 - 1e-9)
        assert np.allclose(paths.delay_s, 2.0 * paths.range_m / C)

    def test_amplitude_folds_radar_equation(self):
        # one 0.25 m^2 cell exactly covering the plate, with a material whose
        # scatter ratio gives it a cross-section of 2 m^2
        matte = Material("matte", 2.0 / (BACKSCATTER_GAIN * 0.25))
        scene = wall_scene(7.0, span=0.25, material=matte)
        paths = trace_backscatter_paths(scene, 5e-3, cell_size_m=0.5)
        diffuse = ~paths.specular
        assert np.count_nonzero(diffuse) == 1
        expected = np.sqrt(path_gain(2.0, paths.range_m[diffuse][0], 5e-3))
        assert np.abs(paths.amplitude[diffuse][0]) == pytest.approx(expected, rel=1e-9)

    def test_cell_cross_section_scales_with_area(self):
        scene = wall_scene(7.0, span=0.25)  # concrete, one 0.5 m cell
        paths = trace_backscatter_paths(scene, 5e-3, cell_size_m=0.5)
        diffuse = ~paths.specular
        sigma = BACKSCATTER_GAIN * 0.40 * 0.25
        expected = np.sqrt(path_gain(sigma, paths.range_m[diffuse][0], 5e-3))
        assert np.abs(paths.amplitude[diffuse][0]) == pytest.approx(expected, rel=1e-9)

    def test_free_space_law_for_both_mechanisms(self):
        # One 0.25 m^2 concrete cell, whose foot is its centre, at 3.5 and
        # 7 m. Doubling the range divides |amp|^2 / sigma_RCS by 16 for the
        # diffuse cell and for the specular foot; the foot's plane RCS
        # pi*rho^2*(1 - 0.4^2) grows 4x, so its power falls 4x.
        diffuse, specular = [], []
        for dist in (3.5, 7.0):
            p = trace_backscatter_paths(wall_scene(dist, span=0.25), 5e-3, cell_size_m=0.5)
            assert p.specular.tolist() == [False, True]
            power = np.abs(p.amplitude) ** 2
            diffuse.append(power[0] / (BACKSCATTER_GAIN * 0.4 * 0.25))
            specular.append(power[1] / (np.pi * dist**2 * (1.0 - 0.4**2)))
        assert diffuse[0] / diffuse[1] == pytest.approx(16.0, rel=1e-12)
        assert specular[0] / specular[1] == pytest.approx(16.0, rel=1e-12)

    def test_glass_scatters_nothing(self):
        # An all-glass wall has no diffuse return, only the mirror one at its
        # foot; with the foot off the glass, the tracer reports no paths.
        glass = MATERIALS["glass"]
        paths = trace_backscatter_paths(wall_scene(5.0, span=1.0, material=glass), 5e-3, cell_size_m=0.5)
        assert paths.specular.tolist() == [True]
        aside = PlanarFacet(facing_wall(5.0, 1.0, 1.0).vertices + [2.0, 0.0, 0.0], glass)
        with pytest.raises(ValueError, match="no backscatter"):
            trace_backscatter_paths(Scene([aside], DevicePose(position=np.zeros(3))), 5e-3, cell_size_m=0.5)

    def test_seed_determinism(self):
        scene = wall_scene(6.0, span=3.0)
        a = trace_backscatter_paths(scene, 5e-3, seed=5)
        b = trace_backscatter_paths(scene, 5e-3, seed=5)
        c = trace_backscatter_paths(scene, 5e-3, seed=6)
        assert np.array_equal(a.amplitude, b.amplitude)
        assert not np.array_equal(a.amplitude, c.amplitude)
        # geometry does not depend on the phase seed
        assert np.array_equal(a.range_m, c.range_m)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
    def test_only_the_phases_depend_on_the_seed(self, name):
        # Sim seeds 0, 1 and 7, each through the scene seed the pipeline
        # spawns from it: the geometry is bit-equal, |amplitude| equal to the
        # rounding of the phase factor, and only the diffuse phases move.
        scene = build_scene({"builtin": name}, SceneView())
        lam = RadioConfig().wavelength_m
        a, *others = (
            trace_backscatter_paths(scene, lam, 0.05, np.random.SeedSequence(s).spawn(1)[0]) for s in (0, 1, 7)
        )
        diffuse = ~a.specular
        for b in others:
            for column in ("delay_s", "theta_z", "theta_x", "range_m", "specular"):
                assert np.array_equal(getattr(a, column), getattr(b, column)), column
            assert np.allclose(np.abs(b.amplitude), np.abs(a.amplitude), rtol=1e-15, atol=0)
            assert np.array_equal(a.amplitude[a.specular], b.amplitude[b.specular])  # xi = 0 on the feet
            moved = np.angle(a.amplitude[diffuse]) != np.angle(b.amplitude[diffuse])
            assert moved.mean() > 0.999

    def test_heap_peak_stays_near_the_result(self):
        # One facet at a time, its cells turned into rays in place and
        # pruned before the next: about 4 MiB above the 3.9 MiB PathSet of
        # the default one_wall. Holding every facet's cells, bilinear terms
        # and direction arrays at once took 9.65 MiB above it.
        scene = build_scene({"builtin": "one_wall", "distance_m": 7.0}, SceneView())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            paths = trace_backscatter_paths(scene, RadioConfig().wavelength_m)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        size = sum(getattr(paths, f.name).nbytes for f in dataclasses.fields(PathSet))
        assert len(paths) > 80_000
        assert peak - size < 5 * 2**20

    def test_specular_needs_foot_inside_facet(self):
        def specular(scene):
            paths = trace_backscatter_paths(scene, 5e-3, cell_size_m=0.5)
            return paths.range_m[paths.specular]

        # The device's foot on the plane y = 6 is (0, 6, 0); the wall spans
        # x in [x0, x0 + 3].
        for x0, count in ((-1.5, 1), (-1e-9, 1), (1e-9, 0), (0.5, 0)):
            verts = facing_wall(6.0, 1.5, 1.5).vertices + [x0 + 1.5, 0.0, 0.0]
            wall = PlanarFacet(vertices=verts, material=MATERIALS["concrete"])
            scene = Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))
            assert len(specular(scene)) == count, x0
        # two_walls: the front wall ends at x = 0, so its foot lies on an
        # edge and counts; the back wall's foot is shadowed by that edge.
        ranges = specular(build_scene({"builtin": "two_walls"}, SceneView()))
        assert ranges.tolist() == [1.0]


    def test_full_scatter_leaves_no_specular_path(self):
        # scatter_ratio 1 diffuses all incident power, so the mirror return
        # carries none and is dropped; the same wall in concrete keeps it.
        for material, count in ((Material("matte", 1.0), 0), (MATERIALS["concrete"], 1)):
            scene = wall_scene(6.0, span=3.0, material=material)
            paths = trace_backscatter_paths(scene, 5e-3, cell_size_m=0.5)
            assert paths.specular.sum() == count


    def test_specular_return_is_the_image_source(self):
        # A wood plate 3 m ahead whose foot is its centre: the mirror return
        # has the image-source gain at range 2*rho and only the carrier phase.
        rho, lam = 3.0, 5e-3
        facet = {"vertices": [[-1.0, rho, -1.0], [1.0, rho, -1.0], [1.0, rho, 1.0], [-1.0, rho, 1.0]],
                 "material": "wood"}
        scene = scene_from_dict({"facets": [facet]})
        paths = trace_backscatter_paths(scene, lam, cell_size_m=0.5)
        assert paths.specular.tolist() == [False] * 16 + [True]
        amp, tau = paths.amplitude[-1], paths.delay_s[-1]
        assert paths.range_m[-1] == rho and tau == 2.0 * rho / C
        gain = lam**2 * (1.0 - 0.15**2) / ((4.0 * np.pi) ** 2 * (2.0 * rho) ** 2)
        assert abs(amp) ** 2 == pytest.approx(gain, rel=1e-12)
        assert amp / abs(amp) == pytest.approx(np.exp(-2j * np.pi * (C / lam) * tau), abs=1e-9)


def mirrored(scene):
    """The scene with the x coordinate of every facet vertex negated; the device pose is kept."""
    data = scene_to_dict(scene)
    for facet in data["facets"]:
        facet["vertices"] = [[-x, y, z] for x, y, z in facet["vertices"]]
    return scene_from_dict(data)


# A file scene with no symmetry of its own: an oblique wall on the right, a
# floor slab off centre and a tilted panel on the left.
ASYMMETRIC_SCENE = {
    "facets": [
        {"vertices": [[0.3, 3.0, -1.2], [2.1, 4.5, -1.2], [2.1, 4.5, 1.5], [0.3, 3.0, 1.5]], "material": "concrete"},
        {"vertices": [[-2.0, 1.0, -1.2], [1.5, 1.0, -1.2], [1.5, 5.0, -1.2], [-2.0, 5.0, -1.2]],
         "material": "floorboard"},
        {"vertices": [[-1.6, 2.0, -0.8], [-1.2, 3.4, -0.8], [-1.2, 3.4, 0.9], [-1.6, 2.0, 0.9]], "material": "wood"},
    ],
}


def mirror_case(name, tmp_path):
    """A builtin scene, or for "asymmetric_file" ASYMMETRIC_SCENE saved to a file and read back."""
    if name in BUILTIN_SCENES:
        return build_scene({"builtin": name}, SceneView())
    path = tmp_path / "scene.json"
    save_scene(scene_from_dict(ASYMMETRIC_SCENE), path)
    return build_scene({"file": str(path)}, SceneView())


@pytest.mark.parametrize("name", ["one_wall", "two_walls", "pillar_room", "asymmetric_file"])
class TestMirrorEquivariance:
    # The device sits on x = 0 looking along +y with +z up, and the sensor
    # grid is sign-symmetric in x, so mirroring the geometry in x mirrors
    # every seed-free output: the maps left to right, the paths' theta_x
    # about pi/2.
    @pytest.mark.parametrize("resolution", [(16, 16), (144, 256), (32, 32)])  # 32 x 32: the os 2 beam grid
    def test_truth_maps_flip_left_to_right(self, name, resolution, tmp_path):
        view = SceneView()
        scene = mirror_case(name, tmp_path)
        for got, want in zip(ground_truth_maps(mirrored(scene), view, resolution),
                             ground_truth_maps(scene, view, resolution)):
            assert got.tobytes() == np.fliplr(want).tobytes()
            if name == "asymmetric_file":  # the mirror is a different scene
                assert not np.array_equal(want, np.fliplr(want))

    def test_paths_keep_their_delays_and_mirror_their_azimuth(self, name, tmp_path):
        scene = mirror_case(name, tmp_path)
        lam = RadioConfig().wavelength_m
        a, b = (trace_backscatter_paths(s, lam, 0.05, 0) for s in (scene, mirrored(scene)))
        assert len(a) == len(b) > 0
        for column in ("delay_s", "theta_z"):
            assert np.sort(getattr(b, column)).tobytes() == np.sort(getattr(a, column)).tobytes(), column
        assert np.sort(np.abs(b.amplitude)).tobytes() == np.sort(np.abs(a.amplitude)).tobytes()
        assert np.abs(np.sort(b.theta_x) - np.sort(np.pi - a.theta_x)).max() <= 1e-15


class TestVisibility:
    def test_matches_per_facet_reference_on_pillar_room(self):
        scene = build_scene({"builtin": "pillar_room"}, SceneView())
        cells = np.concatenate([_subdivide(f, 0.05)[0] for f in scene.facets])
        index = np.arange(len(cells), dtype=float)
        sigma = np.where(index % 5 == 0, 0.0, 1.0)  # zero-RCS rows are dropped wherever they are
        shadowed = 0
        for skip in range(len(scene.facets)):
            points = cells.copy()
            rays, dist, kept_sigma, kept, specular = _visible_rows(
                scene, skip, points, sigma, index, np.zeros(len(cells), dtype=bool)
            )
            vis = reference_visible(scene, cells, skip)
            assert np.array_equal(kept, index[vis & (sigma > 0)]), skip
            assert np.all(kept_sigma == 1.0) and not specular.any()
            # The ranges and rays of the kept rows are those of the rows
            # alone: per-row arithmetic, whatever rows share the group.
            delta = cells[kept.astype(int)] - scene.device.position
            assert np.array_equal(dist, np.linalg.norm(delta, axis=1))
            assert np.array_equal(rays, delta / dist[:, None])
            assert np.array_equal(points[kept.astype(int)], rays)  # the points became the rays in place
            shadowed += np.count_nonzero(~vis)
        # The pillars shadow parts of the room, so both outcomes are tested.
        assert 0 < shadowed < len(cells) * len(scene.facets)


class TestSceneSerialization:
    def test_round_trip(self, tmp_path):
        scene = wall_scene(7.0, span=2.0)
        path = tmp_path / "scene.json"
        save_scene(scene, path)
        back = load_scene(path)
        assert len(back.facets) == 1
        assert np.allclose(back.facets[0].vertices, scene.facets[0].vertices)

    def test_dict_round_trip(self):
        scene = wall_scene(4.0, span=1.0)
        again = scene_from_dict(scene_to_dict(scene))
        assert np.allclose(
            again.facets[0].vertices, scene.facets[0].vertices
        )

    def test_unknown_material_rejected(self):
        data = scene_to_dict(wall_scene(4.0, span=1.0))
        data["facets"][0]["material"] = "adamantium"
        with pytest.raises((KeyError, ValueError)):
            scene_from_dict(data)


SQUARE = [[-1.0, 4.0, -1.0], [1.0, 4.0, -1.0], [1.0, 4.0, 1.0], [-1.0, 4.0, 1.0]]
CONCRETE = MATERIALS["concrete"]


def square_scene_dict(facet=None, **top):
    """A one-facet scene description with facet and top-level keys added."""
    return {"facets": [{"vertices": SQUARE, "material": "concrete", **(facet or {})}], **top}


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: PlanarFacet(np.zeros((3, 3)), CONCRETE), "facet needs exactly 4 vertices of 3 coordinates"),
        (lambda: PlanarFacet(np.zeros((4, 2)), CONCRETE), "facet needs exactly 4 vertices of 3 coordinates"),
        (
            lambda: PlanarFacet([[0.0, 4.0, 0.0], [1.0, 4.0, 0.0], [2.0, 4.0, 0.0], [0.0, 4.0, 1.0]], CONCRETE),
            "degenerate facet \\(collinear vertices\\)",
        ),
        (
            lambda: PlanarFacet([*SQUARE[:3], [-1.0, 4.1, 1.0]], CONCRETE),
            "facet vertices not coplanar \\(offset 1.000e-01 m\\)",
        ),
        (
            # A dart: the third vertex turns the winding the other way.
            lambda: PlanarFacet([[0.0, 4.0, 0.0], [2.0, 4.0, 0.0], [0.5, 4.0, 0.5], [0.0, 4.0, 2.0]], CONCRETE),
            "facet is not convex",
        ),
        (lambda: DevicePose(position=np.zeros(3), boresight=np.zeros(3)), "boresight must be nonzero"),
        (lambda: DevicePose(position=np.zeros(3), up=[0.0, -2.0, 0.0]), "up vector is parallel to boresight"),
        (lambda: Material("m", 1.5), "scatter_ratio must lie in \\[0, 1\\]"),
        (lambda: Material("m", -0.1), "scatter_ratio must lie in \\[0, 1\\]"),
        (lambda: scene_from_dict(square_scene_dict({"colour": "red"})), "unknown facet keys \\['colour'\\]"),
        (
            lambda: scene_from_dict(square_scene_dict(device={"roll_deg": 0.0})),
            "unknown device keys \\['roll_deg'\\]",
        ),
        (
            lambda: scene_from_dict(square_scene_dict({"material": 0.4})),
            "material must be a catalog name or an inline object",
        ),
        # Lobe-shape keys that older scene files carry; the tracer never read them.
        *(
            (
                lambda key=key: scene_from_dict(square_scene_dict({"material": {"name": "m", "scatter_ratio": 0.4, key: 0.4}})),
                f"unknown material keys \\['{key}'\\]",
            )
            for key in ("forward_backward", "cross_pol", "lobe_narrowness")
        ),
        (
            lambda: PathSet(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2, bool)),
            "PathSet field theta_x length mismatch",
        ),
        (lambda: trace_backscatter_paths(wall_scene(4.0), 5e-3, cell_size_m=0.0), "cell_size_m must be"),
        (lambda: trace_backscatter_paths(wall_scene(4.0), 5e-3, cell_size_m=-0.05), "cell_size_m must be"),
        (lambda: PlanarFacet([*SQUARE[:3], [np.nan, 4.0, 1.0]], CONCRETE), "facet vertices must be finite"),
        (lambda: PlanarFacet([*SQUARE[:3], [-1.0, np.inf, 1.0]], CONCRETE), "facet vertices must be finite"),
        (lambda: DevicePose(position=[np.nan, 0.0, 0.0]), "device position must be finite"),
        (lambda: DevicePose(position=[0.0, -np.inf, 0.0]), "device position must be finite"),
        (lambda: DevicePose(position=np.zeros(3), boresight=[0.0, np.nan, 0.0]), "boresight must be finite"),
        (lambda: DevicePose(position=np.zeros(3), up=[0.0, 0.0, np.inf]), "up must be finite"),
        (lambda: scene_from_dict(square_scene_dict(device={"position": [np.nan, 0.0, 0.0]})),
         "device position must be finite"),
        (lambda: build_scene({"builtin": "one_wall", "distance_m": np.nan}, SceneView()), "distance_m must be positive"),
        (lambda: build_scene({"builtin": "pillar_room", "size_m": -5.0}, SceneView()), "size_m and height_m"),
        (lambda: build_scene({"builtin": "pillar_room", "height_m": np.nan}, SceneView()), "size_m and height_m"),
        (lambda: build_scene({"builtin": "pillar_room", "size_m": np.inf}, SceneView()), "facet vertices must be finite"),
        (
            lambda: build_scene({"builtin": "pillar_room", "pillar_half_width_m": -0.2}, SceneView()),
            "need 0 < pillar_half_width_m < size_m / 4",
        ),
        (
            lambda: build_scene({"builtin": "pillar_room", "pillar_half_width_m": 1.25}, SceneView()),
            "need 0 < pillar_half_width_m < size_m / 4",
        ),
        (
            lambda: build_scene({"builtin": "pillar_room", "pillar_distance_m": -1.0}, SceneView()),
            "need 0 < pillar_distance_m",
        ),
        (
            lambda: build_scene({"builtin": "pillar_room", "pillar_distance_m": 4.6}, SceneView()),
            "need 0 < pillar_distance_m",
        ),
    ],
)
def test_invalid_geometry_and_scene_descriptions_rejected(build, match):
    with pytest.raises(ValueError, match=match):
        build()

