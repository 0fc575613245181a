"""Scene geometry: ray-cast truth maps and the diffuse backscatter tracer."""
import dataclasses
import json

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from mmdepth.channel import path_gain
from mmdepth.codebook import SceneView
from mmdepth.scene import (
    BACKSCATTER_GAIN,
    MATERIALS,
    Material,
    PathSet,
    PlanarFacet,
    DevicePose,
    Scene,
    _ray_quad,
    _subdivide,
    _visible,
    build_scene,
    ground_truth_maps,
    trace_backscatter_paths,
    scene_from_dict,
    scene_to_dict,
    save_scene,
    load_scene,
)

C = 299792458.0


def facing_wall(distance, half_w, half_h, material=None, rcs_sqm=None):
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
        rcs_sqm=rcs_sqm,
    )


def wall_scene(distance=7.0, span=12.0, **kwargs):
    wall = facing_wall(distance, span, span, **kwargs)
    return Scene(facets=[wall], device=DevicePose(position=np.zeros(3)))


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


class TestTracer:
    def test_path_geometry_and_delay(self):
        scene = wall_scene(7.0, span=2.0)
        paths = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, cell_size_m=0.5)
        assert len(paths.delay_s) > 0
        assert np.all(paths.range_m >= 7.0 - 1e-9)
        assert np.allclose(paths.delay_s, 2.0 * paths.range_m / C)

    def test_amplitude_folds_radar_equation(self):
        # one cell exactly covering the plate, explicit cross-section
        scene = wall_scene(7.0, span=0.25, rcs_sqm=2.0)
        paths = trace_backscatter_paths(
            scene, 0.0, 0.0, 5e-3, cell_size_m=0.5, include_specular=False
        )
        assert len(paths.delay_s) == 1
        expected = np.sqrt(path_gain(2.0, paths.range_m[0], 5e-3, pl_exponent=1.0))
        assert np.abs(paths.amplitude[0]) == pytest.approx(expected, rel=1e-9)

    def test_cell_cross_section_scales_with_area(self):
        scene = wall_scene(7.0, span=0.25)  # concrete, one 0.5 m cell
        paths = trace_backscatter_paths(
            scene, 0.0, 0.0, 5e-3, cell_size_m=0.5, include_specular=False
        )
        sigma = BACKSCATTER_GAIN * 0.40 * 0.25
        expected = np.sqrt(
            path_gain(sigma, paths.range_m[0], 5e-3, pl_exponent=1.0)
        )
        assert np.abs(paths.amplitude[0]) == pytest.approx(expected, rel=1e-9)

    def test_path_loss_exponent_doubles_distance_decay(self):
        lam = 5e-3
        amps = {}
        for pl in (1.0, 2.0):
            vals = []
            for dist in (3.5, 7.0):
                wall = facing_wall(dist, 0.25, 0.25, rcs_sqm=1.0)
                scene = Scene(
                    facets=[wall],
                    device=DevicePose(position=np.zeros(3)),
                    path_loss_exponent=pl,
                )
                p = trace_backscatter_paths(
                    scene, 0.0, 0.0, lam, cell_size_m=0.5, include_specular=False
                )
                vals.append(np.abs(p.amplitude[0]))
            amps[pl] = vals[0] / vals[1]
        assert amps[1.0] == pytest.approx(2.0, rel=1e-9)  # sqrt of 4x power
        assert amps[2.0] == pytest.approx(4.0, rel=1e-9)  # sqrt of 16x power

    def test_glass_scatters_nothing(self):
        # all-glass scene has no diffuse return, which the tracer reports
        scene = wall_scene(5.0, span=1.0, material=MATERIALS["glass"])
        with pytest.raises(ValueError, match="no backscatter"):
            trace_backscatter_paths(
                scene, 0.0, 0.0, 5e-3, cell_size_m=0.5, include_specular=False
            )

    def test_seed_determinism(self):
        scene = wall_scene(6.0, span=3.0)
        a = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, seed=5)
        b = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, seed=5)
        c = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, seed=6)
        assert np.array_equal(a.amplitude, b.amplitude)
        assert not np.array_equal(a.amplitude, c.amplitude)
        # geometry does not depend on the phase seed
        assert np.array_equal(a.range_m, c.range_m)

    def test_specular_toggle(self):
        scene = wall_scene(6.0, span=3.0)
        with_spec = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3)
        without = trace_backscatter_paths(
            scene, 0.0, 0.0, 5e-3, include_specular=False
        )
        assert with_spec.specular.sum() == 1
        assert without.specular.sum() == 0

    def test_specular_needs_foot_inside_facet(self):
        def specular(scene):
            paths = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, cell_size_m=0.5)
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


class TestVisibility:
    def test_matches_per_facet_reference_on_pillar_room(self):
        scene = build_scene({"builtin": "pillar_room"}, SceneView())
        cells = np.concatenate([_subdivide(f, 0.05)[0] for f in scene.facets])
        shadowed = 0
        for skip in range(len(scene.facets)):
            vis = _visible(scene, cells, skip)
            assert np.array_equal(vis, reference_visible(scene, cells, skip)), skip
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
        assert back.path_loss_exponent == scene.path_loss_exponent

    def test_dict_round_trip(self):
        scene = wall_scene(4.0, span=1.0)
        again = scene_from_dict(scene_to_dict(scene))
        assert np.allclose(
            again.facets[0].vertices, scene.facets[0].vertices
        )

    def test_legacy_material_keys_load_and_are_ignored(self):
        # The form earlier versions of save_scene wrote: three lobe-shape
        # material keys the tracer never read.
        legacy = {
            "facets": [
                {
                    "vertices": [[-1.0, 4.0, -1.0], [1.0, 4.0, -1.0], [1.0, 4.0, 1.0], [-1.0, 4.0, 1.0]],
                    "material": {
                        "name": "concrete",
                        "scatter_ratio": 0.4,
                        "forward_backward": 0.75,
                        "cross_pol": 0.4,
                        "lobe_narrowness": 0.4,
                    },
                }
            ],
            "device": {"position": [0.0, 0.0, 0.0], "boresight": [0.0, 1.0, 0.0], "up": [0.0, 0.0, 1.0]},
            "path_loss_exponent": 1.0,
        }
        scene = wall_scene(4.0, span=1.0)
        loaded = scene_from_dict(json.loads(json.dumps(legacy)))
        assert loaded.facets[0].material == MATERIALS["concrete"]
        assert set(scene_to_dict(loaded)["facets"][0]["material"]) == {"name", "scatter_ratio"}
        a = trace_backscatter_paths(scene, 0.0, 0.0, 5e-3, cell_size_m=0.25, seed=3)
        b = trace_backscatter_paths(loaded, 0.0, 0.0, 5e-3, cell_size_m=0.25, seed=3)
        for f in dataclasses.fields(PathSet):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        legacy["facets"][0]["material"]["gloss"] = 1.0
        with pytest.raises(ValueError, match="unknown material keys"):
            scene_from_dict(legacy)

    def test_unknown_material_rejected(self):
        data = scene_to_dict(wall_scene(4.0, span=1.0))
        data["facets"][0]["material"] = "adamantium"
        with pytest.raises((KeyError, ValueError)):
            scene_from_dict(data)
