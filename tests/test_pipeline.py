"""
Scenario configuration, builtin scenes, end-to-end runs, sweeps, and the
command line.

End-to-end tests run a deliberately small setup: a 4x4 array with a pn-256
preamble against a near wall. The small aperture gives about 24 dB less
array gain than the 16x16 default, compensated with transmit power so every
beam detects and nothing depends on hole filling.
"""
import dataclasses
import json
import re

import numpy as np
import pytest

from mmdepth import estimator, pipeline, waveform
from mmdepth.channel import noise_variance
from mmdepth.cli import main as cli_main
from mmdepth.codebook import SceneView, UpaConfig
from mmdepth.estimator import (
    cancel_candidates,
    correlation_threshold,
    joint_processing,
    sic_candidates,
    tail_noise_variance,
)
from mmdepth.io import read_pgm16, read_records
from mmdepth.pipeline import (
    SWEEP_ALIASES,
    SWEEP_COLUMNS,
    EstimatorConfig,
    OutputConfig,
    ScenarioConfig,
    WaveformConfig,
    apply_override,
    config_from_dict,
    config_hash,
    config_to_dict,
    run_scenario,
    sweep,
)
from mmdepth.scene import BUILTIN_SCENES, PathSet, build_scene, scene_to_dict, trace_backscatter_paths
from mmdepth.waveform import make_preamble


SMALL = {
    "name": "unit",
    "upa": {"n_h": 4, "n_v": 4},
    "radio": {"tx_power_dbm": 50.0},
    "waveform": {"kind": "pn", "length": 256, "seed": 3},
    "sim": {"seed": 1, "cell_size_m": 0.15},
    "scene": {"builtin": "one_wall", "distance_m": 1.5},
}


GOOD_SCENE = scene_to_dict(BUILTIN_SCENES["one_wall"](SceneView(), distance_m=2.0))
GOOD_FACET = GOOD_SCENE["facets"][0]
GOOD_DEVICE = GOOD_SCENE["device"]
BAD_INLINE_SCENES = [
    ({**GOOD_SCENE, "facets": [{**GOOD_FACET, "material": {"name": "m", "scatter_ratio": "x"}}]},
     "bad inline scene"),
    ({k: v for k, v in GOOD_SCENE.items() if k != "facets"}, "bad inline scene: missing key 'facets'"),
    ({**GOOD_SCENE, "facets": 5}, "bad inline scene"),
    ({**GOOD_SCENE, "device": {**GOOD_DEVICE, "position": [float("nan"), 0.0, 0.0]}},
     "device position must be finite"),
    ({**GOOD_SCENE, "device": {**GOOD_DEVICE, "boresight": [0.0, float("nan"), 0.0]}}, "boresight must be finite"),
    ({**GOOD_SCENE, "facets": [{**GOOD_FACET, "vertices": [[float("inf"), 2.0, 0.0], *GOOD_FACET["vertices"][1:]]}]},
     "facet vertices must be finite"),
]
# Run arguments that set keys of earlier versions, which the one free-space
# radar law replaced.
REMOVED_KEYS = [
    (["--set", "radio.temperature_k=290"], "unknown radio keys: \\['temperature_k'\\]"),
    (["--scenario", "one_wall", "--set", "scene.rcs_sqm=1.0"], "unknown one_wall scene keys: \\['rcs_sqm'\\]"),
    (["--set", f"scene={json.dumps({'inline': {**GOOD_SCENE, 'path_loss_exponent': 2.0}})}"],
     "unknown scene keys \\['path_loss_exponent'\\]"),
    (["--set", f"scene={json.dumps({'inline': {**GOOD_SCENE, 'facets': [{**GOOD_FACET, 'rcs_sqm': 1.0}]}})}"],
     "unknown facet keys \\['rcs_sqm'\\]"),
]


def small_config(**updates):
    data = json.loads(json.dumps(SMALL))
    for dotted, value in updates.items():
        apply_override(data, dotted.replace("__", "."), value)
    return config_from_dict(data)


@pytest.fixture(scope="module")
def small_run():
    """One shared end-to-end run of the small scenario."""
    return run_scenario(small_config())


class TestConfigFromDict:
    def test_empty_dict_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.name == "one_wall"
        assert cfg.scene == {"builtin": "one_wall"}
        assert cfg.upa.n_h == 16 and cfg.upa.n_v == 16
        assert cfg.waveform.kind == "golay_80211ad" and cfg.waveform.length == 3328

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"seed": 1})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown radio keys"):
            config_from_dict({"radio": {"tx_dbm": 30}})

    def test_scene_needs_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            config_from_dict({"scene": {}})
        with pytest.raises(ValueError, match="exactly one"):
            config_from_dict({"scene": {"builtin": "one_wall", "file": "x.json"}})

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            config_from_dict({"scene": {"builtin": "three_walls"}})

    def test_builtin_parameters_validated(self, tmp_path):
        with pytest.raises(ValueError, match="one_wall scene keys"):
            config_from_dict({"scene": {"builtin": "one_wall", "width_m": 3.0}})
        # Values are checked at load by building the scene, not in the run.
        for scene, match in [
            ({"builtin": "one_wall", "distance_m": 0}, "distance_m"),
            ({"builtin": "one_wall", "distance_m": "far"}, "one_wall scene parameter"),
            ({"builtin": "one_wall", "material": "steel"}, "unknown material 'steel'"),
            ({"builtin": "two_walls", "front_distance_m": 3}, "front_distance_m"),
            ({"builtin": "pillar_room", "pillar_material": "steel"}, "unknown material"),
            ({"inline": {"facets": []}}, "at least one facet"),
            ({"inline": {"facets": [], "colour": 1}}, "unknown scene keys"),
            ({"file": "x.json", "distance_m": 1.0}, "no other keys"),
            ({"file": True}, "scene file must be a path string, got True"),
            ({"file": 7}, "scene file must be a path string, got 7"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"scene": scene})
        # Inline and file scenes report wrong types and missing keys the same way.
        for inline, match in BAD_INLINE_SCENES:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"scene": {"inline": inline}})
        path = tmp_path / "scene.json"
        for content, match in [
            ({"device": GOOD_DEVICE}, "bad file scene: missing key 'facets'"),
            ({**GOOD_SCENE, "path_loss_exponent": 2.0}, "unknown scene keys \\['path_loss_exponent'\\]"),
        ]:
            path.write_text(json.dumps(content))
            with pytest.raises(ValueError, match=match):
                config_from_dict({"scene": {"file": str(path)}})

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"upa": {"n_h": 0}}, "UPA dimensions must be positive"),
            ({"upa": {"n_v": -1}}, "UPA dimensions must be positive"),
            ({"upa": {"spacing_wavelengths": 0.0}}, "element spacing must be positive"),
            ({"view": {"fov_deg": 0.0}}, "fov_deg must lie in \\(0, 180\\)"),
            ({"view": {"fov_deg": 180}}, "fov_deg must lie in \\(0, 180\\)"),
            ({"view": {"aspect_ratio": 0.0}}, "aspect_ratio must be positive"),
            ({"view": {"focal_length_m": -0.01}}, "focal_length_m must be positive"),
            ({"view": {"os_h": 0}}, "oversampling factors must be >= 1"),
            ({"view": {"os_v": 0}}, "oversampling factors must be >= 1"),
            ({"radio": {"carrier_hz": 0.0}}, "carrier and bandwidth must be positive"),
            ({"radio": {"bandwidth_hz": -2e9}}, "carrier and bandwidth must be positive"),
            ({"radio": {"rolloff": -0.1}}, "rolloff must lie in \\[0, 1\\]"),
            ({"radio": {"rolloff": 1.5}}, "rolloff must lie in \\[0, 1\\]"),
        ],
    )
    def test_array_view_and_radio_ranges_validated(self, bad, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict(bad)

    def test_resolution_list_becomes_tuple(self):
        cfg = config_from_dict({"output": {"resolution": [120, 160]}})
        assert cfg.output.resolution == (120, 160)

    def test_roundtrip_through_dict(self):
        cfg = small_config()
        again = config_from_dict(config_to_dict(cfg))
        assert config_hash(again) == config_hash(cfg)

    def test_estimator_policy_validated(self):
        for policy in ("guess", "fixed"):
            with pytest.raises(ValueError, match="noise_policy"):
                EstimatorConfig(noise_policy=policy)
        for bad, match in [
            ({"gamma": 0.0}, "gamma"),
            ({"gamma": -1.0}, "gamma"),
            ({"max_iterations": 0}, "max_iterations"),
            ({"refine_ratio": 3}, "refine_ratio"),
            ({"refine_ratio": 0}, "refine_ratio"),
            ({"tail_samples": 0}, "tail_samples"),
            ({"fixed_noise_var": 1e-9}, "unknown estimator keys"),
            ({"tail_samples": 2.5}, "tail_samples"),
            ({"max_iterations": 2.5}, "max_iterations"),
            ({"max_iterations": True}, "max_iterations"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"estimator": bad})
        # Fields of the wrong kind fail at load in every section.
        for bad, match in [
            ({"sim": {"seed": "abc"}}, "seed"),
            ({"sim": {"noiseless": "no"}}, "noiseless"),
            ({"sim": {"include_specular": "x"}}, "include_specular"),
            ({"sim": {"include_specular": 1}}, "include_specular"),
            ({"output": {"write_records": "no"}}, "write_records"),
            ({"upa": {"n_h": 16.0}}, "n_h"),
            ({"codebook": {"phase_bits": 2.0}}, "phase_bits"),
            ({"output": {"write_codebook": True}}, "unknown output keys"),
            # The display size is a [rows, cols] pair, never a string, a scalar or a triple.
            ({"output": {"resolution": "abc"}}, "output.resolution must be a \\[rows, cols\\] pair, got 'abc'"),
            ({"output": {"resolution": [1, 2, 3]}}, "output.resolution must be a \\[rows, cols\\] pair"),
            ({"output": {"resolution": 5}}, "output.resolution must be a \\[rows, cols\\] pair, got 5"),
            # Float fields take a finite int or float, never a string, bool or NaN.
            ({"radio": {"tx_power_dbm": "abc"}}, "radio.tx_power_dbm must be a finite number"),
            ({"radio": {"tx_power_dbm": float("nan")}}, "radio.tx_power_dbm must be a finite number"),
            ({"radio": {"tx_power_dbm": float("inf")}}, "radio.tx_power_dbm must be a finite number"),
            ({"sim": {"cell_size_m": float("nan")}}, "sim.cell_size_m must be a finite number"),
            ({"upa": {"element_gain_dbi": "x"}}, "upa.element_gain_dbi must be a finite number"),
            ({"codebook": {"slr_delta_h": "x"}}, "codebook.slr_delta_h must be a finite number"),
            ({"estimator": {"noise_policy": "analytic", "gamma": True}}, "estimator.gamma"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"estimator": {"noise_policy": "analytic"}, **bad})
        assert config_from_dict({"codebook": {"phase_bits": None}}).codebook.phase_bits is None
        assert config_from_dict({"radio": {"tx_power_dbm": 25}}).radio.tx_power_dbm == 25
        # A noiseless record has no tail noise to estimate.
        with pytest.raises(ValueError, match="noiseless"):
            config_from_dict({"sim": {"noiseless": True}})
        quiet = {"sim": {"noiseless": True}, "estimator": {"noise_policy": "analytic"}}
        assert config_from_dict(quiet).sim.noiseless
        analytic = {"noise_policy": "analytic"}
        for bad, match in [
            ({"cell_size_m": 0.0}, "cell_size_m"),
            ({"cell_size_m": -0.05}, "cell_size_m"),
            ({"guard_taps": 8}, "guard_taps"),
            ({"guard_taps": 0}, "guard_taps"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"estimator": analytic, "sim": bad})
        # The smallest guard that holds the latest path's pulse window runs.
        edge = small_config(sim__guard_taps=9, estimator__noise_policy="analytic")
        assert run_scenario(edge).l_d >= 9
        # The tail window has to fit in the record's signal-free guard.
        with pytest.raises(ValueError, match="guard_taps"):
            config_from_dict({"estimator": {"tail_samples": 200}})
        with pytest.raises(ValueError, match="guard_taps"):
            config_from_dict({"estimator": {"tail_samples": 40}, "sim": {"guard_taps": 32}})
        assert config_from_dict({"estimator": {"tail_samples": 64}}).estimator.tail_samples == 64
        analytic = {"noise_policy": "analytic", "tail_samples": 200}
        assert config_from_dict({"estimator": analytic}).estimator.tail_samples == 200

    def test_waveform_length_validated(self):
        with pytest.raises(ValueError, match="positive"):
            WaveformConfig(length=0)
        with pytest.raises(ValueError, match="3328"):
            config_from_dict({"waveform": {"length": 3329}})
        with pytest.raises(ValueError, match="preamble kind"):
            config_from_dict({"waveform": {"kind": "chirp"}})
        assert config_from_dict({"waveform": {"kind": "pn", "length": 4096}}).waveform.length == 4096

    def test_output_config_validated(self):
        with pytest.raises(ValueError, match="interpolation"):
            OutputConfig(interpolation="bilinear")
        with pytest.raises(ValueError, match="positive"):
            OutputConfig(resolution=(0, 10))
        # Entries are taken as given, never truncated: 720.7 and True are rejected.
        for bad in ([720.7, 1280], [720, 1280.0], [True, 5], [5, False], ["720", 1280]):
            with pytest.raises(ValueError, match="output.resolution entries must be integers"):
                config_from_dict({"output": {"resolution": bad}})
            with pytest.raises(TypeError, match="output.resolution"):
                OutputConfig(resolution=tuple(bad))


class TestConfigHash:
    def test_stable_across_calls(self):
        cfg = small_config()
        assert config_hash(cfg) == config_hash(cfg)
        assert len(config_hash(cfg)) == 64

    def test_distinct_configs_distinct_hashes(self):
        assert config_hash(small_config()) != config_hash(small_config(sim__seed=9))

    def test_file_scene_contents_enter_hash(self, tmp_path):
        view = SceneView()
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_to_dict(BUILTIN_SCENES["one_wall"](view, distance_m=2.0))))
        cfg = config_from_dict({"scene": {"file": str(path)}})
        before = config_hash(cfg)
        assert config_hash(cfg) == before
        path.write_text(json.dumps(scene_to_dict(BUILTIN_SCENES["one_wall"](view, distance_m=3.0))))
        assert config_hash(cfg) != before


class TestApplyOverride:
    def test_dotted_path(self):
        data = {}
        apply_override(data, "radio.tx_power_dbm", 20)
        assert data == {"radio": {"tx_power_dbm": 20}}

    def test_short_names_resolve(self):
        data = {}
        apply_override(data, "tx_power", 25)
        assert data == {"radio": {"tx_power_dbm": 25}}
        assert set(SWEEP_ALIASES) == {
            "tx_power", "preamble_len", "distance", "upa_size", "os_factor"
        }

    def test_upa_size_fans_out(self):
        data = {}
        apply_override(data, "upa_size", 8)
        assert data == {"upa": {"n_h": 8, "n_v": 8}}

    def test_os_factor_fans_out(self):
        data = {}
        apply_override(data, "os_factor", 2)
        assert data == {"view": {"os_h": 2, "os_v": 2}}

    def test_distance_targets_scene(self):
        data = {"scene": {"builtin": "one_wall"}}
        apply_override(data, "distance", 5.0)
        assert data["scene"]["distance_m"] == 5.0

    def test_cannot_descend_into_scalar(self):
        data = {"radio": 3}
        with pytest.raises(ValueError, match="non-dict"):
            apply_override(data, "radio.tx_power_dbm", 20)


class TestBuiltinScenes:
    VIEW = SceneView()

    def test_registry_names(self):
        assert set(BUILTIN_SCENES) == {"one_wall", "two_walls", "pillar_room"}

    def test_one_wall_square_to_boresight(self):
        scene = BUILTIN_SCENES["one_wall"](self.VIEW, distance_m=3.0)
        assert len(scene.facets) == 1
        verts = scene.facets[0].vertices
        assert np.allclose(verts[:, 1], 3.0)
        # oversized past the field-of-view edge at the wall distance
        half_fov_width = 3.0 * np.tan(np.radians(self.VIEW.fov_deg) / 2.0)
        assert verts[:, 0].max() > half_fov_width

    def test_one_wall_distance_validated(self):
        with pytest.raises(ValueError, match="positive"):
            BUILTIN_SCENES["one_wall"](self.VIEW, distance_m=0.0)

    def test_two_walls_front_covers_left_half(self):
        scene = BUILTIN_SCENES["two_walls"](self.VIEW)
        front, back = scene.facets
        assert front.vertices[:, 0].max() == 0.0
        assert front.vertices[:, 1].max() < back.vertices[:, 1].min()

    def test_two_walls_ordering_validated(self):
        with pytest.raises(ValueError, match="front_distance_m"):
            BUILTIN_SCENES["two_walls"](self.VIEW, front_distance_m=2.0, back_distance_m=1.0)

    def test_pillar_room_facet_count(self):
        scene = BUILTIN_SCENES["pillar_room"](self.VIEW)
        # back + two sides + floor + ceiling + 2 pillars of 4 faces
        assert len(scene.facets) == 13

    def test_build_scene_inline(self):
        reference = BUILTIN_SCENES["one_wall"](self.VIEW, distance_m=2.0)
        scene = build_scene({"inline": scene_to_dict(reference)}, self.VIEW)
        assert len(scene.facets) == 1
        assert np.allclose(scene.facets[0].vertices, reference.facets[0].vertices)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENES))
    def test_builtin_is_its_facets_and_device(self, name):
        # Facets and device pose are the whole scene: a description holding
        # only them traces the same paths and gives the same maps. 70 dBm
        # lets the small array detect the builtins' far walls in every beam.
        cfg = small_config(scene={"builtin": name}, radio__tx_power_dbm=70.0)
        scene = build_scene(cfg.scene, cfg.view)
        data = scene_to_dict(scene)
        inline = {"facets": data["facets"], "device": data["device"]}
        rebuilt = small_config(scene={"inline": inline}, radio__tx_power_dbm=70.0)
        a = trace_backscatter_paths(scene, 5.0, 3.0, 5e-3, seed=2)
        b = trace_backscatter_paths(build_scene(rebuilt.scene, rebuilt.view), 5.0, 3.0, 5e-3, seed=2)
        for f in dataclasses.fields(PathSet):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
        runs = run_scenario(cfg), run_scenario(rebuilt)
        assert not runs[0].filled.any()
        for key in ("selected", "fine_offsets", "filled", "range_map", "depth_map", "gt_range", "gt_depth"):
            assert np.array_equal(*(getattr(r, key) for r in runs)), key

    def test_build_scene_file(self, tmp_path):
        reference = BUILTIN_SCENES["one_wall"](self.VIEW, distance_m=2.0)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene_to_dict(reference)))
        scene = build_scene({"file": str(path)}, self.VIEW)
        assert np.allclose(scene.facets[0].vertices, reference.facets[0].vertices)


class TestRunScenario:
    def test_artifact_shapes_and_counts(self, small_run):
        art = small_run
        assert art.codebook.m == 16
        assert art.selected.shape == (4, 4)
        assert art.range_map.shape == (4, 4)
        assert art.gt_depth.shape == (4, 4)
        assert len(art.records) == 16
        assert all(len(r.samples) == 256 + art.l_d for r in art.records)
        assert art.n_paths > 0
        assert set(art.reports) == {"range", "depth"}

    def test_every_beam_detects(self, small_run):
        assert small_run.filled.sum() == 0
        assert small_run.truncated_beams == 0

    def test_wall_estimates_near_truth(self, small_run):
        assert small_run.reports["range"].mae_m < 0.2
        assert small_run.reports["depth"].mae_m < 0.2

    def test_air_time_formula(self, small_run, radio):
        assert small_run.air_time_s == 16 * 256 * radio.sample_period_s

    def test_config_hash_recorded(self, small_run):
        assert small_run.config_hash == config_hash(small_config())

    def test_deterministic_rerun(self, small_run):
        again = run_scenario(small_config())
        assert np.array_equal(again.selected, small_run.selected)
        assert np.array_equal(again.range_map, small_run.range_map)
        for a, b in zip(again.records, small_run.records):
            assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_noise(self, small_run):
        other = run_scenario(small_config(sim__seed=2))
        assert not np.array_equal(other.records[0].samples, small_run.records[0].samples)

    def test_noiseless_mode_drops_noise(self):
        cfg = small_config(sim__noiseless=True, estimator__noise_policy="analytic")
        art = run_scenario(cfg)
        # the guard tail past the last pulse carries no signal and no noise
        assert abs(art.records[0].samples[-1]) == 0.0

    def test_records_are_row_views_of_one_array(self, small_run):
        base = small_run.records[0].samples.base
        assert base is not None and base.shape == (16, 256 + small_run.l_d)
        for m, rec in enumerate(small_run.records):
            assert rec.beam == m and rec.samples.base is base
            assert np.shares_memory(rec.samples, base[m])

    def test_beam_noise_comes_from_its_spawned_seed(self):
        cfg = small_config(estimator__noise_policy="analytic")
        noisy = run_scenario(cfg)
        clean = run_scenario(small_config(estimator__noise_policy="analytic", sim__noiseless=True))
        seeds = np.random.SeedSequence(cfg.sim.seed).spawn(1 + 16)  # scene first, then one per beam
        n = len(noisy.records[0].samples)
        for m, (a, b) in enumerate(zip(noisy.records, clean.records)):
            rng = np.random.default_rng(seeds[1 + m])
            scale = np.sqrt(noise_variance(cfg.radio) * float(noisy.codebook.combine_norm_sq[m]) / 2.0)
            noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert np.array_equal(a.samples, b.samples + noise)

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_block_size_does_not_change_the_run(self, small_run, monkeypatch, block):
        monkeypatch.setattr(waveform, "_BLOCK", block)
        monkeypatch.setattr(estimator, "_BLOCK", block)
        art = run_scenario(small_config())
        for a, b in zip(art.records, small_run.records):
            assert np.array_equal(a.samples, b.samples)
        for key in ("selected", "fine_offsets", "filled", "range_map", "depth_map"):
            assert np.array_equal(getattr(art, key), getattr(small_run, key)), key

    @pytest.mark.parametrize("policy", ["tail", "analytic"])
    def test_detection_equals_one_beam_at_a_time(self, policy, monkeypatch):
        seen = []

        def keep(*args):
            seen.append(cancel_candidates(*args))
            return seen[-1]

        monkeypatch.setattr(pipeline, "cancel_candidates", keep)
        art = run_scenario(small_config(estimator__noise_policy=policy))
        cfg, cb = art.config, art.codebook
        preamble = make_preamble(cfg.waveform.kind, cfg.waveform.length, cfg.waveform.seed)
        results = []
        for m, rec in enumerate(art.records):
            noise = {
                "tail": lambda: tail_noise_variance(rec.samples, cfg.estimator.tail_samples),
                "analytic": lambda: noise_variance(cfg.radio) * float(cb.combine_norm_sq[m]),
            }[policy]()
            threshold = correlation_threshold(preamble, noise, cfg.estimator.gamma)
            results.append(sic_candidates(rec.samples, preamble, threshold, cfg.estimator.max_iterations))
        assert len(seen) == len(results) == 16
        for got, want in zip(seen, results):
            assert np.array_equal(got.delays, want.delays)
            assert np.array_equal(got.coefficients, want.coefficients)
            assert (got.iterations, got.truncated) == (want.iterations, want.truncated)
        selected, filled = joint_processing([r.delays for r in results], cb.n_bar_h, cb.n_bar_v)
        assert np.array_equal(art.selected, selected)
        assert np.array_equal(art.filled, filled)
        assert art.truncated_beams == sum(r.truncated for r in results)

    def test_display_resolution_adds_reports(self):
        cfg = small_config(output__resolution=[8, 12], output__interpolation="nearest")
        art = run_scenario(cfg)
        assert art.out_range.shape == (8, 12)
        assert art.gt_depth_out.shape == (8, 12)
        assert set(art.reports) == {"range", "depth", "range_out", "depth_out"}


class TestArtifactFiles:
    BASE_FILES = {
        "range.pgm", "depth.pgm", "gt_range.pgm", "gt_depth.pgm",
        "range.csv", "depth.csv", "errors.csv", "run.json",
    }

    def test_base_file_set(self, tmp_path):
        art = run_scenario(small_config(), out_dir=tmp_path)
        names = {p.split("/")[-1] for p in art.files}
        assert names == self.BASE_FILES
        for name in self.BASE_FILES:
            assert (tmp_path / name).exists()

    def test_run_json_contents(self, tmp_path):
        art = run_scenario(small_config(), out_dir=tmp_path)
        info = json.loads((tmp_path / "run.json").read_text())
        assert info["config_hash"] == art.config_hash
        assert info["beams"] == 16
        assert info["reports"]["range"]["mae_m"] == art.reports["range"].mae_m
        assert config_from_dict(info["config"])  # the dump reloads

    def test_errors_csv_rows(self, tmp_path):
        run_scenario(small_config(), out_dir=tmp_path)
        lines = (tmp_path / "errors.csv").read_text().strip().split("\n")
        assert lines[0] == "map,rows,cols,rmse_m,mae_m,bias_m,n_valid,n_total"
        assert {ln.split(",")[0] for ln in lines[1:]} == {"range", "depth"}

    def test_records_roundtrip(self, tmp_path):
        art = run_scenario(small_config(output__write_records=True), out_dir=tmp_path)
        loaded = read_records(tmp_path / "records.bin")
        assert len(loaded) == 16
        for a, b in zip(loaded, art.records):
            assert a.beam == b.beam and a.n_p == b.n_p and a.l_d == b.l_d
            assert np.array_equal(a.samples, b.samples)

    def test_optional_outputs(self, tmp_path):
        run_scenario(small_config(output__resolution=[8, 8]), out_dir=tmp_path)
        for name in ("range_out.pgm", "depth_out.pgm", "gt_range_out.pgm", "gt_depth_out.pgm"):
            assert (tmp_path / name).exists()


class TestSweep:
    def test_rows_carry_all_columns(self, tmp_path):
        rows = sweep(SMALL, "radio.tx_power_dbm", [50.0], out_dir=tmp_path)
        assert len(rows) == 1
        assert set(rows[0]) == set(SWEEP_COLUMNS)
        assert rows[0]["value"] == 50.0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2

    def test_short_name_matches_dotted(self):
        by_alias = sweep(SMALL, "tx_power", [50.0])
        by_path = sweep(SMALL, "radio.tx_power_dbm", [50.0])
        assert by_alias[0]["range_mae_m"] == by_path[0]["range_mae_m"]

    def test_value_order_preserved(self):
        rows = sweep(SMALL, "distance", [1.5, 1.0])
        assert [r["value"] for r in rows] == [1.5, 1.0]

    def test_base_dict_untouched(self):
        base = json.loads(json.dumps(SMALL))
        sweep(base, "tx_power", [52.0])
        assert base == SMALL


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SMALL))
        return path

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "range.pgm").exists()
        assert "rmse" in capsys.readouterr().out

    def test_run_set_override_parses_json(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main(["run", "--config", str(cfg), "--set", "sim.noiseless=true",
                         "--set", "estimator.noise_policy=analytic"])
        assert code == 0

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"radios": {}}))
        assert cli_main(["run", "--config", str(path)]) == 2

    def test_malformed_set_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--set", "noequals"]) == 2

    def test_invalid_estimator_setting_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        for setting, match in [
            ("estimator.refine_ratio=3", "refine_ratio"),
            ("radio=5", "bad radio section"),
            ("upa.n_h=abc", "bad upa section"),
            ("scene=5", "bad scene section"),
            ('sim.seed="abc"', "sim.seed must be an integer"),
            ("estimator.tail_samples=2.5", "estimator.tail_samples must be an integer"),
            ("estimator.max_iterations=2.5", "estimator.max_iterations must be an integer"),
            ('sim.noiseless="no"', "sim.noiseless must be a boolean"),
            ('sim.include_specular="x"', "sim.include_specular must be a boolean"),
            ('output.write_records="no"', "output.write_records must be a boolean"),
            ("sim.noiseless=true", "sim.noiseless needs"),
            ("output.resolution=[720.7,1280]", "output.resolution entries must be integers"),
            ('output.resolution="abc"', "output.resolution must be a [rows, cols] pair, got 'abc'"),
            ('radio.tx_power_dbm="abc"', "radio.tx_power_dbm must be a finite number"),
            ("radio.tx_power_dbm=NaN", "radio.tx_power_dbm must be a finite number"),
            ("sim.cell_size_m=NaN", "sim.cell_size_m must be a finite number"),
            ("estimator.fixed_noise_var=1e-9", "unknown estimator keys"),
            ("output.write_codebook=true", "unknown output keys"),
            ('estimator.noise_policy="fixed"', "unknown noise_policy"),
        ]:
            code = cli_main(["run", "--config", str(cfg), "--set", setting])
            assert code == 2
            assert match in capsys.readouterr().err
        # A both-axes alias meets a non-dict section the way a dotted path does.
        for first, second in [("upa=5", "upa.n=8"), ("upa=5", "upa_size=8"),
                              ("view=5", "view.os=2"), ("view=5", "os_factor=2")]:
            code = cli_main(["run", "--config", str(cfg), "--set", first, "--set", second])
            assert code == 2
            assert "cannot descend into non-dict" in capsys.readouterr().err

    def test_invalid_scene_setting_is_usage_error(self, capsys):
        for args, match in [
            (["--scenario", "two_walls", "--set", "scene.front_distance_m=3"], "front_distance_m"),
            (["--scenario", "one_wall", "--set", "scene.material=steel"], "unknown material 'steel'"),
            (["--scenario", "one_wall", "--set", "scene.distance_m=NaN"], "distance_m must be positive"),
            (["--scenario", "pillar_room", "--set", "scene.size_m=Infinity"], "facet vertices must be finite"),
            *((["--scenario", "pillar_room", "--set", f"scene.{key}={value}"], match) for key, value, match in [
                ("size_m", -5, "size_m and height_m must be positive"),
                ("height_m", -3, "size_m and height_m must be positive"),
                ("pillar_half_width_m", -0.2, "pillar_half_width_m"),
                ("pillar_distance_m", -1, "pillar_distance_m"),
                ("pillar_distance_m", 9, "pillar_distance_m"),
            ]),
            (["--scenario", "one_wall", "--set", 'scene={"file": true}'], "scene file must be a path string"),
            (["--scenario", "one_wall", "--set", 'scene={"file": 7}'], "scene file must be a path string"),
            *((["--set", f"scene={json.dumps({'inline': inline})}"], match) for inline, match in BAD_INLINE_SCENES),
            *REMOVED_KEYS,
        ]:
            assert cli_main(["run", *args]) == 2
            assert re.search(match, capsys.readouterr().err)

    def test_bad_flags_are_usage_errors(self, capsys):
        for args in (
            ["run", "--seed", "3"],
            ["run", "--records"],
            ["run", "--codebook"],
            ["run", "--interpolation", "nearest"],
            ["ground-truth", "--seed", "3", "--out", "gt"],
            ["run", "--resolution", "12by8"],
            ["run", "--resolution", "0x8"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(args)
            assert exit_info.value.code == 2, args
        assert "resolution must be positive" in capsys.readouterr().err

    def test_run_resolution_flag_equals_set(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        by_flag, by_set = tmp_path / "flag", tmp_path / "set"
        assert cli_main(["run", "--config", str(cfg), "--resolution", "12x8", "--out", str(by_flag)]) == 0
        assert cli_main(["run", "--config", str(cfg), "--set", "output.resolution=[8,12]",
                         "--out", str(by_set)]) == 0
        for name in ("range_out.pgm", "depth_out.pgm", "gt_range_out.pgm", "gt_depth_out.pgm"):
            assert read_pgm16(by_flag / name).shape == (8, 12)
            assert (by_flag / name).read_bytes() == (by_set / name).read_bytes()

    def test_missing_scene_file_is_runtime_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main([
            "run", "--config", str(cfg),
            "--set", 'scene={"file": "/definitely/missing/scene.json"}',
        ])
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_ground_truth_subcommand(self, tmp_path, capsys):
        out = tmp_path / "gt"
        code = cli_main([
            "ground-truth", "--scenario", "one_wall", "--out", str(out),
            "--resolution", "32x24",
        ])
        assert code == 0
        assert (out / "gt_range.pgm").exists()
        assert (out / "gt_depth.pgm").exists()
        assert "24x32" in capsys.readouterr().out
        # Without --resolution the maps take the beam grid size (n_v*os_v, n_h*os_h).
        cfg = self.write_config(tmp_path)
        code = cli_main(["ground-truth", "--config", str(cfg), "--set", "view.os_h=2", "--out", str(out)])
        assert code == 0
        assert read_pgm16(out / "gt_depth.pgm").shape == (4, 8)
        assert "4x8" in capsys.readouterr().out

    def test_codebook_dump_subcommand(self, tmp_path, capsys):
        out = tmp_path / "codebook.csv"
        cfg = self.write_config(tmp_path)
        assert cli_main(["codebook-dump", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 16  # header plus one row per beam

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli_main([
            "sweep", "--config", str(cfg), "--parameter", "tx_power",
            "--values", "50", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_sweep_empty_values_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main([
            "sweep", "--config", str(cfg), "--parameter", "tx_power", "--values", ",",
        ])
        assert code == 2


def test_scenario_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(AttributeError):
        cfg.name = "other"


def test_upa_config_defaults_match_reference_array():
    upa = UpaConfig()
    assert upa.n_h == 16 and upa.n_v == 16
