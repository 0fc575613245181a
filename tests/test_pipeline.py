"""
Scenario configuration, builtin scenes, end-to-end runs, sweeps, and the
command line.

End-to-end tests run a deliberately small setup: a 4x4 array with a pn-256
preamble against a near wall. The small aperture gives about 24 dB less
array gain than the 16x16 default, compensated with transmit power so every
beam detects and nothing depends on hole filling.
"""
import argparse
import csv
import dataclasses
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mmdepth import cli, estimator, io, metrics, pipeline, scene, waveform
from mmdepth.channel import noise_variance
from mmdepth.cli import main as cli_main
from mmdepth.codebook import SceneView, UpaConfig, design_codebook
from mmdepth.estimator import (
    cancel_candidates,
    correlation_threshold,
    cross_correlation,
    joint_processing,
    sic_candidates,
    tail_noise_variance,
)
from mmdepth.io import read_pgm16
from mmdepth.pipeline import (
    SWEEP_ALIASES,
    SWEEP_COLUMNS,
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
from mmdepth.waveform import make_preamble, synthesize_records


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
# A facet whose material carries a lobe-shape key of older scene files.
LEGACY_FACET = {**GOOD_FACET, "material": {"name": "m", "scatter_ratio": 0.5, "cross_pol": 0.4}}
# Run arguments that set keys of earlier versions: settings that no decision
# depended on, or that one free-space radar law, isotropic elements, a noise
# tail equal to the guard and that tail as the only noise level replaced.
REMOVED_KEYS = [
    (["--set", "radio.temperature_k=290"], "unknown radio keys: \\['temperature_k'\\]"),
    (["--scenario", "one_wall", "--set", "scene.rcs_sqm=1.0"], "unknown one_wall scene keys: \\['rcs_sqm'\\]"),
    (["--set", f"scene={json.dumps({'inline': {**GOOD_SCENE, 'path_loss_exponent': 2.0}})}"],
     "unknown scene keys \\['path_loss_exponent'\\]"),
    (["--set", f"scene={json.dumps({'inline': {**GOOD_SCENE, 'facets': [{**GOOD_FACET, 'rcs_sqm': 1.0}]}})}"],
     "unknown facet keys \\['rcs_sqm'\\]"),
    (["--set", "view.focal_length_m=0.02"], "unknown view keys: \\['focal_length_m'\\]"),
    (["--set", "upa.element_gain_dbi=3"], "unknown upa keys: \\['element_gain_dbi'\\]"),
    (["--set", "sim.include_specular=false"], "unknown sim keys: \\['include_specular'\\]"),
    (["--set", "estimator.tail_samples=32"], "unknown estimator keys: \\['tail_samples'\\]"),
    (["--set", "estimator.noise_policy=analytic"], "unknown estimator keys: \\['noise_policy'\\]"),
    (["--set", "sim.noiseless=true"], "unknown sim keys: \\['noiseless'\\]"),
    (["--set", f"scene={json.dumps({'inline': {**GOOD_SCENE, 'facets': [LEGACY_FACET]}})}"],
     "unknown material keys \\['cross_pol'\\]"),
]
# Out-of-range margins of the wall builtins: a negative one used to mirror
# the wall, zero failed inside the facet checks without naming it.
BAD_MARGINS = [("one_wall", -1), ("two_walls", -1), ("one_wall", 0)]
# Builtin parameters of the wrong kind, with the error they raise at load. A
# parameter annotated float by its builder takes, like a float field of a
# section, an integer or a finite float and fails, named, on a boolean (true
# used to run a 1 m wall), a string, NaN or infinity. A material that is not
# a name fails in the builder, and the error names the scene.
BAD_KIND_PARAMS = [
    *((name, key, value, re.escape(f"scene.{key} must be a finite number, got {value!r}")) for name, key, value in [
        ("one_wall", "distance_m", True),
        ("two_walls", "front_distance_m", True),
        ("pillar_room", "size_m", True),
        ("one_wall", "distance_m", "far"),
        ("one_wall", "distance_m", float("nan")),
        ("one_wall", "margin", float("nan")),
        ("pillar_room", "size_m", float("inf")),
    ]),
    ("one_wall", "material", [1], "bad one_wall scene parameter: unhashable type: 'list'"),
]
# Sections that are not JSON objects, a list of pairs among them.
NON_OBJECT_SECTIONS = [("sim", "xy"), ("radio", [["tx_power_dbm", 20.0]]), ("scene", [["builtin", "two_walls"]])]


def count_reads(monkeypatch, path) -> list:
    """Patch open so that every read of `path` appends to the list returned."""
    reads, real_open = [], open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            reads.append(file)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    return reads


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
        # A top level that is not an object is named as such, not read as keys.
        for data, kind in [([1], "list"), (5, "int"), ([["name", "x"]], "list"), ("sim", "str")]:
            with pytest.raises(ValueError, match=f"config must be a JSON object, got {kind}"):
                config_from_dict(data)

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown radio keys"):
            config_from_dict({"radio": {"tx_dbm": 30}})

    def test_scene_needs_exactly_one_mode(self):
        for scene in ({}, {"builtin": "one_wall", "file": "x.json"}):
            with pytest.raises(ValueError, match="^scene config needs exactly one of: builtin, file, inline$"):
                config_from_dict({"scene": scene})
        # Parameters without a mode: the message names them and the fix.
        with pytest.raises(ValueError) as info:
            config_from_dict({"scene": {"distance_m": 5, "margin": 1.2}})
        assert str(info.value) == (
            "scene config sets ['distance_m', 'margin'] but names no scene: add builtin, file or inline "
            "(e.g. --scenario one_wall)"
        )

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ValueError, match="unknown builtin"):
            config_from_dict({"scene": {"builtin": "three_walls"}})

    def test_builtin_parameters_validated(self, tmp_path):
        with pytest.raises(ValueError, match="one_wall scene keys"):
            config_from_dict({"scene": {"builtin": "one_wall", "width_m": 3.0}})
        # Values are checked at load by building the scene, not in the run.
        for scene, match in [
            ({"builtin": "one_wall", "distance_m": 0}, "distance_m"),
            *(({"builtin": name, key: value}, match) for name, key, value, match in BAD_KIND_PARAMS),
            ({"builtin": "one_wall", "material": "steel"}, "unknown material 'steel'"),
            ({"builtin": "two_walls", "front_distance_m": 3}, "front_distance_m"),
            *(({"builtin": name, "margin": margin}, "margin must be positive") for name, margin in BAD_MARGINS),
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
            ({"view": {"aspect_ratio": -1.0}}, "aspect_ratio must be positive"),
            ({"view": {"os_h": 0}}, "oversampling factors must be >= 1"),
            ({"view": {"os_v": 0}}, "oversampling factors must be >= 1"),
            ({"radio": {"carrier_hz": 0.0}}, "carrier and bandwidth must be positive"),
            ({"radio": {"bandwidth_hz": -2e9}}, "carrier and bandwidth must be positive"),
            ({"radio": {"rolloff": -0.1}}, "rolloff must lie in \\[0, 1\\]"),
            ({"radio": {"rolloff": 1.5}}, "rolloff must lie in \\[0, 1\\]"),
            ({"codebook": {"phase_bits": 0}}, "codebook.phase_bits must be >= 1"),
            ({"codebook": {"phase_bits": -2}}, "codebook.phase_bits must be >= 1"),
            ({"codebook": {"slr_delta_h": -3}}, "codebook.slr_delta_h must be >= 0"),
            ({"codebook": {"slr_delta_v": -0.5}}, "codebook.slr_delta_v must be >= 0"),
            # Seeds seed a SeedSequence, and the link budget takes dB values as linear powers.
            ({"sim": {"seed": -1}}, "sim.seed must be >= 0"),
            ({"waveform": {"kind": "pn", "seed": -1}}, "waveform.seed must be >= 0"),
            ({"radio": {"tx_power_dbm": 1e308}}, "radio.tx_power_dbm 1e\\+308 overflows as a linear power"),
            ({"radio": {"noise_figure_db": 3100.0}}, "radio.noise_figure_db 3100.0 overflows as a linear power"),
        ],
    )
    def test_array_view_and_radio_ranges_validated(self, bad, match):
        with pytest.raises(ValueError, match=match):
            config_from_dict(bad)

    def test_resolution_list_becomes_tuple(self):
        cfg = config_from_dict({"output": {"resolution": [120, 160]}})
        assert cfg.output.resolution == (120, 160)

    def test_display_resolution_below_beam_grid_rejected(self):
        # An 8x8 array at os 1 x 2 has an 8-row, 16-column beam grid; display
        # maps only upscale it, so each axis is checked at load.
        grid = {"upa": {"n_h": 8, "n_v": 8}, "view": {"os_h": 2}}
        for res in ([7, 16], [8, 15], [4, 40]):
            with pytest.raises(ValueError, match=re.escape(f"output.resolution {res} is below the 8x16 beam grid")):
                config_from_dict({**grid, "output": {"resolution": res}})
        assert config_from_dict({**grid, "output": {"resolution": [8, 16]}}).output.resolution == (8, 16)
        with pytest.raises(ValueError, match="below the 4x4 beam grid"):
            ScenarioConfig(upa=UpaConfig(n_h=4, n_v=4), output=OutputConfig(resolution=(3, 4)))

    def test_name_must_be_a_string(self):
        for name in (5, {"a": [1]}, None, ["wall"]):
            with pytest.raises(ValueError, match=re.escape(f"name must be a string, got {name!r}")):
                config_from_dict({"name": name})
        assert config_from_dict({"name": "wall"}).name == "wall"

    def test_readme_table_lists_every_setting(self):
        # One README row per settable value, with the library default as JSON,
        # so adding or deleting a setting has to update the docs.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z_.]+)` \| `([^`]*)` \|", readme, flags=re.MULTILINE)
        documented = {key: json.loads(default) for key, default in rows}
        defaults = config_to_dict(ScenarioConfig())
        del defaults["scene"]
        settings = {"name": defaults.pop("name")}
        settings.update((f"{section}.{key}", value) for section, values in defaults.items() for key, value in values.items())
        assert len(rows) == len(documented)
        assert documented == settings

    def test_roundtrip_through_dict(self):
        cfg = small_config()
        again = config_from_dict(config_to_dict(cfg))
        assert config_hash(again) == config_hash(cfg)

    def test_estimator_policy_validated(self):
        for bad, match in [
            ({"gamma": 0.0}, "gamma"),
            ({"gamma": -1.0}, "gamma"),
            # The cancellation cap is the library's own (cancel_candidates), not a setting.
            ({"max_iterations": 32}, "unknown estimator keys: \\['max_iterations'\\]"),
            ({"refine_ratio": 3}, "refine_ratio"),
            ({"refine_ratio": 0}, "refine_ratio"),
            ({"fixed_noise_var": 1e-9}, "unknown estimator keys"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"estimator": bad})
        # Fields of the wrong kind fail at load in every section.
        for bad, match in [
            ({"sim": {"seed": "abc"}}, "seed"),
            ({"output": {"write_records": True}}, "unknown output keys: \\['write_records'\\]"),
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
            ({"upa": {"spacing_wavelengths": "x"}}, "upa.spacing_wavelengths must be a finite number"),
            ({"codebook": {"slr_delta_h": "x"}}, "codebook.slr_delta_h must be a finite number"),
            ({"estimator": {"gamma": True}}, "estimator.gamma"),
            *(({key: value}, re.escape(f"bad {key} section: must be a JSON object, got {value!r}"))
              for key, value in NON_OBJECT_SECTIONS),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict(bad)
        assert config_from_dict({"codebook": {"phase_bits": None}}).codebook.phase_bits is None
        assert config_from_dict({"radio": {"tx_power_dbm": 25}}).radio.tx_power_dbm == 25
        assert config_from_dict({"radio": {"noise_figure_db": 3080.0}}).radio.noise_figure_db == 3080.0
        for bad, match in [
            ({"cell_size_m": 0.0}, "cell_size_m"),
            ({"cell_size_m": -0.05}, "cell_size_m"),
            ({"guard_taps": 8}, "guard_taps"),
            ({"guard_taps": 0}, "guard_taps"),
        ]:
            with pytest.raises(ValueError, match=match):
                config_from_dict({"sim": bad})
        # The smallest guard that holds the latest path's pulse window runs.
        # Its 9-sample tail scatters by a third, yet no beam cancels to the
        # iteration cap and most beams detect their own path.
        edge = run_scenario(small_config(sim__guard_taps=9))
        assert edge.l_d >= 9 and edge.truncated_beams == 0
        assert edge.filled.sum() < edge.codebook.m // 2
        # The noise tail is the whole guard, so any valid guard loads.
        assert config_from_dict({"sim": {"guard_taps": 32}}).sim.guard_taps == 32

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

    def test_run_hashes_the_scene_file_it_read(self, tmp_path, monkeypatch):
        # Validation reads the scene file and the run takes the Scene it
        # built, so rewriting the file between validation and the run leaves
        # the run simulating, and art.config_hash naming, the validated scene.
        path = tmp_path / "scene.json"
        validated = scene_to_dict(BUILTIN_SCENES["one_wall"](SceneView(), distance_m=1.5))
        path.write_text(json.dumps(validated))
        cfg = small_config(scene={"file": str(path)})
        before = config_hash(cfg)
        path.write_text(json.dumps(scene_to_dict(BUILTIN_SCENES["one_wall"](SceneView(), distance_m=3.0))))
        reads = count_reads(monkeypatch, path)
        art = run_scenario(cfg)
        assert reads == []
        assert art.config_hash == before
        assert config_hash(cfg) != before  # the file as it reads now
        assert scene_to_dict(art.scene) == validated
        inline = run_scenario(small_config(scene={"inline": validated}))
        for name in ("selected", "fine_offsets", "range_map", "gt_range"):
            assert np.array_equal(getattr(art, name), getattr(inline, name))


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

    def test_builtin_facets_pinned(self):
        # Each facet's corner order sets its normal and the order of its
        # subdivision cells, and with it the scattering phase each cell
        # draws, so every vertex is pinned, here at non-default parameters.
        view = SceneView(fov_deg=90.0, aspect_ratio=2.0)
        tan_h = np.tan(np.radians(view.fov_deg) / 2.0)

        def half(d, margin):  # half width and height of the view at d, times margin
            return d * tan_h * margin, d * (tan_h / 2.0) * margin

        def wall(y, x0, x1, z0, z1):
            return [[x0, y, z0], [x1, y, z0], [x1, y, z1], [x0, y, z1]]

        hw, hh = half(4.0, 1.25)
        f_hw, f_hh = half(1.5, 1.1)
        b_hw, b_hh = half(3.0, 1.1)
        expected = {
            "one_wall": ({"distance_m": 4.0, "material": "drywall", "margin": 1.25},
                         [(wall(4.0, -hw, hw, -hh, hh), "drywall")]),
            "two_walls": ({"front_distance_m": 1.5, "back_distance_m": 3.0, "front_material": "wood",
                           "back_material": "glass", "margin": 1.1},
                          [(wall(1.5, -f_hw, 0.0, -f_hh, f_hh), "wood"), (wall(3.0, -b_hw, b_hw, -b_hh, b_hh), "glass")]),
            "pillar_room": ({"size_m": 6.0, "height_m": 2.5, "pillar_distance_m": 1.5, "pillar_half_width_m": 0.25,
                             "wall_material": "drywall", "pillar_material": "concrete"}, [
                (wall(6.0, -3.0, 3.0, -1.25, 1.25), "drywall"),  # back wall
                ([[-3.0, 0.0, -1.25], [-3.0, 6.0, -1.25], [-3.0, 6.0, 1.25], [-3.0, 0.0, 1.25]], "drywall"),  # left
                ([[3.0, 0.0, -1.25], [3.0, 6.0, -1.25], [3.0, 6.0, 1.25], [3.0, 0.0, 1.25]], "drywall"),  # right
                ([[-3.0, 0.0, -1.25], [3.0, 0.0, -1.25], [3.0, 6.0, -1.25], [-3.0, 6.0, -1.25]], "floorboard"),
                ([[-3.0, 0.0, 1.25], [3.0, 0.0, 1.25], [3.0, 6.0, 1.25], [-3.0, 6.0, 1.25]], "ceilingboard"),
                *((quad, "concrete") for x0, x1 in [(-1.75, -1.25), (1.25, 1.75)] for quad in [
                    wall(1.5, x0, x1, -1.25, 1.25),  # pillar front
                    wall(2.0, x0, x1, -1.25, 1.25),  # pillar back
                    [[x0, 1.5, -1.25], [x0, 2.0, -1.25], [x0, 2.0, 1.25], [x0, 1.5, 1.25]],  # pillar left side
                    [[x1, 1.5, -1.25], [x1, 2.0, -1.25], [x1, 2.0, 1.25], [x1, 1.5, 1.25]],  # pillar right side
                ]),
            ]),
        }
        assert set(expected) == set(BUILTIN_SCENES)
        for name, (params, facets) in expected.items():
            scene = BUILTIN_SCENES[name](view, **params)
            assert len(scene.facets) == len(facets), name
            for i, (facet, (vertices, material)) in enumerate(zip(scene.facets, facets)):
                assert np.array_equal(facet.vertices, np.array(vertices)), (name, i)
                assert facet.material.name == material, (name, i)

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
        a = trace_backscatter_paths(scene, 5e-3, seed=2)
        b = trace_backscatter_paths(build_scene(rebuilt.scene, rebuilt.view), 5e-3, seed=2)
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

    def test_tiny_rolloff_runs_without_warnings(self):
        # A rolloff RadioConfig accepts, small enough that 1/(2 beta) overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            art = run_scenario(small_config(radio__rolloff=1e-310))
        assert np.isfinite(art.depth_map).all()

    @staticmethod
    def heap_peak(cfg):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            art = run_scenario(cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return art, peak

    def test_default_one_wall_heap_peak(self):
        # 256 beams and ~83k paths at 7 m. With the paths held past the taps,
        # the taps past the records and fresh arrays for every transform,
        # noise draw and cancellation pass, the peak was about 25 MiB; with
        # the whole (M, n_p + l_d) record array held, about 18 MiB; with
        # every facet's cells and direction arrays alive in the path trace
        # and int64 tap indices, 14.7 MiB; with the dense (M, N) weights held
        # by the codebook, 12.1 MiB. The taps now set it, at 10.7 MiB.
        art, peak = self.heap_peak(config_from_dict({"scene": {"builtin": "one_wall", "distance_m": 7.0}}))
        assert art.codebook.m == 256 and art.n_paths > 80_000
        assert peak < 11.5 * 2**20

    def test_default_two_walls_heap_peak(self):
        # ~4.3k paths: the records were most of the peak, 16 MiB, when all
        # 256 were held at once; one block of them is about 0.9 MiB. The
        # codebook's dense weights (1 MiB) held it at 7.3 MiB; the taps'
        # reused buffers and one block's expansions now set it, at 5.95 MiB.
        art, peak = self.heap_peak(config_from_dict({"scene": {"builtin": "two_walls"}}))
        assert art.codebook.m == 256
        assert peak < 6.5 * 2**20

    def test_records_are_formed_only_when_read(self, monkeypatch):
        monkeypatch.setattr(waveform, "_BLOCK", 5)  # 16 beams in blocks of 5, 5, 5 and 1
        art = run_scenario(small_config())
        obs = art.observation
        assert "samples" not in vars(obs) and "records" not in vars(obs)
        guard = art.config.sim.guard_taps
        # The run filters no record, so the rebuilt records' matched filter
        # and tail level equal what it kept up to rounding, not bit for bit.
        rows, noise = cross_correlation(obs.samples, obs.preamble), tail_noise_variance(obs.samples, guard)
        assert np.all(np.abs(rows - obs.correlation) <= 1e-14 * np.abs(rows).max(axis=1, keepdims=True))
        assert np.all(np.abs(noise - obs.noise_var) <= 1e-14 * noise)
        for rec in art.records:
            assert np.array_equal(cross_correlation(rec.samples, obs.preamble), rows[rec.beam])
            assert tail_noise_variance(rec.samples, guard) == noise[rec.beam]
        assert art.records is obs.records and vars(obs)["samples"] is obs.samples
        # Seeds, not generators, so that a second synthesis draws the same noise.
        assert [seed.spawn_key for seed in obs.noise] == [(1 + m,) for m in range(16)]
        for kept in (obs.taps, obs.correlation, obs.noise_var, obs.samples):
            assert not kept.flags.writeable

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

    def test_records_are_row_views_of_one_array(self, small_run):
        base = small_run.records[0].samples.base
        assert base is not None and base.shape == (16, 256 + small_run.l_d)
        for m, rec in enumerate(small_run.records):
            assert rec.beam == m and rec.samples.base is base
            assert np.shares_memory(rec.samples, base[m])

    def test_beam_noise_comes_from_its_spawned_seed(self, monkeypatch):
        seen, taps_of = [], pipeline.beamformed_taps_batch

        def keep(*args):
            seen.append(taps_of(*args))
            return seen[-1]

        monkeypatch.setattr(pipeline, "beamformed_taps_batch", keep)
        cfg = small_config()
        noisy = run_scenario(cfg)
        (taps,) = seen
        preamble = make_preamble(cfg.waveform.kind, cfg.waveform.length, cfg.waveform.seed)
        clean = synthesize_records(taps, preamble, cfg.radio, noisy.codebook.combine_norm_sq, noise=None)
        seeds = np.random.SeedSequence(cfg.sim.seed).spawn(1 + 16)  # scene first, then one per beam
        n = len(noisy.records[0].samples)
        for m, (a, b) in enumerate(zip(noisy.records, clean)):
            rng = np.random.default_rng(seeds[1 + m])
            scale = np.sqrt(noise_variance(cfg.radio) * float(noisy.codebook.combine_norm_sq[m]) / 2.0)
            noise = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            assert np.array_equal(a.samples, b + noise)

    @pytest.mark.parametrize("block", [1, 5, 40])
    def test_block_size_does_not_change_the_run(self, small_run, monkeypatch, tmp_path, block):
        # A 37 x 45 display is not a multiple of the 5-row blocks.
        cfg = small_config(output__resolution=[37, 45])
        want = run_scenario(cfg, out_dir=tmp_path / "default")
        monkeypatch.setattr(waveform, "_BLOCK", block)
        monkeypatch.setattr(estimator, "_BLOCK", block)
        for module in (scene, io, metrics):
            monkeypatch.setattr(module, "_ROWS", block)
        art = run_scenario(cfg, out_dir=tmp_path / "blocked")
        for a, b in zip(art.records, small_run.records):
            assert np.array_equal(a.samples, b.samples)
        for key in ("selected", "fine_offsets", "filled", "range_map", "depth_map"):
            assert np.array_equal(getattr(art, key), getattr(small_run, key)), key
        for key in ("gt_range", "gt_depth", "out_range", "out_depth", "gt_range_out", "gt_depth_out"):
            assert np.array_equal(getattr(art, key), getattr(want, key)), key
        assert art.reports == want.reports
        assert len(art.files) == len(want.files) == 12
        for a, b in zip(art.files, want.files):
            got, expect = Path(a).read_bytes(), Path(b).read_bytes()
            if a.endswith("run.json"):
                got, expect = ({**json.loads(x), "timings_s": None} for x in (got, expect))
            assert got == expect, a

    def test_detection_equals_one_beam_at_a_time(self, monkeypatch):
        seen, thresholds = [], []

        def keep(correlation, auto, threshold):
            thresholds.append(threshold)
            seen.append(cancel_candidates(correlation, auto, threshold))
            return seen[-1]

        monkeypatch.setattr(pipeline, "cancel_candidates", keep)
        # A guard off the default 64: each beam's noise is the mean power of
        # its record's last 40 samples, as matched_filter_rows gives it.
        art = run_scenario(small_config(sim__guard_taps=40))
        cfg, cb, obs = art.config, art.codebook, art.observation
        preamble = make_preamble(cfg.waveform.kind, cfg.waveform.length, cfg.waveform.seed)
        rows, noise = waveform.matched_filter_rows(
            obs.taps, preamble, cfg.radio, cb.combine_norm_sq, obs.noise, cfg.sim.guard_taps
        )
        assert np.array_equal(obs.correlation, rows) and np.array_equal(obs.noise_var, noise)
        auto = waveform.preamble_autocorrelation(preamble, obs.l_d)
        results = []
        for m, rec in enumerate(art.records):
            threshold = correlation_threshold(preamble, obs.noise_var[m], cfg.estimator.gamma)
            assert thresholds[m] == threshold
            # Each beam's SIC on its own row, bit for bit; the decisions are
            # also those of SIC on the record rebuilt from the same draws.
            want = cancel_candidates(obs.correlation[m], auto, threshold)
            assert np.array_equal(seen[m].coefficients, want.coefficients)
            results.append(sic_candidates(rec.samples, preamble, threshold))
        assert len(seen) == len(results) == 16
        for got, want in zip(seen, results):
            assert np.array_equal(got.delays, want.delays)
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

    def test_optional_outputs(self, tmp_path):
        run_scenario(small_config(output__resolution=[8, 8]), out_dir=tmp_path)
        for name in ("range_out.pgm", "depth_out.pgm", "gt_range_out.pgm", "gt_depth_out.pgm"):
            assert (tmp_path / name).exists()


class TestDisplayOutputs:
    """A run with display maps: every output lists the same maps and counts."""

    DATA = {**SMALL, "output": {"resolution": [8, 12]}}

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("display")
        return run_scenario(config_from_dict(self.DATA), out_dir=out), out

    def test_errors_csv_has_a_row_per_report_with_its_map_shape(self, written):
        art, out = written
        lines = (out / "errors.csv").read_text().splitlines()
        assert lines[0] == "map,rows,cols,rmse_m,mae_m,bias_m,n_valid,n_total"
        shapes = {
            "range": art.range_map.shape,
            "depth": art.depth_map.shape,
            "range_out": art.out_range.shape,
            "depth_out": art.out_depth.shape,
        }
        assert shapes["range_out"] == (8, 12)
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == list(art.reports) == list(shapes)
        for key, rows_, cols, rmse, mae, bias, n_valid, n_total in rows:
            assert (int(rows_), int(cols)) == shapes[key]
            assert (float(rmse), float(mae), float(bias)) == (art.reports[key].rmse_m, art.reports[key].mae_m, art.reports[key].bias_m)
            assert (int(n_valid), int(n_total)) == (art.reports[key].n_valid, art.reports[key].n_total)

    def test_run_json_counts_and_reports_are_the_runs(self, written):
        art, out = written
        info = json.loads((out / "run.json").read_text())
        assert info["n_paths"] == art.n_paths and info["l_d"] == art.l_d
        assert info["beams"] == art.codebook.m == 16
        assert info["truncated_beams"] == art.truncated_beams
        assert info["filled_beams"] == int(art.filled.sum())
        assert info["air_time_s"] == art.air_time_s
        assert info["reports"] == {key: dataclasses.asdict(rep) for key, rep in art.reports.items()}
        assert list(info["reports"]) == ["range", "depth", "range_out", "depth_out"]

    def test_sweep_row_matches_run_json(self, written):
        _, out = written
        info = json.loads((out / "run.json").read_text())
        (row,) = sweep(self.DATA, "radio.tx_power_dbm", [self.DATA["radio"]["tx_power_dbm"]])
        assert list(row) == SWEEP_COLUMNS
        for column in ("beams", "n_paths", "filled_beams", "truncated_beams", "air_time_s"):
            assert row[column] == info[column], column
        for key in ("range", "depth"):
            for stat in ("rmse_m", "mae_m"):
                assert row[f"{key}_{stat}"] == info["reports"][key][stat]

    def test_cli_prints_one_line_per_report_and_the_counts(self, written, tmp_path, capsys):
        art, _ = written
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.DATA))
        assert cli_main(["run", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [
            f"{key}: rmse {rep.rmse_m:.4f} m, mae {rep.mae_m:.4f} m over {rep.n_valid} px"
            for key, rep in art.reports.items()
        ]
        assert len(lines) == 5
        assert lines[-1] == (
            f"beams 16, paths {art.n_paths}, filled {int(art.filled.sum())}, "
            f"truncated {art.truncated_beams}, air time {art.air_time_s * 1e3:.3f} ms"
        )

    def test_readme_lists_every_file_a_run_writes(self, written):
        # README's "Output files" bullets name each file; a run with display
        # maps writes all of them and nothing else.
        art, out = written
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Output files\n", 1)[1].split("\n## ", 1)[0]
        bullets = re.findall(r"^- (.*?):", section, flags=re.MULTILINE | re.DOTALL)
        listed = [name for b in bullets for name in re.findall(r"`([a-z_]+\.(?:pgm|csv|json))`", b)]
        written_names = sorted(Path(p).name for p in art.files)
        assert sorted(p.name for p in out.iterdir()) == written_names
        assert sorted(listed) == written_names


class TestSimulateEstimate:
    """A run is estimate(simulate(cfg), cfg); the observation is simulated once and only read."""

    # A display size, so that output.interpolation has maps to act on.
    DATA = {**SMALL, "output": {"resolution": [8, 12]}}
    OTHER = {
        "name": "other",
        "estimator.gamma": 5.0,
        "estimator.refine_ratio": 50,
        "output.interpolation": "nearest",
    }

    def config(self, **updates):
        data = json.loads(json.dumps(self.DATA))
        for dotted, value in updates.items():
            apply_override(data, dotted, value)
        return config_from_dict(data)

    @pytest.fixture(scope="class")
    def observed(self):
        cfg = self.config()
        return pipeline.simulate(cfg), cfg

    def test_every_estimation_key_is_exercised(self):
        assert set(self.OTHER) == set(pipeline.ESTIMATION_KEYS)

    @pytest.mark.parametrize("key", sorted(OTHER))
    def test_estimation_keys_leave_the_observation_unchanged(self, observed, key):
        obs, _ = observed
        other = pipeline.simulate(self.config(**{key: self.OTHER[key]}))
        assert (other.n_paths, other.l_d) == (obs.n_paths, obs.l_d)
        assert np.array_equal(other.samples, obs.samples)
        for name in ("gt_range", "gt_depth", "gt_range_out", "gt_depth_out"):
            assert np.array_equal(getattr(other, name), getattr(obs, name)), name
        assert list(other.timings_s) == ["codebook", "scene_paths", "ground_truth", "channel_taps", "records"]

    def test_estimate_refuses_another_simulation(self, observed):
        obs, _ = observed
        with pytest.raises(ValueError, match=re.escape("outside ESTIMATION_KEYS, in ['sim']")):
            pipeline.estimate(obs, self.config(**{"sim.seed": 2}))

    def test_estimate_only_reads_the_observation(self, observed):
        obs, cfg = observed
        before = obs.samples.copy()
        first, second = pipeline.estimate(obs, cfg), pipeline.estimate(obs, cfg)
        for name in ("selected", "fine_offsets", "filled", "range_map", "depth_map", "out_range", "out_depth"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first.reports == second.reports and first.counts == second.counts
        assert first.config_hash == second.config_hash == config_hash(cfg)
        assert np.array_equal(obs.samples, before)
        assert not obs.samples.flags.writeable
        assert all(rec.samples.base is obs.samples and not rec.samples.flags.writeable for rec in obs.records)
        with pytest.raises(ValueError, match="read-only"):
            obs.records[0].samples[0] = 0.0
        assert list(first.timings_s) == [*obs.timings_s, "sic", "joint", "refine", "maps"]

    def test_no_array_of_the_observation_is_writeable(self, observed):
        # The artifacts hand out the observation's truth maps: a write to one
        # would change what a later estimate of the observation scores against.
        obs, cfg = observed
        art = pipeline.estimate(obs, cfg)
        for name in ("gt_range", "gt_depth", "gt_range_out", "gt_depth_out"):
            assert getattr(art, name) is getattr(obs, name)
        arrays = ("preamble", "taps", "correlation", "noise_var", "gt_range", "gt_depth", "gt_range_out", "gt_depth_out")
        for name in arrays:
            kept = getattr(obs, name)
            with pytest.raises(ValueError, match="read-only"):
                kept[(0,) * kept.ndim] = -1.0
        again = pipeline.estimate(obs, cfg)
        assert again.reports == art.reports and np.array_equal(again.range_map, art.range_map)

    def test_run_scenario_is_estimate_of_simulate(self, observed):
        obs, cfg = observed
        art, want = run_scenario(cfg), pipeline.estimate(obs, cfg)
        assert np.array_equal(art.depth_map, want.depth_map) and art.reports == want.reports
        assert list(art.timings_s) == [*want.timings_s, "total"]

    def test_an_estimation_sweep_simulates_once(self, monkeypatch, tmp_path):
        gammas = [3.0, 4.0, 6.0]
        runs = [run_scenario(self.config(**{"estimator.gamma": g})) for g in gammas]
        want = []
        for gamma, art in zip(gammas, runs):
            cells = {"value": gamma, **art.counts}
            cells.update((f"{key}_{name}", v) for key, rep in art.reports.items()
                         for name, v in dataclasses.asdict(rep).items())
            want.append({column: cells[column] for column in SWEEP_COLUMNS})
        simulated, simulate = [], pipeline.simulate
        monkeypatch.setattr(pipeline, "simulate", lambda cfg: simulated.append(cfg) or simulate(cfg))
        filtered, rows_of = [], pipeline.matched_filter_rows
        monkeypatch.setattr(pipeline, "matched_filter_rows", lambda *a: filtered.append(a) or rows_of(*a))
        rows = sweep(self.DATA, "estimator.gamma", gammas, out_dir=tmp_path)
        assert len(simulated) == 1
        assert len(filtered) == 1  # the records stage of one simulation
        assert rows == want
        lines = [",".join(SWEEP_COLUMNS)]
        lines += [",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values()) for row in want]
        assert (tmp_path / "sweep.csv").read_text() == "\n".join(lines) + "\n"

    def test_a_simulation_sweep_simulates_every_value(self, monkeypatch):
        simulated, simulate = [], pipeline.simulate
        monkeypatch.setattr(pipeline, "simulate", lambda cfg: simulated.append(cfg) or simulate(cfg))
        sweep(SMALL, "radio.tx_power_dbm", [50.0, 52.0, 54.0])
        assert [cfg.radio.tx_power_dbm for cfg in simulated] == [50.0, 52.0, 54.0]


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

    def test_bad_value_fails_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(pipeline, "simulate", runs.append)
        with pytest.raises(ValueError, match="radio.tx_power_dbm must be a finite number, got 'abc'"):
            sweep(SMALL, "tx_power", [50.0, "abc"])
        with pytest.raises(ValueError, match="sim.seed must be >= 0"):
            sweep(SMALL, "sim.seed", [0, -1])
        assert runs == []

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
        code = cli_main(["run", "--config", str(cfg), "--set", "estimator.gamma=4.5",
                         "--set", "output.resolution=[8,12]"])
        assert code == 0

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"radios": {}}))
        assert cli_main(["run", "--config", str(path)]) == 2
        # A file that does not hold an object is a config error, with or without --scenario.
        for content, kind in [("[1]", "list"), ("5", "int")]:
            path.write_text(content)
            for extra in ([], ["--scenario", "one_wall"]):
                assert cli_main(["run", "--config", str(path), *extra]) == 2
                assert f"--config {path} must hold a JSON object, got {kind}" in capsys.readouterr().err

    def test_malformed_set_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--set", "noequals"]) == 2

    def test_scene_parameter_without_a_scene_is_usage_error(self, tmp_path, capsys):
        # A scene section replaces the default scene, so it must name one.
        assert cli_main(["run", "--set", "scene.distance_m=5"]) == 2
        err = capsys.readouterr().err
        assert "scene config sets ['distance_m'] but names no scene" in err and "--scenario one_wall" in err
        assert cli_main(["ground-truth", "--scenario", "one_wall", "--set", "scene.distance_m=5",
                         "--out", str(tmp_path / "gt")]) == 0

    def test_invalid_estimator_setting_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        for setting, match in [
            ("estimator.refine_ratio=3", "refine_ratio"),
            ("radio=5", "bad radio section"),
            ("upa.n_h=abc", "bad upa section"),
            ("scene=5", "bad scene section"),
            ('sim.seed="abc"', "sim.seed must be an integer"),
            ("estimator.max_iterations=32", "unknown estimator keys: ['max_iterations']"),
            *((f"{key}={json.dumps(value)}", f"bad {key} section: must be a JSON object, got {value!r}")
              for key, value in NON_OBJECT_SECTIONS),
            ("output.write_records=true", "unknown output keys: ['write_records']"),
            ("output.resolution=[720.7,1280]", "output.resolution entries must be integers"),
            ('output.resolution="abc"', "output.resolution must be a [rows, cols] pair, got 'abc'"),
            ('radio.tx_power_dbm="abc"', "radio.tx_power_dbm must be a finite number"),
            ("radio.tx_power_dbm=NaN", "radio.tx_power_dbm must be a finite number"),
            ("sim.cell_size_m=NaN", "sim.cell_size_m must be a finite number"),
            ("estimator.fixed_noise_var=1e-9", "unknown estimator keys"),
            ("output.write_codebook=true", "unknown output keys"),
            # Codebook, display-size and name faults fail at load, not inside the run.
            ("codebook.phase_bits=0", "codebook.phase_bits must be >= 1"),
            ("codebook.slr_delta_h=-3", "codebook.slr_delta_h must be >= 0"),
            ("codebook.slr_delta_v=-3", "codebook.slr_delta_v must be >= 0"),
            ("output.resolution=[2,40]", "output.resolution [2, 40] is below the 4x4 beam grid"),
            ("output.resolution=[40,3]", "output.resolution [40, 3] is below the 4x4 beam grid"),
            ("name=5", "name must be a string, got 5"),
            # Seeds and dB values that would otherwise fail inside the run.
            ("sim.seed=-1", "sim.seed must be >= 0"),
            ("waveform.seed=-1", "waveform.seed must be >= 0"),
            ("radio.tx_power_dbm=1e308", "radio.tx_power_dbm 1e+308 overflows as a linear power"),
            ("radio.noise_figure_db=1e308", "radio.noise_figure_db 1e+308 overflows as a linear power"),
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
            *((["--scenario", name, "--set", f"scene.margin={json.dumps(margin)}"], "margin must be positive")
              for name, margin in BAD_MARGINS),
            *((["--scenario", name, "--set", f"scene.{key}={json.dumps(value)}"], match)
              for name, key, value, match in BAD_KIND_PARAMS),
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
            # Removed: the display size is --set 'output.resolution=[rows,cols]', the table always sweep.csv.
            ["run", "--resolution", "12x8"],
            ["ground-truth", "--resolution", "8x4", "--out", "gt"],
            ["sweep", "--parameter", "tx_power", "--values", "50", "--csv-name", "t.csv"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(args)
            assert exit_info.value.code == 2, args
            assert "unrecognized arguments" in capsys.readouterr().err, args

    def test_options_are_config_scenario_set_and_out(self):
        # A config value is set only through --config, --scenario and --set;
        # sweep adds what it varies. A new flag has to be added here on purpose.
        parser = cli._build_parser()
        (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        common = {"--config", "--scenario", "--set", "--out"}
        options = {
            name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
            for name, sub in subcommands.choices.items()
        }
        assert options == {
            "run": common,
            "sweep": common | {"--parameter", "--values"},
            "ground-truth": common,
            "codebook-dump": common,
        }

    def test_missing_scene_file_is_runtime_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        code = cli_main([
            "run", "--config", str(cfg),
            "--set", 'scene={"file": "/definitely/missing/scene.json"}',
        ])
        assert code == 3
        assert "runtime error" in capsys.readouterr().err

    def test_a_failing_sweep_value_is_named(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli_main([
            "sweep", "--config", str(cfg), "--parameter", "tx_power", "--values", "50,-10", "--out", str(out),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime error: radio.tx_power_dbm=-10: no beam produced any delay candidate" in err
        assert "gamma^2 E_p times its record's tail noise level" in err
        assert not (out / "sweep.csv").exists()
        code = cli_main(["run", "--config", str(cfg), "--set", "radio.tx_power_dbm=-10"])
        assert code == 3
        assert "every beam's matched filter stayed below its threshold" in capsys.readouterr().err

    def scene_file_args(self, tmp_path) -> tuple[Path, list[str]]:
        """A scene file and the config arguments of a small run on it."""
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(GOOD_SCENE))
        return scene, ["--config", str(self.write_config(tmp_path)), "--set", f"scene={json.dumps({'file': str(scene)})}"]

    @pytest.mark.parametrize("command", ["run", "ground-truth"])
    def test_a_scene_file_is_read_once(self, tmp_path, monkeypatch, capsys, command):
        scene, args = self.scene_file_args(tmp_path)
        reads = count_reads(monkeypatch, scene)
        assert cli_main([command, *args, "--out", str(tmp_path / "out")]) == 0
        assert len(reads) == 1

    def test_a_sweep_reads_its_scene_file_once_per_value(self, tmp_path, monkeypatch, capsys):
        scene, args = self.scene_file_args(tmp_path)
        reads = count_reads(monkeypatch, scene)
        assert cli_main(["sweep", *args, "--parameter", "tx_power", "--values", "50,52,54"]) == 0
        assert len(reads) == 3

    def test_ground_truth_subcommand(self, tmp_path, capsys):
        out = tmp_path / "gt"
        code = cli_main([
            "ground-truth", "--scenario", "one_wall", "--out", str(out),
            "--set", "output.resolution=[24,32]",
        ])
        assert code == 0
        assert (out / "gt_range.pgm").exists()
        assert (out / "gt_depth.pgm").exists()
        assert "24x32" in capsys.readouterr().out
        # Without output.resolution the maps take the beam grid size (n_v*os_v, n_h*os_h).
        cfg = self.write_config(tmp_path)
        code = cli_main(["ground-truth", "--config", str(cfg), "--set", "view.os_h=2", "--out", str(out)])
        assert code == 0
        assert read_pgm16(out / "gt_depth.pgm").shape == (4, 8)
        assert "4x8" in capsys.readouterr().out

    def test_ground_truth_takes_output_resolution(self, tmp_path, capsys):
        # The truth maps of a config written for `run` match its display maps.
        out = tmp_path / "gt"
        base = ["ground-truth", "--scenario", "one_wall", "--set", "output.resolution=[144,256]", "--out", str(out)]
        assert cli_main(base) == 0
        for name in ("gt_range.pgm", "gt_depth.pgm"):
            assert read_pgm16(out / name).shape == (144, 256)
        assert "ground truth at 144x256 px" in capsys.readouterr().out

    def test_codebook_dump_subcommand(self, tmp_path, capsys):
        out = tmp_path / "codebook.csv"
        cfg = self.write_config(tmp_path)
        # os_h 2 makes the 4x4 array's beam grid 4 rows by 8 columns.
        assert cli_main(["codebook-dump", "--config", str(cfg), "--set", "view.os_h=2", "--out", str(out)]) == 0
        assert "32 beams (4x8)" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32  # one row per beam
        # Beams are row-major over the grid, v outer: beam m sits at divmod(m, n_bar_h).
        theta_z = design_codebook(UpaConfig(n_h=4, n_v=4), SceneView(os_h=2)).theta_z
        for m, row in enumerate(rows):
            v, h = divmod(m, 8)
            assert (int(row["m"]), int(row["v"]), int(row["h"])) == (m, v, h)
            assert float(row["theta_z_rad"]) == theta_z[v, h]

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        code = cli_main([
            "sweep", "--config", str(cfg), "--parameter", "tx_power",
            "--values", "50", "--out", str(out),
        ])
        assert code == 0
        assert (out / "sweep.csv").exists()

    def test_sweep_bad_value_is_usage_error_before_any_run(self, tmp_path, capsys, monkeypatch):
        # Every swept value becomes a validated config before the first run.
        runs = []
        monkeypatch.setattr(pipeline, "simulate", runs.append)
        out = tmp_path / "sweep"
        for args, match in [
            (["--scenario", "one_wall", "--parameter", "tx_power", "--values", "30,abc"],
             "radio.tx_power_dbm must be a finite number, got 'abc'"),
            (["--scenario", "two_walls", "--parameter", "sim.seed", "--values", "0,-1"], "sim.seed must be >= 0"),
            (["--parameter", "radio.bogus", "--values", "1"], "unknown radio keys: ['bogus']"),
            (["--scenario", "two_walls", "--parameter", "distance", "--values", "1"],
             "unknown two_walls scene keys: ['distance_m']"),
            (["--parameter", "distance", "--values", "3,5"], "scene config sets ['distance_m'] but names no scene"),
        ]:
            assert cli_main(["sweep", *args, "--out", str(out)]) == 2
            assert match in capsys.readouterr().err
        assert runs == []
        assert not out.exists()

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
