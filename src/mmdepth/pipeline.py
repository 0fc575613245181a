"""
End-to-end scenario runs: configuration, simulation, artifacts, sweeps.

A scenario config is a nested JSON-shaped dict; every level rejects unknown
keys so typos fail loudly instead of silently running defaults, and bad
values, scene parameters included, fail at load rather than inside a run.
The same dict, canonically serialized, is hashed into run.json so any two
artifact sets can be traced back to the exact settings that produced them.

A run has two halves, split where the device stops measuring and starts
processing what it measured:

    simulate(cfg) -> Observation
        codebook -> scene paths + ray-cast truth -> per-beam channel taps ->
        the noisy records' matched-filter rows and tail noise levels
    estimate(obs, cfg) -> RunArtifacts
        per-beam cancellation -> joint delay selection -> sub-sample
        refinement -> range / depth maps -> error reports

The Observation holds the matched-filter rows and noise levels, the
codebook and the truth maps, every array read-only, and estimate only
reads it.
ESTIMATION_KEYS (name, estimator.gamma, estimator.refine_ratio,
output.interpolation) are the config keys only estimation and the
artifact writing read; estimate refuses a config that differs from the
observation's anywhere else. A sweep simulates only when a value's config
differs from the previous one outside those keys, so a sweep over
estimator.gamma simulates once.

run_scenario is estimate(simulate(cfg), cfg), and optionally writes the
artifact files (PGM and CSV maps, error table and run.json). Every
artifact except run.json is byte-deterministic for a given config;
run.json carries wall-clock timings.
The maps a run scores and the counts it reports are listed once, as
RunArtifacts.map_pairs and RunArtifacts.counts: scoring, the artifacts,
sweep rows and the CLI all read them there, so a map pair added to the list
is both scored and written.

The records stage forms no record. Estimation reads a record only through
its matched-filter row and its tail noise level, and both are linear in it,
so one call (mmdepth.waveform.matched_filter_rows) takes them apart: the
signal's rows are one product of the taps with the preamble
autocorrelation, and only each beam's noise, drawn as the record model
draws it, goes through the partitioned FFT filter. The Observation keeps
the (M, l_d + 1) correlation matrix and one noise level per beam, the taps
and the per-beam noise seeds. From the last two it rebuilds the
(M, n_p + l_d) record array of synthesize_records only when someone reads
Observation.samples or .records (no stage of a run does); the rebuilt
records' matched filter and tail level equal correlation and noise_var
within 7.5e-16 of each row's peak and 5.8e-16 relative (measured on the
benchmark scenes). The paths are released once the taps exist. The
cancellation then runs beam after beam on that beam's correlation row, and
refinement reads the 17 lags of each beam's row around its pick from the
same matrix, scoring every fractional replica for all beams in one
(M, 17) @ (17, 2*delta + 1) product. Every beam draws its noise from its own
spawned seed, so results do not depend on beam order or block size. A
beam's cancellation stops at gamma^2 E_p times its noise level, the mean
power of its record's tail: the last sim.guard_taps samples, past the latest
path. The scene is built once, when the config is validated
(ScenarioConfig.built_scene), and the run simulates that Scene.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (
    PULSE_HALF_WIDTH,
    RadioConfig,
    beamformed_taps_batch,
    delay_window_length,
)
from .codebook import Codebook, SceneView, UpaConfig, beam_grid, design_codebook
from .estimator import (
    build_bank,
    cancel_candidates,
    construct_maps,
    correlation_threshold,
    interpolate_map,
    joint_processing,
    massive_correlator,
    sic_candidates,  # noqa: F401  unused; perfbench's tests list it among the traced layer calls
)
from .io import write_map_csv, write_pgm16
from .metrics import ErrorReport, map_errors
from .scene import (
    BUILTIN_SCENES,
    Scene,
    build_scene,
    ground_truth_maps,
    load_scene,
    scene_to_dict,
    trace_backscatter_paths,
)
from .waveform import (
    PREAMBLE_LENGTH,
    SensingRecord,
    make_preamble,
    matched_filter_rows,
    preamble_autocorrelation,
    synthesize_records,
)

__all__ = [
    "CodebookConfig",
    "WaveformConfig",
    "EstimatorConfig",
    "SimConfig",
    "OutputConfig",
    "ScenarioConfig",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
    "apply_override",
    "SWEEP_ALIASES",
    "ESTIMATION_KEYS",
    "Observation",
    "RunArtifacts",
    "simulate",
    "estimate",
    "run_scenario",
    "sweep",
    "SWEEP_COLUMNS",
]

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodebookConfig:
    slr_delta_h: float = 0.0           # sidelobe-ratio taper, 0 disables
    slr_delta_v: float = 0.0
    phase_bits: int | None = None      # e.g. 2 for 2-bit shifters, None = ideal

    def __post_init__(self):
        for name in ("slr_delta_h", "slr_delta_v"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"codebook.{name} must be >= 0 (0 disables the taper)")
        if self.phase_bits is not None and self.phase_bits < 1:
            raise ValueError("codebook.phase_bits must be >= 1, or null for ideal shifters")


@dataclass(frozen=True)
class WaveformConfig:
    kind: str = "golay_80211ad"        # or "pn"
    length: int = 3328                 # N_p samples
    seed: int = 0                      # pn draw seed, ignored for golay

    def __post_init__(self):
        if self.kind not in ("golay_80211ad", "pn"):
            raise ValueError(f"unknown preamble kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("preamble length must be positive")
        if self.kind == "golay_80211ad" and self.length > PREAMBLE_LENGTH:
            raise ValueError(f"golay_80211ad preamble length must be <= {PREAMBLE_LENGTH}")
        if self.seed < 0:  # a SeedSequence takes only non-negative entropy
            raise ValueError("waveform.seed must be >= 0")


@dataclass(frozen=True)
class EstimatorConfig:
    gamma: float = 4.0                 # detection margin, amplitude ratio
    refine_ratio: int = 100            # sub-sample grid, even, f_est = ratio * f_s

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.refine_ratio < 2 or self.refine_ratio % 2:
            raise ValueError("refine_ratio must be an even integer >= 2")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0                      # master seed: scene phases + per-beam noise
    cell_size_m: float = 0.05          # diffuse scatter cell edge
    guard_taps: int = 64               # delay-window tail past the last path, the noise tail

    def __post_init__(self):
        if self.seed < 0:  # a SeedSequence takes only non-negative entropy
            raise ValueError("sim.seed must be >= 0")
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        # The latest path's pulse centre can round up to the last delay bin.
        if self.guard_taps <= PULSE_HALF_WIDTH:
            raise ValueError(f"guard_taps must exceed the pulse half width {PULSE_HALF_WIDTH}")


@dataclass(frozen=True)
class OutputConfig:
    resolution: tuple[int, int] | None = None  # (rows, cols) display size
    interpolation: str = "bicubic"             # nearest | bicubic

    def __post_init__(self):
        if self.interpolation not in ("nearest", "bicubic"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.resolution is not None:
            if not isinstance(self.resolution, (list, tuple)) or len(self.resolution) != 2:
                raise TypeError(f"output.resolution must be a [rows, cols] pair, got {self.resolution!r}")
            r, c = self.resolution
            # Truncating 720.7 or True to an int would run a size nobody asked for.
            if any(not isinstance(v, int) or isinstance(v, bool) for v in (r, c)):
                raise TypeError(f"output.resolution entries must be integers, got {list(self.resolution)!r}")
            if r < 1 or c < 1:
                raise ValueError("resolution must be positive")
            object.__setattr__(self, "resolution", (r, c))


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "one_wall"
    upa: UpaConfig = field(default_factory=UpaConfig)
    view: SceneView = field(default_factory=SceneView)
    radio: RadioConfig = field(default_factory=RadioConfig)
    codebook: CodebookConfig = field(default_factory=CodebookConfig)
    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    scene: dict = field(default_factory=lambda: {"builtin": "one_wall"})
    # The Scene the scene section names, built here once: runs and ground-truth
    # take it, so a file scene is read once per config and a run simulates the
    # contents that were validated.
    built_scene: Scene = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Display maps are upscaled from the beam grid, never downscaled.
        grid = beam_grid(self.upa, self.view)
        res = self.output.resolution
        if res is not None and (res[0] < grid[0] or res[1] < grid[1]):
            raise ValueError(
                f"output.resolution {list(res)} is below the {grid[0]}x{grid[1]} beam grid "
                "(rows n_v*os_v, cols n_h*os_h); display maps only upscale"
            )
        object.__setattr__(self, "built_scene", build_scene(self.scene, self.view))


def _check_kinds(annotations: dict[str, str], data: dict, where: str) -> None:
    """
    Integer and float entries take exactly that JSON kind (None where the
    annotation allows it; a float also takes an integer, a boolean neither).
    A string, a float where an integer belongs, or a NaN would fail or
    mislead later.
    """
    for name, annotation in annotations.items():
        kind, _, optional = annotation.partition(" | ")  # annotations are strings
        value = data.get(name)
        if kind not in ("int", "float") or name not in data or (value is None and optional == "None"):
            continue
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind == "int" and not (number and isinstance(value, int)):
            raise TypeError(f"{where}.{name} must be an integer, got {value!r}")
        if kind == "float" and not (number and (isinstance(value, int) or math.isfinite(value))):
            raise TypeError(f"{where}.{name} must be a finite number, got {value!r}")


def _build_section(cls, data: dict, where: str):
    extra = set(data) - {f.name for f in fields(cls)}
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")
    _check_kinds({f.name: f.type for f in fields(cls)}, data, where)
    return cls(**data)


_SECTIONS = {
    "upa": UpaConfig,
    "view": SceneView,
    "radio": RadioConfig,
    "codebook": CodebookConfig,
    "waveform": WaveformConfig,
    "estimator": EstimatorConfig,
    "sim": SimConfig,
    "output": OutputConfig,
}


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig; unknown keys anywhere are errors."""
    if not isinstance(data, dict):  # a list would pass the key check below
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    allowed = {"name", "scene"} | set(_SECTIONS)
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    kwargs = {}
    if "name" in data:
        if not isinstance(data["name"], str):
            raise ValueError(f"name must be a string, got {data['name']!r}")
        kwargs["name"] = data["name"]
    for key in ("scene", *_SECTIONS):
        if key not in data:
            continue
        section = data[key]
        if not isinstance(section, dict):  # not dict(section): it takes a list of pairs
            raise ValueError(f"bad {key} section: must be a JSON object, got {section!r}")
        try:  # a wrong kind (upa.n_h="abc", scene.distance_m=true) raises TypeError
            if key == "scene":
                builder = BUILTIN_SCENES.get(section.get("builtin"))
                if builder is not None:  # a builtin's parameters take the kinds its builder annotates
                    params = inspect.signature(builder).parameters
                    _check_kinds({name: p.annotation for name, p in params.items()}, section, key)
                kwargs[key] = dict(section)
            else:
                kwargs[key] = _build_section(_SECTIONS[key], section, key)
        except TypeError as exc:
            raise ValueError(f"bad {key} section: {exc}") from None
    return ScenarioConfig(**kwargs)  # builds the scene: checks the section, reads a file scene


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical JSON-shaped dict of a config (tuples become lists)."""
    out: dict = {"name": cfg.name, "scene": cfg.scene, **{key: asdict(getattr(cfg, key)) for key in _SECTIONS}}
    res = out["output"]["resolution"]
    if isinstance(res, tuple):
        out["output"]["resolution"] = list(res)
    return out


def config_hash(cfg: ScenarioConfig, scene: Scene | None = None) -> str:
    """
    sha256 over the canonical JSON serialization. A file-based scene also
    enters with its contents (scene_to_dict), so rewriting the file at the
    same path changes the hash. The contents are those of `scene` (a run
    passes cfg.built_scene, the Scene it simulates), or else of the file as
    it reads now.
    """
    blob = json.dumps(_canonical(cfg, scene), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _canonical(cfg: ScenarioConfig, scene: Scene | None) -> dict:
    """config_to_dict, with a file scene's contents (see config_hash)."""
    data = config_to_dict(cfg)
    if "file" in cfg.scene:
        scene = scene if scene is not None else load_scene(cfg.scene["file"])
        data["scene"] = {**cfg.scene, "contents": scene_to_dict(scene)}
    return data


# Short names for the parameters studied in the reference sweeps, mapped
# onto their config paths. 'distance' assumes a builtin scene that takes a
# distance_m argument (one_wall does).
SWEEP_ALIASES = {
    "tx_power": "radio.tx_power_dbm",
    "preamble_len": "waveform.length",
    "distance": "scene.distance_m",
    "upa_size": "upa.n",
    "os_factor": "view.os",
}
# Dotted names that set one value on both axes.
_BOTH_AXES = {"upa.n": ("upa.n_h", "upa.n_v"), "view.os": ("view.os_h", "view.os_v")}


def apply_override(data: dict, dotted: str, value) -> None:
    """
    Set a dotted path like 'radio.tx_power_dbm' in a config dict, in place.

    Accepts the SWEEP_ALIASES short names as well; 'upa.n' and 'view.os'
    set both axes (_BOTH_AXES). Intermediate dicts are created as needed;
    final key validity is checked later by config_from_dict.
    """
    dotted = SWEEP_ALIASES.get(dotted, dotted)
    for path in _BOTH_AXES.get(dotted, (dotted,)):
        *parents, leaf = path.split(".")
        node = data
        for k in parents:
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise ValueError(f"cannot descend into non-dict at {k!r} of {path!r}")
        node[leaf] = value


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------

@dataclass
class RunArtifacts:
    """
    Everything a scenario run produced, in memory. The records are the
    observation's (Observation.records), formed only when read.
    """

    config: ScenarioConfig
    config_hash: str
    codebook: Codebook
    scene: Scene
    n_paths: int
    l_d: int
    observation: Observation           # what the run estimated from
    selected: np.ndarray               # (n_bar_v, n_bar_h) coarse delay bins
    fine_offsets: np.ndarray           # sub-sample refinement, coarse-bin units
    filled: np.ndarray                 # beams whose delay came from hole filling
    truncated_beams: int               # beams that hit the cancellation cap
    range_map: np.ndarray              # estimates at estimation resolution
    depth_map: np.ndarray
    gt_range: np.ndarray               # truth at estimation resolution, the observation's (read-only)
    gt_depth: np.ndarray
    out_range: np.ndarray | None       # estimates upscaled to display size
    out_depth: np.ndarray | None
    gt_range_out: np.ndarray | None
    gt_depth_out: np.ndarray | None
    reports: dict[str, ErrorReport]    # one per map_pairs key
    air_time_s: float                  # M * N_p * T_s on-air duration
    timings_s: dict[str, float]
    files: list[str] = field(default_factory=list)

    @property
    def records(self) -> list[SensingRecord]:
        """The observation's records, one per beam: rebuilt on first read (Observation.samples)."""
        return self.observation.records

    @property
    def map_pairs(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """
        (estimate, truth) of every map the run scores and writes, keyed as
        reports: the beam-grid maps, then the display maps when
        output.resolution is set. A pair listed here is scored into reports
        and written as {key}.pgm and gt_{key}.pgm, with an errors.csv row.
        """
        pairs = {"range": (self.range_map, self.gt_range), "depth": (self.depth_map, self.gt_depth)}
        if self.out_range is not None:
            pairs["range_out"] = (self.out_range, self.gt_range_out)
            pairs["depth_out"] = (self.out_depth, self.gt_depth_out)
        return pairs

    @property
    def counts(self) -> dict[str, int | float]:
        """The run's counts, in the order run.json lists them; sweep rows and the CLI read them here."""
        return {
            "n_paths": self.n_paths,
            "l_d": self.l_d,
            "beams": self.codebook.m,
            "truncated_beams": self.truncated_beams,
            "filled_beams": int(self.filled.sum()),
            "air_time_s": self.air_time_s,
        }


# The config keys that only estimate and the artifact writing read: configs
# that differ only here simulate the same Observation.
ESTIMATION_KEYS = (
    "name",
    "estimator.gamma",
    "estimator.refine_ratio",
    "output.interpolation",
)


@dataclass(frozen=True)
class Observation:
    """
    What one beam sweep measured, and the truth it is scored against: the
    output of simulate and the input of estimate, which only reads it.

    Estimation reads a record only through its matched-filter row and its
    tail noise level, so those are what is kept: correlation and noise_var,
    made without forming a record (waveform.matched_filter_rows). The
    records themselves are derived data. The first read of samples (or of
    records, its row views) synthesizes them once from the kept taps and
    noise seeds (synthesize_records, the same noise draws) and keeps them;
    their matched filter and tail level equal correlation and noise_var
    within 7.5e-16 of each row's peak and 5.8e-16 relative.
    """

    config: ScenarioConfig             # the config it was simulated under
    codebook: Codebook
    n_paths: int
    l_d: int
    preamble: np.ndarray               # read-only, as is every array below
    taps: np.ndarray                   # (M, l_d) channel taps
    noise: tuple[np.random.SeedSequence, ...]  # one record noise seed per beam
    correlation: np.ndarray            # (M, l_d + 1) matched-filter rows
    noise_var: np.ndarray              # (M,) tail noise levels
    gt_range: np.ndarray               # truth at estimation resolution
    gt_depth: np.ndarray
    gt_range_out: np.ndarray | None    # truth at display size
    gt_depth_out: np.ndarray | None
    timings_s: dict[str, float]        # the simulation's stages

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """The (M, n_p + l_d) records, read-only: synthesized on first read."""
        samples = synthesize_records(
            self.taps, self.preamble, self.config.radio, self.codebook.combine_norm_sq, self.noise
        )
        samples.flags.writeable = False  # before the row views, which inherit it
        return samples

    @functools.cached_property
    def records(self) -> list[SensingRecord]:
        """One SensingRecord per beam, row views of samples."""
        return [SensingRecord(m, len(self.preamble), self.l_d, row) for m, row in enumerate(self.samples)]


def _simulated_part(cfg: ScenarioConfig) -> dict:
    """The canonical config dict (see config_hash) without ESTIMATION_KEYS: all that simulate reads."""
    data = _canonical(cfg, cfg.built_scene)
    for dotted in ESTIMATION_KEYS:
        *parents, leaf = dotted.split(".")
        node = data
        for key in parents:
            node = node[key]
        del node[leaf]
    return data


def _clock(timings: dict[str, float], key: str, t0: float) -> float:
    """Clock stage `key` as the time since t0; return now, the next stage's start."""
    t1 = time.perf_counter()
    timings[key] = t1 - t0
    return t1


def simulate(cfg: ScenarioConfig) -> Observation:
    """
    The device's measurement under cfg: codebook, scene paths, ray-cast
    truth, channel taps and the noisy records.

    The scene is cfg.built_scene, built when cfg was validated; a file
    scene is not read again. Determinism: a master SeedSequence from
    sim.seed spawns one child for the scene scattering phases and then, with
    the records, one per beam for record noise (spawn keys 0 and 1 .. M), so
    results do not depend on beam execution order.

    The records stage is one matched_filter_rows call: the signal's rows
    come from the taps and the preamble autocorrelation, and only the noise,
    each beam's draw from its seed, is filtered. The correlation rows and
    noise levels are kept, with the taps and the noise seeds; no record is
    formed. Observation.samples rebuilds the records from them, with the
    same noise, when read.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    cb = design_codebook(cfg.upa, cfg.view, **asdict(cfg.codebook))
    t0 = _clock(timings, "codebook", t0)

    scene = cfg.built_scene
    master = np.random.SeedSequence(cfg.sim.seed)
    (scene_seed,) = master.spawn(1)
    paths = trace_backscatter_paths(scene, cfg.radio.wavelength_m, cfg.sim.cell_size_m, scene_seed)
    t0 = _clock(timings, "scene_paths", t0)

    gt_range, gt_depth = ground_truth_maps(scene, cfg.view, (cb.n_bar_v, cb.n_bar_h))
    gt_range_out = gt_depth_out = None
    if cfg.output.resolution is not None:
        gt_range_out, gt_depth_out = ground_truth_maps(scene, cfg.view, cfg.output.resolution)
    t0 = _clock(timings, "ground_truth", t0)

    l_d = delay_window_length(
        paths.max_delay_s, cfg.radio.sample_period_s, guard=cfg.sim.guard_taps
    )
    if cb.axis_factors is None:
        beams = cb.weights
    else:  # beam grids, so that taps can share the patterns of mirrored beams
        beams = tuple(f.reshape(cb.n_bar_v, cb.n_bar_h, -1) for f in cb.axis_factors)
    taps = beamformed_taps_batch(paths, beams, cfg.upa, cfg.radio, l_d)
    n_paths = len(paths)
    del paths  # the taps hold all the run needs of the paths
    t0 = _clock(timings, "channel_taps", t0)

    preamble = make_preamble(cfg.waveform.kind, cfg.waveform.length, cfg.waveform.seed)
    noise = tuple(master.spawn(cb.m))
    correlation, noise_var = matched_filter_rows(
        taps, preamble, cfg.radio, cb.combine_norm_sq, noise, cfg.sim.guard_taps
    )
    for kept in (preamble, taps, correlation, noise_var, gt_range, gt_depth, gt_range_out, gt_depth_out):
        if kept is not None:  # the display truth exists only with output.resolution
            kept.flags.writeable = False
    _clock(timings, "records", t0)
    return Observation(
        cfg, cb, n_paths, l_d, preamble, taps, noise, correlation, noise_var,
        gt_range, gt_depth, gt_range_out, gt_depth_out, timings,
    )


def estimate(obs: Observation, cfg: ScenarioConfig) -> RunArtifacts:
    """
    Process an observation under cfg: cancellation, joint delay selection,
    sub-sample refinement, then the maps and their error reports.

    Cancellation and refinement read the observation's matched-filter
    matrix, and the thresholds its noise levels; the records are not
    formed. cfg may differ from obs.config only in ESTIMATION_KEYS, else this
    raises ValueError. obs is only read, so one observation can be estimated
    under many settings. The artifacts' timings_s are the observation's
    followed by the estimation's stages.
    """
    timings = dict(obs.timings_s)
    t0 = time.perf_counter()  # the check below is clocked into sic, so the stages stay back to back
    want, have = _simulated_part(cfg), _simulated_part(obs.config)
    if want != have:
        differ = sorted(key for key in want if want[key] != have[key])
        raise ValueError(f"config differs from the observation's outside ESTIMATION_KEYS, in {differ}")
    cb = obs.codebook
    delay_sets, truncated_beams = _detect(obs, cfg)
    t0 = _clock(timings, "sic", t0)

    selected, filled = joint_processing(delay_sets, cb.n_bar_h, cb.n_bar_v)
    t0 = _clock(timings, "joint", t0)

    bank = build_bank(obs.preamble, cfg.estimator.refine_ratio, cfg.radio.rolloff)
    fine = massive_correlator(obs.correlation, bank, selected.ravel()).reshape(selected.shape)
    t0 = _clock(timings, "refine", t0)

    range_map, depth_map = construct_maps(
        selected, fine, cb.theta_z, cb.phi, cfg.radio.sample_period_s
    )
    out_range = out_depth = None
    if cfg.output.resolution is not None:
        out_range = interpolate_map(range_map, cfg.output.resolution, cfg.output.interpolation)
        out_depth = interpolate_map(depth_map, cfg.output.resolution, cfg.output.interpolation)
    art = RunArtifacts(
        config=cfg,
        config_hash=config_hash(cfg, cfg.built_scene),
        codebook=cb,
        scene=cfg.built_scene,
        n_paths=obs.n_paths,
        l_d=obs.l_d,
        observation=obs,
        selected=selected,
        fine_offsets=fine,
        filled=filled,
        truncated_beams=truncated_beams,
        range_map=range_map,
        depth_map=depth_map,
        gt_range=obs.gt_range,
        gt_depth=obs.gt_depth,
        out_range=out_range,
        out_depth=out_depth,
        gt_range_out=obs.gt_range_out,
        gt_depth_out=obs.gt_depth_out,
        reports={},
        air_time_s=cb.m * cfg.waveform.length * cfg.radio.sample_period_s,
        timings_s=timings,
    )
    art.reports.update((key, map_errors(est, truth)) for key, (est, truth) in art.map_pairs.items())
    _clock(timings, "maps", t0)
    return art


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunArtifacts:
    """
    Execute one scenario end to end, estimate(simulate(cfg), cfg);
    optionally write artifacts to out_dir. timings_s gains 'total', the
    two halves together.
    """
    t_start = time.perf_counter()
    art = estimate(simulate(cfg), cfg)
    art.timings_s["total"] = time.perf_counter() - t_start
    if out_dir is not None:
        _write_artifacts(art, Path(out_dir))
    return art


def _detect(obs: Observation, cfg: ScenarioConfig) -> tuple[list, int]:
    """
    Candidate delay sets of all beams and the number of beams cut at the
    iteration cap: cancellation beam by beam on a copy of the beam's row of
    obs.correlation, down to a threshold set by its noise level in
    obs.noise_var, the mean power of its record's last sim.guard_taps
    samples.
    """
    thresholds = correlation_threshold(obs.preamble, obs.noise_var, cfg.estimator.gamma)
    auto = preamble_autocorrelation(obs.preamble, obs.l_d)
    results = [cancel_candidates(c, auto, thr) for c, thr in zip(obs.correlation, thresholds)]
    return [r.delays for r in results], sum(r.truncated for r in results)


def _cell(value) -> str:
    """One errors.csv or sweep.csv cell: repr of a float round-trips, anything else is str."""
    return repr(value) if isinstance(value, float) else str(value)


def _write_artifacts(art: RunArtifacts, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = art.config
    pairs = art.map_pairs

    def _put(name: str, writer, *args) -> None:
        path = out_dir / name
        writer(path, *args)
        art.files.append(str(path))

    for key, (est, truth) in pairs.items():
        _put(f"{key}.pgm", write_pgm16, est)
        _put(f"gt_{key}.pgm", write_pgm16, truth)
    for key in ("range", "depth"):
        _put(f"{key}.csv", write_map_csv, pairs[key][0])

    err_path = out_dir / "errors.csv"
    with open(err_path, "w", newline="") as fh:
        fh.write(",".join(["map", "rows", "cols", *(f.name for f in fields(ErrorReport))]) + "\n")
        for key, rep in art.reports.items():
            fh.write(",".join(map(_cell, (key, *pairs[key][0].shape, *astuple(rep)))) + "\n")
    art.files.append(str(err_path))

    run_info = {
        "name": cfg.name,
        "config": config_to_dict(cfg),
        "config_hash": art.config_hash,
        **art.counts,
        "reports": {key: asdict(rep) for key, rep in art.reports.items()},
        "timings_s": art.timings_s,
    }
    run_path = out_dir / "run.json"
    with open(run_path, "w") as fh:
        json.dump(run_info, fh, indent=2)
    art.files.append(str(run_path))


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = [
    "value",
    "beams",
    "n_paths",
    "filled_beams",
    "truncated_beams",
    "range_rmse_m",
    "range_mae_m",
    "depth_rmse_m",
    "depth_mae_m",
    "air_time_s",
]


def _sweep_configs(base: dict, parameter: str, values) -> list[ScenarioConfig]:
    """
    The validated config of each swept value: a deep copy of the base config
    dict with `parameter` (dotted path, see apply_override) set to it. A bad
    value raises ValueError here, before any run.
    """
    configs = []
    for value in values:
        data = json.loads(json.dumps(base))  # deep copy, JSON types only
        apply_override(data, parameter, value)
        configs.append(config_from_dict(data))
    return configs


def sweep(base: dict, parameter: str, values, out_dir=None) -> list[dict]:
    """
    Rerun a base config dict with `parameter` (dotted path, see
    apply_override) set to each value, collecting estimation-resolution
    error metrics per run. Every value is validated before the first run.

    Returns the result rows; with out_dir also writes them to sweep.csv. Rows run
    in the order given; each run keeps the base seed so the comparison
    varies only the swept parameter. Values of an ESTIMATION_KEYS parameter
    share one simulation: rows equal separate run_scenario calls.
    """
    return _sweep_rows(parameter, values, _sweep_configs(base, parameter, values), out_dir)


def _sweep_rows(parameter: str, values, configs: list[ScenarioConfig], out_dir=None) -> list[dict]:
    """
    Estimate each value's config (see _sweep_configs): the rows of sweep. A
    config is simulated only when it differs from the previous row's outside
    ESTIMATION_KEYS, so a sweep over an estimation key simulates once. A run
    that fails raises ValueError naming the dotted parameter and the value,
    as in "radio.tx_power_dbm=-10: <the run's message>".
    """
    rows: list[dict] = []
    obs = None
    for value, cfg in zip(values, configs):
        try:
            if obs is None or _simulated_part(cfg) != _simulated_part(obs.config):
                obs = simulate(cfg)
            art = estimate(obs, cfg)
        except ValueError as exc:
            raise ValueError(f"{SWEEP_ALIASES.get(parameter, parameter)}={value}: {exc}") from exc
        cells = {"value": value, **art.counts}
        for key, rep in art.reports.items():
            cells.update((f"{key}_{name}", v) for name, v in asdict(rep).items())
        rows.append({column: cells[column] for column in SWEEP_COLUMNS})
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "sweep.csv"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            for row in rows:
                fh.write(",".join(map(_cell, row.values())) + "\n")
    return rows
