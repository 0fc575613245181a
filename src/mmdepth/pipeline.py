"""
End-to-end scenario runs: configuration, simulation, artifacts, sweeps.

A scenario config is a nested JSON-shaped dict; every level rejects unknown
keys so typos fail loudly instead of silently running defaults, and bad
values, scene parameters included, fail at load rather than inside a run.
The same dict, canonically serialized, is hashed into run.json so any two
artifact sets can be traced back to the exact settings that produced them.

run_scenario executes the whole chain

    codebook -> scene paths + ray-cast truth -> per-beam channel taps ->
    noisy records -> per-beam cancellation -> joint delay selection ->
    sub-sample refinement -> range / depth maps -> error reports

and optionally writes the artifact files (PGM and CSV maps, error table,
run.json and an optional record dump). Every artifact except run.json is
byte-deterministic for a given config; run.json carries wall-clock timings.

All records are synthesized into one (M, n_p + l_d) array and matched-
filtered in one pass over blocks of beams; the cancellation then runs beam
after beam on that beam's correlation row, and refinement takes all beams in
one matrix product. Every beam draws its noise from its own spawned
generator, so results do not depend on beam order or block size.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .channel import (
    PULSE_HALF_WIDTH,
    RadioConfig,
    beamformed_taps_batch,
    delay_window_length,
    noise_variance,
)
from .codebook import Codebook, SceneView, UpaConfig, design_codebook
from .estimator import (
    build_bank,
    cancel_candidates,
    construct_maps,
    correlation_threshold,
    cross_correlation,
    interpolate_map,
    joint_processing,
    massive_correlator,
    preamble_autocorrelation,
    sic_candidates,  # noqa: F401  unused; perfbench's tests list it among the traced layer calls
    tail_noise_variance,
)
from .io import write_map_csv, write_pgm16, write_records
from .metrics import ErrorReport, map_errors
from .scene import (
    Scene,
    build_scene,
    ground_truth_maps,
    load_scene,
    scene_to_dict,
    trace_backscatter_paths,
)
from .waveform import PREAMBLE_LENGTH, SensingRecord, make_preamble, synthesize_records

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
    "RunArtifacts",
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


@dataclass(frozen=True)
class EstimatorConfig:
    gamma: float = 4.0                 # detection margin, amplitude ratio
    noise_policy: str = "tail"         # tail | analytic
    tail_samples: int = 64             # tail window, <= guard_taps
    max_iterations: int = 32           # cancellation passes per beam
    refine_ratio: int = 100            # sub-sample grid, even, f_est = ratio * f_s

    def __post_init__(self):
        if self.noise_policy not in ("analytic", "tail"):
            raise ValueError(f"unknown noise_policy {self.noise_policy!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tail_samples < 1:
            raise ValueError("tail_samples must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.refine_ratio < 2 or self.refine_ratio % 2:
            raise ValueError("refine_ratio must be an even integer >= 2")


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0                      # master seed: scene phases + per-beam noise
    cell_size_m: float = 0.05          # diffuse scatter cell edge
    include_specular: bool = True
    guard_taps: int = 64               # delay-window tail past the last path
    noiseless: bool = False            # skip the noise draw (diagnostics)

    def __post_init__(self):
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        # The latest path's pulse centre can round up to the last delay bin.
        if self.guard_taps <= PULSE_HALF_WIDTH:
            raise ValueError(f"guard_taps must exceed the pulse half width {PULSE_HALF_WIDTH}")


@dataclass(frozen=True)
class OutputConfig:
    resolution: tuple[int, int] | None = None  # (rows, cols) display size
    interpolation: str = "bicubic"             # nearest | bicubic
    write_records: bool = False                # dump records.bin (large)

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

    def __post_init__(self):
        # The noise tail window must stay inside the record's signal-free guard.
        est, sim = self.estimator, self.sim
        if est.noise_policy == "tail" and est.tail_samples > sim.guard_taps:
            raise ValueError(
                f"estimator.tail_samples ({est.tail_samples}) exceeds sim.guard_taps ({sim.guard_taps})"
            )
        # A noiseless record has a zero tail, hence a zero threshold, and
        # every beam would cancel up to max_iterations.
        if est.noise_policy == "tail" and sim.noiseless:
            raise ValueError("sim.noiseless needs estimator.noise_policy 'analytic', not 'tail'")


def _build_section(cls, data: dict, where: str):
    allowed = {f.name for f in fields(cls)}
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown {where} keys: {sorted(extra)}")
    # Integer, float and boolean fields take exactly that JSON kind (None where
    # the field allows it; a float field also takes an integer). A string, a
    # float where an integer belongs, or a NaN would fail or mislead later.
    for f in fields(cls):
        kind, _, optional = f.type.partition(" | ")  # annotations are strings
        value = data.get(f.name)
        if kind not in ("int", "float", "bool") or f.name not in data or (value is None and optional == "None"):
            continue
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok = {
            "bool": isinstance(value, bool),
            "int": number and isinstance(value, int),
            "float": number and (isinstance(value, int) or math.isfinite(value)),
        }[kind]
        if not ok:
            what = {"bool": "a boolean", "int": "an integer", "float": "a finite number"}[kind]
            raise TypeError(f"{where}.{f.name} must be {what}, got {value!r}")
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
    allowed = {"name", "scene"} | set(_SECTIONS)
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"unknown config keys: {sorted(extra)}")
    kwargs = {}
    if "name" in data:
        kwargs["name"] = data["name"]
    for key in ("scene", *_SECTIONS):
        if key not in data:
            continue
        try:  # a wrong type (radio=5, upa.n_h="abc") raises TypeError
            section = dict(data[key])
            kwargs[key] = section if key == "scene" else _build_section(_SECTIONS[key], section, key)
        except TypeError as exc:
            raise ValueError(f"bad {key} section: {exc}") from None
    cfg = ScenarioConfig(**kwargs)
    build_scene(cfg.scene, cfg.view)  # checks the scene section; a file scene is read
    return cfg


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Canonical JSON-shaped dict of a config (tuples become lists)."""
    out: dict = {"name": cfg.name, "scene": cfg.scene}
    for key, cls in _SECTIONS.items():
        section = getattr(cfg, key)
        out[key] = {
            f.name: getattr(section, f.name)
            for f in fields(cls)
            if f.init
        }
    res = out["output"]["resolution"]
    if isinstance(res, tuple):
        out["output"]["resolution"] = list(res)
    return out


def config_hash(cfg: ScenarioConfig) -> str:
    """
    sha256 over the canonical JSON serialization. A file-based scene also
    enters with its loaded contents (scene_to_dict), so rewriting the file at
    the same path changes the hash.
    """
    data = config_to_dict(cfg)
    if "file" in cfg.scene:
        data["scene"] = {**cfg.scene, "contents": scene_to_dict(load_scene(cfg.scene["file"]))}
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


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
    """Everything a scenario run produced, in memory."""

    config: ScenarioConfig
    config_hash: str
    codebook: Codebook
    scene: Scene
    n_paths: int
    l_d: int
    records: list[SensingRecord]
    selected: np.ndarray               # (n_bar_v, n_bar_h) coarse delay bins
    fine_offsets: np.ndarray           # sub-sample refinement, coarse-bin units
    filled: np.ndarray                 # beams whose delay came from hole filling
    truncated_beams: int               # beams that hit the cancellation cap
    range_map: np.ndarray              # estimates at estimation resolution
    depth_map: np.ndarray
    gt_range: np.ndarray               # truth at estimation resolution
    gt_depth: np.ndarray
    out_range: np.ndarray | None       # estimates upscaled to display size
    out_depth: np.ndarray | None
    gt_range_out: np.ndarray | None
    gt_depth_out: np.ndarray | None
    reports: dict[str, ErrorReport]    # keys: range, depth, range_out, depth_out
    air_time_s: float                  # M * N_p * T_s on-air duration
    timings_s: dict[str, float]
    files: list[str] = field(default_factory=list)


def run_scenario(cfg: ScenarioConfig, out_dir=None) -> RunArtifacts:
    """
    Execute one scenario end to end; optionally write artifacts to out_dir.

    Determinism: a master SeedSequence from sim.seed spawns one child for
    the scene scattering phases and one per beam for record noise, so
    results do not depend on beam execution order.
    """
    timings: dict[str, float] = {}
    t_start = time.perf_counter()

    def _clock(key: str, t0: float) -> float:
        t1 = time.perf_counter()
        timings[key] = timings.get(key, 0.0) + (t1 - t0)
        return t1

    t0 = t_start
    cb = design_codebook(
        cfg.upa,
        cfg.view,
        slr_delta_h=cfg.codebook.slr_delta_h,
        slr_delta_v=cfg.codebook.slr_delta_v,
        phase_bits=cfg.codebook.phase_bits,
    )
    t0 = _clock("codebook", t0)

    scene = build_scene(cfg.scene, cfg.view)
    master = np.random.SeedSequence(cfg.sim.seed)
    seeds = master.spawn(1 + cb.m)
    paths = trace_backscatter_paths(
        scene,
        tx_gain_dbi=cfg.upa.element_gain_dbi,
        rx_gain_dbi=cfg.upa.element_gain_dbi,
        wavelength_m=cfg.radio.wavelength_m,
        cell_size_m=cfg.sim.cell_size_m,
        seed=seeds[0],
        include_specular=cfg.sim.include_specular,
    )
    t0 = _clock("scene_paths", t0)

    gt_range, gt_depth = ground_truth_maps(scene, cfg.view, (cb.n_bar_v, cb.n_bar_h))
    gt_range_out = gt_depth_out = None
    if cfg.output.resolution is not None:
        gt_range_out, gt_depth_out = ground_truth_maps(scene, cfg.view, cfg.output.resolution)
    t0 = _clock("ground_truth", t0)

    l_d = delay_window_length(
        paths.max_delay_s, cfg.radio.sample_period_s, guard=cfg.sim.guard_taps
    )
    beams = cb.weights if cb.axis_factors is None else cb.axis_factors
    taps = beamformed_taps_batch(paths, beams, cfg.upa, cfg.radio, l_d)
    t0 = _clock("channel_taps", t0)

    preamble = make_preamble(cfg.waveform.kind, cfg.waveform.length, cfg.waveform.seed)
    samples = synthesize_records(
        taps, preamble, cfg.radio, cb.combine_norm_sq, None if cfg.sim.noiseless else seeds[1:]
    )
    records = [SensingRecord(m, len(preamble), l_d, row) for m, row in enumerate(samples)]  # row views
    t0 = _clock("records", t0)

    delay_sets, truncated_beams = _detect(samples, preamble, cfg, cb.combine_norm_sq)
    t0 = _clock("sic", t0)

    selected, filled = joint_processing(delay_sets, cb.n_bar_h, cb.n_bar_v)
    t0 = _clock("joint", t0)

    bank = build_bank(preamble, cfg.estimator.refine_ratio, cfg.radio.rolloff)
    fine = massive_correlator(samples, bank, selected.ravel())
    fine = fine.reshape(selected.shape)
    t0 = _clock("refine", t0)

    range_map, depth_map = construct_maps(
        selected, fine, cb.theta_z, cb.phi, cfg.radio.sample_period_s
    )
    reports = {
        "range": map_errors(range_map, gt_range),
        "depth": map_errors(depth_map, gt_depth),
    }
    out_range = out_depth = None
    if cfg.output.resolution is not None:
        out_range = interpolate_map(range_map, cfg.output.resolution, cfg.output.interpolation)
        out_depth = interpolate_map(depth_map, cfg.output.resolution, cfg.output.interpolation)
        reports["range_out"] = map_errors(out_range, gt_range_out)
        reports["depth_out"] = map_errors(out_depth, gt_depth_out)
    t0 = _clock("maps", t0)

    timings["total"] = time.perf_counter() - t_start
    art = RunArtifacts(
        config=cfg,
        config_hash=config_hash(cfg),
        codebook=cb,
        scene=scene,
        n_paths=len(paths),
        l_d=l_d,
        records=records,
        selected=selected,
        fine_offsets=fine,
        filled=filled,
        truncated_beams=truncated_beams,
        range_map=range_map,
        depth_map=depth_map,
        gt_range=gt_range,
        gt_depth=gt_depth,
        out_range=out_range,
        out_depth=out_depth,
        gt_range_out=gt_range_out,
        gt_depth_out=gt_depth_out,
        reports=reports,
        air_time_s=cb.m * cfg.waveform.length * cfg.radio.sample_period_s,
        timings_s=timings,
    )
    if out_dir is not None:
        _write_artifacts(art, Path(out_dir))
    return art


def _detect(
    samples: np.ndarray, preamble: np.ndarray, cfg: ScenarioConfig, combine_norm_sq: np.ndarray
) -> tuple[list[np.ndarray], int]:
    """
    Candidate delay sets of all beams and the number of beams cut at the
    iteration cap: one matched-filter pass over the record array, then
    cancellation beam by beam on its correlation row. The (M, l_d + 1)
    correlation matrix and the per-beam coefficients are released on return,
    before refinement.
    """
    est = cfg.estimator
    if est.noise_policy == "analytic":
        noise_var = noise_variance(cfg.radio) * combine_norm_sq
    else:
        noise_var = tail_noise_variance(samples, est.tail_samples)
    thresholds = correlation_threshold(preamble, noise_var, est.gamma)
    correlation = cross_correlation(samples, preamble)
    auto = preamble_autocorrelation(preamble, correlation.shape[1] - 1)
    results = [cancel_candidates(c, auto, thr, est.max_iterations) for c, thr in zip(correlation, thresholds)]
    return [r.delays for r in results], sum(r.truncated for r in results)


def _write_artifacts(art: RunArtifacts, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = art.config

    def _put(name: str, writer, *args) -> None:
        path = out_dir / name
        writer(path, *args)
        art.files.append(str(path))

    _put("range.pgm", write_pgm16, art.range_map)
    _put("depth.pgm", write_pgm16, art.depth_map)
    _put("gt_range.pgm", write_pgm16, art.gt_range)
    _put("gt_depth.pgm", write_pgm16, art.gt_depth)
    _put("range.csv", write_map_csv, art.range_map)
    _put("depth.csv", write_map_csv, art.depth_map)
    if art.out_range is not None:
        _put("range_out.pgm", write_pgm16, art.out_range)
        _put("depth_out.pgm", write_pgm16, art.out_depth)
        _put("gt_range_out.pgm", write_pgm16, art.gt_range_out)
        _put("gt_depth_out.pgm", write_pgm16, art.gt_depth_out)
    if cfg.output.write_records:
        _put("records.bin", write_records, art.records)

    err_path = out_dir / "errors.csv"
    with open(err_path, "w", newline="") as fh:
        fh.write("map,rows,cols,rmse_m,mae_m,bias_m,n_valid,n_total\n")
        shapes = {
            "range": art.range_map.shape,
            "depth": art.depth_map.shape,
            "range_out": None if art.out_range is None else art.out_range.shape,
            "depth_out": None if art.out_depth is None else art.out_depth.shape,
        }
        for key, rep in art.reports.items():
            rows, cols = shapes[key]
            fh.write(
                f"{key},{rows},{cols},{repr(rep.rmse_m)},{repr(rep.mae_m)},"
                f"{repr(rep.bias_m)},{rep.n_valid},{rep.n_total}\n"
            )
    art.files.append(str(err_path))

    run_info = {
        "name": cfg.name,
        "config": config_to_dict(cfg),
        "config_hash": art.config_hash,
        "n_paths": art.n_paths,
        "l_d": art.l_d,
        "beams": art.codebook.m,
        "truncated_beams": art.truncated_beams,
        "filled_beams": int(art.filled.sum()),
        "air_time_s": art.air_time_s,
        "reports": {
            k: {
                "rmse_m": r.rmse_m,
                "mae_m": r.mae_m,
                "bias_m": r.bias_m,
                "n_valid": r.n_valid,
                "n_total": r.n_total,
            }
            for k, r in art.reports.items()
        },
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


def sweep(
    base: dict,
    parameter: str,
    values,
    out_dir=None,
    csv_name: str = "sweep.csv",
) -> list[dict]:
    """
    Rerun a base config dict with `parameter` (dotted path, see
    apply_override) set to each value, collecting estimation-resolution
    error metrics per run.

    Returns the result rows; with out_dir also writes them as CSV. Rows run
    in the order given; each run keeps the base seed so the comparison
    varies only the swept parameter.
    """
    rows: list[dict] = []
    for value in values:
        data = json.loads(json.dumps(base))  # deep copy, JSON types only
        apply_override(data, parameter, value)
        art = run_scenario(config_from_dict(data))
        rows.append(
            {
                "value": value,
                "beams": art.codebook.m,
                "n_paths": art.n_paths,
                "filled_beams": int(art.filled.sum()),
                "truncated_beams": art.truncated_beams,
                "range_rmse_m": art.reports["range"].rmse_m,
                "range_mae_m": art.reports["range"].mae_m,
                "depth_rmse_m": art.reports["depth"].rmse_m,
                "depth_mae_m": art.reports["depth"].mae_m,
                "air_time_s": art.air_time_s,
            }
        )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / csv_name
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SWEEP_COLUMNS) + "\n")
            for row in rows:
                cells = [
                    repr(row[c]) if isinstance(row[c], float) else str(row[c])
                    for c in SWEEP_COLUMNS
                ]
                fh.write(",".join(cells) + "\n")
    return rows
