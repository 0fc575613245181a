"""
mmdepth: depth maps from a beam-swept millimeter-wave link.

A phased-array transceiver sweeps a grid-matched beam codebook across its
field of view, matched-filters one preamble per beam against the backscatter,
and turns the per-beam delays into range and depth maps scored against
ray-cast ground truth. The package is organized as a library of small numpy
stages plus a pipeline that chains them:

    codebook    virtual-sensor beam grid, steering vectors, tapers
    channel     radar link budget, pulse shaping, per-beam channel taps
    scene       planar-facet scenes, builtin scenes, ray casting, backscatter
                extraction
    waveform    Golay / PN sensing preambles, record synthesis
    estimator   matched filter, cancellation, joint selection, refinement
    metrics     error reports and the range estimation bound
    io          PGM / CSV / binary record artifacts
    pipeline    scenario configs, end-to-end runs, sweeps
"""

from .channel import (
    PULSE_HALF_WIDTH,
    RadioConfig,
    beamformed_taps_batch,
    delay_window_length,
    noise_variance,
    path_gain,
    pulse_taps,
    raised_cosine,
)
from .codebook import (
    Codebook,
    SceneView,
    UpaConfig,
    axis_response,
    beam_index,
    beam_vh,
    design_codebook,
    grid_angles,
    quantize_phases,
    radiation_pattern,
    sensor_grid,
    slr_weights,
    steering_vector,
    write_codebook_csv,
)
from .estimator import (
    CorrelatorBank,
    SicResult,
    basic_correlator,
    build_bank,
    construct_maps,
    correlation_threshold,
    cross_correlation,
    interpolate_map,
    joint_processing,
    massive_correlator,
    preamble_energy,
    sic_candidates,
    tail_noise_variance,
)
from .io import (
    read_pgm16,
    read_records,
    write_map_csv,
    write_pgm16,
    write_records,
)
from .metrics import ErrorReport, crlb_range, map_errors
from .pipeline import (
    EstimatorConfig,
    OutputConfig,
    RunArtifacts,
    ScenarioConfig,
    SimConfig,
    WaveformConfig,
    apply_override,
    config_from_dict,
    config_hash,
    config_to_dict,
    run_scenario,
    sweep,
)
from .scene import (
    BUILTIN_SCENES,
    MATERIALS,
    DevicePose,
    Material,
    PathSet,
    PlanarFacet,
    Scene,
    build_scene,
    ground_truth_maps,
    load_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    trace_backscatter_paths,
)
from .waveform import (
    PREAMBLE_LENGTH,
    SensingRecord,
    golay_pair_128,
    make_preamble,
    pi_half_rotate,
    synthesize_rx,
)

__version__ = "0.1.0"
