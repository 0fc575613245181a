"""
Mirror equivariance past the scene: the channel taps mirror with the paths,
and the paper's joint selection rule does not mirror its picks.

The truth maps and paths of a mirrored scene are pinned in
test_scene.py::TestMirrorEquivariance. Here a mirror is applied to the
paths themselves: theta_x -> pi - theta_x mirrors the beam grid left to
right, theta_z -> pi - theta_z top to bottom, because the codebook's sensor
grid is sign-symmetric on both axes.
"""
import dataclasses

import numpy as np
import pytest

from mmdepth import pipeline
from mmdepth.channel import RadioConfig, beamformed_taps_batch, delay_window_length
from mmdepth.codebook import SceneView, UpaConfig, design_codebook
from mmdepth.estimator import joint_processing
from mmdepth.pipeline import config_from_dict, run_scenario
from mmdepth.scene import build_scene, trace_backscatter_paths


@pytest.mark.parametrize("os", [1, 2])
@pytest.mark.parametrize("name", ["two_walls", "pillar_room"])
@pytest.mark.parametrize("dense", [False, True])
def test_taps_mirror_with_the_paths(name, dense, os):
    # two_walls' longest run of equal centre taps is 230 paths, so its
    # factored taps couple chunks of runs, not whole blocks, at either os.
    upa, radio = UpaConfig(), RadioConfig()
    cb = design_codebook(upa, SceneView(os_h=os, os_v=os))
    paths = trace_backscatter_paths(build_scene({"builtin": name}, cb.view), radio.wavelength_m, 0.05, 0)
    l_d = delay_window_length(paths.max_delay_s, radio.sample_period_s, guard=64)
    # The factored beam grids the pipeline passes, or the dense (M, N) matrix.
    beams = cb.weights if dense else tuple(f.reshape(cb.n_bar_v, cb.n_bar_h, -1) for f in cb.axis_factors)

    def taps(p):
        return beamformed_taps_batch(p, beams, upa, radio, l_d).reshape(cb.n_bar_v, cb.n_bar_h, l_d)

    want = taps(paths)
    peak = np.abs(want).max()
    # Measured within 2.7e-15 of the peak at os 1 and 3.8e-15 at os 2, on both
    # scenes and both mirrors.
    left_right = taps(dataclasses.replace(paths, theta_x=np.pi - paths.theta_x))
    assert np.abs(left_right - want[:, ::-1]).max() <= 1e-14 * peak
    up_down = taps(dataclasses.replace(paths, theta_z=np.pi - paths.theta_z))
    assert np.abs(up_down - want[::-1]).max() <= 1e-14 * peak


@pytest.mark.parametrize("name", ["two_walls", "pillar_room"])
def test_cancellation_mirrors_with_the_rows(name):
    # Cancellation is per beam: fed the matched-filter rows and noise levels
    # of the mirrored beam grid, it returns the mirrored delay sets exactly.
    cfg = config_from_dict({"scene": {"builtin": name}, "sim": {"seed": 0}})
    obs = pipeline.simulate(cfg)
    cb = obs.codebook
    sets, truncated = pipeline._detect(obs, cfg)
    beams = np.arange(cb.m).reshape(cb.n_bar_v, cb.n_bar_h)
    for flip in (np.fliplr, np.flipud):
        order = flip(beams).ravel()
        mirrored = dataclasses.replace(obs, correlation=obs.correlation[order], noise_var=obs.noise_var[order])
        got, again = pipeline._detect(mirrored, cfg)
        assert again == truncated
        for m, delays in zip(order, got):
            assert delays.dtype == sets[m].dtype and np.array_equal(delays, sets[m])


def test_joint_selection_is_not_mirror_equivariant(monkeypatch):
    # The neighborhood is raster-causal (left, above-left, above,
    # above-right), so mirrored candidate sets change picks that a
    # per-beam rule would keep: 84 of 256 on pillar_room at sim seed 0.
    seen, cancel = [], pipeline.cancel_candidates
    monkeypatch.setattr(pipeline, "cancel_candidates", lambda *a: seen.append(cancel(*a)) or seen[-1])
    art = run_scenario(config_from_dict({"scene": {"builtin": "pillar_room"}, "sim": {"seed": 0}}))
    cb = art.codebook
    sets = [r.delays for r in seen]
    mirrored = [sets[v * cb.n_bar_h + h] for v in range(cb.n_bar_v) for h in reversed(range(cb.n_bar_h))]
    again, _ = joint_processing(sets, cb.n_bar_h, cb.n_bar_v)
    picks, filled = joint_processing(mirrored, cb.n_bar_h, cb.n_bar_v)
    assert np.array_equal(again, art.selected)
    assert np.array_equal(np.fliplr(filled), art.filled)  # which beams are empty is per beam
    assert np.count_nonzero(np.fliplr(picks) != art.selected) > 0
