"""
Acceptance gate: ten numbered end-to-end criteria.

Each test prints exactly one line

    CRITERION n: PASS/FAIL - detail

outside pytest's capture, so the verdicts stream even on quiet runs, then
asserts the same conditions. Thresholds are frozen here on purpose; loosen
nothing without revisiting the physics that set them.

Runtime budgets are asserted where a criterion carries one. The end-to-end
criteria use the library defaults (16x16 array, 100 degree field of view,
2 GHz bandwidth, 30 dBm, 3328-sample spread preamble) so they measure the
shipped configuration, not a tuned test setup.
"""
import filecmp
import time

import numpy as np
import pytest
from scipy.constants import c as SPEED_OF_LIGHT

from mmdepth.channel import (
    beamformed_taps_batch,
    noise_variance,
    pulse_taps,
)
from mmdepth.codebook import SceneView, UpaConfig, design_codebook, steering_vector
from mmdepth.estimator import (
    basic_correlator,
    build_bank,
    cross_correlation,
    massive_correlator,
    preamble_energy,
    sic_candidates,
)
from mmdepth.metrics import crlb_range, map_errors
from mmdepth.pipeline import config_from_dict, run_scenario, sweep
from mmdepth.scene import PathSet
from mmdepth.waveform import synthesize_rx

L_D = 160  # delay-window length for the synthetic single-record criteria


def _line(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def record_builder(radio, golay_preamble):
    """Noiseless multi-path records with exactly known path parameters."""
    ts = radio.sample_period_s

    def build(delay_samples, amplitudes):
        idx, val = pulse_taps(np.asarray(delay_samples, float) * ts, L_D, ts, radio.rolloff)
        taps = np.zeros(L_D, dtype=complex)
        for p in range(idx.shape[0]):
            np.add.at(taps, idx[p], amplitudes[p] * val[p])
        return synthesize_rx(taps, golay_preamble, radio, 1.0, rng=None).samples

    return build


def test_criterion_01_codebook_matches_sensor_grid(capsys):
    # Every beam's design direction, cast as a ray from the array, must hit
    # the focal plane y = F_L at that beam's grid point (relative to the
    # grid scale), for the native grid and the 2x oversampled one.
    t0 = time.perf_counter()
    worst = 0.0
    for os in (1, 2):
        view = SceneView(os_h=os, os_v=os)
        cb = design_codebook(UpaConfig(), view)
        u_x = np.cos(cb.theta_x)
        u_z = np.cos(cb.theta_z)
        u_y = np.sqrt(1.0 - u_x**2 - u_z**2)
        scale = view.focal_length_m / u_y
        hits = np.stack([u_x * scale, u_z * scale], axis=-1)
        grid = cb.grid_points[..., [0, 2]]
        err = np.abs(hits - grid).max() / np.abs(grid).max()
        worst = max(worst, float(err))
        assert np.allclose(cb.grid_points[..., 1], view.focal_length_m)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _line(capsys, 1, ok, f"grid-match max rel err {worst:.2e} (os 1 and 2), {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_02_correlator_delay_accuracy(capsys, record_builder, golay_preamble, radio):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    on_grid_exact = all(
        basic_correlator(record_builder([d], [1e-5]), golay_preamble) == d
        for d in rng.integers(10, 140, 50)
    )
    # fine grid at 100x the sample rate: range step c*T_s/200 = 0.075 cm
    bank = build_bank(golay_preamble, 100, radio.rolloff)
    half_bin_m = 0.5 * SPEED_OF_LIGHT * radio.sample_period_s
    worst_m = 0.0
    for _ in range(200):
        true_delay = rng.uniform(20.0, 140.0)
        y = record_builder([true_delay], [1e-5])
        q = basic_correlator(y, golay_preamble)
        f = massive_correlator(cross_correlation(y, golay_preamble), bank, q)
        worst_m = max(worst_m, abs((q + f - true_delay) * half_bin_m))
    elapsed = time.perf_counter() - t0
    ok = on_grid_exact and worst_m <= 7.5e-4 and elapsed < 10.0
    _line(
        capsys, 2, ok,
        f"on-grid exact={on_grid_exact}, off-grid worst {worst_m * 100:.4f} cm "
        f"(limit 0.075 cm, 200 draws), {elapsed:.1f}s",
    )
    assert on_grid_exact
    assert worst_m <= 7.5e-4
    assert elapsed < 10.0


def test_criterion_03_sic_recovers_multipath_sets(capsys, record_builder, golay_preamble, radio):
    # 100 noiseless records of 2 to 4 paths, pairwise separation at least 8
    # samples (several pulse mainlobe widths), amplitudes within 20 dB; the
    # detected delay set must equal the injected one in at least 99 records.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    e_q = preamble_energy(golay_preamble)
    amp_floor = 0.1e-5
    threshold = (0.3 * np.sqrt(radio.symbol_energy_j) * amp_floor * e_q) ** 2
    hits = 0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        while True:
            delays = np.sort(rng.integers(10, 140, k))
            if np.diff(delays).min() >= 8:
                break
        amps = rng.uniform(0.1, 1.0, k) * 1e-5 * np.exp(1j * rng.uniform(0, 2 * np.pi, k))
        res = sic_candidates(record_builder(delays, amps), golay_preamble, threshold)
        hits += set(res.delays.tolist()) == set(delays.tolist())
    elapsed = time.perf_counter() - t0
    ok = hits >= 99 and elapsed < 30.0
    _line(capsys, 3, ok, f"exact delay sets {hits}/100 (need >= 99), {elapsed:.1f}s")
    assert hits >= 99
    assert elapsed < 30.0


def test_criterion_04_one_wall_end_to_end_error(capsys):
    t0 = time.perf_counter()
    cfg = config_from_dict({"name": "one_wall", "scene": {"builtin": "one_wall", "distance_m": 7.0}})
    art = run_scenario(cfg)
    depth_mae = art.reports["depth"].mae_m
    range_mae = art.reports["range"].mae_m
    elapsed = time.perf_counter() - t0
    ok = depth_mae <= 0.25 and range_mae <= 0.2 and elapsed < 300.0
    _line(
        capsys, 4, ok,
        f"one_wall 7 m: depth MAE {depth_mae:.4f} m (limit 0.25), "
        f"range MAE {range_mae:.4f} m (limit 0.20), {elapsed:.1f}s",
    )
    assert depth_mae <= 0.25
    assert range_mae <= 0.2
    assert elapsed < 300.0


def test_criterion_05_two_walls_depth_transition(capsys):
    # The half-width front wall puts a vertical depth step in the map; the
    # estimated step column (strongest jump of the column-mean depth
    # profile) must land within one beam of the ray-cast truth column.
    t0 = time.perf_counter()
    cfg = config_from_dict({"name": "two_walls", "scene": {"builtin": "two_walls"}})
    art = run_scenario(cfg)

    def transition_col(depth_map):
        return int(np.argmax(np.diff(depth_map.mean(axis=0)))) + 1

    gt_col = transition_col(art.gt_depth)
    est_col = transition_col(art.depth_map)
    elapsed = time.perf_counter() - t0
    ok = abs(est_col - gt_col) <= 1 and elapsed < 300.0
    _line(
        capsys, 5, ok,
        f"two_walls transition: estimated col {est_col} vs truth col {gt_col} "
        f"(tolerance +-1 beam), {elapsed:.1f}s",
    )
    assert abs(est_col - gt_col) <= 1
    assert elapsed < 300.0


def test_criterion_06_error_drops_with_distance(capsys):
    # Near walls are clutter-limited: the pulse footprint spans a wide range
    # spread inside each beam, so the 1 m wall must score strictly worse
    # than the 7 m wall, and the far wall must stay within the map budget.
    t0 = time.perf_counter()
    base = {"name": "one_wall", "scene": {"builtin": "one_wall"}}
    rows = sweep(base, "distance", [1.0, 3.0, 5.0, 7.0])
    near, far = rows[0], rows[-1]
    elapsed = time.perf_counter() - t0
    ok = (
        near["depth_mae_m"] > far["depth_mae_m"]
        and near["range_mae_m"] > far["range_mae_m"]
        and far["depth_mae_m"] <= 0.25
        and elapsed < 900.0
    )
    profile = ", ".join(f"{r['value']:.0f}m={r['depth_mae_m']:.4f}" for r in rows)
    _line(
        capsys, 6, ok,
        f"depth MAE by distance: {profile}; 1 m worse than 7 m in depth and range, "
        f"7 m depth <= 0.25, {elapsed:.1f}s",
    )
    assert near["depth_mae_m"] > far["depth_mae_m"]
    assert near["range_mae_m"] > far["range_mae_m"]
    assert far["depth_mae_m"] <= 0.25
    assert elapsed < 900.0


def test_criterion_07_estimator_respects_crlb(capsys, golay_preamble, radio):
    t0 = time.perf_counter()
    bandwidth = 1.0 / radio.sample_period_s
    base = crlb_range(1.0, 3328, bandwidth)
    halves = crlb_range(1.0, 6656, bandwidth)
    quarters = crlb_range(1.0, 3328, 2.0 * bandwidth)
    scaling_ok = abs(halves - base / 2.0) <= 1e-12 * base and abs(
        quarters - base / 4.0
    ) <= 1e-12 * base

    # Monte Carlo on single-path records: per-sample SNR 0.0285 integrates
    # to ~20 dB after the 3328-sample matched filter, high enough that the
    # refinement works in its asymptotic regime while the bound (0.30 cm
    # sigma) stays well above the 0.075 cm fine-grid step.
    snr = 0.0285
    sigma_n = noise_variance(radio)
    amp = np.sqrt(snr * sigma_n / radio.symbol_energy_j)
    bound = crlb_range(snr, 3328, bandwidth)
    ts = radio.sample_period_s
    true_delay = 80.3
    idx, val = pulse_taps(np.array([true_delay * ts]), L_D, ts, radio.rolloff)
    taps = np.zeros(L_D, dtype=complex)
    np.add.at(taps, idx[0], amp * val[0])
    bank = build_bank(golay_preamble, 100, radio.rolloff)
    rng = np.random.default_rng(2026)
    estimates = []
    for _ in range(500):
        y = synthesize_rx(taps, golay_preamble, radio, 1.0, rng=rng).samples
        q = basic_correlator(y, golay_preamble)
        f = massive_correlator(cross_correlation(y, golay_preamble), bank, q)
        estimates.append(0.5 * SPEED_OF_LIGHT * ts * (q + f))
    var = float(np.var(estimates))
    ratio = var / bound
    elapsed = time.perf_counter() - t0
    ok = scaling_ok and 1.0 <= ratio <= 3.0 and elapsed < 60.0
    _line(
        capsys, 7, ok,
        f"bound halves/quarters exactly: {scaling_ok}; MC var/bound {ratio:.3f} "
        f"(500 trials, need >= 1, near-efficient < 3), {elapsed:.1f}s",
    )
    assert scaling_ok
    assert ratio >= 1.0
    assert ratio <= 3.0  # refinement should track the bound, not just exceed it
    assert elapsed < 60.0


def test_criterion_08_error_metric_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    dominance = True
    for _ in range(1000):
        rep = map_errors(rng.normal(size=(4, 4)), rng.normal(size=(4, 4)))
        dominance &= rep.rmse_m >= rep.mae_m - 1e-15
    same = map_errors(np.full((3, 3), 2.5), np.full((3, 3), 2.5))
    zero_ok = same.rmse_m == 0.0 and same.mae_m == 0.0
    pair = map_errors(np.array([[0.0, 2.0]]), np.array([[0.0, 0.0]]))
    closed_ok = pair.mae_m == 1.0 and pair.rmse_m == pytest.approx(np.sqrt(2.0), rel=1e-15)
    elapsed = time.perf_counter() - t0
    ok = dominance and zero_ok and closed_ok
    _line(
        capsys, 8, ok,
        f"RMSE >= MAE on 1000 random pairs: {dominance}; zero on identical: {zero_ok}; "
        f"errors (0,2) give MAE 1 and RMSE sqrt(2): {closed_ok}, {elapsed:.1f}s",
    )
    assert dominance and zero_ok and closed_ok


def test_criterion_09_taps_match_explicit_contraction(capsys, radio):
    # The batched beamformed taps must equal the per-path outer-product
    # contraction w^H (a a^H) f laid onto the pulse taps, for random arrays
    # up to 16 elements and up to 8 paths.
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    ts = radio.sample_period_s
    worst = 0.0
    for _ in range(50):
        n_h = int(rng.integers(2, 5))
        n_v = int(rng.integers(2, 5))
        n = n_h * n_v
        upa = UpaConfig(n_h=n_h, n_v=n_v)
        k = int(rng.integers(1, 9))
        paths = PathSet(
            delay_s=rng.uniform(10, 100, k) * ts,
            amplitude=(rng.normal(size=k) + 1j * rng.normal(size=k)) * 1e-6,
            theta_z=rng.uniform(0.3, np.pi - 0.3, k),
            theta_x=rng.uniform(0.3, np.pi - 0.3, k),
            range_m=np.ones(k),
            specular=np.zeros(k, dtype=bool),
        )
        weights = np.exp(1j * rng.uniform(0, 2 * np.pi, (3, n)))
        got = beamformed_taps_batch(paths, weights, upa, radio, L_D)
        idx, val = pulse_taps(paths.delay_s, L_D, ts, radio.rolloff)
        ref = np.zeros((3, L_D), dtype=complex)
        for m in range(3):
            w = weights[m]
            for q in range(k):
                a = steering_vector(paths.theta_z[q], paths.theta_x[q], upa)
                coupling = w.conj() @ np.outer(a, a.conj()) @ w
                ref[m, idx[q]] += paths.amplitude[q] * coupling * val[q]
        worst = max(worst, float(np.abs(got - ref).max() / np.abs(ref).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    _line(
        capsys, 9, ok,
        f"batched taps vs explicit contraction: max rel err {worst:.2e} "
        f"(50 draws, limit 1e-10), {elapsed:.1f}s",
    )
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_10_runs_are_byte_reproducible(capsys, tmp_path):
    t0 = time.perf_counter()
    mismatches = []
    for builtin in ("one_wall", "two_walls", "pillar_room"):
        cfg = config_from_dict({"name": builtin, "scene": {"builtin": builtin}})
        dir_a = tmp_path / f"{builtin}_a"
        dir_b = tmp_path / f"{builtin}_b"
        run_scenario(cfg, out_dir=dir_a)
        run_scenario(cfg, out_dir=dir_b)
        names = sorted(
            p.name for p in dir_a.iterdir() if p.suffix in (".pgm", ".csv")
        )
        assert names, "runs produced no comparable artifacts"
        for name in names:
            if not filecmp.cmp(dir_a / name, dir_b / name, shallow=False):
                mismatches.append(f"{builtin}/{name}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _line(
        capsys, 10, ok,
        "identical PGM/CSV bytes across repeated runs of all three builtins"
        + (f"; mismatches: {mismatches}" if mismatches else "")
        + f", {elapsed:.1f}s",
    )
    assert not mismatches
