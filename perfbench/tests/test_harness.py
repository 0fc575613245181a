"""
Tests of the benchmark harness itself: span arithmetic, percentile choice,
the output check, tracer coverage and the environment guards.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
import ast
import dataclasses
import inspect
import json
import types

import numpy as np
import pytest

import mmdepth.pipeline as pipeline
import run
from mmdepth.estimator import SicResult
from spans import (
    LAYERS,
    CoverageError,
    Span,
    Tracer,
    attribute,
    check_stages,
    check_wrapped,
    self_times,
)

SMALL = {
    "name": "small",
    "scene": {"builtin": "two_walls"},
    "upa": {"n_h": 8, "n_v": 8},
    "output": {"resolution": [18, 32]},
}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def _span(sid, parent, layer, start, end, name="f"):
    return Span(sid, parent, layer, name, start, end)


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span(0, None, "pipeline", 0.0, 10.0),
        _span(1, 0, "channel", 1.0, 4.0),
        _span(2, 1, "estimator", 2.0, 3.0),   # grandchild: only its parent loses it
        _span(3, 0, "scene", 5.0, 9.0),
        _span(4, 0, "io", 8.0, 9.5),          # overlaps span 3: union, not sum
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 7.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5})
    # Overlapping siblings each keep their own time: busy sums count it twice.
    assert sum(selfs.values()) == pytest.approx(10.0 + 1.0)


def test_attribute_places_spans_in_stages_by_midpoint():
    spans = [
        _span(0, None, "pipeline", 100.0, 112.0),
        _span(1, 0, "scene", 100.5, 101.5),
        _span(2, 0, "estimator", 102.0, 105.0),
        _span(3, 2, "metrics", 103.0, 104.0),
        _span(4, 0, "estimator", 106.0, 108.0),
        _span(5, 0, "io", 110.5, 111.0),      # after the last stage
    ]
    timings = {"scene_paths": 2.0, "sic": 4.0, "refine": 4.0, "total": 10.0}
    att = attribute(spans, timings)
    assert att["root_s"] == pytest.approx(12.0)
    assert att["pipeline_self_s"] == pytest.approx(12.0 - 1.0 - 3.0 - 2.0 - 0.5)
    assert att["busy_s"]["estimator"] == pytest.approx(2.0 + 2.0)
    assert att["by_stage_s"][("scene", "scene_paths")] == pytest.approx(1.0)
    assert att["by_stage_s"][("estimator", "sic")] == pytest.approx(2.0)
    assert att["by_stage_s"][("metrics", "sic")] == pytest.approx(1.0)
    assert att["by_stage_s"][("estimator", "refine")] == pytest.approx(2.0)
    assert att["by_stage_s"][("io", "artifacts")] == pytest.approx(0.5)
    length, covered = att["stage_coverage"]["sic"]
    assert (length, covered) == pytest.approx((4.0, 3.0))


def test_check_stages_rejects_a_stage_without_spans():
    timings = {s: 1.0 for s in ("scene_paths", "ground_truth", "sic", "joint", "refine", "maps")}
    spans = [_span(0, None, "pipeline", 0.0, 6.0)]
    spans += [
        _span(i + 1, 0, "estimator", i + 0.1, i + 0.9)
        for i in range(6)
        if i != 2  # nothing traced during "sic"
    ]
    with pytest.raises(CoverageError, match="sic"):
        check_stages(attribute(spans, timings), timings)
    spans.append(_span(9, 0, "estimator", 2.1, 2.9))
    check_stages(attribute(spans, timings), timings)
    with pytest.raises(CoverageError, match="gone"):
        check_stages(attribute(spans, {**timings, "total": 6.0}), {"sic": 1.0})


# ---------------------------------------------------------------------------
# Percentile choice
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_high_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.high_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 57, 100, 200, 1000, 4321])
def test_chosen_percentile_has_ten_distinct_samples_above_it(n):
    values = list(np.random.default_rng(n).permutation(n).astype(float))
    p = run.high_percentile(n)
    cut = run.nearest_rank(values, p)
    assert sum(v > cut for v in values) >= 10
    higher = [q for q in run.PERCENTILE_LADDER if q > p]
    for q in higher:
        assert sum(v > run.nearest_rank(values, q) for v in values) < 10


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    cfg = pipeline.config_from_dict(SMALL)
    return pipeline.run_scenario(cfg, out_dir=tmp_path_factory.mktemp("small"))


def test_output_check_accepts_a_clean_run(small_run):
    assert run.check_output(small_run) == []


def test_output_check_rejects_corrupted_maps(small_run):
    art = small_run
    finite = np.argwhere(np.isfinite(art.gt_depth))[0]
    holed = art.depth_map.copy()
    holed[tuple(finite)] = np.nan
    assert any("non-finite" in p for p in run.check_output(
        dataclasses.replace(art, depth_map=holed)))

    out_holed = art.out_range.copy()
    out_holed[np.isfinite(art.gt_range_out)] = np.inf
    assert any("out_range" in p for p in run.check_output(
        dataclasses.replace(art, out_range=out_holed)))

    assert any("shape" in p for p in run.check_output(
        dataclasses.replace(art, range_map=art.range_map[:-1])))
    assert any("shape" in p for p in run.check_output(
        dataclasses.replace(art, out_depth=None)))
    assert any("selected" in p for p in run.check_output(
        dataclasses.replace(art, selected=art.selected[:, :-1])))


def test_error_check_bounds_the_median_mae():
    assert run.check_error(0.2, 0.25) == []
    assert run.check_error(0.25, 0.25) == []
    assert any("ceiling" in p for p in run.check_error(0.26, 0.25))
    assert run.check_error(float("nan"), 0.25)


def test_same_result_detects_a_changed_delay(small_run):
    art = small_run
    assert run.same_result(art, art)
    moved = art.selected.copy()
    moved[0, 0] += 1
    assert not run.same_result(art, dataclasses.replace(art, selected=moved))


# ---------------------------------------------------------------------------
# Tracer coverage
# ---------------------------------------------------------------------------

def _layer_imports() -> set[str]:
    """Function names pipeline.py imports from layer modules, read from its source."""
    tree = ast.parse(inspect.getsource(pipeline))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in LAYERS:
            module = __import__(f"mmdepth.{node.module}", fromlist=["_"])
            for alias in node.names:
                if inspect.isfunction(getattr(module, alias.name)):
                    names.add(alias.asname or alias.name)
    return names


def test_tracer_wraps_every_layer_function_the_pipeline_imports():
    names = _layer_imports()
    assert {"beamformed_taps_batch", "sic_candidates", "ground_truth_maps", "write_pgm16"} <= names
    originals = {n: getattr(pipeline, n) for n in names}
    with Tracer().installed(pipeline):
        for name in names:
            wrapped = getattr(pipeline, name)
            layer = originals[name].__module__.rsplit(".", 1)[1]
            assert wrapped is not originals[name], name
            assert wrapped.__perfbench_layer__ == layer, name
    for name in names:
        assert getattr(pipeline, name) is originals[name], name


def test_check_wrapped_fails_loudly_on_an_untraced_layer_call():
    import mmdepth.estimator as estimator

    with pytest.raises(CoverageError, match="sic_candidates"):
        check_wrapped({"sic_candidates": estimator.sic_candidates})
    with pytest.raises(CoverageError, match="module mmdepth.estimator"):
        check_wrapped({"estimator": estimator})
    check_wrapped({"np": np, "SicResult": SicResult, "ok": types.SimpleNamespace})


def test_traced_run_matches_untraced_and_covers_the_run(small_run):
    cfg = pipeline.config_from_dict(SMALL)
    tracer = Tracer(observe=(SicResult,))
    with tracer.installed(pipeline):
        traced = tracer.root(pipeline.run_scenario, cfg)
    assert run.same_result(small_run, traced)
    metrics = run.layer_metrics(tracer, traced, SicResult)
    assert metrics["trace.coverage"] > 0.9
    assert metrics["channel.path_beams"] == traced.n_paths * traced.codebook.m
    assert metrics["estimator.sic_passes"] >= metrics["estimator.sic_candidates"] > 0
    assert metrics["scene.ray_facet_tests"] == (18 * 32 + 8 * 8) * len(traced.scene.facets)
    assert metrics["io.bytes_written"] == 0  # no out_dir


# ---------------------------------------------------------------------------
# Environment guards
# ---------------------------------------------------------------------------

def test_refuses_a_worker_pool():
    run.refuse_workers({})
    run.refuse_workers({"MMDEPTH_WORKERS": "1"})
    for bad in ("2", "x"):
        with pytest.raises(run.HarnessError):
            run.refuse_workers({"MMDEPTH_WORKERS": bad})


def test_thread_counts_default_to_one_and_never_exceed_nproc():
    env = {"OPENBLAS_NUM_THREADS": "64", "OMP_NUM_THREADS": "1"}
    run.cap_threads(env, 2)
    assert env == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_metric_tables_match_benchmark_json():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
