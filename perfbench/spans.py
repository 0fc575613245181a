"""
Outside-in spans around the layer calls that mmdepth.pipeline makes.

The tracer replaces, for the duration of a `with` block, every function that
`mmdepth.pipeline` imported from a layer module (codebook, scene, channel,
waveform, estimator, metrics, io) by a wrapper that records one span per
call. Routing goes by the function's `__module__`, so a function a later
change adds to those imports is traced without editing this file. The
program itself is not modified: leaving the block puts the originals back.

Spans are kept in memory. Self time, layer busy time and the
per-stage attribution are computed afterwards from the span list and the
stage timings the pipeline already returns in `RunArtifacts.timings_s`.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import inspect
import os
import time
import types
from dataclasses import dataclass

LAYERS = ("codebook", "scene", "channel", "waveform", "estimator", "metrics", "io")
ROOT_LAYER = "pipeline"

# A stage of RunArtifacts.timings_s counts as untraced when no layer span
# falls in it, or when layer spans cover less than MIN_STAGE_COVERAGE of it and the uncovered part exceeds
# MIN_UNCOVERED_SHARE of the run: its time would otherwise drift silently
# into pipeline.self_s. The second condition keeps millisecond stages, whose
# coverage is noisy, from failing a run.
MIN_STAGE_COVERAGE = 0.5
MIN_UNCOVERED_SHARE = 0.01

# Stages that per-layer metrics are keyed on; each must appear in timings_s.
STAGES_USED = ("scene_paths", "ground_truth", "sic", "joint", "refine", "maps")


class CoverageError(RuntimeError):
    """The trace no longer covers what the pipeline does."""


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _layer_name(module_name: str) -> str | None:
    prefix, _, leaf = module_name.rpartition(".")
    return leaf if prefix == "mmdepth" and leaf in LAYERS else None


def layer_of(obj) -> str | None:
    """Layer name of a function defined in a mmdepth layer module, else None."""
    if not inspect.isfunction(obj):
        return None
    return _layer_name(obj.__module__ or "")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


class Tracer:
    """
    Records spans for calls into the layer modules of `mmdepth.pipeline`.

    Use as `with tracer.installed(pipeline_module): ...`; call `root()`
    around the top-level call so that pipeline self time has a span.
    `observed` collects layer results of the types in `observe` (the
    counters need SicResult), and `bytes_written` sums the files the io
    layer wrote.
    """

    def __init__(self, observe: tuple[type, ...] = ()) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._opened = 0
        self.observe = tuple(observe)
        self.observed: list = []
        self.bytes_written = 0

    def _open(self) -> tuple[int, int | None, float]:
        sid = self._opened
        self._opened += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid: int, parent, layer: str, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, layer, name, start, end))

    def root(self, fn, *args, **kwargs):
        """Call fn inside a pipeline-layer span and return its result."""
        sid, parent, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, ROOT_LAYER, fn.__name__, start)

    def _wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, layer, name, start)
            self._observe(layer, name, args, result)
            return result

        traced.__perfbench_layer__ = layer
        return traced

    def _observe(self, layer: str, name: str, args, result) -> None:
        if isinstance(result, self.observe):
            self.observed.append(result)
        if layer == "io" and name.startswith("write_") and args:
            self.bytes_written += os.path.getsize(args[0])

    @contextlib.contextmanager
    def installed(self, module: types.ModuleType):
        """Wrap the layer functions in `module`'s namespace for the block."""
        namespace = vars(module)
        saved = {name: obj for name, obj in namespace.items() if layer_of(obj) is not None}
        try:
            for name, obj in saved.items():
                namespace[name] = self._wrap(obj, layer_of(obj))
            check_wrapped(namespace)
            yield self
        finally:
            namespace.update(saved)


def check_wrapped(namespace: dict) -> None:
    """
    Raise CoverageError unless every layer function in `namespace` is traced.

    Also refuses a layer module bound as a name: calls made through module
    attributes (`estimator.fn(...)`) would bypass the wrappers.
    """
    missing = []
    for name, obj in namespace.items():
        if isinstance(obj, types.ModuleType):
            if _layer_name(obj.__name__):
                missing.append(f"{name} (module {obj.__name__})")
        elif callable(obj) and not inspect.isclass(obj) and not hasattr(obj, "__perfbench_layer__"):
            module = getattr(obj, "__module__", None) or ""
            if _layer_name(module):
                missing.append(f"{name} ({module})")
    if missing:
        raise CoverageError("layer calls left untraced: " + ", ".join(sorted(missing)))


def stage_intervals(t_start: float, timings_s: dict[str, float]) -> list[tuple[str, float, float]]:
    """
    Rebuild the consecutive stage intervals of one run from its timings.

    run_scenario clocks its stages back to back from one start time, so the
    stages in insertion order tile [t_start, t_start + sum]. 'total' is not
    a stage.
    """
    out = []
    t = t_start
    for name, dt in timings_s.items():
        if name == "total":
            continue
        out.append((name, t, t + dt))
        t += dt
    return out


def attribute(spans: list[Span], timings_s: dict[str, float]) -> dict:
    """
    Per-layer busy time, per-(layer, stage) self time and coverage of one run.

    The root span (layer 'pipeline') must be present. Layer spans are placed
    in the stage containing their midpoint; spans past the last stage (the
    artifact writing) fall in stage 'artifacts'.
    """
    roots = [s for s in spans if s.layer == ROOT_LAYER]
    if len(roots) != 1:
        raise CoverageError(f"expected one root span, found {len(roots)}")
    root = roots[0]
    selfs = self_times(spans)
    stages = stage_intervals(root.start, timings_s)
    bounds = [hi for _, _, hi in stages]

    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    by_stage: dict[tuple[str, str], float] = {}
    stage_spans: dict[str, list[tuple[float, float]]] = {name: [] for name, _, _ in stages}
    for s in spans:
        if s.layer == ROOT_LAYER:
            continue
        busy[s.layer] = busy.get(s.layer, 0.0) + selfs[s.sid]
        i = bisect.bisect_left(bounds, 0.5 * (s.start + s.end))
        stage = stages[i][0] if i < len(stages) else "artifacts"
        by_stage[(s.layer, stage)] = by_stage.get((s.layer, stage), 0.0) + selfs[s.sid]
        if stage in stage_spans:
            stage_spans[stage].append((s.start, s.end))

    stage_coverage = {
        name: (hi - lo, _covered(stage_spans[name], lo, hi)) for name, lo, hi in stages
    }
    return {
        "root_s": root.duration,
        "pipeline_self_s": selfs[root.sid],
        "busy_s": busy,
        "by_stage_s": by_stage,
        "stage_coverage": stage_coverage,  # name -> (duration, covered)
    }


def check_stages(attribution: dict, timings_s: dict[str, float]) -> None:
    """Raise CoverageError if a stage is untraced or a keyed stage is gone."""
    gone = [s for s in STAGES_USED if s not in timings_s]
    if gone:
        raise CoverageError(f"stages the per-layer metrics use are gone: {gone}")
    thin = {
        name: f"{covered / length:.1%} of {length:.4f} s"
        for name, (length, covered) in attribution["stage_coverage"].items()
        if covered == 0.0
        or (covered < MIN_STAGE_COVERAGE * length
            and length - covered > MIN_UNCOVERED_SHARE * attribution["root_s"])
    }
    if thin:
        raise CoverageError(f"stages left untraced by layer spans: {thin}")
