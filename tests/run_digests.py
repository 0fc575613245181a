"""
Print SHA-256 digests of what a run computes and writes, one line per item,
so that two source trees can be compared bit for bit:

    PYTHONPATH=src python tests/run_digests.py > before.txt
    (in the other tree, the same command) > after.txt
    diff before.txt after.txt

Run both trees under the same BLAS thread settings: the taps and the records
depend on the thread count (decisions and maps did not, where measured). The
first line names them, "OPENBLAS_NUM_THREADS=<n> OMP_NUM_THREADS=<n>
MKL_NUM_THREADS=<n>" with "unset" for a variable that is not set, so that
diff shows a mismatch.

Every other line is "<case> <item> <sha256>". The items, in pipeline order:
codebook (combine_norm_sq, both axis factors and the weights as read, in
that order), paths.<column> for every PathSet column, taps, records (the
records Observation.samples rebuilds), noise (each beam's tail noise level,
Observation.noise_var), correlation (the (M, l_d + 1) matched-filter
matrix, Observation.correlation; the run forms it without filtering a
record), candidates (each beam's SIC
delay set, iteration count and truncation flag, in beam order), selected,
offsets (the fine offsets as integer indices on the refinement grid),
filled, every estimated map and its truth (map.<key>, truth.<key> for each
key of RunArtifacts.map_pairs), and file.<name> for each artifact the run
writes; run.json is digested without its timings_s. The first differing item
of a case shows where two trees part.

The cases are the benchmark workloads (their configs are read from
perfbench/run.py, not imported), one_wall at os 2 and pillar_room at os 2,
each at sim seeds 0-4.
Arguments, if given, are fnmatch patterns on the case names:

    PYTHONPATH=src python tests/run_digests.py 'wall/*' 'one_wall_os2/*'
"""
from __future__ import annotations

import ast
import fnmatch
import hashlib
import json
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from mmdepth import pipeline
from mmdepth.pipeline import config_from_dict, run_scenario
from mmdepth.scene import PathSet

BENCHMARK = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
SIM_SEEDS = range(5)
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def benchmark_workloads(path: Path = BENCHMARK) -> dict:
    """The WORKLOADS literal of the benchmark script: name -> spec with a "config"."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WORKLOADS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no WORKLOADS assignment in {path}")


def cases() -> dict:
    """Case name -> config dict."""
    configs = {name: spec["config"] for name, spec in benchmark_workloads().items()}
    for scene in ("one_wall", "pillar_room"):
        configs[f"{scene}_os2"] = {"scene": {"builtin": scene}, "view": {"os_h": 2, "os_v": 2}}
    out = {}
    for name, config in configs.items():
        for seed in SIM_SEEDS:
            data = json.loads(json.dumps(config))
            data.setdefault("sim", {})["seed"] = seed
            out[f"{name}/seed{seed}"] = data
    return out


def _sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else np.ascontiguousarray(data).tobytes()).hexdigest()


@contextmanager
def _kept(name: str, seen: dict):
    """Keep what the pipeline's calls to `name` return, in call order, in the list seen[name]."""
    original = getattr(pipeline, name)
    kept = seen.setdefault(name, [])

    def keep(*args, **kwargs):
        kept.append(original(*args, **kwargs))
        return kept[-1]

    setattr(pipeline, name, keep)
    try:
        yield
    finally:
        setattr(pipeline, name, original)


def _candidate_table(results) -> np.ndarray:
    """The SicResults of all beams as one int64 run: per beam, its delay count, iterations, truncation flag, delays."""
    return np.concatenate(
        [np.array([len(r.delays), r.iterations, r.truncated, *r.delays], dtype=np.int64) for r in results]
    )


def _codebook_bytes(cb) -> bytes:
    """combine_norm_sq, the axis factors (none for a quantized codebook) and the weights as read, as one run."""
    parts = [cb.combine_norm_sq, *(cb.axis_factors or ()), cb.weights]
    return b"".join(np.ascontiguousarray(part).tobytes() for part in parts)


def digests(config: dict) -> list[tuple[str, str]]:
    """(item, sha256) pairs of one run of `config`, in pipeline order."""
    cfg = config_from_dict(config)
    seen: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        with (
            _kept("trace_backscatter_paths", seen),
            _kept("beamformed_taps_batch", seen),
            _kept("cancel_candidates", seen),
        ):
            art = run_scenario(cfg, out_dir=tmp)
        (paths,), (taps,) = (seen[name] for name in ("trace_backscatter_paths", "beamformed_taps_batch"))
        items = [("codebook", _sha(_codebook_bytes(art.codebook)))]
        items += [(f"paths.{f.name}", _sha(getattr(paths, f.name))) for f in fields(PathSet)]
        items += [
            ("taps", _sha(taps)),
            ("records", _sha(np.stack([r.samples for r in art.records]))),
            ("noise", _sha(art.observation.noise_var)),
            ("correlation", _sha(art.observation.correlation)),
            ("candidates", _sha(_candidate_table(seen["cancel_candidates"]))),
            ("selected", _sha(art.selected.astype(np.int64))),
            ("offsets", _sha(np.rint(art.fine_offsets * cfg.estimator.refine_ratio).astype(np.int64))),
            ("filled", _sha(art.filled.astype(np.int64))),
        ]
        for key, (est, truth) in art.map_pairs.items():
            items += [(f"map.{key}", _sha(est)), (f"truth.{key}", _sha(truth))]
        for file in sorted(Path(f) for f in art.files):
            data = file.read_bytes()
            if file.name == "run.json":
                info = json.loads(data)
                info.pop("timings_s")
                data = json.dumps(info, sort_keys=True).encode()
            items.append((f"file.{file.name}", _sha(data)))
    return items


def main(patterns: list[str]) -> int:
    chosen = {n: c for n, c in cases().items() if not patterns or any(fnmatch.fnmatch(n, p) for p in patterns)}
    if not chosen:
        print(f"no case matches {patterns}; cases: {sorted(cases())}", file=sys.stderr)
        return 2
    print(" ".join(f"{var}={os.environ.get(var, 'unset')}" for var in BLAS_THREADS), flush=True)
    for name, config in chosen.items():
        for item, digest in digests(config):
            print(name, item, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
