"""The bit-identity check tests/run_digests.py: its cases and its output format."""
import os
import re
import subprocess
import sys
from pathlib import Path

import run_digests
from run_digests import BLAS_THREADS, _candidate_table, _kept, benchmark_workloads, cases, digests

from mmdepth.pipeline import config_from_dict, run_scenario

SMALL = {
    "name": "unit",
    "upa": {"n_h": 4, "n_v": 4},
    "radio": {"tx_power_dbm": 50.0},
    "waveform": {"kind": "pn", "length": 256, "seed": 3},
    "sim": {"seed": 1, "cell_size_m": 0.15},
    "scene": {"builtin": "one_wall", "distance_m": 1.5},
    "output": {"resolution": [9, 7]},
}
ITEMS = [
    "codebook",
    *(f"paths.{c}" for c in ("delay_s", "amplitude", "theta_z", "theta_x", "range_m", "specular")),
    "taps", "records", "noise", "correlation", "candidates", "selected", "offsets", "filled",
    *(f"{kind}.{key}" for key in ("range", "depth", "range_out", "depth_out") for kind in ("map", "truth")),
]
FILES = [
    "depth.csv", "depth.pgm", "depth_out.pgm", "errors.csv", "gt_depth.pgm", "gt_depth_out.pgm",
    "gt_range.pgm", "gt_range_out.pgm", "range.csv", "range.pgm", "range_out.pgm", "run.json",
]


def test_cases_are_the_benchmark_workloads_and_two_scenes_at_os_2():
    workloads = benchmark_workloads()
    assert set(workloads) == {"wall", "two_walls", "room_display"}
    got = cases()
    assert len(got) == 5 * (len(workloads) + 2)
    for seed in range(5):
        for name, spec in workloads.items():
            assert got[f"{name}/seed{seed}"] == {**spec["config"], "sim": {"seed": seed}}
        for scene in ("one_wall", "pillar_room"):
            assert got[f"{scene}_os2/seed{seed}"] == {
                "scene": {"builtin": scene}, "view": {"os_h": 2, "os_v": 2}, "sim": {"seed": seed},
            }


def test_small_run_digests_every_item_and_file():
    got = digests(SMALL)
    assert [item for item, _ in got] == ITEMS + [f"file.{name}" for name in FILES]
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in got)
    assert got == digests(SMALL)  # timings_s is left out of run.json
    other = dict(digests({**SMALL, "sim": {**SMALL["sim"], "seed": 2}}))
    changed = {item for item, digest in got if other[item] != digest}
    # The scattering phases and the noise move; the codebook and the geometry do not.
    assert {"paths.amplitude", "taps", "records", "noise", "correlation"} <= changed
    assert not {"codebook", "paths.delay_s", "paths.theta_z", "truth.range", "truth.depth_out"} & changed


def test_candidates_are_every_beams_sic_result_in_beam_order():
    seen: dict = {}
    with _kept("cancel_candidates", seen):
        art = run_scenario(config_from_dict(SMALL))
    results = seen["cancel_candidates"]
    assert len(results) == art.codebook.m
    table = _candidate_table(results)
    assert len(table) == sum(3 + len(r.delays) for r in results)
    at = 0
    for r in results:
        assert list(table[at : at + 3 + len(r.delays)]) == [len(r.delays), r.iterations, r.truncated, *r.delays]
        at += 3 + len(r.delays)
    assert any(len(r.delays) for r in results)


def test_command_line_prints_one_line_per_item(monkeypatch, capsys):
    monkeypatch.setattr(run_digests, "cases", lambda: {"small/seed1": SMALL, "other/seed0": {}})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "2")
    assert run_digests.main(["small/*"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset MKL_NUM_THREADS=2"
    assert len(lines) == len(ITEMS) + len(FILES)
    assert all(re.fullmatch(r"small/seed1 [a-z_.]+ [0-9a-f]{64}", line) for line in lines)
    assert run_digests.main(["nothing*"]) == 2
    assert "no case matches" in capsys.readouterr().err


def test_script_runs_from_the_repository_root():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "tests/run_digests.py", "no-such-case"], cwd=root, capture_output=True, text=True,
        env={"PYTHONPATH": str(root / "src"), "PATH": ""},
    )
    assert done.returncode == 2, done.stderr
    assert "wall/seed0" in done.stderr and "one_wall_os2/seed4" in done.stderr


def test_decisions_do_not_depend_on_the_blas_thread_count():
    # The taps, and the records, noise levels and correlation rows filtered
    # from them, may round differently with another BLAS thread count; every
    # path column, candidate set, pick, offset, map and file may not.
    root = Path(__file__).resolve().parents[1]
    runs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "tests/run_digests.py", "two_walls/seed0", "one_wall_os2/seed0"], cwd=root,
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src"), **dict.fromkeys(BLAS_THREADS, threads)},
        )
        assert done.returncode == 0, done.stderr
        header, *lines = done.stdout.splitlines()
        assert header == " ".join(f"{var}={threads}" for var in BLAS_THREADS)
        runs.append([line for line in lines if line.split()[1] not in {"taps", "records", "noise", "correlation"}])
    assert runs[0] == runs[1]
    assert {line.split()[0] for line in runs[0]} == {"two_walls/seed0", "one_wall_os2/seed0"}
    assert {"paths.delay_s", "candidates", "selected", "offsets", "map.depth"} <= {line.split()[1] for line in runs[0]}
