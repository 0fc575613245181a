"""
Command-line front end.

    mmdepth run           one scenario end to end, artifacts to a directory
    mmdepth sweep         rerun a scenario over a parameter list, CSV out
    mmdepth ground-truth  ray-cast reference maps only
    mmdepth codebook-dump write the beam codebook as CSV

Every subcommand starts from the built-in defaults, optionally overlaid
with --config FILE (JSON), then --scenario, then repeatable --set
dotted.key=value overrides (values parse as JSON when possible, else
literal strings). Those three are the only ways to set a config value:
the display size, for one, is --set 'output.resolution=[rows,cols]'. A
section's keys overlay its defaults, except the scene section's: a scene
section replaces the default scene whole, so it must name one itself
(--scenario one_wall --set scene.distance_m=5, not --set
scene.distance_m=5 alone).

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .io import write_pgm16
from .pipeline import _sweep_configs, _sweep_rows, apply_override, config_from_dict, run_scenario
from .codebook import beam_grid, design_codebook, write_codebook_csv
from .scene import BUILTIN_SCENES, ground_truth_maps

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _ConfigError(Exception):
    """Bad config file, flag, or override; maps to exit code 2."""


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON scenario config")
    p.add_argument(
        "--scenario",
        choices=sorted(BUILTIN_SCENES),
        help="builtin scene shortcut (resets the scene section)",
    )
    p.add_argument(
        "--set",
        dest="overrides",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="dotted config override, e.g. --set radio.tx_power_dbm=20 (repeatable)",
    )


def _assemble_config_dict(args) -> dict:
    try:
        data: dict = {}
        if args.config:
            with open(args.config) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError(f"--config {args.config} must hold a JSON object, got {type(data).__name__}")
        if args.scenario:
            data["scene"] = {"builtin": args.scenario}
            data["name"] = args.scenario
        for item in args.overrides:
            key, sep, raw = item.partition("=")
            if not sep or not key:
                raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
            apply_override(data, key, _parse_set_value(raw))
        return data
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        raise _ConfigError(str(exc)) from None


def _validated_config(data: dict):
    try:
        return config_from_dict(data)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None


def _cmd_run(args) -> int:
    cfg = _validated_config(_assemble_config_dict(args))
    art = run_scenario(cfg, out_dir=args.out)
    for key, rep in art.reports.items():
        print(f"{key}: rmse {rep.rmse_m:.4f} m, mae {rep.mae_m:.4f} m over {rep.n_valid} px")
    counts = art.counts
    print(
        f"beams {counts['beams']}, paths {counts['n_paths']}, filled {counts['filled_beams']}, "
        f"truncated {counts['truncated_beams']}, air time {counts['air_time_s'] * 1e3:.3f} ms"
    )
    if args.out:
        print(f"artifacts in {args.out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    data = _assemble_config_dict(args)
    values = [_parse_set_value(v) for v in args.values.split(",") if v != ""]
    if not values:
        raise _ConfigError("--values is empty")
    try:  # every value, before the first run
        configs = _sweep_configs(data, args.parameter, values)
    except ValueError as exc:
        raise _ConfigError(str(exc)) from None
    rows = _sweep_rows(args.parameter, values, configs, out_dir=args.out)
    for row in rows:
        print(
            f"{args.parameter}={row['value']}: range rmse {row['range_rmse_m']:.4f} m, "
            f"depth rmse {row['depth_rmse_m']:.4f} m, filled {row['filled_beams']}"
        )
    if args.out:
        print(f"sweep table in {Path(args.out) / 'sweep.csv'}")
    return EXIT_OK


def _cmd_ground_truth(args) -> int:
    cfg = _validated_config(_assemble_config_dict(args))
    resolution = cfg.output.resolution or beam_grid(cfg.upa, cfg.view)
    gt_range, gt_depth = ground_truth_maps(cfg.built_scene, cfg.view, resolution)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pgm16(out / "gt_range.pgm", gt_range)
    write_pgm16(out / "gt_depth.pgm", gt_depth)
    print(f"ground truth at {resolution[0]}x{resolution[1]} px in {out}")
    return EXIT_OK


def _cmd_codebook_dump(args) -> int:
    cfg = _validated_config(_assemble_config_dict(args))
    cb = design_codebook(cfg.upa, cfg.view, **asdict(cfg.codebook))
    write_codebook_csv(cb, args.out)
    print(f"{cb.m} beams ({cb.n_bar_v}x{cb.n_bar_h}) in {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmdepth",
        description="millimeter-wave beam-swept depth map simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario end to end")
    _add_config_args(p_run)
    p_run.add_argument("--out", metavar="DIR", help="artifact output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="rerun over a parameter list")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--parameter", required=True, metavar="NAME", help="config path like radio.tx_power_dbm or a short name: tx_power, preamble_len, distance, upa_size, os_factor")
    p_sweep.add_argument(
        "--values", required=True, metavar="V1,V2,...", help="comma-separated values"
    )
    p_sweep.add_argument("--out", metavar="DIR", help="directory for sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gt = sub.add_parser("ground-truth", help="ray-cast reference maps only")
    _add_config_args(p_gt)
    p_gt.add_argument("--out", required=True, metavar="DIR")
    p_gt.set_defaults(func=_cmd_ground_truth)

    p_cb = sub.add_parser("codebook-dump", help="write the beam codebook as CSV")
    _add_config_args(p_cb)
    p_cb.add_argument("--out", required=True, metavar="FILE")
    p_cb.set_defaults(func=_cmd_codebook_dump)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
