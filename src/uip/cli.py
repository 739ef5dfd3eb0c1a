"""Command line entry point: uip {synth|filter|train|eval|report}."""
from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import RunConfig, load_config
from .errors import ConfigError, DataError, DivergenceError
from .pipeline import (
    evaluate_model,
    filter_dataset,
    summarize_runs,
    synthesize_dataset,
    train_model,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _cmd_synth(args) -> int:
    cfg = _load(args)
    result = synthesize_dataset(cfg, args.out)
    for clip in result["clips"]:
        print(
            f"{clip['name']}: {clip['frames']} frames, "
            f"mean |a| {clip['mean_accel_ms2']:.3f} m/s^2"
        )
    print(f"wrote {len(result['files'])} files to {args.out}")
    return 0


def _cmd_filter(args) -> int:
    result = filter_dataset(args.data, args.out)
    cal = result["calibration"]
    print(f"range calibration: scale {cal.scale:.5f}, bias {cal.bias:.5f} m, {cal.inliers} inliers")
    for name, row in result["rmse"].items():
        raw = row["mean_raw_m"]
        filt = row["mean_filtered_m"]
        raw_s = f"{raw:.4f}" if raw is not None else "n/a"
        filt_s = f"{filt:.4f}" if filt is not None else "n/a"
        print(f"{name}: distance RMSE raw {raw_s} m -> filtered {filt_s} m")
    return 0


def _cmd_train(args) -> int:
    cfg = _load(args)
    _, log = train_model(args.data, args.out, cfg, no_distances=args.no_distances)
    last = log[-1]
    val = f", val {last['val_loss']:.5f}" if last["val_loss"] is not None else ""
    print(f"trained {len(log)} epochs; final train loss {last['train_loss']:.5f}{val}")
    print(f"checkpoint written to {args.out}/checkpoint.json")
    return 0


def _cmd_eval(args) -> int:
    result = evaluate_model(
        args.checkpoint, args.data, args.truth, args.out, no_distances=args.no_distances
    )
    for tag, rep in result["reports"].items():
        print(
            f"{tag}: SIP {rep.sip_error_deg:.3f} deg, position {rep.pos_error_cm:.3f} cm, "
            f"jitter {rep.jitter_km_s3:.4f} km/s^3"
        )
    return 0


def _cmd_report(args) -> int:
    table = summarize_runs(args.run)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uip",
        description="Inertial + ultra-wideband body tracking: synthesis, filtering, pose model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize ground truth, raw IMU, and raw ranging")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("filter", help="run calibration, orientation filter, and distance filter")
    p.add_argument("--data", required=True, help="synthesized dataset directory")
    p.add_argument("--out", required=True, help="output directory for filtered streams")
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("train", help="train the pose network on filtered streams")
    p.add_argument(
        "--data", action="append", required=True, help="filtered directory (repeatable)"
    )
    p.add_argument("--out", required=True, help="output directory for the checkpoint")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--seed", type=int, help="override the configured seed")
    p.add_argument(
        "--no-distances",
        action="store_true",
        help="ablation: train with every distance entry masked invalid",
    )
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint against ground truth")
    p.add_argument("--checkpoint", required=True, help="checkpoint header (JSON); its .npy tensor body lies beside it")
    p.add_argument("--data", required=True, help="filtered directory to run inference on")
    p.add_argument("--truth", required=True, help="synthesized dataset directory with ground truth")
    p.add_argument("--out", required=True, help="output directory for reports")
    p.add_argument(
        "--no-distances",
        action="store_true",
        help="ablation: evaluate with every distance entry masked invalid",
    )
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("report", help="tabulate one or more eval runs")
    p.add_argument("--run", action="append", required=True, help="eval directory (repeatable)")
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
