"""Command-line front end.

Subcommands: gen-data, train, propagate, eval, grad-check. Exit codes:
0 success, 1 usage error, 2 runtime error. Every random draw descends
from --seed (or the config's seed), so repeated invocations reproduce
their outputs byte for byte.
"""

import argparse
import math
import sys
from pathlib import Path

from . import (
    build_run_config,
    evaluate,
    load_run_config,
    params_from_checkpoint,
    propagate_and_save,
    train,
)
from .synthetic import gen_synthetic_dataset


def _finite_positive(text):
    """argparse type of --step: nan, inf, zero and negative steps are
    usage errors, refused before any work."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vidcorr",
        description="Self-supervised video correspondence: train, propagate, score.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add_config_args(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--seed", type=int, help="override the run seed")

    p = sub.add_parser("gen-data", help="write a synthetic moving-shapes dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-videos", type=int, default=8)
    p.add_argument("--eval-videos", type=int, default=4)
    p.add_argument("--canvas", type=int, default=32)
    p.add_argument("--frames", type=int, default=12)
    p.add_argument("--flicker", type=float, default=0.25,
                   help="per-frame brightness swing in [0, 1); 0 disables")

    p = sub.add_parser("train", help="run the training schedule")
    add_config_args(p)
    p.add_argument("--resume", metavar="CKPT",
                   help="continue from a checkpoint written under the same config")

    p = sub.add_parser("propagate", help="propagate first-frame labels through one video")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--video", required=True, help="directory with frame_*.ppm and mask_00000.pgm")
    p.add_argument("--out", required=True, help="directory for predicted masks")

    p = sub.add_parser("eval", help="score label propagation on the eval split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="dataset root (defaults to the checkpoint's)")

    p = sub.add_parser("grad-check", help="finite-difference check of the training losses")
    p.add_argument("--step", type=_finite_positive, default=1e-3,
                   help="finite-difference step, a finite positive number")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _collect_config(args):
    """The run config of --config, --set and --seed; a value that the
    config rejects is a usage error."""
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise KeyError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        if args.config:
            return load_run_config(args.config, overrides)
        return build_run_config(overrides)
    except (TypeError, ValueError) as e:
        raise KeyError(str(e)) from None


def _cmd_gen_data(args):
    try:
        train_dir, val_dir = gen_synthetic_dataset(
            args.out, args.seed, train_videos=args.train_videos,
            eval_videos=args.eval_videos, canvas=args.canvas, frames=args.frames,
            flicker_amplitude=args.flicker)
    except ValueError as e:  # the arguments are checked before anything is written
        raise KeyError(str(e)) from None
    print(f"wrote {args.train_videos} training videos to {train_dir}")
    print(f"wrote {args.eval_videos} evaluation videos to {val_dir}")
    return 0


def _cmd_train(args):
    run = _collect_config(args)
    if not run.data:
        raise KeyError("training needs data = <dataset root> (config or --set)")
    result = train(run, resume=args.resume)
    last = result.log_lines[-1] if result.log_lines else "(no steps)"
    print(f"trained {result.steps} steps; final: {last}")
    for path in result.checkpoints:
        print(f"checkpoint {path}")
    return 0


def _cmd_propagate(args):
    params, run = params_from_checkpoint(args.checkpoint)
    paths = propagate_and_save(params, run.model, run.prop, args.video, args.out)
    print(f"wrote {len(paths)} masks to {args.out}")
    return 0


def _cmd_eval(args):
    params, run = params_from_checkpoint(args.checkpoint)
    data = args.data or run.data
    if not data:
        raise KeyError("eval needs --data or a data path in the checkpoint config")
    _, text = evaluate(params, run.model, run.prop, Path(data) / "val")
    print(text, end="")
    return 0


def _cmd_grad_check(args):
    """Micro-config fidelity: analytic vs central differences for each
    loss and the total, through the student softmax chain."""
    from .fidelity import loss_fidelity_report

    failures = 0
    for name, max_rel in loss_fidelity_report(seed=args.seed, h=args.step):
        ok = max_rel < 1e-4
        failures += not ok
        print(f"{name}: max relative error {max_rel:.3e} "
              f"{'PASS' if ok else 'FAIL'} (threshold 1e-4)")
    return 0 if failures == 0 else 2


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "propagate": _cmd_propagate,
    "eval": _cmd_eval,
    "grad-check": _cmd_grad_check,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage()
        return 1
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        # argparse already printed its message; normalize to usage error
        return 1
    if args.command is None:
        parser.print_usage()
        return 1
    try:
        return _COMMANDS[args.command](args)
    except KeyError as e:
        print(f"usage error: {e.args[0]}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures keep a distinct exit code
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
