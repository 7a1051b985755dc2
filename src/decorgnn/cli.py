"""Command line entry points: gen, train, experiment, report.

Exit codes: 0 success, 1 usage problems (bad flags, unknown keys, config
or split values out of range, a split_sigma whose noise overflows, a
histogram of more than MAX_BINS bins), 2 data problems (missing or corrupt
files, a missing output directory, impossible generation requests),
3 numeric divergence during training.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness as hn
from .decorrelation import OptimizationError
from .encoder import DivergenceError
from .fileio import DataFormatError
from .graphdata import (DatasetError, GenerationError, NoiseOverflowError,
                        SplitSpec, apply_split, gen_triangles_dataset,
                        load_dataset, save_dataset)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(hn.TrainConfig)}
# one histogram line per bin, and numpy allocates bins + 1 edges
MAX_BINS = 1000
_SPLIT_KEYS = ("split_kind", "split_max_nodes", "split_sigma", "split_seed")


def _convert(key: str, raw: str):
    if key == "gammas":
        return tuple(float(p) for p in raw.split(",") if p)
    if key in ("mode", "split_kind"):
        return raw
    if key in ("split_max_nodes", "split_seed"):
        return int(raw)
    if key == "split_sigma":
        return float(raw)
    # harness postpones its annotations, so a field's type is its name
    if _CONFIG_FIELDS[key].type == "int":
        return int(raw)
    return float(raw)


def parse_config_pairs(pairs, allow_split: bool = False) -> tuple[dict, dict]:
    """Split ``key=value`` arguments into config and split-spec overrides."""
    config, split = {}, {}
    allowed = set(_CONFIG_FIELDS)
    for item in pairs:
        if "=" not in item:
            raise UsageError(f"expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        if allow_split and key in _SPLIT_KEYS:
            target = split
        elif key in allowed:
            target = config
        else:
            raise UsageError(f"unknown config key {key!r}")
        try:
            target[key] = _convert(key, raw)
        except ValueError as err:
            raise UsageError(f"bad value for {key}: {err}") from err
    return config, split


def _split_spec(overrides: dict) -> SplitSpec:
    kind = overrides.get("split_kind", "by_size")
    return SplitSpec(
        kind=kind,
        train_max_nodes=overrides.get("split_max_nodes",
                                      10 if kind == "by_size" else 0),
        noise_sigma=overrides.get("split_sigma", 0.8),
        seed=overrides.get("split_seed", 0),
    )


def _require_directory(flag: str, path) -> None:
    """Refuse an output path whose directory is missing, before any work."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise FileNotFoundError(
            f"{flag} {path}: directory {directory} does not exist")


def _cmd_gen(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    _require_directory("--out", args.out)
    dataset = gen_triangles_dataset(args.count, args.min_nodes,
                                    args.max_nodes, args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} graphs to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config, split = parse_config_pairs(args.config, allow_split=True)
    try:  # a DatasetError from the split spec is a ValueError too
        cfg = hn.TrainConfig(**config)
        spec = _split_spec(split)
    except ValueError as err:
        raise UsageError(str(err)) from err
    _require_directory("--results", args.results)
    if args.checkpoint:
        _require_directory("--checkpoint", args.checkpoint)
    dataset = load_dataset(args.data)
    try:
        train_set, test_set = apply_split(dataset, spec)
    except NoiseOverflowError as err:  # the config value's fault, not the file's
        raise UsageError(f"split_sigma: {err}") from err
    model, report = hn.train(train_set, test_set, cfg)
    hn.write_results(args.results, report)
    if args.checkpoint:
        hn.save_checkpoint(args.checkpoint, model)
    print(f"mode={cfg.mode} epochs={cfg.epochs} "
          f"train_acc={report.final_train_acc:.4f} "
          f"test_acc={report.final_test_acc:.4f}")
    return 0


def _cmd_experiment(args) -> int:
    try:
        seeds = [int(p) for p in args.seeds.split(",") if p]
    except ValueError as err:
        raise UsageError(f"bad --seeds: {err}") from err
    if not seeds or min(seeds) < 0:
        raise UsageError("need one or more nonnegative seeds")
    overrides, _ = parse_config_pairs(args.config)
    for banned in ("mode", "seed", "lr"):
        if banned in overrides:
            raise UsageError(f"{banned} is chosen by the experiment runner")
    summary = hn.run_experiment(args.name, seeds, args.out_dir,
                                count=args.count, overrides=overrides)
    for mode, stats in sorted(summary["per_mode"].items()):
        print(f"{mode}: mean={stats['mean']:.4f} std={stats['std']:.4f}")
    return 0


def _cmd_report(args) -> int:
    if not 1 <= args.bins <= MAX_BINS:
        raise UsageError(
            f"--bins must be between 1 and {MAX_BINS}, got {args.bins}")
    records, summary = hn.load_results(args.results)
    cfg = summary["config"]
    print(f"mode={cfg['mode']} seed={cfg['seed']} lr={cfg['lr']} "
          f"epochs_run={summary['epochs_run']}")
    print(f"final_train_acc={summary['final_train_acc']:.4f} "
          f"final_test_acc={summary['final_test_acc']:.4f}")
    print(f"constraint_checks={summary['constraint_checks']} "
          f"violations={summary['constraint_violations']}")
    if records:
        last = records[-1]
        print(f"last epoch: loss={last['loss']:.4f} "
              f"objective={last['objective']}")
    if args.histogram:
        weights = summary.get("final_weights")
        if weights is None:
            raise UsageError("this run kept weights uniform; no histogram")
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                counts, edges = np.histogram(np.asarray(weights),
                                             bins=args.bins)
        except ValueError as err:  # a range too wide or too narrow to cut
            raise DataFormatError(
                f"{args.results}: final_weights: {err}") from None
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            print(f"[{lo:8.4f}, {hi:8.4f}) {int(c):6d} {'#' * int(c)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="decorgnn",
                     description="Train graph classifiers with decorrelating "
                                 "sample reweighting.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--min-nodes", type=int, default=5)
    gen.add_argument("--max-nodes", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    tr = sub.add_parser("train", help="train one configuration on a dataset")
    tr.add_argument("--data", required=True)
    tr.add_argument("--results", required=True)
    tr.add_argument("--checkpoint", default=None)
    tr.add_argument("config", nargs="*", metavar="key=value")
    tr.set_defaults(func=_cmd_train)

    ex = sub.add_parser("experiment",
                        help="run every mode across several seeds")
    ex.add_argument("--name", required=True, choices=sorted(hn.EXPERIMENTS))
    ex.add_argument("--out-dir", required=True)
    ex.add_argument("--seeds", default="0,1,2,3,4")
    ex.add_argument("--count", type=int, default=500)
    ex.add_argument("config", nargs="*", metavar="key=value")
    ex.set_defaults(func=_cmd_experiment)

    rp = sub.add_parser("report", help="summarize a results file")
    rp.add_argument("--results", required=True)
    rp.add_argument("--histogram", action="store_true")
    rp.add_argument("--bins", type=int, default=20)
    rp.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (DataFormatError, DatasetError, GenerationError,
            FileNotFoundError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (DivergenceError, OptimizationError) as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
