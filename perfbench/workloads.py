"""The benchmark's workloads, each driven through decorgnn's public API.

A workload has a timed ``setup`` (repeated to measure set-up time), an
untimed ``prepare`` run once after it, a timed ``body`` and an untimed
``check`` of the body's output. ``setup`` and ``check`` return one list of
problems per operation they cover (one ``train`` call or one CLI command);
an empty list is an operation that succeeded. ``work`` is the number of
graph-epochs one body trains, LR-probe epochs included, worked out from the
dataset sizes and the configuration alone.

All inputs derive from the seed the workload is built with. Every body of
a run repeats the same seeded computation, so bodies after the first are
compared with it line for line.
"""

from __future__ import annotations

import contextlib
import io
import math
import os

import numpy as np

from decorgnn import cli
from decorgnn import harness as hn
from decorgnn import graphdata as gd

COUNT = 500  # graphs generated per dataset


def _experiment_data_seed(seed: int) -> int:
    # the data seed run_experiment derives for an experiment seed
    return int(np.random.SeedSequence([seed, 11]).generate_state(1)[0])


def _finite_problems(records) -> list[str]:
    problems = []
    for r in records:
        for key in ("loss", "objective", "train_acc", "test_acc"):
            value = r.get(key)
            if value is not None and not math.isfinite(value):
                problems.append(f"epoch {r.get('epoch')}: {key}={value}")
    return problems


def _results_problems(path, reference: dict) -> tuple[list[str], dict]:
    """Check one results file; the first file seen per mode is the reference."""
    records, summary = hn.load_results(path)
    problems = _finite_problems(records)
    mode = summary["config"]["mode"]
    if mode != "baseline_uniform":
        if summary["constraint_checks"] == 0:
            problems.append(f"{mode}: no constraint checks ran")
        if summary["constraint_violations"] != 0:
            problems.append(f"{mode}: {summary['constraint_violations']} "
                            f"constraint violations")
    lines = hn.stable_lines(path)
    if reference.setdefault(mode, lines) != lines:
        problems.append(f"{mode}: result lines differ from the first run "
                        f"with the same seed")
    return problems, summary


class SizeShiftExperiment:
    name = "size_shift_experiment"
    experiment = "triangles_size_shift"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out_dir = os.path.join(workdir, "experiment")
        self.reference: dict = {}

    def setup(self) -> list:
        full = gd.gen_triangles_dataset(
            COUNT, min_nodes=5, max_nodes=16,
            rng_seed=_experiment_data_seed(self.seed))
        self.train_set, _ = gd.apply_split(
            full, gd.SplitSpec(kind="by_size", train_max_nodes=10))
        return []

    def prepare(self) -> None:
        n = len(self.train_set)
        fit = n - max(1, int(round(hn.PROBE_HOLDOUT * n)))
        epochs = hn.EXPERIMENT_DEFAULTS[self.experiment]["epochs"]
        self.work = (len(hn.ALLOWED_LRS) * hn.PROBE_EPOCHS * fit
                     + len(hn.MODES) * epochs * n)
        self.ops_per_body = len(hn.ALLOWED_LRS) + len(hn.MODES)

    def body(self):
        return hn.run_experiment(self.experiment, seeds=[self.seed],
                                 out_dir=self.out_dir, count=COUNT)

    def check(self, summary) -> list:
        # the probe's train calls leave no file; returning is their check
        per_op = [[] for _ in hn.ALLOWED_LRS]
        seen = {}
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.endswith(".jsonl"):
                problems, run = _results_problems(
                    os.path.join(self.out_dir, entry), self.reference)
                mode = run["config"]["mode"]
                accs = summary["per_mode"][mode]["test_accs"]
                if accs != [run["final_test_acc"]]:
                    problems.append(f"{mode}: summary accuracies {accs} != "
                                    f"results file {run['final_test_acc']}")
                seen[mode] = problems
        for mode in hn.MODES:
            per_op.append(seen.get(mode, [f"{mode}: no results file"]))
        return per_op


class NoiseShiftMemory:
    name = "noise_shift_memory"
    config = dict(mode="ood_gnn", lr=1e-3, k_groups=2, gammas=(0.9, 0.5),
                  **hn.EXPERIMENT_DEFAULTS["feature_noise_shift"])

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.results = os.path.join(workdir, "results.jsonl")
        self.reference: dict = {}
        self.ops_per_body = 1

    def setup(self) -> list:
        data_seed = _experiment_data_seed(self.seed)
        full = gd.gen_triangles_dataset(COUNT, min_nodes=5, max_nodes=12,
                                        rng_seed=data_seed)
        self.train_set, self.test_set = gd.apply_split(
            full, gd.SplitSpec(kind="by_feature_noise", noise_sigma=0.1,
                               seed=data_seed))
        return []

    def prepare(self) -> None:
        self.cfg = hn.TrainConfig(seed=self.seed, **self.config)
        # with memory on, train drops each epoch's short tail batch
        full_batches = len(self.train_set) // self.cfg.batch_size
        self.work = self.cfg.epochs * full_batches * self.cfg.batch_size

    def body(self):
        return hn.train(self.train_set, self.test_set, self.cfg)

    def check(self, out) -> list:
        _, report = out
        hn.write_results(self.results, report)
        problems, _ = _results_problems(self.results, self.reference)
        return [problems]


class CliRoundtrip:
    name = "cli_roundtrip"
    split_sigma = 0.1
    epochs = 10
    train_keys = ["mode=linear_decorr", "pair_fraction=0.5",
                  "split_kind=by_feature_noise", f"epochs={epochs}",
                  f"split_sigma={split_sigma}"]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.data = os.path.join(workdir, "graphs.jsonl")
        self.results = os.path.join(workdir, "results.jsonl")
        self.checkpoint = os.path.join(workdir, "model.jsonl")
        self.reference: dict = {}
        self.ops_per_body = 2

    def _run(self, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def setup(self) -> list:
        code, text = self._run([
            "gen", "--out", self.data, "--count", str(COUNT),
            "--min-nodes", "5", "--max-nodes", "12", "--seed", str(self.seed)])
        return [[] if code == 0 else [f"gen exited {code}: {text}"]]

    def prepare(self) -> None:
        _, self.test_set = gd.apply_split(
            gd.load_dataset(self.data),
            gd.SplitSpec(kind="by_feature_noise",
                         noise_sigma=self.split_sigma, seed=self.seed))
        self.work = self.epochs * (COUNT - len(self.test_set))

    def body(self):
        train = self._run([
            "train", "--data", self.data, "--results", self.results,
            "--checkpoint", self.checkpoint, *self.train_keys,
            f"split_seed={self.seed}", f"seed={self.seed}"])
        report = self._run(["report", "--results", self.results,
                            "--histogram"])
        return train, report

    def check(self, out) -> list:
        (train_code, train_text), (report_code, report_text) = out
        if train_code != 0:
            return [[f"train exited {train_code}: {train_text}"],
                    ["report skipped: train failed"]]
        problems, summary = _results_problems(self.results, self.reference)
        model, _ = hn.load_checkpoint(self.checkpoint)
        acc = hn.evaluate(model, self.test_set)
        if acc != summary["final_test_acc"]:
            problems.append(f"checkpoint scores {acc} on the test split, "
                            f"results file says {summary['final_test_acc']}")
        report_problems = []
        if report_code != 0:
            report_problems.append(f"report exited {report_code}: "
                                   f"{report_text}")
        elif f"final_test_acc={summary['final_test_acc']:.4f}" not in report_text:
            report_problems.append("report does not show the final accuracy")
        return [problems, report_problems]


WORKLOADS = {w.name: w for w in (SizeShiftExperiment, NoiseShiftMemory,
                                 CliRoundtrip)}
