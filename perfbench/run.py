"""Benchmark for decorgnn: end-to-end timings and a traced per-layer breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload size_shift_experiment --seed 0 \
        --seconds 30 --trace 0

``--workload all`` runs every workload in turn in this process. Workloads,
metrics and what each metric should move are described in METRICS.md.

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times, then repeats the
workload's body until ``--seconds`` have passed (at least ``MIN_BODIES``
times) and reports medians. With ``--trace 1`` it alternates an untraced
body with a traced set-up plus body, and reports the per-layer metrics
(medians over traced repetitions) and the tracing overhead. Every body's
output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout

import layers  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPEATS = 9
MIN_BODIES = 2
CLOCK = time.perf_counter

END_TO_END = {"setup_s": "s", "wall_s": "s", "train_graphs_per_s": "1/s",
              "peak_rss_mb": "MiB"}


class Ledger:
    """Operations attempted and failed, with the first few failure reasons."""

    KEEP = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, per_op) -> None:
        """Count one operation per list of problems; non-empty ones failed."""
        for problems in per_op:
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.reasons) < self.KEEP:
                    self.reasons.append("; ".join(problems))

    def fail(self, ops: int, reason: str) -> None:
        self.add([[reason]] * ops)


def _timed(fn):
    start = CLOCK()
    out = fn()
    return out, CLOCK() - start


def _guarded(ledger: Ledger, ops: int, fn):
    """Run fn; an exception fails ``ops`` operations instead of the run."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 -- a failed operation, not a failed run
        ledger.fail(ops, traceback.format_exc(limit=3))
        traceback.print_exc(file=sys.stderr)
        return None


def _check(workload, ledger: Ledger, out) -> None:
    per_op = _guarded(ledger, workload.ops_per_body,
                      lambda: workload.check(out))
    if per_op is not None:
        ledger.add(per_op)


def _run_body(workload, ledger: Ledger):
    """One timed body: ``(output, wall seconds)``, or None if it raised."""
    return _guarded(ledger, workload.ops_per_body,
                    lambda: _timed(workload.body))


def measure(workload, seconds: float, ledger: Ledger):
    """End-to-end metrics with tracing off, and their sample counts."""
    setups = []
    for _ in range(SETUP_REPEATS):
        problems, elapsed = _timed(workload.setup)
        ledger.add(problems)
        setups.append(elapsed)
    workload.prepare()
    walls, bodies = [], 0
    deadline = CLOCK() + seconds
    while bodies < MIN_BODIES or CLOCK() < deadline:
        bodies += 1
        timed = _run_body(workload, ledger)
        if timed is not None:
            _check(workload, ledger, timed[0])
            walls.append(timed[1])
    samples = {"setup_s": setups, "wall_s": walls}
    if not walls:
        return {}, samples
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "train_graphs_per_s": workload.work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, samples


def measure_traced(workload, seconds: float, ledger: Ledger, modules: dict,
                   spans_path):
    """Per-layer metrics from alternating untraced and traced repetitions."""
    ledger.add(workload.setup())
    workload.prepare()
    targets = layers.targets(modules)
    aliases = list(modules.values())
    recorder = spans.Recorder()
    plain, traced, per_rep = [], [], []
    reps = 0
    deadline = CLOCK() + seconds
    while reps < MIN_BODIES or CLOCK() < deadline:
        reps += 1
        timed = _run_body(workload, ledger)
        if timed is not None:
            _check(workload, ledger, timed[0])
            plain.append(timed[1])
        recorder.clear()
        with recorder.tracing(targets, aliases):
            ledger.add(workload.setup())
            timed = _run_body(workload, ledger)
        if timed is not None:
            # checked after the originals are back, so checks leave no spans
            _check(workload, ledger, timed[0])
            traced.append(timed[1])
            per_rep.append(layers.layer_values(
                spans.totals_by_name(recorder.spans)))
    recorder.write_jsonl(spans_path)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    if not per_rep or not plain:
        return {}, samples
    values = layers.median_values(per_rep)
    values[layers.OVERHEAD] = (statistics.median(traced)
                               / statistics.median(plain) - 1.0)
    return values, samples


def _blas_threads(numpy_module):
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    libs = Path(numpy_module.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(np)}


def _import_program() -> dict:
    src = ROOT / "src"
    if not (src / "decorgnn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no decorgnn package under {src}")
    sys.path.insert(0, str(src))
    from decorgnn import (cli, decorrelation, encoder, fileio, globalmem,
                          graphdata, harness, numcore)
    if src.resolve() not in Path(harness.__file__).resolve().parents:
        raise ImportError(f"decorgnn was imported from {harness.__file__}, "
                          f"not from {src}")
    return {"graphdata": graphdata, "encoder": encoder, "numcore": numcore,
            "decorrelation": decorrelation, "globalmem": globalmem,
            "harness": harness, "fileio": fileio, "cli": cli}


def run_workload(cls, seed: int, seconds: float, trace: bool,
                 modules: dict) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{cls.name}-", dir=WORK_ROOT)
    ledger = Ledger()
    try:
        workload = cls(seed, workdir)
        if trace:
            values, samples = measure_traced(
                workload, seconds, ledger, modules,
                WORK_ROOT / f"spans-{cls.name}.jsonl")
            units = {name: unit for name, unit, _, _ in layers.METRICS}
        else:
            values, samples = measure(workload, seconds, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in ledger.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    for name, values_seen in samples.items():
        print(f"{cls.name}: {len(values_seen)} samples of {name}: "
              + " ".join(f"{v:.4f}" for v in values_seen))
    for name, value in values.items():
        print(f"{cls.name}: {name} = {value:.6g} {units[name]}")
    return {"correct": ledger.failed == 0 and bool(values),
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    try:
        modules = _import_program()
    except (ImportError, FileNotFoundError) as err:
        print(f"cannot load the program: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"--workload must be 'all' or one of {sorted(WORKLOADS)}")

    print(json.dumps({"environment": environment()}))
    results = {}
    for cls in chosen:
        results[cls.name] = run_workload(cls, args.seed, args.seconds,
                                         bool(args.trace), modules)
        if len(chosen) > 1:
            print(json.dumps({"workload": cls.name, **results[cls.name]}))
    if len(chosen) == 1:
        result = results[chosen[0].name]
    else:
        # one process: peak_rss_mb of a later workload includes earlier ones
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
