"""Compare two source checkouts on the benchmark and on one large CLI run.

Usage, from any directory:

    python3 scripts/bench_compare.py --parent OLD --change NEW \
        --seed 83 --pairs size_shift_experiment=10 --pairs cli_roundtrip=3 \
        --trace-pairs size_shift_experiment=1 --large-rounds 3 \
        --out BENCH_topic.json

``OLD`` and ``NEW`` are checkouts (for example made with ``git archive``).
Each benchmark run is ``python3 perfbench/run.py --workload W --seed S
--seconds 30 --trace T`` in its own process, inside its own checkout. The
two sides alternate which runs first: odd pairs run the parent first. The
last output line of each run is kept as its result, with what ``wait4``
reports for the whole process: minor page faults, peak RSS, and user and
system CPU seconds (``process_minflt``, ``process_maxrss_mb``,
``process_utime_s``, ``process_stime_s``), and the number of timed bodies
it ran (``bodies``, read from the ``N samples of wall_s`` line ``run.py``
prints; a traced run counts its untraced and traced bodies). The faults
and CPU times cover set-up and every body of a run of fixed length, in
which a faster side runs more bodies, so they are also summarized per
body (``process_minflt_per_body``, ``process_utime_s_per_body``,
``process_stime_s_per_body``). System time shows the kernel's share, such
as the cost of page faults, apart from swings in host speed.

``--large-rounds N`` also runs N alternating rounds of a large-graph CLI
job. In each round each checkout generates 48 graphs of 2000-3000 nodes
with ``decorgnn gen`` into its own file, then times a 2-epoch ``decorgnn
train`` on that file. Wall time and the peak RSS that ``wait4`` reports
are recorded for both processes (``gen_wall_s``, ``gen_peak_rss_mb``;
``wall_s``, ``peak_rss_mb`` for train), with the train output so the
accuracies can be compared, and each round records whether the two
generated files are byte-identical (``gen_files_identical``).

The output JSON holds every run in the order it was made, and per workload
and metric the median and quartiles of each side, the share of pairs the
change won (``change_better_pairs``; a tie counts for neither side), the
median ratio change/parent, the parent's quartile spread q3 - q1
(``parent_iqr``) and ``claim_rule_met``. That flag states the rule a
claimed gain must meet: the change won at least 9 in 10 of the pairs, and
its median is better than the parent's by more than ``parent_iqr``.

Which way is better, and how much worse a metric may get, is read by
name from the ``end_to_end`` list of the parent checkout's
``BENCHMARK.json`` (``better``, ``bound``); the large CLI run's
``wall_s`` and ``peak_rss_mb`` use the entries of those names. Any other
metric, such as the process counters, has no bound and is better lower,
except ``bodies``. Each metric's summary also holds its ``bound`` and two
flags that state the no-regression rule:

* ``within_bound``: the change's median is no worse than the parent's by
  more than ``bound`` times the parent's median;
* ``unresolved``: ``parent_iqr`` is wider than that same allowance, so
  the parent's own runs spread too widely to tell.

Both are None for a metric without a bound.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time

import numpy as np

# the direction of the metrics BENCHMARK.json does not list
LOCAL = {"bodies": {"better": "higher", "bound": None}}
# "<workload>: N samples of wall_s: ..." (traced runs: (un)traced_wall_s)
SAMPLES = re.compile(r": (\d+) samples of (?:untraced_|traced_)?wall_s:")
LARGE_GEN = ["gen", "--count", "48", "--min-nodes", "2000",
             "--max-nodes", "3000", "--seed", "0"]
LARGE_TRAIN = ["split_max_nodes=2500", "epochs=2"]


def _stats(values) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "n": len(values)}


def _won(parent, change, better) -> int:
    """Pairs the change won; a tie counts for neither side."""
    return sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))


def _rules(checkout) -> dict:
    """{metric: {"better", "bound"}} from the checkout's BENCHMARK.json
    end-to-end metrics, over the local directions."""
    with open(os.path.join(checkout, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    return {**LOCAL, **{m["name"]: {"better": m["better"],
                                    "bound": m["bound"]}
                        for m in spec["end_to_end"]}}


def _summary(pairs, names, rules) -> dict:
    """pairs: [(parent metrics, change metrics)], each {name: value};
    rules: as ``_rules`` gives them."""
    out = {}
    for name in names:
        p = [a[name] for a, _ in pairs]
        c = [b[name] for _, b in pairs]
        if None in p + c:  # a run in which no body succeeded
            out[name] = None
            continue
        rule = rules.get(name, {"better": "lower", "bound": None})
        better, bound = rule["better"], rule["bound"]
        ps, cs = _stats(p), _stats(c)
        ratio = (cs["median"] / ps["median"] if ps["median"] else None)
        won = _won(p, c, better)
        gain = ((ps["median"] - cs["median"]) if better == "lower"
                else (cs["median"] - ps["median"]))
        parent_iqr = ps["q3"] - ps["q1"]
        allowed = None if bound is None else bound * abs(ps["median"])
        out[name] = {"parent": ps, "change": cs,
                     "change_better_pairs": f"{won}/{len(p)}",
                     "median_ratio_change_over_parent": ratio,
                     "parent_iqr": parent_iqr,
                     "claim_rule_met": bool(10 * won >= 9 * len(p)
                                            and gain > parent_iqr),
                     "bound": bound,
                     "within_bound": (None if allowed is None
                                      else bool(-gain <= allowed)),
                     "unresolved": (None if allowed is None
                                    else bool(parent_iqr > allowed))}
    return out


def _wait(argv, checkout, env=None):
    """Run one process in ``checkout`` to its end; (wall s, its ``wait4``
    resource usage, stdout). A nonzero exit raises with its stderr tail."""
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=checkout, env=env, stdout=out,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            raise RuntimeError(f"{' '.join(argv[1:])} exited "
                               f"{proc.returncode}: {err.read()[-2000:]}")
        out.seek(0)
        return wall, usage, out.read().strip()


def _process(usage, bodies: int) -> dict:
    """One run's process counters from its ``wait4`` resource usage, in
    total and per timed body (None when no body ran)."""
    totals = {"process_minflt": usage.ru_minflt,
              "process_utime_s": usage.ru_utime,
              "process_stime_s": usage.ru_stime}
    return {**totals, "process_maxrss_mb": usage.ru_maxrss / 1024,
            "bodies": bodies,
            **{f"{name}_per_body": value / bodies if bodies else None
               for name, value in totals.items()}}


def _bench(checkout, workload, seed, trace, seconds) -> dict:
    _, usage, text = _wait(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)], checkout)
    result = json.loads(text.splitlines()[-1])
    result["process"] = _process(
        usage, sum(int(n) for n in SAMPLES.findall(text)))
    return result


def _cli(checkout, args) -> tuple[float, float, str]:
    """Run one decorgnn command; (wall s, wait4 peak RSS MiB, stdout)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    wall, usage, text = _wait([sys.executable, "-m", "decorgnn.cli", *args],
                              checkout, env)
    return wall, usage.ru_maxrss / 1024, text


def _counts(spec: list[str]) -> dict:
    return {w: int(n) for w, n in (s.split("=") for s in spec)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pairs", action="append", default=[],
                        help="WORKLOAD=N alternating --trace 0 pairs")
    parser.add_argument("--trace-pairs", action="append", default=[],
                        help="WORKLOAD=N alternating --trace 1 pairs")
    parser.add_argument("--large-rounds", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    rules = _rules(sides["parent"])

    runs, order = [], 0
    result = {"host": f"{os.cpu_count()} CPUs, {platform.platform()}",
              "seed": args.seed, "runs": runs, "summary": {}}
    for trace, spec in ((0, args.pairs), (1, args.trace_pairs)):
        for workload, count in _counts(spec).items():
            pairs = []
            for pair in range(1, count + 1):
                first = ("parent", "change") if pair % 2 else ("change",
                                                               "parent")
                got = {}
                for side in first:
                    order += 1
                    got[side] = _bench(sides[side], workload, args.seed,
                                       trace, args.seconds)
                    runs.append({"side": side, "pair": pair,
                                 "workload": workload, "trace": trace,
                                 "run_order": order, "result": got[side]})
                    print(f"{workload} trace={trace} pair {pair} {side}: "
                          f"correct={got[side]['correct']} failed="
                          f"{got[side]['failed']}", file=sys.stderr)
                pairs.append(tuple(
                    {**{k: m["value"] for k, m in got[s]["metrics"].items()},
                     **got[s]["process"]}
                    for s in ("parent", "change")))
            key = workload if trace == 0 else f"{workload}_trace"
            result["summary"][key] = _summary(pairs, list(pairs[0][0]),
                                                rules)
            result["summary"][key]["all_correct"] = all(
                r["result"]["correct"] and not r["result"]["failed"]
                for r in runs if r["workload"] == workload
                and r["trace"] == trace)

    if args.large_rounds:
        with tempfile.TemporaryDirectory() as tmp:
            rounds, identical = [], []
            for rnd in range(1, args.large_rounds + 1):
                first = ("parent", "change") if rnd % 2 else ("change",
                                                              "parent")
                got, data = {}, {}
                for side in first:
                    data[side] = os.path.join(tmp, f"{side}_large.jsonl")
                    gen_wall, gen_rss, _ = _cli(
                        sides[side], [*LARGE_GEN, "--out", data[side]])
                    wall, rss, text = _cli(sides[side], [
                        "train", "--data", data[side], "--results",
                        os.path.join(tmp, f"{side}.jsonl"), *LARGE_TRAIN])
                    got[side] = {"gen_wall_s": gen_wall,
                                 "gen_peak_rss_mb": gen_rss,
                                 "wall_s": wall, "peak_rss_mb": rss}
                    runs.append({"side": side, "round": rnd,
                                 "workload": "large_cli", **got[side],
                                 "stdout": text})
                    print(f"large round {rnd} {side}: gen {gen_wall:.2f} s "
                          f"{gen_rss:.0f} MiB, train {wall:.2f} s "
                          f"{rss:.0f} MiB", file=sys.stderr)
                identical.append(filecmp.cmp(data["parent"], data["change"],
                                             shallow=False))
                runs.append({"round": rnd, "workload": "large_cli",
                             "gen_files_identical": identical[-1]})
                rounds.append((got["parent"], got["change"]))
            result["summary"]["large_cli"] = {
                "commands": ["decorgnn " + " ".join(LARGE_GEN)
                             + " --out large.jsonl",
                             "decorgnn train --data large.jsonl "
                             + " ".join(LARGE_TRAIN)],
                "gen_files_identical": all(identical),
                **_summary(rounds, ["gen_wall_s", "gen_peak_rss_mb",
                                    "wall_s", "peak_rss_mb"], rules)}

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
