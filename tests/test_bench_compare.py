"""The comparison script's summary states the benchmark's no-regression
rule with the directions and bounds that BENCHMARK.json declares."""

import importlib.util
import json
import shutil
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "scripts" / "bench_compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(name, parent, change):
    return [({name: p}, {name: c}) for p, c in zip(parent, change)]


def test_summary_flags_a_median_worse_than_its_bound():
    bc = load_script()
    rules = bc._rules(ROOT)
    assert rules["setup_s"] == {"better": "lower", "bound": 0.25}
    assert rules["train_graphs_per_s"]["better"] == "higher"
    # set-up medians 0.053 s -> 0.068 s: +28%, past the 25% bound
    got = bc._summary(pairs_of("setup_s", [0.052, 0.053, 0.054],
                               [0.067, 0.068, 0.069]), ["setup_s"], rules)
    assert got["setup_s"]["bound"] == 0.25
    assert got["setup_s"]["within_bound"] is False
    assert got["setup_s"]["unresolved"] is False

    # a throughput may fall by 20% of a 25% bound, and a parent spread
    # wider than the allowance leaves the comparison unresolved
    got = bc._summary(pairs_of("train_graphs_per_s", [60.0, 100.0, 140.0],
                               [80.0, 80.0, 80.0]),
                      ["train_graphs_per_s"], rules)["train_graphs_per_s"]
    assert got["within_bound"] is True and got["unresolved"] is True
    assert got["claim_rule_met"] is False

    # an unbounded metric keeps its local direction and gets no flags
    got = bc._summary(pairs_of("bodies", [10, 10], [12, 12]), ["bodies"],
                      rules)["bodies"]
    assert got["change_better_pairs"] == "2/2"
    assert got["bound"] is None and got["within_bound"] is None
    assert got["unresolved"] is None


def test_process_counters_come_from_one_rusage_in_total_and_per_body():
    bc = load_script()
    usage = types.SimpleNamespace(ru_minflt=4000, ru_maxrss=51200,
                                  ru_utime=12.5, ru_stime=0.75)
    got = bc._process(usage, bodies=5)
    assert got == {"process_minflt": 4000, "process_utime_s": 12.5,
                   "process_stime_s": 0.75, "process_maxrss_mb": 50.0,
                   "bodies": 5, "process_minflt_per_body": 800.0,
                   "process_utime_s_per_body": 2.5,
                   "process_stime_s_per_body": 0.15}
    # a run in which no body finished has no per-body figures
    got = bc._process(usage, bodies=0)
    assert got["process_stime_s"] == 0.75
    assert got["process_minflt_per_body"] is None
    assert got["process_utime_s_per_body"] is None
    assert got["process_stime_s_per_body"] is None
    # the CPU times are unbounded counters, better lower
    rules = bc._rules(ROOT)
    summary = bc._summary([({"process_stime_s": 1.0}, {"process_stime_s": 0.5})],
                          ["process_stime_s"], rules)["process_stime_s"]
    assert summary["change_better_pairs"] == "1/1"
    assert summary["bound"] is None


# pytest's output as the Tier-1 rounds read it; the stub refuses to run
# unless it was given one BLAS thread
STUB = """import os, sys
if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    sys.exit(3)
print("..F.")
print("=========== slowest durations ===========")
print("2.50s call     tests/test_a.py::test_slow[a b]")
print("0.40s setup    tests/test_a.py::test_slow[a b]")
print("0.01s call     tests/test_b.py::test_red")
print("======== short test summary info ========")
print("FAILED tests/test_b.py::test_red - AssertionError: no")
print("1 failed, 3 passed in 2.91s")
sys.exit(1)
"""


def test_tier1_rounds_alternate_and_summarize_each_side(tmp_path, monkeypatch):
    bc = load_script()
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / side)
        (tmp_path / side / "stub.py").write_text(STUB)
    monkeypatch.setattr(bc, "TIER1", ["stub.py"])
    out = tmp_path / "bench.json"
    assert bc.main(["--parent", str(tmp_path / "parent"), "--change",
                    str(tmp_path / "change"), "--seed", "0",
                    "--tier1-rounds", "3", "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    runs = [r for r in got["runs"] if r["workload"] == "tier1"]
    assert [(r["round"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    # a failing test is a result, recorded with the counts
    assert runs[0]["counts"] == {"failed": 1, "passed": 3}
    assert runs[0]["red"] == ["tests/test_b.py::test_red"]
    slow = "call tests/test_a.py::test_slow[a b]"
    assert runs[0]["slowest"] == {slow: 2.5,
                                  "setup tests/test_a.py::test_slow[a b]": 0.4,
                                  "call tests/test_b.py::test_red": 0.01}
    summary = got["summary"]["tier1"]
    assert summary["same_failures"] is True
    assert summary["passed"]["parent"]["median"] == 3
    assert summary["failed"]["change"]["median"] == 1
    assert summary["wall_s"]["bound"] == 0.25
    assert summary["wall_s"]["parent"]["n"] == 3
    assert summary["slowest"][slow]["change"]["median"] == 2.5
    assert summary["slowest"][slow]["change_better_pairs"] == "0/3"

    # a pytest that stops for any other reason stops the rounds
    monkeypatch.setattr(bc, "TIER1", ["-c", "raise SystemExit(2)"])
    with pytest.raises(RuntimeError, match="exited 2"):
        bc._tier1(str(tmp_path / "parent"))
