"""The record-line script's --against report names, per section, the fields
that moved, how many values and by how much; it runs no training."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location(
        "stable_lines", ROOT / "scripts" / "stable_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write(path, sections):
    lines = []
    for name, body in sections:
        lines.append(f"# {name}")
        lines += body
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def record(**fields):
    return json.dumps(fields, sort_keys=True)


SUMMARY = json.dumps({"modes": {"ood_gnn": {"mean": 0.25}}}, indent=2).splitlines()


def test_against_names_the_fields_that_moved(tmp_path, capsys):
    sl = load_script()
    old = write(tmp_path / "old.txt", [
        ("blas_threads 1", []),
        ("run a", [record(epoch=0, objective=2.0, test_acc=0.5),
                   record(epoch=1, objective=4.0, test_acc=0.5)]),
        ("run b", [record(epoch=0, objective=1.0, weights=[1.0, 2.0, 3.0])]),
        ("summary", SUMMARY),
        ("text", ["alpha", "beta"]),
    ])
    new = write(tmp_path / "new.txt", [
        ("blas_threads 1", []),
        ("run a", [record(epoch=0, objective=2.0, test_acc=0.5),
                   record(epoch=1, objective=4.000000000004, test_acc=0.5)]),
        ("run b", [record(epoch=0, objective=1.0,
                          weights=[1.0, 2.0 + 2e-12, 3.0 + 6e-12])]),
        ("summary", [line.replace("0.25", "0.3") for line in SUMMARY]),
        ("text", ["alpha", "gamma"]),
    ])
    assert sl.main(["--against", old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "# blas_threads 1: identical",
        "# run a: 1 of 2 lines moved",
        "    objective: 1 values, max rel 1e-12",
        "# run b: 1 of 1 lines moved",
        "    weights[]: 2 values, max rel 2e-12",
        "# summary: 1 of 7 lines moved",
        "    modes.ood_gnn.mean: 1 values, max rel 0.17",
        "# text: 1 of 2 lines moved (not compared field by field)",
    ]

    assert sl.main(["--against", old, old]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report == [f"# {name}: identical"
                      for name in ("blas_threads 1", "run a", "run b", "summary", "text")]


def test_against_reports_sections_and_values_that_are_not_shared(tmp_path, capsys):
    sl = load_script()
    old = write(tmp_path / "old.txt", [
        ("blas_threads 1", []),
        ("run", [record(mode="ood_gnn", objective=1.0)]),
    ])
    new = write(tmp_path / "new.txt", [
        ("blas_threads 2", []),
        ("run", [record(mode="baseline", objective=1.0)]),
    ])
    assert sl.main(["--against", old, new]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "# blas_threads 1: only in OLD",
        "# run: 1 of 1 lines moved",
        "    mode: 1 values, not numbers",
        "# blas_threads 2: only in NEW",
    ]


def test_a_named_output_needs_against(tmp_path):
    sl = load_script()
    new = write(tmp_path / "new.txt", [("run", [record(objective=1.0)])])
    with pytest.raises(SystemExit):
        sl.main([new])
