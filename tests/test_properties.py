"""Property tests: file loaders on arbitrary JSON, projection invariants.

Every loader must either load a file or raise DataFormatError, whatever
JSON value sits in any one field. The examples are derandomized and
bounded, so the suite stays deterministic and fast.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from decorgnn import cli
from decorgnn import decorrelation as dc
from decorgnn import harness as hn
from decorgnn.fileio import DataFormatError, load_manifest
from decorgnn.graphdata import load_dataset

SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                    deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)

GOOD_GRAPH = {"n": 3, "edges": [[0, 1], [1, 2]],
              "x": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "y": 1}
GOOD_ARRAY = {"name": "w", "rows": 2, "cols": 1, "values": [0.5, -1.0]}
GOOD_SUMMARY = {"kind": "summary",
                "config": {"mode": "ood_gnn", "seed": 0, "lr": 0.01},
                "epochs_run": 1, "final_train_acc": 0.5,
                "final_test_acc": 0.25, "constraint_checks": 2,
                "constraint_violations": 0, "final_weights": [1.5, 0.5]}
GOOD_EPOCH = {"kind": "epoch", "epoch": 0, "loss": 1.0, "objective": None}


def _mutate(record: dict, field: str, value, drop: bool) -> dict:
    out = dict(record)
    if drop:
        out.pop(field, None)
    else:
        out[field] = value
    return out


def _loads_or_format_error(loader, lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        try:
            loader(path)
        except DataFormatError:
            pass


def _load_results_and_report(path):
    """A results file that loads also gets an exit code, never a traceback,
    from ``decorgnn report --histogram``; 1 is a run without weights."""
    hn.load_results(path)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["report", "--results", str(path), "--histogram"])
    assert code in (0, 1, 2)


@SETTINGS
@given(st.sampled_from(sorted(GOOD_GRAPH) + ["extra"]), json_values,
       st.booleans())
def test_load_dataset_loads_or_raises_format_error(field, value, drop):
    bad = _mutate(GOOD_GRAPH, field, value, drop)
    _loads_or_format_error(load_dataset, [GOOD_GRAPH, bad])


@SETTINGS
@given(st.sampled_from(sorted(GOOD_ARRAY)), json_values, st.booleans())
def test_load_manifest_loads_or_raises_format_error(field, value, drop):
    bad = _mutate(GOOD_ARRAY, field, value, drop)
    _loads_or_format_error(load_manifest, [{**GOOD_ARRAY, "name": "v"}, bad])


@SETTINGS
@given(st.sampled_from(["kind", "epoch", "loss", "objective", "config"]),
       json_values,
       st.booleans(), json_values)
def test_load_results_loads_or_raises_format_error(field, value, drop, line):
    bad = _mutate(GOOD_EPOCH, field, value, drop)
    _loads_or_format_error(hn.load_results, [GOOD_EPOCH, bad, line,
                                             GOOD_SUMMARY])


@SETTINGS
@given(st.sampled_from(sorted(GOOD_SUMMARY)), json_values, st.booleans())
def test_load_results_summary_loads_or_raises_format_error(field, value, drop):
    bad = _mutate(GOOD_SUMMARY, field, value, drop)
    _loads_or_format_error(_load_results_and_report, [GOOD_EPOCH, bad])


@SETTINGS
@given(st.lists(st.tuples(st.floats(-5.0, 50.0), st.booleans()),
                min_size=1, max_size=20),
       st.floats(0.0, 100.0))
def test_project_weights_invariants(entries, slack):
    # the frozen entries lead, in the order drawn, then the free ones
    frozen = sum(not f for _, f in entries)
    assume(frozen < len(entries))
    w = np.array([v for v, f in entries if not f] + [v for v, f in entries if f])
    w[:frozen] = np.maximum(w[:frozen], dc.W_MIN)
    # feasible: the free entries can all sit at the floor or above
    total = float(w[:frozen].sum()) + dc.W_MIN * (w.size - frozen) + slack
    out = dc.project_weights(w, total=total, frozen=frozen)
    assert abs(out.sum() - total) <= 1e-9 * max(1.0, total)
    assert out.min() >= dc.W_MIN
    assert np.array_equal(out[:frozen], w[:frozen])
