"""The functions the traced run wraps, and the per-layer metrics it derives.

Each layer is one module of ``decorgnn``. Span names are
``<module>.<function>`` (``numcore.Adam.step`` for the method). The
per-layer metrics are computed from one traced repetition (one set-up plus
one timed body); the benchmark reports their median over repetitions.
METRICS.md says which end-to-end metric each should move, on which workload.
"""

from __future__ import annotations

import statistics

from spans import Totals, median_or_zero


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _encode_note(args, kwargs, result):
    return {"nodes": sum(g.num_nodes for g in _arg(args, kwargs, 1, "graphs"))}


def _optimize_note(args, kwargs, result):
    first, last = result.objectives[0], result.objectives[-1]
    return {"rows": len(_arg(args, kwargs, 0, "z")),
            "improved": bool(result.improved),
            "ratio": last / first if first else 1.0}


def _evaluate_note(args, kwargs, result):
    return {"graphs": len(_arg(args, kwargs, 1, "dataset"))}


def _train_note(args, kwargs, result):
    return {"final_test_acc": result[1].final_test_acc}


# module name -> [(function name, note)]; the class method is handled apart
_TRACED = {
    "graphdata": [("gen_triangles_dataset", None), ("apply_split", None),
                  ("load_dataset", None), ("save_dataset", None)],
    "encoder": [("encode_batch", _encode_note), ("gin_layer_forward", None),
                ("neighbor_sum", None), ("segment_sum", None),
                ("predict", None)],
    "numcore": [("matmul", None), ("backward", None),
                ("softmax_cross_entropy", None)],
    "decorrelation": [("optimize_weights", _optimize_note),
                      ("feature_matrix", None), ("sample_pairs", None),
                      ("sample_banks", None), ("project_weights", None)],
    "globalmem": [("concat", None), ("momentum_update", None)],
    "harness": [("run_experiment", None), ("train", _train_note),
                ("evaluate", _evaluate_note), ("probe_learning_rate", None),
                ("write_results", None), ("save_checkpoint", None),
                ("load_results", None)],
    "fileio": [("atomic_write_text", None), ("save_manifest", None)],
    "cli": [("main", None)],
}


def targets(modules: dict) -> list:
    """``(owner, attr, span name, note)`` for every traced function.

    ``modules`` maps each layer name above to the imported module.
    """
    out = [(modules[layer], fn, f"{layer}.{fn}", note)
           for layer, fns in _TRACED.items() for fn, note in fns]
    out.append((modules["numcore"].Adam, "step", "numcore.Adam.step", None))
    return out


def _field(span: str, field: str):
    def get(totals: dict[str, Totals]) -> float:
        t = totals.get(span)
        return 0 if t is None else getattr(t, field)
    return get


def _infos(totals, span, key):
    t = totals.get(span)
    return [] if t is None else [info[key] for info in t.infos]


def _us_per_node(totals):
    nodes = sum(_infos(totals, "encoder.encode_batch", "nodes"))
    return totals["encoder.encode_batch"].s * 1e6 / nodes if nodes else 0.0


def _improved_frac(totals):
    flags = _infos(totals, "decorrelation.optimize_weights", "improved")
    return sum(flags) / len(flags) if flags else 0.0


def _eval_graphs_per_s(totals):
    graphs = sum(_infos(totals, "harness.evaluate", "graphs"))
    return graphs / totals["harness.evaluate"].s if graphs else 0.0


def _last_test_acc(totals):
    accs = _infos(totals, "harness.train", "final_test_acc")
    return accs[-1] if accs else 0.0


_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"),
          "self_s": ("s", "lower")}


def _timed(span: str, *fields: str) -> list:
    return [(f"{span}.{f}", *_UNITS[f], _field(span, f)) for f in fields]


OVERHEAD = "trace.overhead_frac"

# (metric name, unit, better, value from the totals of one repetition);
# trace.overhead_frac compares whole runs, so the measuring loop fills it in.
METRICS = [
    *_timed("encoder.encode_batch", "calls", "s", "self_s"),
    ("encoder.encode_batch.us_per_node", "us", "lower", _us_per_node),
    *_timed("encoder.gin_layer_forward", "s"),
    *_timed("encoder.neighbor_sum", "s"),
    *_timed("encoder.segment_sum", "s"),
    *_timed("encoder.predict", "calls", "s"),
    *_timed("numcore.matmul", "calls", "s"),
    *_timed("numcore.backward", "calls", "s"),
    *_timed("numcore.Adam.step", "s"),
    *_timed("numcore.softmax_cross_entropy", "s"),
    *_timed("decorrelation.optimize_weights", "calls", "s", "self_s"),
    ("decorrelation.optimize_weights.rows_p50", "rows", "lower",
     lambda t: median_or_zero(_infos(t, "decorrelation.optimize_weights",
                                     "rows"))),
    ("decorrelation.optimize_weights.improved_frac", "ratio", "higher",
     _improved_frac),
    ("decorrelation.optimize_weights.objective_ratio_p50", "ratio", "lower",
     lambda t: median_or_zero(_infos(t, "decorrelation.optimize_weights",
                                     "ratio"))),
    *_timed("decorrelation.feature_matrix", "s"),
    *_timed("decorrelation.sample_pairs", "s"),
    *_timed("decorrelation.sample_banks", "s"),
    *_timed("decorrelation.project_weights", "calls", "s"),
    *_timed("globalmem.concat", "calls", "s"),
    *_timed("globalmem.momentum_update", "calls", "s"),
    *_timed("harness.train", "calls", "s"),
    *_timed("harness.evaluate", "calls", "s"),
    ("harness.evaluate.graphs_per_s", "1/s", "higher", _eval_graphs_per_s),
    *_timed("harness.probe_learning_rate", "s"),
    *_timed("harness.write_results", "s"),
    *_timed("harness.save_checkpoint", "s"),
    *_timed("harness.load_results", "s"),
    ("harness.train.final_test_acc", "ratio", "higher", _last_test_acc),
    *_timed("graphdata.gen_triangles_dataset", "s"),
    *_timed("graphdata.apply_split", "s"),
    *_timed("graphdata.load_dataset", "s"),
    *_timed("fileio.atomic_write_text", "s"),
    *_timed("fileio.save_manifest", "s"),
    *_timed("cli.main", "calls", "s", "self_s"),
    (OVERHEAD, "ratio", "lower", None),
]


def layer_values(totals: dict[str, Totals]) -> dict[str, float]:
    """Every per-layer metric but the tracing overhead, for one repetition."""
    return {name: float(get(totals)) for name, _, _, get in METRICS
            if get is not None}


def median_values(per_rep: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(rep[name] for rep in per_rep)
            for name in per_rep[0]}
