"""Training loop, evaluation, experiments, and result files.

Three training modes share one loop:

* ``ood_gnn``: per-batch sample weights are optimized to shrink nonlinear
  dependence between representation dimensions before each prediction step.
* ``linear_decorr``: same loop, but the dependence measure uses raw
  coordinates instead of random feature maps, so only linear correlation
  is penalized.
* ``baseline_uniform``: weights stay at one and the reweighting machinery
  is never invoked.

Each batch takes one ``encoder.weighted_prediction_step``: it is encoded
once, weighted, and stepped on. Representations are standardized per
dimension (train-batch statistics) before weight optimization, which keeps
the unit-bandwidth feature maps in a sensible operating range regardless
of graph size.
"""

from __future__ import annotations

import json
import math
import os
import time
import weakref
from dataclasses import dataclass

import numpy as np

from . import decorrelation as dc
from . import encoder as enc
from . import globalmem as gm
from . import numcore as nc
from .fileio import DataFormatError, atomic_write_text, load_manifest, save_manifest
from .graphdata import (Dataset, DatasetError, SplitSpec, apply_split,
                        gen_triangles_dataset)

MODES = ("baseline_uniform", "linear_decorr", "ood_gnn")
ALLOWED_BATCH_SIZES = (16, 32, 64)
ALLOWED_LRS = (1e-4, 1e-3)
PROBE_EPOCHS = 12
PROBE_HOLDOUT = 0.1
EVAL_CHUNK = 64
VOLATILE_FIELDS = ("wall_seconds", "timestamp")
# summary fields `decorgnn report` prints; load_results checks them
_CONFIG_FIELDS = ("mode", "seed", "lr")
_SUMMARY_FIELDS = ("epochs_run", "final_train_acc", "final_test_acc",
                   "constraint_checks", "constraint_violations")

# seed-stream tags: one disjoint substream per concern
_STREAM_INIT = 101
_STREAM_SHUFFLE = 201
_STREAM_BANKS = 301
_STREAM_PROBE = 401


@dataclass
class TrainConfig:
    mode: str = "ood_gnn"
    hidden_dim: int = 64
    num_layers: int = 2
    batch_size: int = 32
    lr: float = 1e-3
    epochs: int = 20
    seed: int = 0
    k_groups: int = 0
    gammas: tuple = ()
    epochs_reweight: int = 20
    lr_w: float = 0.05
    l2_lambda: float = 0.1
    q: int = 1
    pair_fraction: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size not in ALLOWED_BATCH_SIZES:
            raise ValueError(
                f"batch_size must be one of {ALLOWED_BATCH_SIZES}, "
                f"got {self.batch_size}")
        if not any(abs(self.lr - ok) < 1e-12 for ok in ALLOWED_LRS):
            raise ValueError(f"lr must be one of {ALLOWED_LRS}, got {self.lr}")
        if not 2 <= self.num_layers <= 6:
            raise ValueError(
                f"num_layers must lie in [2, 6], got {self.num_layers}")
        if self.hidden_dim < 2:
            raise ValueError("hidden_dim must be at least 2")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        self.gammas = tuple(float(g) for g in self.gammas)
        if len(self.gammas) != self.k_groups:
            raise ValueError(
                f"need {self.k_groups} momentum values, got {len(self.gammas)}")
        for gamma in self.gammas:
            if not 0.0 <= gamma < 1.0:
                raise ValueError(f"momentum must lie in [0, 1), got {gamma}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        # reweighting settings fail here, in every mode, before any data is read
        if self.epochs_reweight < 0:
            raise ValueError("epochs_reweight must be nonnegative")
        if not (math.isfinite(self.lr_w) and self.lr_w > 0):
            raise ValueError(f"lr_w must be positive and finite, got {self.lr_w}")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and >= 0, got {self.l2_lambda}")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        dc.dims_kept(self.hidden_dim, self.pair_fraction)

    def as_dict(self) -> dict:
        out = dict(self.__dict__)
        out["gammas"] = list(self.gammas)
        return out


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    objective: float | None        # None when no reweighting ran
    train_acc: float
    test_acc: float

    def as_dict(self) -> dict:
        return {"kind": "epoch", "epoch": self.epoch, "loss": self.loss,
                "objective": self.objective, "train_acc": self.train_acc,
                "test_acc": self.test_acc}


@dataclass
class RunReport:
    config: dict
    records: list
    final_train_acc: float
    final_test_acc: float
    constraint_checks: int = 0
    constraint_violations: int = 0
    final_weights: np.ndarray | None = None
    wall_seconds: float = 0.0
    timestamp: str = ""

    def summary_dict(self) -> dict:
        return {
            "kind": "summary",
            "config": self.config,
            "epochs_run": len(self.records),
            "final_train_acc": self.final_train_acc,
            "final_test_acc": self.final_test_acc,
            "constraint_checks": self.constraint_checks,
            "constraint_violations": self.constraint_violations,
            "final_weights": (None if self.final_weights is None
                              else [float(w) for w in self.final_weights]),
            "wall_seconds": self.wall_seconds,
            "timestamp": self.timestamp,
        }


def _standardize(z: np.ndarray) -> np.ndarray:
    mu = z.mean(axis=0)
    sd = z.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return (z - mu) / sd


def _derived_seed(parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def init_model(cfg: TrainConfig, feature_dim: int, num_classes: int) -> enc.Model:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _STREAM_INIT]))
    return enc.Model(
        encoder=enc.init_encoder(feature_dim, cfg.hidden_dim,
                                 cfg.num_layers, rng),
        classifier=enc.init_classifier(cfg.hidden_dim, num_classes, rng),
    )


# Dataset -> {chunk size: _eval_chunks list}; an entry lives as long as its
# dataset, which hashes by identity
_EVAL_CHUNKS = weakref.WeakKeyDictionary()


def _eval_chunks(dataset: Dataset, chunk: int) -> list:
    """(union index, stacked features, labels) per chunk, built once."""
    by_chunk = _EVAL_CHUNKS.setdefault(dataset, {})
    if chunk not in by_chunk:
        graphs = sorted(dataset.graphs, key=lambda g: g.num_nodes)
        parts = []
        for start in range(0, len(graphs), chunk):
            part = graphs[start:start + chunk]
            features = np.concatenate([g.features for g in part], axis=0)
            features.setflags(write=False)
            parts.append((enc._UnionIndex(part), features,
                          np.array([g.label for g in part])))
        by_chunk[chunk] = parts
    return by_chunk[chunk]


def evaluate(model: enc.Model, dataset: Dataset,
             chunk: int = EVAL_CHUNK) -> float:
    """Accuracy over a dataset, encoded in chunks of ``chunk`` graphs.

    The graphs are taken in node-count order (a stable sort), so graphs of
    one size share a chunk and each size's adjacency stack is one
    contiguous row range. Accuracy is a count of hits, so the order moves
    no result. Each chunk's union index, stacked features and labels are
    built on the first call for a (dataset, chunk) pair and kept until the
    dataset is garbage-collected; later calls, such as the per-epoch
    scoring in ``train``, run only the forward pass. A dataset's graphs
    are therefore treated as immutable once it has been evaluated.
    """
    hits = 0
    for index, features, labels in _eval_chunks(dataset, chunk):
        pred = enc._predict_union(model, index, features)
        hits += int(np.sum(pred == labels))
    return hits / len(dataset.graphs)


def _reweight_batch(z_value, cfg, memory, epoch, batch_idx, stats):
    """Optimize this batch's sample weights; returns (weights, objective).

    Stored memory groups enter the dependence objective with their weights
    frozen; only the current batch's entries move. Afterwards every stored
    group is pulled toward the batch by its momentum factor.
    """
    z_std = _standardize(z_value)
    w_local = np.ones(z_value.shape[0])
    if memory is not None:
        z_hat, w_hat = gm.concat(memory, z_std, w_local)
        free = np.zeros(len(w_hat), dtype=bool)
        free[-len(w_local):] = True
    else:
        z_hat, w_hat, free = z_std, w_local, None

    def check_constraints(step, objective, w):
        stats["checks"] += 1
        if not (abs(w.sum() - len(w)) <= 1e-6 and w.min() >= dc.W_MIN):
            stats["violations"] += 1

    result = dc.optimize_weights(
        z_hat, w_hat, steps=cfg.epochs_reweight, lr_w=cfg.lr_w,
        l2_lambda=cfg.l2_lambda, q=cfg.q, pair_fraction=cfg.pair_fraction,
        seed=_derived_seed([cfg.seed, _STREAM_BANKS, epoch, batch_idx]),
        free=free, linear=(cfg.mode == "linear_decorr"),
        telemetry=check_constraints)
    w_new = result.weights[-len(w_local):]
    if memory is not None:
        gm.momentum_update(memory, z_std, w_new)
    return w_new, result.objectives[-1]


def _fit_epochs(model: enc.Model, train_set: Dataset, cfg: TrainConfig,
                stats: dict):
    """Train ``model`` in place, yielding (loss, objective, weights) per epoch.

    Each value is yielded after the epoch's last optimizer step, so the
    caller may score the model before the next epoch starts. See ``train``
    for the batching rules.
    """
    optimizer = nc.Adam(enc.parameters(model), lr=cfg.lr)
    use_reweight = cfg.mode != "baseline_uniform"
    memory = None
    if use_reweight and cfg.k_groups > 0:
        memory = gm.init_memory(cfg.k_groups, cfg.batch_size,
                                cfg.hidden_dim, cfg.gammas)

    graphs = train_set.graphs
    labels = np.array([g.label for g in graphs])
    if memory is not None and len(graphs) < cfg.batch_size:
        raise DatasetError(f"a memory run needs batch_size={cfg.batch_size} "
                           f"training graphs, got {len(graphs)}")

    bounds = list(range(0, len(graphs), cfg.batch_size)) + [len(graphs)]
    if memory is None and len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1

    for epoch in range(cfg.epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _STREAM_SHUFFLE, epoch]))
        order = rng.permutation(len(graphs))
        losses, objectives = [], []
        epoch_weights = []
        for batch_idx, (start, stop) in enumerate(zip(bounds[:-1],
                                                      bounds[1:])):
            idx = order[start:stop]
            if len(idx) < cfg.batch_size and memory is not None:
                break

            def weigh(z_value):
                # covariances need >= 2 samples; a 1-graph training set
                # still trains, just with its weight left at one
                if use_reweight and len(idx) >= 2:
                    weights, objective = _reweight_batch(
                        z_value, cfg, memory, epoch, batch_idx, stats)
                    objectives.append(objective)
                else:
                    weights = np.ones(len(idx))
                epoch_weights.append(weights)
                return weights

            try:
                # the last tape lives on through this step, which ran faster
                loss = enc.weighted_prediction_step(
                    model, [graphs[i] for i in idx], labels[idx], weigh,
                    optimizer)
            except enc.DivergenceError as err:
                raise enc.DivergenceError(
                    f"epoch {epoch} batch {batch_idx}: {err}") from err
            losses.append(float(loss.value[0, 0]))

        del loss  # free the last tape before the caller scores the model
        yield (float(np.mean(losses)),
               float(np.mean(objectives)) if objectives else None,
               np.concatenate(epoch_weights))


def train(train_set: Dataset, test_set: Dataset,
          cfg: TrainConfig) -> tuple[enc.Model, RunReport]:
    """Run one training configuration and report per-epoch progress.

    The last short batch of an epoch is kept when no memory is configured
    and dropped otherwise, since stored groups are shaped to one full batch.
    A kept tail never holds a single graph when there is more than one
    batch: if ``n % batch_size == 1`` the last batch starts one graph
    earlier, so the batch before it holds ``batch_size - 1`` graphs and the
    tail holds two. The batch count stays ceil(n / batch_size) and every
    batch can be reweighted, since a covariance needs at least two rows.
    A run with memory needs one full batch, or raises DatasetError at once.
    Train and test accuracy are scored after every epoch.
    Raises DivergenceError (with epoch and batch position) if any step
    produces non-finite values.
    """
    started = time.time()
    model = init_model(cfg, train_set.feature_dim, train_set.num_classes)
    stats = {"checks": 0, "violations": 0}
    records = []
    for epoch, (loss, objective, last_weights) in enumerate(
            _fit_epochs(model, train_set, cfg, stats)):
        records.append(EpochRecord(
            epoch=epoch, loss=loss, objective=objective,
            train_acc=evaluate(model, train_set),
            test_acc=evaluate(model, test_set),
        ))

    report = RunReport(
        config=cfg.as_dict(),
        records=records,
        final_train_acc=records[-1].train_acc,
        final_test_acc=records[-1].test_acc,
        constraint_checks=stats["checks"],
        constraint_violations=stats["violations"],
        final_weights=(None if cfg.mode == "baseline_uniform"
                       else last_weights),
        wall_seconds=time.time() - started,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )
    return model, report


def format_results(report: RunReport) -> str:
    """JSONL text: one line per epoch record, then one summary line.

    Wall-clock fields appear only in the summary line, so the record lines
    of two identical runs match byte for byte.
    """
    lines = [json.dumps(r.as_dict(), sort_keys=True) for r in report.records]
    lines.append(json.dumps(report.summary_dict(), sort_keys=True))
    return "\n".join(lines) + "\n"


def write_results(path, report: RunReport) -> None:
    atomic_write_text(path, format_results(report))


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that is finite as a float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def load_results(path) -> tuple[list, dict]:
    """Parse a results file back into (epoch records, summary).

    The summary must carry every field ``decorgnn report`` prints, with
    finite accuracies, and so must the last epoch record: a finite ``loss``
    and a finite or null ``objective``. A ``final_weights`` entry, which
    ``report --histogram`` bins, must be null or a list of finite numbers.
    """
    records, summary = [], None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: {err}") from err
            if not isinstance(row, dict):
                raise DataFormatError(f"{path}:{lineno}: expected a JSON object")
            if row.get("kind") == "summary":
                summary = row
            else:
                records.append(row)
    if summary is None:
        raise DataFormatError(f"{path}: missing summary line")
    config = summary.get("config")
    if not isinstance(config, dict):
        raise DataFormatError(f"{path}: summary config is missing or not an object")
    missing = ([f"config.{k}" for k in _CONFIG_FIELDS if k not in config]
               + [k for k in _SUMMARY_FIELDS if k not in summary])
    if missing:
        raise DataFormatError(f"{path}: summary lacks {', '.join(missing)}")
    for field in ("final_train_acc", "final_test_acc"):
        if not _finite_number(summary[field]):
            raise DataFormatError(f"{path}: summary {field} is not a finite number")
    weights = summary.get("final_weights")
    if weights is not None and not (
            isinstance(weights, list) and all(map(_finite_number, weights))):
        raise DataFormatError(
            f"{path}: summary final_weights must be null or a list of "
            f"finite numbers")
    if records:
        last = records[-1]
        if (not _finite_number(last.get("loss")) or "objective" not in last
                or not (last["objective"] is None
                        or _finite_number(last["objective"]))):
            raise DataFormatError(
                f"{path}: last epoch record needs a finite loss and an "
                f"objective that is a finite number or null")
    return records, summary


def stable_lines(path) -> list:
    """Result lines with volatile summary fields removed, for comparison."""
    records, summary = load_results(path)
    for name in VOLATILE_FIELDS:
        summary.pop(name, None)
    return [json.dumps(r, sort_keys=True) for r in records] + [
        json.dumps(summary, sort_keys=True)]


def save_checkpoint(path, model: enc.Model) -> None:
    """Write all parameters as a manifest."""
    arrays = {name: t.value for name, t in enc.named_parameters(model).items()}
    save_manifest(path, arrays)


def load_checkpoint(path):
    """Rebuild a model from a manifest; returns ``(model, None)``.

    The parameter layout comes from the encoder: the depth and the widths
    read from ``encoder.layer{i}.w1`` and ``classifier.w`` build a template
    with ``init_encoder`` and ``init_classifier``. The manifest must hold
    exactly the entries of its ``named_parameters``, each with the
    template's shape, or DataFormatError names the path and the first
    entry that is missing, unknown (such as a layer past a gap in the
    numbering) or misshapen. Non-finite values raise NonFiniteError.
    """
    arrays = load_manifest(path)
    num_layers = 0
    while f"encoder.layer{num_layers}.w1" in arrays:
        num_layers += 1
    if num_layers == 0 or "classifier.w" not in arrays:
        raise DataFormatError(f"{path}: not a model checkpoint")
    in_dim, hidden = arrays["encoder.layer0.w1"].shape
    rng = np.random.default_rng(0)
    model = enc.Model(
        encoder=enc.init_encoder(in_dim, hidden, num_layers, rng),
        classifier=enc.init_classifier(
            hidden, arrays["classifier.w"].shape[1], rng))
    params = enc.named_parameters(model)
    unknown = next((name for name in arrays if name not in params), None)
    if unknown is not None:
        raise DataFormatError(f"{path}: unexpected entry {unknown}")
    for name, tensor in params.items():
        if name not in arrays:
            raise DataFormatError(f"{path}: missing {name}")
        if arrays[name].shape != tensor.shape:
            raise DataFormatError(
                f"{path}: {name} has shape {arrays[name].shape}, "
                f"expected {tensor.shape}")
        tensor.value = nc.Tensor(arrays[name]).value
    return model, None


def probe_learning_rate(train_set: Dataset, cfg: TrainConfig) -> float:
    """Pick a learning rate by short uniform-weight runs on a held-out slice.

    The probe trains on 90% of the training split and scores accuracy on
    the remaining 10%; the full runs then use the winner. Reweighting is
    off during probing so the choice is shared across modes. Each
    candidate runs ``train``'s epoch loop and is evaluated once, after its
    last epoch, since only that accuracy is compared.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, _STREAM_PROBE]))
    order = rng.permutation(len(train_set.graphs))
    n_val = max(1, int(round(PROBE_HOLDOUT * len(order))))
    val_graphs = [train_set.graphs[i] for i in order[:n_val]]
    fit_graphs = [train_set.graphs[i] for i in order[n_val:]]
    fit = Dataset(fit_graphs, train_set.num_classes, train_set.feature_dim)
    val = Dataset(val_graphs, train_set.num_classes, train_set.feature_dim)

    best_lr, best_acc = ALLOWED_LRS[0], -1.0
    for lr in ALLOWED_LRS:
        probe_cfg = TrainConfig(
            mode="baseline_uniform", hidden_dim=cfg.hidden_dim,
            num_layers=cfg.num_layers, batch_size=cfg.batch_size, lr=lr,
            epochs=PROBE_EPOCHS, seed=cfg.seed)
        model = init_model(probe_cfg, fit.feature_dim, fit.num_classes)
        for _ in _fit_epochs(model, fit, probe_cfg, stats={}):
            pass
        acc = evaluate(model, val)
        if acc > best_acc:
            best_lr, best_acc = lr, acc
    return best_lr


def _size_shift_data(data_seed: int, count: int):
    full = gen_triangles_dataset(count, min_nodes=5, max_nodes=16,
                                 rng_seed=data_seed)
    return apply_split(full, SplitSpec(kind="by_size", train_max_nodes=10))


def _noise_shift_data(data_seed: int, count: int):
    full = gen_triangles_dataset(count, min_nodes=5, max_nodes=12,
                                 rng_seed=data_seed)
    return apply_split(full, SplitSpec(kind="by_feature_noise",
                                       noise_sigma=0.1, seed=data_seed))


EXPERIMENTS = {
    "triangles_size_shift": _size_shift_data,
    "feature_noise_shift": _noise_shift_data,
}

# Desk-scale training defaults per experiment. Short runs with a weak
# weight penalty: the reweighting advantage shows while the classifier is
# still fitting and washes out into seed noise once both modes overfit
# the small training split.
EXPERIMENT_DEFAULTS = {
    "triangles_size_shift": {"epochs": 10, "l2_lambda": 0.01},
    "feature_noise_shift": {"epochs": 14, "l2_lambda": 0.01},
}


def run_experiment(name: str, seeds, out_dir, count: int = 500,
                   overrides: dict | None = None) -> dict:
    """Train every mode on every seed and summarize final test accuracy.

    Within a seed all modes see the same data and the same initial
    parameters; the learning rate is probed once per seed and shared.
    Per-run results and a summary land in ``out_dir`` as JSON files.
    """
    if name not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    os.makedirs(out_dir, exist_ok=True)
    overrides = {**EXPERIMENT_DEFAULTS[name], **(overrides or {})}
    per_mode = {mode: [] for mode in MODES}
    chosen_lrs = {}
    base_config = None

    for seed in seeds:
        data_seed = _derived_seed([seed, 11])
        train_set, test_set = EXPERIMENTS[name](data_seed, count)
        probe_cfg = TrainConfig(seed=seed, **overrides)
        lr = probe_learning_rate(train_set, probe_cfg)
        chosen_lrs[str(seed)] = lr
        for mode in MODES:
            cfg = TrainConfig(mode=mode, seed=seed, lr=lr, **overrides)
            if base_config is None:
                base_config = {k: v for k, v in cfg.as_dict().items()
                               if k not in ("mode", "seed", "lr")}
            _, report = train(train_set, test_set, cfg)
            per_mode[mode].append(report.final_test_acc)
            write_results(os.path.join(
                out_dir, f"{name}_seed{seed}_{mode}.jsonl"), report)

    summary = {
        "experiment": name,
        "count": count,
        "seeds": [int(s) for s in seeds],
        "learning_rates": chosen_lrs,
        "config": base_config,
        "per_mode": {
            mode: {
                "test_accs": accs,
                "mean": float(np.mean(accs)),
                "std": float(np.std(accs)),
            } for mode, accs in per_mode.items()
        },
    }
    atomic_write_text(os.path.join(out_dir, f"{name}_summary.json"),
                      json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
