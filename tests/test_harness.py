import gc
import json
import os
import stat
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from decorgnn import decorrelation as dc
from decorgnn import encoder as enc
from decorgnn import harness as hn
from decorgnn import numcore as nc
from decorgnn.fileio import DataFormatError, atomic_write_text, is_number_list
from decorgnn.graphdata import (Dataset, DatasetError, Graph, SplitSpec,
                                apply_split, gen_triangles_dataset)


@pytest.fixture(scope="module")
def size_split():
    full = gen_triangles_dataset(200, 5, 16, rng_seed=42)
    return apply_split(full, SplitSpec(kind="by_size", train_max_nodes=10))


def small_cfg(**kw):
    base = dict(mode="ood_gnn", hidden_dim=16, epochs=2, seed=3,
                epochs_reweight=5)
    base.update(kw)
    return hn.TrainConfig(**base)


def test_train_config_validation():
    with pytest.raises(ValueError):
        hn.TrainConfig(mode="other")
    with pytest.raises(ValueError):
        hn.TrainConfig(batch_size=20)
    with pytest.raises(ValueError):
        hn.TrainConfig(lr=0.01)
    with pytest.raises(ValueError):
        hn.TrainConfig(num_layers=1)
    with pytest.raises(ValueError):
        hn.TrainConfig(num_layers=7)
    with pytest.raises(ValueError):
        hn.TrainConfig(k_groups=2, gammas=(0.5,))
    with pytest.raises(ValueError):
        hn.TrainConfig(k_groups=1, gammas=(1.0,))
    # the reweighting settings are checked here, in every mode
    for bad in (dict(lr_w=0.0), dict(lr_w=-0.1), dict(lr_w=float("nan")),
                dict(lr_w=float("inf")), dict(l2_lambda=-1),
                dict(l2_lambda=float("nan")), dict(l2_lambda=float("inf")),
                dict(pair_fraction=0.0), dict(pair_fraction=float("nan")),
                dict(q=0), dict(epochs_reweight=-1), dict(seed=-1),
                dict(lr_w=0.0, mode="baseline_uniform")):
        with pytest.raises(ValueError):
            hn.TrainConfig(**bad)
    cfg = hn.TrainConfig(lr=1e-4, batch_size=16, k_groups=1, gammas=[0.9])
    assert cfg.gammas == (0.9,)
    assert cfg.epochs_reweight == 20


def test_standardize_centers_scales_and_guards_constants():
    rng = np.random.default_rng(0)
    z = rng.normal(loc=3.0, scale=2.5, size=(64, 4))
    z[:, 2] = 7.0
    out = hn._standardize(z)
    assert np.max(np.abs(out.mean(axis=0))) < 1e-12
    for j in (0, 1, 3):
        assert abs(out[:, j].std() - 1.0) < 1e-12
    assert np.all(out[:, 2] == 0.0)


def test_same_seed_gives_same_initial_model_across_modes(size_split):
    train_set, _ = size_split
    a = hn.init_model(small_cfg(mode="ood_gnn"), train_set.feature_dim, 10)
    b = hn.init_model(small_cfg(mode="baseline_uniform"),
                      train_set.feature_dim, 10)
    for pa, pb in zip(enc.parameters(a), enc.parameters(b)):
        assert np.array_equal(pa.value, pb.value)


def test_baseline_mode_never_invokes_reweighting(size_split, monkeypatch):
    train_set, test_set = size_split

    def forbidden(*args, **kwargs):
        raise AssertionError("a baseline run reached the decorrelation module")

    for name in ("weighted_partial_cov", "decorrelation_objective",
                 "objective_grad_weights", "optimize_weights", "hsic_gaussian",
                 "sample_pairs", "sample_bank", "sample_banks",
                 "feature_matrix"):
        monkeypatch.setattr(dc, name, forbidden)
    _, report = hn.train(train_set, test_set, small_cfg(mode="baseline_uniform"))
    assert report.constraint_checks == 0
    assert report.final_weights is None
    assert all(r.objective is None for r in report.records)


def test_train_takes_one_prediction_step_per_batch(size_split, monkeypatch):
    train_set, test_set = size_split
    step = enc.weighted_prediction_step
    calls = []

    def counting(model, graphs, labels, weigh, optimizer, work=None):
        encoded = enc.encode_batch(model.encoder, graphs).value
        seen = []

        def checked(z_value):
            seen.append(np.array_equal(z_value, encoded))
            return weigh(z_value)

        loss = step(model, graphs, labels, checked, optimizer, work=work)
        calls.append(seen)
        return loss

    monkeypatch.setattr(enc, "weighted_prediction_step", counting)
    cfg = small_cfg()
    _, report = hn.train(train_set, test_set, cfg)
    batches = -(-len(train_set.graphs) // cfg.batch_size)
    assert len(calls) == cfg.epochs * batches
    assert calls == [[True]] * len(calls)
    assert report.constraint_checks > 0


def test_reweighted_run_counts_constraint_checks(size_split):
    train_set, test_set = size_split
    cfg = small_cfg(mode="ood_gnn", epochs=2, epochs_reweight=5)
    _, report = hn.train(train_set, test_set, cfg)
    batches_per_epoch = -(-len(train_set) // cfg.batch_size)
    assert report.constraint_checks == 2 * batches_per_epoch * 5
    assert report.constraint_violations == 0
    assert all(r.objective is not None for r in report.records)


def test_epoch_records_are_complete(size_split):
    train_set, test_set = size_split
    _, report = hn.train(train_set, test_set, small_cfg(epochs=3))
    assert [r.epoch for r in report.records] == [0, 1, 2]
    for r in report.records:
        assert np.isfinite(r.loss)
        assert 0.0 <= r.train_acc <= 1.0
        assert 0.0 <= r.test_acc <= 1.0
    assert report.final_test_acc == report.records[-1].test_acc


def test_ragged_last_batch_kept_without_memory(size_split):
    train_set, test_set = size_split
    # train split has 92 graphs; with batches of 32 the last batch holds 28
    assert len(train_set) % 32 != 0
    _, report = hn.train(train_set, test_set, small_cfg(k_groups=0))
    assert len(report.final_weights) == len(train_set)


def test_ragged_last_batch_dropped_with_memory(size_split):
    train_set, test_set = size_split
    cfg = small_cfg(k_groups=2, gammas=(0.5, 0.9))
    _, report = hn.train(train_set, test_set, cfg)
    full_batches = len(train_set) // cfg.batch_size
    assert len(report.final_weights) == full_batches * cfg.batch_size


@pytest.mark.parametrize("k_groups", [0, 2])
def test_a_solve_freezes_exactly_the_stored_groups(size_split, monkeypatch,
                                                   k_groups):
    train_set, test_set = size_split
    solve, calls = dc.optimize_weights, []

    def recording(z, w0, **settings):
        calls.append((len(w0), settings))
        return solve(z, w0, **settings)

    monkeypatch.setattr(dc, "optimize_weights", recording)
    cfg = small_cfg(k_groups=k_groups, gammas=(0.5, 0.9)[:k_groups], epochs=1)
    hn.train(train_set, test_set, cfg)
    frozen = k_groups * cfg.batch_size
    assert len(calls) == (2 if k_groups else 3)  # 92 graphs in batches of 32
    for rows, settings in calls:
        assert settings["frozen"] == frozen
        if k_groups:
            assert rows == frozen + cfg.batch_size


def test_memory_run_on_less_than_one_batch_is_refused(size_split,
                                                     monkeypatch):
    train_set, test_set = size_split
    small = Dataset(train_set.graphs[:20], train_set.num_classes,
                    train_set.feature_dim)
    monkeypatch.setattr(enc, "encode_batch", None)  # no batch may start
    with pytest.raises(DatasetError, match="batch_size=32 training graphs, got 20"):
        hn.train(small, test_set, small_cfg(k_groups=1, gammas=(0.5,)))


def _record_reweighted_batch_sizes(monkeypatch):
    sizes = []
    reweight_batch = hn._reweight_batch

    def recording(z, *args):
        sizes.append(z.shape[0])
        return reweight_batch(z, *args)

    monkeypatch.setattr(hn, "_reweight_batch", recording)
    return sizes


def test_one_graph_tail_is_folded_into_a_two_graph_batch(size_split,
                                                         monkeypatch):
    train_set, test_set = size_split
    subset = Dataset(train_set.graphs[:65], train_set.num_classes,
                     train_set.feature_dim)
    assert len(subset) % 32 == 1
    sizes = _record_reweighted_batch_sizes(monkeypatch)
    cfg = small_cfg(k_groups=0, epochs=2, epochs_reweight=5)
    _, report = hn.train(subset, test_set, cfg)
    # ceil(65 / 32) = 3 batches, every one of them reweighted
    assert sizes == [32, 31, 2] * cfg.epochs
    assert report.constraint_checks == cfg.epochs * 3 * 5
    assert report.constraint_violations == 0
    assert len(report.final_weights) == len(subset)


def test_one_graph_training_set_trains_with_unit_weight(size_split):
    train_set, test_set = size_split
    single = Dataset(train_set.graphs[:1], train_set.num_classes,
                     train_set.feature_dim)
    _, report = hn.train(single, test_set, small_cfg(k_groups=0, epochs=2))
    assert report.constraint_checks == 0
    assert np.array_equal(report.final_weights, [1.0])
    assert all(np.isfinite(r.loss) for r in report.records)


def test_training_reduces_loss(size_split):
    train_set, test_set = size_split
    _, report = hn.train(train_set, test_set,
                         small_cfg(mode="baseline_uniform", epochs=10))
    assert report.records[-1].loss < report.records[0].loss


def test_evaluate_matches_whole_dataset_prediction(size_split, monkeypatch):
    train_set, _ = size_split
    cfg = small_cfg(mode="baseline_uniform", epochs=1)
    model, _ = hn.train(train_set, train_set, cfg)
    set_eval_chunk(monkeypatch, 7)
    acc = hn.evaluate(model, train_set)
    pred = enc.predict(model, train_set.graphs)
    want = float(np.mean(pred == [g.label for g in train_set.graphs]))
    assert acc == pytest.approx(want, abs=1e-12)


def set_eval_chunk(monkeypatch, graphs):
    """Evaluate in chunks of at most ``graphs`` graphs, with every dataset's
    chunks built afresh; the test's end restores both."""
    monkeypatch.setattr(hn, "EVAL_CHUNK", graphs)
    monkeypatch.setattr(hn, "_EVAL_CHUNKS", weakref.WeakKeyDictionary())


def mixed_size_dataset(seed=8):
    """Triangle graphs of 5-16 nodes with random features, plus graphs that
    the union index sums over their edges (a 150-node ring padded with 50
    isolated nodes, an edgeless 200-node graph), in a shuffled order."""
    rng = np.random.default_rng(seed)
    ring = tuple((i, i + 1) for i in range(149)) + ((0, 149),)
    graphs = gen_triangles_dataset(90, 5, 16, rng_seed=seed).graphs + [
        Graph(200, ring, np.zeros((200, 1)), 3),
        Graph(200, (), np.zeros((200, 1)), 4)]
    graphs = [Graph(g.num_nodes, g.edges, rng.normal(size=(g.num_nodes, 5)),
                    g.label) for g in graphs]
    order = rng.permutation(len(graphs))
    return Dataset([graphs[i] for i in order], num_classes=10, feature_dim=5)


def random_model(feature_dim, seed=4, hidden_dim=16):
    model = hn.init_model(small_cfg(seed=seed, hidden_dim=hidden_dim),
                          feature_dim, 10)
    rng = np.random.default_rng(seed)
    for tensor in enc.parameters(model):
        tensor.value = tensor.value + 0.3 * rng.normal(size=tensor.shape)
    return model


def test_evaluate_in_node_count_order_matches_per_graph_prediction(
        monkeypatch):
    # chunks cut by graph count alone: 2048 rows never bind on this data
    monkeypatch.setattr(hn, "EVAL_ROWS", 2048)
    dataset = mixed_size_dataset()
    model = random_model(dataset.feature_dim)
    graphs = dataset.graphs
    single = np.vstack([enc.encode_batch(model.encoder, [g]).value
                        for g in graphs])
    pred = np.concatenate([enc.predict(model, [g]) for g in graphs])
    labels = np.array([g.label for g in graphs])
    assert len(set(pred)) > 2  # not one class for every graph
    want = np.sum(pred == labels) / len(graphs)
    by_size = sorted(range(len(graphs)), key=lambda i: graphs[i].num_nodes)
    for chunk in (1, 7, 64):
        set_eval_chunk(monkeypatch, chunk)
        assert hn.evaluate(model, dataset) == want
        parts = hn._eval_chunks(dataset)
        assert [len(part[2]) for part in parts][:-1] == (
            [chunk] * (len(parts) - 1))
        # the chunks hold the graphs in node-count order, ties as listed
        at = 0
        for index, part_features, part_labels in parts:
            ids = by_size[at:at + len(part_labels)]
            at += len(ids)
            features = np.concatenate(part_features)
            assert np.array_equal(part_labels, labels[ids])
            # representations match bit for bit; the classifier's product
            # of one row alone takes another BLAS path, so the chunk is
            # compared with the single-graph rows stacked
            z = enc._encode_union(model.encoder, index, features)
            assert np.array_equal(z.value, single[ids])
            assert np.array_equal(
                enc.classify(model.classifier, z).value,
                enc.classify(model.classifier, nc.constant(single[ids])).value)
            assert np.array_equal(enc._predict_union(model, index, features),
                                  pred[ids])
        assert at == len(graphs)


def test_a_second_evaluate_builds_no_union_index(monkeypatch):
    # chunks cut by graph count alone: 2048 rows never bind on this data
    monkeypatch.setattr(hn, "EVAL_ROWS", 2048)
    dataset = mixed_size_dataset(seed=9)
    model, other = (random_model(dataset.feature_dim, seed=s) for s in (4, 5))
    labels = [g.label for g in dataset.graphs]
    other_acc = np.mean(enc.predict(other, dataset.graphs) == labels)
    built = []

    class Counting(enc._UnionIndex):
        def __init__(self, graphs):
            built.append(len(graphs))
            super().__init__(graphs)

    monkeypatch.setattr(enc, "_UnionIndex", Counting)
    hn.evaluate(model, dataset)
    assert built == [64, 28]
    assert hn.evaluate(other, dataset) == other_acc
    assert built == [64, 28]
    # the memo lives only as long as its dataset
    assert dataset in hn._EVAL_CHUNKS
    held = len(hn._EVAL_CHUNKS)
    del dataset
    gc.collect()
    assert len(hn._EVAL_CHUNKS) == held - 1


def test_evaluate_does_not_depend_on_the_row_cap(monkeypatch):
    dataset = mixed_size_dataset(seed=15)
    model = random_model(dataset.feature_dim)
    pred = np.concatenate([enc.predict(model, [g]) for g in dataset.graphs])
    want = np.mean(pred == [g.label for g in dataset.graphs])
    cuts = []
    for rows in (16, 512, 2048):
        monkeypatch.setattr(hn, "EVAL_ROWS", rows)
        hn._EVAL_CHUNKS.clear()
        assert hn.evaluate(model, dataset) == want, rows
        parts = hn._eval_chunks(dataset)
        assert all(index.num_nodes <= rows or len(labels) == 1
                   for index, _, labels in parts)
        cuts.append(len(parts))
    assert cuts[0] > cuts[1] > cuts[2]  # each cap cut the data differently


def test_a_warmed_evaluate_allocates_less_than_one_chunk_block(size_split):
    _, test_set = size_split
    hidden = 64
    model = hn.init_model(small_cfg(hidden_dim=hidden), test_set.feature_dim,
                          test_set.num_classes)
    want = hn.evaluate(model, test_set)  # builds the chunks and the buffers
    rows = max(index.num_nodes
               for index, _, _ in hn._eval_chunks(test_set))
    tracemalloc.start()
    try:
        got = hn.evaluate(model, test_set)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < rows * hidden * 8


def test_eval_chunks_reference_the_graphs_own_feature_arrays(monkeypatch):
    dataset = mixed_size_dataset(seed=13)
    by_size = sorted(dataset.graphs, key=lambda g: g.num_nodes)
    for chunk in (1, 7, 64):
        set_eval_chunk(monkeypatch, chunk)
        parts = hn._eval_chunks(dataset)
        held = [f for _, features, _ in parts for f in features]
        # no stacked copy: each entry is the graph's own array
        assert len(held) == len(by_size)
        assert all(f is g.features for f, g in zip(held, by_size))


def test_datasets_of_different_chunk_sizes_share_one_thread_workspace():
    large = mixed_size_dataset(seed=13)
    small = Dataset([g for g in mixed_size_dataset(seed=14).graphs
                     if g.num_nodes <= 9], num_classes=10, feature_dim=5)
    model = random_model(5, hidden_dim=64)

    def rows(dataset):
        return max(index.num_nodes
                   for index, _, _ in hn._eval_chunks(dataset))

    def per_graph(dataset):
        pred = np.concatenate([enc.predict(model, [g])
                               for g in dataset.graphs])
        return np.mean(pred == [g.label for g in dataset.graphs])

    want = [per_graph(large), per_graph(small)]
    assert rows(small) < rows(large)
    got, peaks = [], []

    def run():  # a new thread starts with an empty workspace
        for dataset in (large, small, large, small):
            got.append(hn.evaluate(model, dataset))
        tracemalloc.start()
        try:
            got.append(hn.evaluate(model, small))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert got == [want[0], want[1], want[0], want[1], want[1]]
    assert peaks[0] < rows(small) * model.encoder.hidden_dim * 8


def test_concurrent_and_interleaved_evaluations_match_sequential_ones():
    models = [random_model(5, seed=s) for s in (4, 5)]
    # sequential accuracies, each on a fresh copy of the dataset
    want = [hn.evaluate(m, mixed_size_dataset(seed=10)) for m in models]
    assert want[0] != want[1]
    shared = mixed_size_dataset(seed=10)
    # more threads than cores, switching often, two per model
    runs = [0, 1, 0, 1]
    barrier = threading.Barrier(len(runs))
    got = [[] for _ in runs]

    def run(i):
        barrier.wait(timeout=60)
        for _ in range(20):
            got[i].append(hn.evaluate(models[runs[i]], shared))

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(len(runs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[m]] * 20 for m in runs]

    # two datasets, evaluated in turn on one thread
    other_want = hn.evaluate(models[1], mixed_size_dataset(seed=11))
    other = mixed_size_dataset(seed=11)
    for _ in range(3):
        assert hn.evaluate(models[0], shared) == want[0]
        assert hn.evaluate(models[1], other) == other_want


def test_a_graph_above_the_row_cap_is_evaluated_alone():
    rng = np.random.default_rng(12)
    n = hn.EVAL_ROWS + 1
    ring = Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),),
                 rng.normal(size=(n, 5)), 2)
    small = mixed_size_dataset(seed=12).graphs[:30]
    dataset = Dataset(small + [ring], num_classes=10, feature_dim=5)
    model = random_model(5)
    parts = hn._eval_chunks(dataset)
    assert len(parts) == 2
    assert parts[0][0].num_nodes <= hn.EVAL_ROWS
    index, features, labels = parts[1]
    assert len(labels) == 1 and index.num_nodes == n
    features = np.concatenate(features)
    alone = enc.predict(model, [ring])
    assert np.array_equal(enc._predict_union(model, index, features), alone)
    pred = np.concatenate([enc.predict(model, [g]) for g in dataset.graphs])
    want = np.mean(pred == [g.label for g in dataset.graphs])
    assert hn.evaluate(model, dataset) == want


def test_each_step_frees_the_last_tape_before_the_next_starts(size_split,
                                                              monkeypatch):
    train_set, test_set = size_split
    step = enc.weighted_prediction_step
    held, live = [], []

    def watched(*args, **kwargs):
        live.append([ref() is not None for ref in held])
        loss = step(*args, **kwargs)
        held.append(weakref.ref(loss.value))
        return loss

    monkeypatch.setattr(hn.enc, "weighted_prediction_step", watched)
    hn.train(train_set, test_set, small_cfg(epochs=2))
    assert len(live) > 2  # more than one step an epoch
    # no earlier step's loss, hence no tape, is alive when a step starts
    assert all(not any(alive) for alive in live), live


def test_divergence_error_names_epoch_and_batch(size_split, monkeypatch):
    train_set, test_set = size_split

    def explode(*args, **kwargs):
        raise nc.NonFiniteError("synthetic overflow")

    monkeypatch.setattr(hn.enc, "encode_batch", explode)
    with pytest.raises(enc.DivergenceError, match="epoch 0 batch 0"):
        hn.train(train_set, test_set, small_cfg(mode="baseline_uniform"))


def test_identical_runs_write_identical_stable_lines(size_split, tmp_path):
    train_set, test_set = size_split
    cfg = small_cfg(mode="ood_gnn", k_groups=1, gammas=(0.8,))
    model_a, report_a = hn.train(train_set, test_set, cfg)
    model_b, report_b = hn.train(train_set, test_set, cfg)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    hn.write_results(pa, report_a)
    hn.write_results(pb, report_b)
    assert hn.stable_lines(pa) == hn.stable_lines(pb)
    for ta, tb in zip(enc.parameters(model_a), enc.parameters(model_b)):
        assert np.array_equal(ta.value, tb.value)


def test_results_file_round_trip(size_split, tmp_path):
    train_set, test_set = size_split
    _, report = hn.train(train_set, test_set, small_cfg(epochs=2))
    path = tmp_path / "run.jsonl"
    hn.write_results(path, report)
    records, summary = hn.load_results(path)
    assert len(records) == 2
    assert all("wall_seconds" not in r for r in records)
    assert summary["config"]["mode"] == "ood_gnn"
    assert summary["wall_seconds"] > 0
    assert summary["final_test_acc"] == report.final_test_acc
    assert len(summary["final_weights"]) == len(report.final_weights)


def test_load_results_requires_summary(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "epoch", "epoch": 0}\n')
    with pytest.raises(DataFormatError):
        hn.load_results(path)
    path.write_text("not json\n")
    with pytest.raises(DataFormatError, match="bad.jsonl:1"):
        hn.load_results(path)


def test_load_results_rejects_lines_that_are_not_objects(tmp_path):
    path = tmp_path / "bad.jsonl"
    for line in ("[1, 2]", "5", '"s"'):
        path.write_text('{"kind": "epoch", "epoch": 0}\n' + line + "\n")
        with pytest.raises(DataFormatError, match="bad.jsonl:2"):
            hn.load_results(path)


def test_weight_histogram_covers_all_weights(size_split, tmp_path, capsys):
    # ``decorgnn report --histogram`` is the one place weights are binned
    from decorgnn import cli
    train_set, test_set = size_split
    _, report = hn.train(train_set, test_set, small_cfg())
    path = tmp_path / "run.jsonl"
    hn.write_results(path, report)
    capsys.readouterr()
    assert cli.main(["report", "--results", str(path), "--histogram",
                     "--bins", "10"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")]
    assert len(rows) == 10
    assert (sum(int(row.split(")")[1].split()[0]) for row in rows)
            == len(report.final_weights))
    _, baseline = hn.train(train_set, test_set,
                           small_cfg(mode="baseline_uniform", epochs=1))
    hn.write_results(path, baseline)
    assert cli.main(["report", "--results", str(path), "--histogram"]) == 1


def test_checkpoint_round_trip(size_split, tmp_path):
    train_set, test_set = size_split
    model, _ = hn.train(train_set, test_set, small_cfg(epochs=1))
    path = tmp_path / "model.jsonl"
    hn.save_checkpoint(path, model)
    loaded, memory = hn.load_checkpoint(path)
    assert memory is None
    graphs = test_set.graphs[:20]
    assert np.array_equal(enc.predict(model, graphs),
                          enc.predict(loaded, graphs))
    for name, tensor in enc.named_parameters(model).items():
        assert np.array_equal(tensor.value,
                              enc.named_parameters(loaded)[name].value)


@pytest.mark.parametrize("values, verdict", [
    ([], True), ([True], False), (["1"], False), ([None], False),
    ([[1]], False), ([1, 2.5], True), ([1.0, False], False),
    ((1, 2.5), False),  # a JSON array loads as a list, never a tuple
])
def test_is_number_list_takes_exact_ints_and_floats_only(values, verdict):
    assert is_number_list(values) is verdict


def test_checkpoint_rejects_bad_shapes(size_split, tmp_path):
    from decorgnn.fileio import load_manifest, save_manifest
    train_set, test_set = size_split
    model, _ = hn.train(train_set, test_set, small_cfg(epochs=1))
    path = tmp_path / "model.jsonl"
    hn.save_checkpoint(path, model)
    bad = tmp_path / "bad.jsonl"
    in_dim = train_set.feature_dim
    for name, value in [("encoder.layer0.b1", np.zeros((1, 3))),
                        ("classifier.b", None),
                        ("encoder.layer1.b2", None),
                        ("encoder.layer1.w1", np.zeros((in_dim, 16)))]:
        arrays = load_manifest(path)
        if value is None:
            del arrays[name]
        else:
            arrays[name] = value
        save_manifest(bad, arrays)
        with pytest.raises(DataFormatError, match=name):
            hn.load_checkpoint(bad)
    arrays = load_manifest(path)
    arrays["encoder.layer1.w2"][2, 3] = np.nan
    save_manifest(bad, arrays)
    with pytest.raises(nc.NonFiniteError):
        hn.load_checkpoint(bad)
    save_manifest(bad, {"unrelated": np.zeros((1, 1))})
    with pytest.raises(DataFormatError, match="not a model checkpoint"):
        hn.load_checkpoint(bad)
    # entries the template lacks: a misspelt name, and a layer past a gap
    arrays = load_manifest(path)
    arrays["encoder.lyr0.w1"] = arrays["encoder.layer0.w1"]
    save_manifest(bad, arrays)
    with pytest.raises(DataFormatError, match=r"unexpected entry encoder\.lyr0\.w1"):
        hn.load_checkpoint(bad)
    deep = hn.init_model(small_cfg(num_layers=3), in_dim, train_set.num_classes)
    arrays = {name: t.value for name, t in enc.named_parameters(deep).items()
              if not name.startswith("encoder.layer1.")}
    save_manifest(bad, arrays)
    with pytest.raises(DataFormatError, match=r"unexpected entry encoder\.layer2\."):
        hn.load_checkpoint(bad)


def test_load_manifest_rejects_malformed_records(tmp_path):
    from decorgnn.fileio import load_manifest
    path = tmp_path / "bad.jsonl"
    good = {"name": "a", "rows": 1, "cols": 1, "values": [1.0]}
    for field, value in [("values", 5), ("values", ["x"]), ("rows", True),
                         ("values", [[1.0, 2.0]]), ("name", [1]),
                         ("values", [10 ** 400]), ("values", ["1e3"]),
                         ("values", [True])]:
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, "name": "b", field: value})
                        + "\n")
        with pytest.raises(DataFormatError, match="bad.jsonl:2"):
            load_manifest(path)


def test_written_files_take_the_mode_open_would_give(tmp_path):
    before = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            plain = tmp_path / f"plain{umask:o}"
            plain.write_text("x")
            written = tmp_path / f"written{umask:o}"
            atomic_write_text(written, "x")
            assert written.read_text() == "x"
            assert (stat.S_IMODE(written.stat().st_mode)
                    == stat.S_IMODE(plain.stat().st_mode)
                    == 0o666 & ~umask)
            # a replaced file keeps its own mode, as it would under open
            for mode in (0o600, 0o640):
                written.chmod(mode)
                plain.chmod(mode)
                plain.write_text("y")
                atomic_write_text(written, "y")
                assert written.read_text() == "y"
                assert (stat.S_IMODE(written.stat().st_mode)
                        == stat.S_IMODE(plain.stat().st_mode) == mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{kind}{umask:o}" for kind in ("plain", "written")
            for umask in (0o022, 0o077, 0o002))
    finally:
        os.umask(before)


def test_probe_learning_rate_returns_allowed_value(size_split):
    train_set, _ = size_split
    cfg = small_cfg(mode="baseline_uniform", epochs=1)
    lr_a = hn.probe_learning_rate(train_set, cfg)
    lr_b = hn.probe_learning_rate(train_set, cfg)
    assert lr_a in hn.ALLOWED_LRS
    assert lr_a == lr_b


def test_probe_evaluates_once_per_candidate(size_split, monkeypatch):
    train_set, _ = size_split
    cfg = small_cfg(mode="baseline_uniform", epochs=1)
    scored = []
    evaluate = hn.evaluate

    def counting(model, dataset, *args, **kwargs):
        scored.append(len(dataset))
        return evaluate(model, dataset, *args, **kwargs)

    monkeypatch.setattr(hn, "evaluate", counting)
    lr = hn.probe_learning_rate(train_set, cfg)
    n_val = round(hn.PROBE_HOLDOUT * len(train_set))
    assert scored == [n_val] * len(hn.ALLOWED_LRS)
    # what the probe picked when it ran full train() calls, scoring the
    # 9-graph val slice at 2/9 for 1e-4 and 3/9 for 1e-3
    assert lr == 1e-3


def test_run_experiment_writes_per_run_and_summary_files(tmp_path):
    summary = hn.run_experiment(
        "triangles_size_shift", seeds=[0], out_dir=tmp_path, count=80,
        overrides={"epochs": 2, "hidden_dim": 16, "epochs_reweight": 5})
    assert set(summary["per_mode"]) == set(hn.MODES)
    for mode in hn.MODES:
        stats = summary["per_mode"][mode]
        assert len(stats["test_accs"]) == 1
        assert 0.0 <= stats["mean"] <= 1.0
        assert (tmp_path / f"triangles_size_shift_seed0_{mode}.jsonl").exists()
    on_disk = json.loads(
        (tmp_path / "triangles_size_shift_summary.json").read_text())
    assert on_disk == summary
    assert summary["learning_rates"]["0"] in hn.ALLOWED_LRS


def test_run_experiment_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        hn.run_experiment("other", seeds=[0], out_dir=tmp_path)
