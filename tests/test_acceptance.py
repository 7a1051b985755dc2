"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them all). The two experiment-level checks share session fixtures so the
training work happens once.
"""

import time

import numpy as np
import pytest

from decorgnn import decorrelation as dc
from decorgnn import encoder as enc_mod
from decorgnn import globalmem as gm
from decorgnn import harness as hn
from decorgnn import numcore as nc
from decorgnn.graphdata import (Graph, adjacency_matrix, count_triangles,
                                gen_random_graph, permute_graph)

SEEDS = [0, 1, 2, 3, 4]


def _verdict(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def _rel_error(analytic, numeric):
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def _random_graph_with_features(rng, width, lo=3, hi=8):
    n = int(rng.integers(lo, hi + 1))
    g = gen_random_graph(n, float(rng.uniform(0.3, 0.7)), rng)
    return Graph(g.num_nodes, g.edges, rng.normal(size=(n, width)), 0)


@pytest.fixture(scope="session")
def size_shift_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("size_shift")
    started = time.time()
    summary = hn.run_experiment("triangles_size_shift", seeds=SEEDS,
                                out_dir=out, count=500)
    return summary, time.time() - started


@pytest.fixture(scope="session")
def noise_shift_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("noise_shift")
    summary = hn.run_experiment("feature_noise_shift", seeds=SEEDS,
                                out_dir=out, count=500)
    return summary


def test_criterion_01_gradient_suite():
    started = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    instances = 0

    # weight-gradient instances: analytic gradient of the penalized
    # dependence objective against central differences
    for _ in range(25):
        n = int(rng.integers(6, 17))
        d = int(rng.integers(2, 5))
        lam = float(rng.choice([0.0, 0.3]))
        z = rng.normal(size=(n, d))
        w = rng.uniform(0.5, 1.5, size=n)
        banks = dc.sample_banks(d, 1, rng)
        pairs = dc.sample_pairs(d, 1.0, rng)
        analytic = dc.objective_grad_weights(z, w, banks, pairs,
                                             l2_lambda=lam)
        numeric = np.empty(n)
        for i in range(n):
            step = np.zeros(n)
            step[i] = 1e-5
            hi = (dc.decorrelation_objective(z, w + step, banks, pairs)
                  + lam * np.sum((w + step) ** 2))
            lo = (dc.decorrelation_objective(z, w - step, banks, pairs)
                  + lam * np.sum((w - step) ** 2))
            numeric[i] = (hi - lo) / 2e-5
        worst = max(worst, _rel_error(analytic, numeric))
        instances += 1

    # full prediction-path instances: every parameter of a random
    # encoder/classifier against central differences
    def swap(model, old, new):
        for layer in model.encoder.layers:
            for name in ("eps", "w1", "b1", "w2", "b2"):
                if getattr(layer, name) is old:
                    setattr(layer, name, new)
        if model.classifier.w is old:
            model.classifier.w = new
        if model.classifier.b is old:
            model.classifier.b = new

    # init_encoder's zero biases let a node whose layer-0 ReLUs are all dead
    # output an exact zero row, so its layer-1 pre-activation sits exactly
    # on the ReLU kink, where central differences average the two one-sided
    # slopes while the tape takes relu'(0) = 0. Random biases keep every
    # pre-activation clear of the kink; they come from a generator of their
    # own so the draws from seed 1001 are unchanged.
    bias_rng = np.random.default_rng(1101)
    for _ in range(25):
        width = int(rng.integers(2, 5))
        hidden = int(rng.integers(2, 5))
        layers = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 5))
        graphs = [_random_graph_with_features(rng, width)
                  for _ in range(int(rng.integers(1, 4)))]
        labels = rng.integers(0, classes, size=len(graphs))
        weights = rng.uniform(0.2, 2.0, size=len(graphs))
        model = enc_mod.Model(
            encoder=enc_mod.init_encoder(width, hidden, layers, rng),
            classifier=enc_mod.init_classifier(hidden, classes, rng))
        biases = [layer.b1 for layer in model.encoder.layers]
        biases += [layer.b2 for layer in model.encoder.layers]
        biases.append(model.classifier.b)
        for b in biases:
            b.value[...] = bias_rng.normal(scale=0.5, size=b.shape)

        for target in enc_mod.parameters(model):
            def f(t, target=target):
                swap(model, target, t)
                z = enc_mod.encode_batch(model.encoder, graphs)
                out = nc.softmax_cross_entropy(
                    enc_mod.classify(model.classifier, z), labels, weights)
                swap(model, t, target)
                return out
            worst = max(worst, nc.grad_check(f, target.value))
        instances += 1

    elapsed = time.time() - started
    _verdict(1, "gradient suite",
             instances >= 50 and worst < 1e-4 and elapsed < 30.0,
             f"{instances} instances, max rel error {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_criterion_02_reduction_identity():
    started = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(8, 65))
        q = int(rng.integers(1, 4))
        zi = rng.normal(size=n)
        zj = rng.normal(size=n)
        if trial % 4 == 0:
            f_bank = g_bank = None          # identity maps
        else:
            f_bank, g_bank = dc.sample_bank(q, rng), dc.sample_bank(q, rng)
        weighted = dc.weighted_partial_cov(zi, zj, np.ones(n), f_bank, g_bank)
        f = dc.feature_matrix(zi, f_bank)
        g = dc.feature_matrix(zj, g_bank)
        plain = (f - f.mean(axis=0)).T @ (g - g.mean(axis=0)) / (n - 1)
        worst = max(worst, float(np.max(np.abs(weighted - plain))))
    elapsed = time.time() - started
    _verdict(2, "reduction identity", worst < 1e-12 and elapsed < 5.0,
             f"100 instances, max abs diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_independence_oracle_agreement():
    started = time.time()
    rank_hits = 0
    hsic_hits = 0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        x = rng.normal(size=256)
        dep = (x * x - 1.0) / np.sqrt(2.0)      # deterministic in x
        indep = rng.normal(size=256)
        banks = dc.sample_banks(2, 1, rng)
        pairs = [(0, 1)]
        w = np.ones(256)
        obj_dep = dc.decorrelation_objective(
            np.column_stack([x, dep]), w, banks, pairs)
        obj_indep = dc.decorrelation_objective(
            np.column_stack([x, indep]), w, banks, pairs)
        if obj_dep > obj_indep:
            rank_hits += 1
        stat_d, thr_d = dc.hsic_permutation_threshold(
            x, dep, shuffles=200, rng_seed=3000 + trial)
        stat_i, thr_i = dc.hsic_permutation_threshold(
            x, indep, shuffles=200, rng_seed=4000 + trial)
        if stat_d > thr_d and stat_i <= thr_i:
            hsic_hits += 1
    elapsed = time.time() - started
    _verdict(3, "independence oracle",
             rank_hits >= 95 and hsic_hits >= 90 and elapsed < 120.0,
             f"objective ranking {rank_hits}/100, "
             f"permutation agreement {hsic_hits}/100, {elapsed:.1f}s")


def test_criterion_04_constraint_preservation():
    ds = hn._derived_seed([0, 11])
    train_set, test_set = hn.EXPERIMENTS["triangles_size_shift"](ds, 300)
    checked = 0
    violated = 0
    for k_groups, gammas in ((0, ()), (1, (0.8,))):
        cfg = hn.TrainConfig(mode="ood_gnn", epochs=4, seed=0,
                             l2_lambda=0.01, k_groups=k_groups,
                             gammas=gammas)
        _, report = hn.train(train_set, test_set, cfg)
        if k_groups == 0:
            batches = -(-len(train_set) // cfg.batch_size)
        else:
            batches = len(train_set) // cfg.batch_size
        expected = cfg.epochs * batches * cfg.epochs_reweight
        assert report.constraint_checks == expected
        checked += report.constraint_checks
        violated += report.constraint_violations
    _verdict(4, "constraint preservation", checked > 0 and violated == 0,
             f"{checked} post-step checks, {violated} violations "
             f"(sum tolerance 1e-6, floor 1e-4)")


def test_criterion_05_momentum_memory():
    rng = np.random.default_rng(1005)
    z_local = rng.normal(size=(8, 5))
    w_local = rng.uniform(0.5, 1.5, size=8)
    worst = 0.0
    for gamma in (0.0, 0.5, 0.9):
        memory = gm.init_memory(1, batch_size=8, d=5, gammas=(gamma,))
        memory.z_groups[0] = rng.normal(size=(8, 5))
        memory.w_groups[0] = rng.uniform(0.5, 1.5, size=8)
        for _ in range(20):
            gap_z = memory.z_groups[0] - z_local
            gap_w = memory.w_groups[0] - w_local
            gm.momentum_update(memory, z_local, w_local)
            worst = max(
                worst,
                float(np.max(np.abs(memory.z_groups[0] - z_local
                                    - gamma * gap_z))),
                float(np.max(np.abs(memory.w_groups[0] - w_local
                                    - gamma * gap_w))),
            )
    _verdict(5, "momentum memory", worst <= 1e-12,
             f"max contraction error {worst:.2e} over 20 steps, "
             f"gamma in {{0, 0.5, 0.9}}")


def test_criterion_06_triangle_oracle():
    rng = np.random.default_rng(1006)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 31))
        g = gen_random_graph(n, float(rng.uniform(0.1, 0.5)), rng)
        a = adjacency_matrix(g)
        via_trace = int(round(np.trace(a @ a @ a) / 6.0))
        if count_triangles(g) != via_trace:
            mismatches += 1
    _verdict(6, "triangle oracle", mismatches == 0,
             f"200 random graphs, {mismatches} disagreements with "
             f"trace-based recount")


def test_criterion_07_ood_trend(size_shift_run):
    summary, elapsed = size_shift_run
    ood = summary["per_mode"]["ood_gnn"]["mean"]
    base = summary["per_mode"]["baseline_uniform"]["mean"]
    _verdict(7, "size-shift trend",
             ood >= base and ood > 0.10 and base > 0.10 and elapsed < 600.0,
             f"ood_gnn {ood:.4f} vs baseline_uniform {base:.4f} "
             f"over {len(SEEDS)} seeds, {elapsed:.0f}s")


def test_criterion_08_ablation_direction(noise_shift_run):
    summary = noise_shift_run
    ood = summary["per_mode"]["ood_gnn"]["mean"]
    linear = summary["per_mode"]["linear_decorr"]["mean"]
    _verdict(8, "ablation direction", ood >= linear,
             f"ood_gnn {ood:.4f} vs linear_decorr {linear:.4f} "
             f"over {len(SEEDS)} seeds")


def test_criterion_09_determinism(tmp_path):
    ds = hn._derived_seed([0, 11])
    train_set, test_set = hn.EXPERIMENTS["triangles_size_shift"](ds, 200)
    cfg = hn.TrainConfig(mode="ood_gnn", epochs=3, seed=123,
                         l2_lambda=0.01, k_groups=1, gammas=(0.8,))
    paths = []
    for tag in ("a", "b"):
        _, report = hn.train(train_set, test_set, cfg)
        path = tmp_path / f"{tag}.jsonl"
        hn.write_results(path, report)
        paths.append(path)
    same = hn.stable_lines(paths[0]) == hn.stable_lines(paths[1])
    _verdict(9, "determinism", same,
             "two identical runs, byte-identical records with "
             "timestamps excluded")


def test_criterion_10_permutation_invariance():
    rng = np.random.default_rng(1010)
    encoder = enc_mod.init_encoder(6, 16, 2, rng)
    worst = 0.0
    for _ in range(100):
        g = _random_graph_with_features(rng, 6, lo=4, hi=14)
        perm = rng.permutation(g.num_nodes)
        h = enc_mod.encode_batch(encoder, [g]).value
        hp = enc_mod.encode_batch(encoder, [permute_graph(g, perm)]).value
        worst = max(worst, float(np.max(np.abs(h - hp))))
    _verdict(10, "permutation invariance", worst < 1e-9,
             f"100 graph/permutation pairs, max deviation {worst:.2e}")
