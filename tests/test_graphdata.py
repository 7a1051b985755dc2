import itertools
import math

import numpy as np
import pytest

from decorgnn import graphdata as gd


def brute_force_triangles(g):
    """Independent oracle: test every C(n,3) triple."""
    present = set(g.edges)

    def connected(a, b):
        return (min(a, b), max(a, b)) in present

    total = 0
    for a, b, c in itertools.combinations(range(g.num_nodes), 3):
        if connected(a, b) and connected(a, c) and connected(b, c):
            total += 1
    return total


def trace_triangles(g):
    """Second independent route: trace(A^3) / 6 on a dense adjacency."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return int(round(np.trace(a @ a @ a) / 6.0))


def make_graph(n, edges, label=0):
    return gd.Graph(n, tuple(sorted(edges)), np.zeros((n, 1)), label)


def test_count_triangles_known_cases():
    k3 = make_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert gd.count_triangles(k3) == 1
    k4 = make_graph(4, list(itertools.combinations(range(4), 2)))
    assert gd.count_triangles(k4) == 4
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert gd.count_triangles(path) == 0
    lone = make_graph(5, [])
    assert gd.count_triangles(lone) == 0


def test_count_triangles_matches_brute_force_enumeration():
    rng = np.random.default_rng(100)
    for trial in range(50):
        n = int(rng.integers(3, 13))
        g = gd.gen_random_graph(n, float(rng.uniform(0.1, 0.8)), rng)
        assert gd.count_triangles(g) == brute_force_triangles(g)


def test_count_triangles_matches_trace_route():
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(3, 40))
        g = gd.gen_random_graph(n, float(rng.uniform(0.05, 0.6)), rng)
        assert gd.count_triangles(g) == trace_triangles(g)


def test_count_invariant_under_node_permutation():
    rng = np.random.default_rng(102)
    for trial in range(20):
        g = gd.gen_random_graph(12, 0.4, rng)
        perm = rng.permutation(12)
        assert gd.count_triangles(gd.permute_graph(g, perm)) == gd.count_triangles(g)


def test_gen_random_graph_deterministic_per_seed():
    a = gd.gen_random_graph(15, 0.3, 42)
    b = gd.gen_random_graph(15, 0.3, 42)
    c = gd.gen_random_graph(15, 0.3, 43)
    assert a.edges == b.edges
    assert a.edges != c.edges


def test_gen_random_graph_edge_count_binomial_statistics():
    # Mean edge count over 100 seeds vs binomial mean 0.3 * C(20,2) = 57.
    pairs = 20 * 19 // 2
    counts = [len(gd.gen_random_graph(20, 0.3, seed).edges) for seed in range(100)]
    sigma_mean = math.sqrt(pairs * 0.3 * 0.7) / math.sqrt(100)
    assert abs(np.mean(counts) - 0.3 * pairs) < 3 * sigma_mean


def test_gen_random_graph_validation():
    with pytest.raises(gd.DatasetError):
        gd.gen_random_graph(0, 0.5, 1)
    with pytest.raises(gd.DatasetError):
        gd.gen_random_graph(5, 1.2, 1)


def test_one_hot_degree_features_encodes_degrees():
    g = make_graph(4, [(0, 1), (0, 2), (0, 3)])  # star: center degree 3
    out = gd.one_hot_degree_features(g, max_degree=5)
    assert out.features.shape == (4, 6)
    assert out.features[0, 3] == 1.0
    for node in (1, 2, 3):
        assert out.features[node, 1] == 1.0
    assert np.array_equal(out.features.sum(axis=1), np.ones(4))


def test_one_hot_degree_features_clamps_at_cap():
    n = 40
    g = make_graph(n, [(0, v) for v in range(1, n)])  # center degree 39
    out = gd.one_hot_degree_features(g)  # default cap 32
    assert out.features.shape == (n, 33)
    assert out.features[0, 32] == 1.0


def test_triangles_dataset_labels_verified_by_oracle():
    data = gd.gen_triangles_dataset(40, 4, 20, rng_seed=7)
    assert data.num_classes == 10
    assert data.feature_dim == 33
    for g in data.graphs:
        assert 4 <= g.num_nodes <= 20
        t = gd.count_triangles(g)
        assert 1 <= t <= 10
        assert g.label == t - 1


def test_triangles_dataset_bit_reproducible():
    a = gd.gen_triangles_dataset(25, 4, 25, rng_seed=11)
    b = gd.gen_triangles_dataset(25, 4, 25, rng_seed=11)
    for ga, gb in zip(a.graphs, b.graphs):
        assert ga.num_nodes == gb.num_nodes
        assert ga.edges == gb.edges
        assert ga.label == gb.label
        assert np.array_equal(ga.features, gb.features)


def test_triangles_dataset_covers_large_sizes():
    # Sampling stays feasible well past the size where a fixed edge
    # probability floor would starve acceptance.
    data = gd.gen_triangles_dataset(10, 50, 60, rng_seed=3)
    for g in data.graphs:
        assert 50 <= g.num_nodes <= 60
        assert 1 <= gd.count_triangles(g) <= 10


def test_generation_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(gd, "REJECTION_BUDGET", 1)
    with pytest.raises(gd.GenerationError):
        gd.gen_triangles_dataset(30, 4, 6, rng_seed=0)


def test_generation_out_of_memory_raises(monkeypatch):
    def exhausted(n, p, rng):
        raise MemoryError(f"cannot allocate {n * (n - 1) // 2} pairs")

    monkeypatch.setattr(gd, "_sample_edges", exhausted)
    with pytest.raises(gd.GenerationError, match=r"graph 0: .* a 9-node graph"):
        gd.gen_triangles_dataset(3, 9, 9, rng_seed=0)


def test_split_by_size_partitions_and_rejects_degenerate():
    data = gd.gen_triangles_dataset(30, 4, 25, rng_seed=5)
    train, test = gd.split_by_size(data, 14)
    assert len(train) + len(test) == len(data)
    assert all(g.num_nodes <= 14 for g in train.graphs)
    assert all(g.num_nodes > 14 for g in test.graphs)
    with pytest.raises(gd.DatasetError):
        gd.split_by_size(data, 100)


def test_feature_noise_zero_sigma_is_identity():
    data = gd.gen_triangles_dataset(10, 4, 12, rng_seed=9)
    out = gd.add_feature_noise(data, 0.0, rng_seed=1)
    for g0, g1 in zip(data.graphs, out.graphs):
        assert np.array_equal(g0.features, g1.features)
        assert g0.edges == g1.edges


def test_feature_noise_statistics_and_structure():
    rng = np.random.default_rng(0)
    graphs = [gd.Graph(50, (), rng.standard_normal((50, 20)), 0) for _ in range(10)]
    data = gd.Dataset(graphs, num_classes=1, feature_dim=20)
    noisy = gd.add_feature_noise(data, 0.4, rng_seed=21)
    added = np.concatenate([
        (n.features - g.features).ravel() for g, n in zip(data.graphs, noisy.graphs)])
    assert added.size == 10_000
    assert abs(added.mean()) < 3 * 0.4 / math.sqrt(10_000)
    assert abs(added.std() - 0.4) < 0.02
    for g0, g1 in zip(data.graphs, noisy.graphs):
        assert g0.edges == g1.edges and g0.label == g1.label


def test_apply_split_by_feature_noise_holds_out_test_only():
    data = gd.gen_triangles_dataset(30, 4, 15, rng_seed=13)
    spec = gd.SplitSpec(kind="by_feature_noise", noise_sigma=0.4, seed=2)
    train, test = gd.apply_split(data, spec)
    assert len(train) + len(test) == len(data)
    assert len(test) == 6  # 20% holdout
    train2, test2 = gd.apply_split(data, spec)
    for a, b in zip(test.graphs, test2.graphs):
        assert np.array_equal(a.features, b.features)
    # training features are original one-hot rows
    for g in train.graphs:
        assert set(np.unique(g.features)) <= {0.0, 1.0}


def test_dataset_round_trip_through_file(tmp_path):
    data = gd.gen_triangles_dataset(12, 4, 15, rng_seed=17)
    noisy = gd.add_feature_noise(data, 0.4, rng_seed=3)  # non-trivial floats
    path = tmp_path / "graphs.jsonl"
    gd.save_dataset(noisy, path)
    loaded = gd.load_dataset(path, num_classes=10)
    assert loaded.num_classes == noisy.num_classes
    inferred = gd.load_dataset(path)
    assert inferred.num_classes == max(g.label for g in noisy.graphs) + 1
    assert loaded.feature_dim == noisy.feature_dim
    for g0, g1 in zip(noisy.graphs, loaded.graphs):
        assert g0.num_nodes == g1.num_nodes
        assert g0.edges == g1.edges
        assert g0.label == g1.label
        assert np.array_equal(g0.features, g1.features)  # exact, not approx


def test_load_reports_line_numbers(tmp_path):
    good = '{"n": 3, "edges": [[0, 1]], "x": [[1.0], [0.0], [0.0]], "y": 0}'
    cases = [
        "not json at all",
        '{"n": 3, "edges": [[0, 3]], "x": [[1.0], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1]], "x": [[1.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1], [1, 0]], "x": [[1.0], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1]], "x": [[1.0], [0.0], [0.0]]}',
        '{"n": 3, "edges": null, "x": [[1.0], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": 5, "x": [[1.0], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1]], "x": [[1.0], [0.0], [0.0]], "y": true}',
        '{"n": 3, "edges": [[0, true]], "x": [[1.0], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1]], "x": [["0.5"], [0.0], [0.0]], "y": 0}',
        '{"n": 3, "edges": [[0, 1]], "x": [[true], [0.0], [0.0]], "y": 0}',
    ]
    for bad in cases:
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n")
        with pytest.raises(gd.DataFormatError) as err:
            gd.load_dataset(path)
        assert ":2" in str(err.value)


def test_load_rejects_inconsistent_feature_width(tmp_path):
    lines = [
        '{"n": 2, "edges": [[0, 1]], "x": [[1.0, 0.0], [0.0, 1.0]], "y": 0}',
        '{"n": 2, "edges": [[0, 1]], "x": [[1.0], [0.0]], "y": 1}',
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(gd.DataFormatError):
        gd.load_dataset(path)


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(gd.DatasetError):
        make_graph(3, [(1, 1)])
    with pytest.raises(gd.DatasetError):
        make_graph(3, [(0, 3)])
    with pytest.raises(gd.DatasetError):
        gd.Graph(2, ((0, 1),), np.zeros((3, 1)), 0)
