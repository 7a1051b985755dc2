import numpy as np
import pytest

from decorgnn import encoder as enc_mod
from decorgnn import numcore as nc
from decorgnn.graphdata import (Graph, adjacency_matrix, gen_random_graph,
                                gen_triangles_dataset, one_hot_degree_features,
                                permute_graph)


def make_model(input_dim, hidden_dim, num_layers, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    return enc_mod.Model(
        encoder=enc_mod.init_encoder(input_dim, hidden_dim, num_layers, rng),
        classifier=enc_mod.init_classifier(hidden_dim, num_classes, rng),
    )


def loop_encode(enc, g):
    """Per-node reference: plain Python loops, no tape, no batching."""
    h = g.features.astype(np.float64)
    for layer in enc.layers:
        eps = layer.eps.value[0, 0]
        nbr = np.zeros_like(h)
        for u, v in g.edges:
            nbr[u] += h[v]
            nbr[v] += h[u]
        z = ((1.0 + eps) * h + nbr) @ layer.w1.value + layer.b1.value
        h = np.maximum(z, 0.0) @ layer.w2.value + layer.b2.value
    return h.sum(axis=0, keepdims=True)


def sample_graphs(count, seed, min_nodes=4, max_nodes=12, width=8):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(min_nodes, max_nodes + 1))
        g = gen_random_graph(n, float(rng.uniform(0.2, 0.6)), rng)
        feats = rng.normal(size=(n, width))
        graphs.append(Graph(g.num_nodes, g.edges, feats, 0))
    return graphs


def test_init_shapes_and_values():
    model = make_model(input_dim=5, hidden_dim=7, num_layers=3, num_classes=4)
    layers = model.encoder.layers
    assert len(layers) == 3
    assert layers[0].w1.shape == (5, 7)
    assert layers[1].w1.shape == (7, 7)
    for layer in layers:
        assert layer.eps.shape == (1, 1) and layer.eps.value[0, 0] == 0.0
        assert layer.w2.shape == (7, 7)
        assert np.all(layer.b1.value == 0.0) and np.all(layer.b2.value == 0.0)
    assert model.classifier.w.shape == (7, 4)
    with pytest.raises(ValueError):
        enc_mod.init_encoder(5, 7, 0, np.random.default_rng(0))


def test_named_parameters_cover_everything_once():
    model = make_model(3, 4, 2, 5)
    names = enc_mod.named_parameters(model)
    assert set(names) == {
        "encoder.layer0.eps", "encoder.layer0.w1", "encoder.layer0.b1",
        "encoder.layer0.w2", "encoder.layer0.b2",
        "encoder.layer1.eps", "encoder.layer1.w1", "encoder.layer1.b1",
        "encoder.layer1.w2", "encoder.layer1.b2",
        "classifier.w", "classifier.b",
    }
    ids = [id(t) for t in names.values()]
    assert len(set(ids)) == len(ids)
    assert names["encoder.layer0.w1"] is model.encoder.layers[0].w1


def ring_graph(num_nodes, ring_nodes, width=8):
    """A cycle through the first ring_nodes nodes; the rest are isolated."""
    edges = tuple((i, i + 1) for i in range(ring_nodes - 1)) + ((0, ring_nodes - 1),)
    return Graph(num_nodes, tuple(sorted(edges)), np.zeros((num_nodes, width)), 0)


def mixed_union(seed=11):
    """Graphs of several node counts (two sharing 9 and two sharing 6), an
    edgeless graph and a 1-node graph, which the index stacks densely, plus
    a 200-node graph with a 150-node ring, a 300-node random graph with
    degrees up to 7 and an edgeless 200-node graph, which it sums over
    their edges; in a shuffled order."""
    sparse = gen_random_graph(300, 0.006, seed)
    graphs = (sample_graphs(2, seed=seed, min_nodes=9, max_nodes=9)
              + sample_graphs(2, seed=seed + 1, min_nodes=6, max_nodes=6)
              + sample_graphs(1, seed=seed + 2, min_nodes=12, max_nodes=12)
              + [Graph(4, (), np.zeros((4, 8)), 0),
                 Graph(1, (), np.zeros((1, 8)), 0),
                 ring_graph(200, 150),
                 Graph(300, sparse.edges, np.zeros((300, 8)), 0),
                 Graph(200, (), np.zeros((200, 8)), 0)])
    order = np.random.default_rng(seed).permutation(len(graphs))
    return [graphs[i] for i in order]


def block_diagonal_adjacency(graphs):
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs])
    adj = np.zeros((offsets[-1], offsets[-1]))
    for g, lo, hi in zip(graphs, offsets[:-1], offsets[1:]):
        adj[lo:hi, lo:hi] = adjacency_matrix(g)
    return adj


def test_neighbor_sum_matches_dense_adjacency():
    g = sample_graphs(1, seed=11, min_nodes=9, max_nodes=9)[0]
    graphs = mixed_union()
    assert len({g.num_nodes for g in graphs}) < len(graphs)
    rng = np.random.default_rng(1)
    for union in ([g], [ring_graph(200, 150)], graphs):
        index = enc_mod._UnionIndex(union)
        h = rng.normal(size=(index.num_nodes, 5))
        out = enc_mod.neighbor_sum(nc.constant(h), index)
        want = block_diagonal_adjacency(union) @ h
        assert np.max(np.abs(out.value - want)) < 1e-12


def test_union_index_stacks_only_graphs_whose_block_pays():
    # a ring has n + 2E = 3n sparse entries, so n² <= 64·3n up to n = 192
    assert enc_mod.DENSE_RATIO == 64
    graphs = [ring_graph(192, 192), ring_graph(193, 193), ring_graph(193, 193)]
    index = enc_mod._UnionIndex(graphs)
    assert [(n, adj.shape[0]) for _, n, adj in index.stacks] == [(192, 1)]
    assert [nbrs.shape for _, nbrs in index.buckets] == [(2 * 193, 2)]

    mixed = mixed_union()
    index = enc_mod._UnionIndex(mixed)
    assert sorted(n for _, n, _ in index.stacks) == [1, 4, 6, 9, 12]
    sparse_edges = sum(len(g.edges) for g in mixed if g.num_nodes >= 200)
    assert sum(nbrs.size for _, nbrs in index.buckets) == 2 * sparse_edges
    assert len(index.buckets) > 2

    # a 3000-node ring's dense block would hold 3000² floats against its
    # 9000 sparse entries; an eval chunk of 64 such blocks takes 4.6 GB
    g = ring_graph(3000, 3000, width=1)
    index = enc_mod._UnionIndex([g, g])
    assert index.stacks == []
    assert [nbrs.shape for _, nbrs in index.buckets] == [(2 * 3000, 2)]
    h = np.random.default_rng(3).normal(size=(index.num_nodes, 4))
    blocks = h.reshape(2, 3000, 4)
    want = np.roll(blocks, 1, axis=1) + np.roll(blocks, -1, axis=1)
    out = enc_mod.neighbor_sum(nc.constant(h), index).value
    assert np.max(np.abs(out - want.reshape(-1, 4))) < 1e-12


def test_node_count_ordered_union_keeps_stacks_as_row_ranges(monkeypatch):
    empty_like = np.empty_like

    def poisoned(*args, **kwargs):  # so an unwritten row cannot read as 0
        out = empty_like(*args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty_like", poisoned)
    shuffled = mixed_union(seed=31)
    graphs = sorted(shuffled, key=lambda g: g.num_nodes)
    index = enc_mod._UnionIndex(graphs)
    assert index.stacks and index.buckets
    assert all(isinstance(rows, slice) for rows, _, _ in index.stacks)
    # the shuffled union interleaves the two 9- and 6-node graphs
    assert not all(isinstance(rows, slice)
                   for rows, _, _ in enc_mod._UnionIndex(shuffled).stacks)
    # the same stacks taken through the gather/scatter form
    gathered = enc_mod._UnionIndex(graphs)
    gathered.stacks = [(np.arange(rows.start, rows.stop), n, adj)
                       for rows, n, adj in index.stacks]
    # the isolated nodes of the gather-form graphs (the ring's 50, the
    # edgeless graph's 200, the random graph's few) are the only rows that
    # stacks and buckets leave unwritten
    starts = np.cumsum([0] + [g.num_nodes for g in graphs])
    idle = [start + v for start, g in zip(starts, graphs) if g.num_nodes >= 200
            for v in range(g.num_nodes) if v not in g.edge_array]
    assert np.array_equal(index.idle, idle) and len(idle) > 250
    rng = np.random.default_rng(4)
    for width in (1, 5, 64):
        h = rng.normal(size=(index.num_nodes, width))
        out = index.neighbor(h)
        assert np.array_equal(out, gathered.neighbor(h))
        assert not out[index.idle].any()
        want = block_diagonal_adjacency(graphs) @ h
        assert np.max(np.abs(out - want)) < 1e-12


def test_neighbor_sum_gradient_on_a_mixed_union():
    graphs = mixed_union(seed=23)
    index = enc_mod._UnionIndex(graphs)
    rng = np.random.default_rng(2)
    h0 = rng.normal(size=(index.num_nodes, 3))
    w = nc.constant(rng.normal(size=(3, 4)))
    labels = rng.integers(0, 4, size=len(graphs))

    def f(t):
        pooled = enc_mod.segment_sum(enc_mod.neighbor_sum(t, index), index)
        return nc.softmax_cross_entropy(nc.matmul(pooled, w), labels,
                                        np.ones(len(graphs)))

    assert nc.grad_check(f, h0) < 1e-6


def unfused_layer(layer, h, index, work=None):
    """The layer as a chain of elementwise and matrix ops, each its own node."""
    assert work is None  # the taped path passes no workspace
    combined = nc.add(nc.add(h, nc.smul(layer.eps, h)),
                      enc_mod.neighbor_sum(h, index))
    z = nc.relu(nc.add_bias(nc.matmul(combined, layer.w1), layer.b1))
    return nc.add_bias(nc.matmul(z, layer.w2), layer.b2)


def test_fused_layer_matches_the_op_chain_bit_for_bit(monkeypatch):
    graphs = [Graph(g.num_nodes, g.edges,
                    np.random.default_rng(g.num_nodes).normal(
                        size=(g.num_nodes, 8)), 0)
              for g in mixed_union(seed=29)]
    index = enc_mod._UnionIndex(graphs)
    assert index.stacks and index.buckets
    labels = np.arange(len(graphs)) % 4
    weights = np.linspace(0.5, 1.5, len(graphs))
    runs = []
    for layer_fn in (enc_mod.gin_layer_forward, unfused_layer):
        monkeypatch.setattr(enc_mod, "gin_layer_forward", layer_fn)
        model = make_model(8, 6, 3, 4, seed=12)
        for i, layer in enumerate(model.encoder.layers):
            layer.eps.value = np.array([[0.3 - 0.25 * i]])
            layer.b1.value = np.linspace(-0.2, 0.2, 6)[None, :]
        params = enc_mod.parameters(model)
        nc.zero_grad(params)
        z = enc_mod.encode_batch(model.encoder, graphs)
        loss = nc.softmax_cross_entropy(
            enc_mod.classify(model.classifier, z), labels, weights)
        nc.backward(loss)
        once = [p.grad.copy() for p in params]
        nc.backward(loss)  # a second pass adds to the stored gradients
        runs.append((z.value, once, [p.grad for p in params]))
    (fused_z, fused_once, fused_twice), (chain_z, chain_once, chain_twice) = runs
    assert np.array_equal(fused_z, chain_z)
    for got, want in zip(fused_once + fused_twice, chain_once + chain_twice):
        assert np.array_equal(got, want)
    for once, twice in zip(fused_once, fused_twice):
        assert np.array_equal(twice, once + once)
    assert any(not np.array_equal(g, 0.0) for g in fused_once[:5])


def test_every_rule_returns_one_gradient_per_parent():
    index = enc_mod._UnionIndex(sample_graphs(3, seed=31))
    rng = np.random.default_rng(4)
    layer = make_model(8, 5, 2, 3, seed=4).encoder.layers[0]
    h = nc.Tensor(rng.normal(size=(index.num_nodes, 8)))
    a, c = (nc.Tensor(rng.normal(size=(3, 4))) for _ in range(2))
    b = nc.Tensor(rng.normal(size=(4, 2)))
    bias = nc.Tensor(rng.normal(size=(1, 4)))
    nodes = [nc.matmul(a, b), nc.add(a, c), nc.add_bias(a, bias), nc.relu(a),
             nc.smul(nc.Tensor([[0.7]]), a), nc.sum_all(a),
             nc.softmax_cross_entropy(a, [0, 3, 1], [1.0, 0.5, 2.0]),
             enc_mod.neighbor_sum(h, index), enc_mod.segment_sum(h, index),
             enc_mod.gin_layer_forward(layer, h, index),
             enc_mod.gin_layer_forward(layer, nc.constant(h.value), index)]
    for node in nodes:
        grads = node._backward(rng.normal(size=node.shape))
        assert len(grads) == len(node._parents)
        for parent, grad in zip(node._parents, grads):
            assert grad is None or grad.shape == parent.shape
    assert grads[0] is None  # the last layer's input is a constant


def test_layer_zero_never_backpropagates_into_the_features(monkeypatch):
    graphs = sample_graphs(4, seed=37)
    model = make_model(8, 6, 3, 4, seed=5)
    z = enc_mod.encode_batch(model.encoder, graphs)
    loss = nc.softmax_cross_entropy(enc_mod.classify(model.classifier, z),
                                    np.arange(4), np.ones(4))
    neighbor, calls = enc_mod._UnionIndex.neighbor, []

    def counted(self, h, out=None):
        calls.append(h.shape)
        return neighbor(self, h, out)

    monkeypatch.setattr(enc_mod._UnionIndex, "neighbor", counted)
    nc.backward(loss)
    # layers 2 and 1 pass a gradient down to their input; layer 0's input
    # is the constant features, so its neighbour-sum backward never runs
    assert len(calls) == 2


def test_a_workspace_forward_matches_the_fresh_one_bit_for_bit():
    model = make_model(8, 6, 3, 4, seed=14)
    shuffled = mixed_union(seed=31)
    unions = [shuffled, sorted(shuffled, key=lambda g: g.num_nodes),
              sample_graphs(3, seed=32)]
    work = enc_mod.Workspace()
    for _ in range(2):  # the second round reuses every buffer
        for graphs in unions:
            index = enc_mod._UnionIndex(graphs)
            features = np.concatenate([g.features for g in graphs])
            with nc.no_tape():
                fresh = enc_mod._encode_union(model.encoder, index, features)
                fresh_logits = enc_mod.classify(model.classifier, fresh).value
                reused = enc_mod._encode_union(model.encoder, index, features,
                                               work)
                assert np.array_equal(reused.value, fresh.value)
                assert np.array_equal(
                    enc_mod.classify(model.classifier, reused, work).value,
                    fresh_logits)
            assert np.array_equal(
                enc_mod._predict_union(model, index, features, work),
                enc_mod.predict(model, graphs))


def test_fused_layer_raises_on_a_pre_activation_the_relu_would_hide():
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = [Graph(g.num_nodes, g.edges, np.ones((g.num_nodes, 8)), 0)
              for g in sample_graphs(3, seed=93)]
    # positive inputs times -1e308 overflow to -inf, which ReLU maps to 0
    model.encoder.layers[0].w1.value = np.full((8, 6), -1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(nc.NonFiniteError):
            enc_mod.encode_batch(model.encoder, graphs)
        with pytest.raises(nc.NonFiniteError):
            enc_mod.predict(model, graphs)


def test_edge_array_is_cached_and_read_only():
    g = sample_graphs(1, seed=5)[0]
    arr = g.edge_array
    assert arr is g.edge_array
    assert arr.shape == (len(g.edges), 2)
    assert [tuple(e) for e in arr.tolist()] == list(g.edges)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 0
    assert Graph(3, (), np.zeros((3, 1)), 0).edge_array.shape == (0, 2)


def test_encode_matches_per_node_loop_reference():
    model = make_model(8, 6, 2, 3, seed=5)
    # nonzero eps so the self-loop scaling actually participates
    for layer in model.encoder.layers:
        layer.eps.value = np.array([[0.37]])
    for g in sample_graphs(10, seed=21):
        got = enc_mod.encode_batch(model.encoder, [g]).value
        want = loop_encode(model.encoder, g)
        assert np.max(np.abs(got - want)) < 1e-12


def test_edgeless_graph_uses_only_self_term():
    model = make_model(4, 5, 2, 3, seed=3)
    feats = np.random.default_rng(4).normal(size=(3, 4))
    g = Graph(3, (), feats, 0)
    got = enc_mod.encode_batch(model.encoder, [g]).value
    assert np.max(np.abs(got - loop_encode(model.encoder, g))) < 1e-12


def test_encode_is_invariant_to_node_relabeling():
    model = make_model(8, 6, 3, 3, seed=7)
    rng = np.random.default_rng(13)
    for g in sample_graphs(8, seed=17):
        perm = rng.permutation(g.num_nodes)
        h = enc_mod.encode_batch(model.encoder, [g]).value
        hp = enc_mod.encode_batch(model.encoder,
                                  [permute_graph(g, perm)]).value
        assert np.max(np.abs(h - hp)) < 1e-9


def test_batch_encoding_matches_single_graphs():
    model = make_model(8, 6, 2, 3, seed=1)
    graphs = sample_graphs(7, seed=31)
    batch = enc_mod.encode_batch(model.encoder, graphs).value
    assert batch.shape == (7, 6)
    for i, g in enumerate(graphs):
        single = enc_mod.encode_batch(model.encoder, [g]).value
        assert np.max(np.abs(batch[i] - single)) < 1e-12


def test_disjoint_double_copy_encodes_to_twice_the_graph():
    model = make_model(8, 6, 2, 3, seed=1)
    g = sample_graphs(1, seed=41)[0]
    n = g.num_nodes
    doubled = Graph(
        2 * n,
        g.edges + tuple((u + n, v + n) for u, v in g.edges),
        np.vstack([g.features, g.features]),
        0,
    )
    one = enc_mod.encode_batch(model.encoder, [g]).value
    two = enc_mod.encode_batch(model.encoder, [doubled]).value
    assert np.max(np.abs(two - 2.0 * one)) < 1e-11


def test_encode_batch_validates_inputs():
    model = make_model(8, 6, 2, 3)
    with pytest.raises(ValueError):
        enc_mod.encode_batch(model.encoder, [])
    bad = Graph(2, (), np.zeros((2, 5)), 0)
    with pytest.raises(nc.DimensionError):
        enc_mod.encode_batch(model.encoder, [bad])


def batch_gradients(model, graphs, labels, weights):
    params = enc_mod.parameters(model)
    nc.zero_grad(params)
    z = enc_mod.encode_batch(model.encoder, graphs)
    loss = nc.softmax_cross_entropy(enc_mod.classify(model.classifier, z),
                                    labels, weights)
    nc.backward(loss)
    return loss.value[0, 0], [p.grad.copy() for p in params]


def test_weight_two_equals_duplicating_the_sample():
    # Loss is (1/B) * sum w_n * CE_n, so weighting g1 twice in a batch of
    # two must equal listing g1 twice in a batch of three, once the 1/B
    # factors are cancelled: grad_weighted = (3/2) * grad_duplicated.
    model = make_model(8, 6, 2, 4, seed=2)
    g1, g2 = sample_graphs(2, seed=51)
    loss_w, grads_w = batch_gradients(
        model, [g1, g2], np.array([1, 3]), np.array([2.0, 1.0]))
    loss_d, grads_d = batch_gradients(
        model, [g1, g1, g2], np.array([1, 1, 3]), np.array([1.0, 1.0, 1.0]))
    assert abs(loss_w - 1.5 * loss_d) < 1e-12
    for gw, gd in zip(grads_w, grads_d):
        assert np.max(np.abs(gw - 1.5 * gd)) < 1e-12


def test_uniform_weights_match_plain_mean_loss():
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = sample_graphs(4, seed=61)
    labels = np.array([0, 1, 2, 3])
    _, grads_uniform = batch_gradients(model, graphs, labels, np.ones(4))
    z = enc_mod.encode_batch(model.encoder, graphs)
    logits = enc_mod.classify(model.classifier, z).value
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    plain_mean = -log_probs[np.arange(4), labels].mean()
    loss_uniform, _ = batch_gradients(model, graphs, labels, np.ones(4))
    assert abs(loss_uniform - plain_mean) < 1e-12
    assert any(np.max(np.abs(g)) > 0 for g in grads_uniform)


def test_zero_weights_leave_parameters_unchanged():
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = sample_graphs(3, seed=71)
    params = enc_mod.parameters(model)
    before = [p.value.copy() for p in params]
    opt = nc.Adam(params, lr=0.01)
    loss = enc_mod.weighted_prediction_step(
        model, graphs, np.array([0, 1, 2]), lambda _: np.zeros(3), opt)
    assert loss.value[0, 0] == 0.0
    for p, old in zip(params, before):
        assert np.array_equal(p.value, old)


def test_prediction_step_moves_parameters_and_returns_loss():
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = sample_graphs(3, seed=81)
    labels = np.array([0, 1, 2])
    params = enc_mod.parameters(model)
    opt = nc.Adam(params, lr=0.01)
    first = enc_mod.weighted_prediction_step(model, graphs, labels,
                                             lambda _: np.ones(3), opt)
    assert first.value[0, 0] > 0.0
    for _ in range(30):
        last = enc_mod.weighted_prediction_step(model, graphs, labels,
                                                lambda _: np.ones(3), opt)
    assert last.value[0, 0] < first.value[0, 0]


def test_prediction_step_reports_divergence():
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = [Graph(g.num_nodes, g.edges, np.ones((g.num_nodes, 8)), 0)
              for g in sample_graphs(2, seed=91)]
    # positive states times a near-overflow weight force inf in the forward
    model.encoder.layers[0].w1.value = np.full((8, 6), 1e308)
    opt = nc.Adam(enc_mod.parameters(model), lr=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(enc_mod.DivergenceError):
            enc_mod.weighted_prediction_step(model, graphs, np.array([0, 1]),
                                             lambda _: np.ones(2), opt)


def test_gradients_match_finite_differences_through_a_graph():
    model = make_model(6, 4, 2, 3, seed=8)
    rng = np.random.default_rng(5)
    g = gen_random_graph(6, 0.5, rng)
    g = Graph(g.num_nodes, g.edges, rng.normal(size=(6, 6)), 0)
    labels = np.array([1])
    weights = np.array([1.3])

    # tape-vs-central-difference check per parameter: swap the parameter
    # tensor for the probe tensor, evaluate the loss, swap back
    for name in ("encoder.layer0.w1", "encoder.layer0.eps",
                 "encoder.layer1.w2", "encoder.layer1.b1", "classifier.w"):
        target = enc_mod.named_parameters(model)[name]

        def f(t, target=target):
            old = target
            for layer in model.encoder.layers:
                for field in ("eps", "w1", "b1", "w2", "b2"):
                    if getattr(layer, field) is old:
                        setattr(layer, field, t)
            if model.classifier.w is old:
                model.classifier.w = t
            if model.classifier.b is old:
                model.classifier.b = t
            z = enc_mod.encode_batch(model.encoder, [g])
            out = nc.softmax_cross_entropy(
                enc_mod.classify(model.classifier, z), labels, weights)
            for layer in model.encoder.layers:
                for field in ("eps", "w1", "b1", "w2", "b2"):
                    if getattr(layer, field) is t:
                        setattr(layer, field, old)
            if model.classifier.w is t:
                model.classifier.w = old
            if model.classifier.b is t:
                model.classifier.b = old
            return out

        rel = nc.grad_check(f, target.value)
        assert rel < 1e-4, f"{name}: rel error {rel}"


def test_predict_matches_the_taped_forward_and_keeps_no_tape(monkeypatch):
    model = make_model(8, 6, 2, 4, seed=2)
    graphs = sample_graphs(5, seed=61)
    logits = enc_mod.classify(model.classifier,
                              enc_mod.encode_batch(model.encoder, graphs))
    assert logits.requires_grad
    seen = []
    classify = enc_mod.classify

    def recording(clf, z, work=None):
        seen.append((z, classify(clf, z, work)))
        return seen[-1][1]

    monkeypatch.setattr(enc_mod, "classify", recording)
    assert np.array_equal(enc_mod.predict(model, graphs),
                          np.argmax(logits.value, axis=1))
    for node in seen[0]:
        assert not node.requires_grad and node._parents == ()
    # the tape is on again after predict
    again = enc_mod.encode_batch(model.encoder, graphs)
    assert again.requires_grad and again._parents


def test_predict_still_raises_on_a_nan_parameter():
    model = make_model(8, 6, 2, 4, seed=2)
    model.encoder.layers[1].w2.value[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(nc.NonFiniteError):
        enc_mod.predict(model, sample_graphs(3, seed=62))
    assert nc.matmul(nc.constant(np.ones((1, 1))),
                     nc.Tensor(np.ones((1, 1)))).requires_grad


def test_predict_leaves_the_next_training_step_unchanged():
    graphs = sample_graphs(4, seed=63)
    labels = np.array([0, 1, 2, 3])
    weights = np.array([1.0, 0.5, 2.0, 1.5])
    grads = []
    for call_predict in (False, True):
        model = make_model(8, 6, 2, 4, seed=3)
        if call_predict:
            enc_mod.predict(model, graphs)
        params = enc_mod.parameters(model)
        enc_mod.weighted_prediction_step(
            model, graphs, labels, lambda _: weights, nc.Adam(params, lr=0.01))
        grads.append([p.grad.copy() for p in params])
    for plain, after_predict in zip(*grads):
        assert np.array_equal(plain, after_predict)


def test_untrained_accuracy_is_near_chance():
    dataset = gen_triangles_dataset(500, 4, 16, rng_seed=123)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 10, size=len(dataset))
    graphs = [Graph(g.num_nodes, g.edges, g.features, int(y))
              for g, y in zip(dataset.graphs, labels)]
    model = make_model(dataset.feature_dim, 16, 2, 10, seed=4)
    hits = 0
    for start in range(0, 500, 100):
        chunk = graphs[start:start + 100]
        pred = enc_mod.predict(model, chunk)
        hits += int(np.sum(pred == [g.label for g in chunk]))
    assert 0.04 <= hits / 500 <= 0.18


def test_small_dataset_is_memorized():
    dataset = gen_triangles_dataset(50, 4, 12, rng_seed=77)
    graphs = dataset.graphs
    labels = np.array([g.label for g in graphs])
    model = make_model(dataset.feature_dim, 32, 2, dataset.num_classes, seed=6)
    opt = nc.Adam(enc_mod.parameters(model), lr=3e-3)
    rng = np.random.default_rng(10)
    loss = np.inf
    for _ in range(150):
        order = rng.permutation(len(graphs))
        for start in range(0, len(graphs) - 15, 16):
            idx = order[start:start + 16]
            loss = enc_mod.weighted_prediction_step(
                model, [graphs[i] for i in idx], labels[idx],
                lambda _: np.ones(len(idx)), opt)
    z = enc_mod.encode_batch(model.encoder, graphs)
    logits = enc_mod.classify(model.classifier, z)
    final = nc.softmax_cross_entropy(logits, labels, np.ones(len(graphs)))
    assert final.value[0, 0] < 0.1
