"""Graph isomorphism network encoder and classifier head.

Each message-passing layer updates node states as
MLP((1 + eps) * h_v + sum of neighbor states), with a learnable scalar eps
per layer and a two-layer MLP (ReLU between the two affine maps, linear
output). Graph representations are sums of final node states. Training
runs on numcore's reverse-mode tape, one node per layer with its own
backward rule, so one backward call yields every parameter's gradient;
``predict`` runs the same forward pass with the tape off.

There is one forward implementation. A caller may hand it a
``Workspace``, and the stacked features, every intermediate, the pooled
rows and the logits are then written into its buffers, which grow to the
largest union they serve and live as long as the caller keeps the
workspace. Each layer gets a child scope of its own, since a tape keeps
every layer's arrays, and the layer's backward rule writes its
[nodes × width] gradients into the same scope. A tape built in a workspace
is valid until that workspace's next pass, which overwrites it. Without a
workspace every array is fresh. ``harness.evaluate`` and the training
steps of ``harness.train`` share one workspace per thread, so its buffers
grow to the larger of the training batch unions and the evaluation
chunks, which hold at most ``harness.EVAL_ROWS`` union rows.

Batches are encoded as one disjoint union: node features are stacked and
per-graph sums taken over contiguous node segments, so a batch needs one
tape, not one per graph. Neighbour sums multiply dense 0/1 adjacency
stacks, one per node count in the batch, built from each graph's cached
edge array; a graph too large and sparse for its n×n block to pay (see
DENSE_RATIO) is summed over its edges instead. A layer's aggregation then
costs Σ n_g²·d over the small graphs plus O(E·d) over the large ones, on
top of the O(total nodes · d²) MLP matmuls. When a union lists its graphs
in node-count order, as evaluation chunks do, each stack covers one
contiguous row range, read and written as a slice; a union in any other
order, such as a shuffled training batch, gathers and scatters each
stack's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numcore as nc


class DivergenceError(ArithmeticError):
    """Training produced non-finite values."""


@dataclass
class GINLayer:
    eps: nc.Tensor      # 1×1 learnable self-loop scale
    w1: nc.Tensor
    b1: nc.Tensor
    w2: nc.Tensor
    b2: nc.Tensor


@dataclass
class EncoderParams:
    input_dim: int
    hidden_dim: int
    layers: list


@dataclass
class ClassifierParams:
    w: nc.Tensor
    b: nc.Tensor


@dataclass
class Model:
    encoder: EncoderParams
    classifier: ClassifierParams


def init_encoder(input_dim: int, hidden_dim: int, num_layers: int,
                 rng: np.random.Generator) -> EncoderParams:
    """Glorot-uniform weights, zero biases, eps starting at zero."""
    if num_layers < 1:
        raise ValueError(f"need at least one layer, got {num_layers}")
    layers = []
    for i in range(num_layers):
        in_dim = input_dim if i == 0 else hidden_dim
        layers.append(GINLayer(
            eps=nc.zeros_param(1, 1),
            w1=nc.glorot_uniform(in_dim, hidden_dim, rng),
            b1=nc.zeros_param(1, hidden_dim),
            w2=nc.glorot_uniform(hidden_dim, hidden_dim, rng),
            b2=nc.zeros_param(1, hidden_dim),
        ))
    return EncoderParams(input_dim=input_dim, hidden_dim=hidden_dim, layers=layers)


def init_classifier(hidden_dim: int, num_classes: int,
                    rng: np.random.Generator) -> ClassifierParams:
    return ClassifierParams(
        w=nc.glorot_uniform(hidden_dim, num_classes, rng),
        b=nc.zeros_param(1, num_classes),
    )


def parameters(model: Model) -> list:
    """All trainable tensors, in a stable order."""
    return list(named_parameters(model).values())


def named_parameters(model: Model) -> dict:
    """Name -> tensor map; names double as checkpoint manifest keys."""
    out = {}
    for i, layer in enumerate(model.encoder.layers):
        prefix = f"encoder.layer{i}"
        out[f"{prefix}.eps"] = layer.eps
        out[f"{prefix}.w1"] = layer.w1
        out[f"{prefix}.b1"] = layer.b1
        out[f"{prefix}.w2"] = layer.w2
        out[f"{prefix}.b2"] = layer.b2
    out["classifier.w"] = model.classifier.w
    out["classifier.b"] = model.classifier.b
    return out


# A graph's neighbour sum is a dense n×n product while its n² adjacency
# entries number at most this many times its n + 2E sparse ones (2E directed
# edges), and a gather over its edges otherwise. At d = 64 the dense block
# then holds no more floats than the gather's [2E × d] neighbour rows plus
# its [n × d] output, so a batch's memory stays O(nodes + edges) however
# large a graph is. On generated triangle graphs, eight to a stack, at
# d = 64 on a 2-vCPU host, the dense product is 3-11× faster than the
# gather for n ≤ 64 (ratio ≤ 16), the two are within 10% of each other
# from n = 128 to n = 256 (ratio 33-65), and the gather is 2× faster at
# n = 512 and 10× at n = 3000.
DENSE_RATIO = 64


class _UnionIndex:
    """Per-batch structure for one disjoint union of graphs.

    Graphs with n² ≤ DENSE_RATIO·(n + 2E) are grouped by node count: for
    each count n present, the cached edge arrays of the c such graphs are
    scattered into one [c × n × n] 0/1 adjacency stack, kept with the c·n
    union rows those graphs occupy, and multiplied into those rows. Where
    those rows form one contiguous range, as in a union listed in node-count
    order, they are kept as a slice, so ``neighbor`` reads them as a view
    and writes them as one block; otherwise they are an index array that it
    gathers from and scatters to. The other, larger and sparser graphs'
    nodes are grouped by degree k: each group gathers its [m × k] neighbour
    rows and sums them, and the isolated nodes among them (``idle``) are the
    only rows that nothing writes, so only they are zeroed. A layer's
    aggregation so costs Σ n_g²·d over the dense graphs plus O(E·d) over
    the rest, and no graph is padded to the batch's largest. The union's
    adjacency is symmetric, so ``neighbor`` is its own transpose and serves
    forward and backward alike. ``pool`` sums rows over the contiguous
    per-graph segments, and ``unpool`` copies each graph's row back to its
    nodes' rows.
    """

    def __init__(self, graphs):
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.num_nodes = int(offsets[-1])
        self.sizes = sizes
        self.seg_starts = offsets[:-1]
        self.graph_of_row = np.repeat(np.arange(len(sizes)), sizes)

        edges = [g.edge_array for g in graphs]
        counts = np.array([len(e) for e in edges], dtype=np.intp)
        dense = sizes * sizes <= DENSE_RATIO * (sizes + 2 * counts)
        self.stacks = self._dense_stacks(
            np.flatnonzero(dense), sizes, offsets, edges, counts)

        self.buckets = self._degree_buckets(
            np.flatnonzero(~dense), offsets, edges, counts)

        written = np.zeros(self.num_nodes, dtype=bool)
        for rows, *_ in self.stacks + self.buckets:
            written[rows] = True
        self.idle = np.flatnonzero(~written)

    @staticmethod
    def _dense_stacks(picked, sizes, offsets, edges, counts):
        """(union rows, n, [c × n × n] adjacency) per node count n.

        The rows are a slice when they are one contiguous range.
        """
        if not len(picked):
            return []
        order = picked[np.argsort(sizes[picked], kind="stable")]
        n_sorted = sizes[order]
        # union rows of the graphs in size order, and where each graph starts
        row_starts = np.concatenate(([0], np.cumsum(n_sorted)))
        rows = (np.repeat(offsets[order] - row_starts[:-1], n_sorted)
                + np.arange(row_starts[-1]))

        # the stacks share one flat buffer; the i-th graph in size order has
        # its n×n block at blocks[i]
        blocks = np.concatenate(([0], np.cumsum(n_sorted * n_sorted)))
        flat = np.zeros(int(blocks[-1]))
        u, v = np.concatenate([edges[i] for i in order]).T
        base = np.repeat(blocks[:-1], counts[order])
        n = np.repeat(n_sorted, counts[order])
        flat[base + u * n + v] = 1.0
        flat[base + v * n + u] = 1.0

        stacks = []
        bounds = np.concatenate(
            ([0], np.flatnonzero(np.diff(n_sorted)) + 1, [len(order)]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            n = int(n_sorted[lo])
            stack_rows = rows[row_starts[lo]:row_starts[hi]]
            # a stable sort keeps each stack's rows increasing
            first, last = int(stack_rows[0]), int(stack_rows[-1])
            if last - first + 1 == len(stack_rows):
                stack_rows = slice(first, last + 1)
            stacks.append((stack_rows, n,
                           flat[blocks[lo]:blocks[hi]].reshape(hi - lo, n, n)))
        return stacks

    @staticmethod
    def _degree_buckets(picked, offsets, edges, counts):
        """(union rows of degree k, [m × k] neighbour rows) per degree k."""
        if not len(picked):
            return []
        pairs = (np.concatenate([edges[i] for i in picked])
                 + np.repeat(offsets[picked], counts[picked])[:, None])
        src = pairs.ravel()
        dst = pairs[:, ::-1].ravel()
        order = np.argsort(dst, kind="stable")
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(np.diff(dst, prepend=-1))
        degree = np.diff(np.append(starts, len(dst)))
        buckets = []
        for k in np.unique(degree):
            first = starts[degree == k]
            buckets.append((dst[first], src[first[:, None] + np.arange(k)]))
        return buckets

    def neighbor(self, h: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Neighbour sums of h's rows, written into ``out`` (C-ordered, h's
        shape) when it is given."""
        out = np.empty(h.shape) if out is None else out
        d = h.shape[1]
        for rows, n, adj in self.stacks:
            stack = (len(adj), n, d)
            if isinstance(rows, slice):  # the product lands in place
                np.matmul(adj, h[rows].reshape(stack),
                          out=out[rows].reshape(stack))
            else:
                out[rows] = (adj @ h[rows].reshape(stack)).reshape(-1, d)
        for rows, nbrs in self.buckets:
            out[rows] = h[nbrs].sum(axis=1)
        out[self.idle] = 0.0
        return out

    def pool(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.add.reduceat(h, self.seg_starts, axis=0, out=out)

    def unpool(self, g: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        # "clip" never binds on these indices; "raise" would buffer the out
        return np.take(g, self.graph_of_row, axis=0, out=out, mode="clip")


def neighbor_sum(h: nc.Tensor, index: _UnionIndex) -> nc.Tensor:
    """Tape op: row v of the result is the sum of v's neighbor states."""
    if h.rows != index.num_nodes:
        raise nc.DimensionError(
            f"state rows {h.rows} != union nodes {index.num_nodes}")
    return nc.op_node(index.neighbor(h.value), (h,),
                      lambda g: (index.neighbor(g),))


class Workspace:
    """Arrays that forward and backward passes write into and reuse.

    Each role, such as "features" for the stacked input rows, is one flat
    float64 buffer. ``take(role, rows, cols)`` returns a C-ordered
    [rows × cols] view of its first rows·cols entries and replaces the
    buffer only when a request outgrows it, so every buffer fits the
    largest request served so far, for as long as the workspace lives.
    ``child(key)`` is a workspace of its own with the same lifetime, for
    arrays that must live beside this one's same-named roles, such as each
    layer's on a tape. What a pass returns, and a tape it builds, are such
    views, valid until the next pass that uses the workspace. A workspace
    serves one thread at a time.
    """

    def __init__(self):
        self._flat = {}
        self._children = {}

    def take(self, role: str, rows: int, cols: int) -> np.ndarray:
        size = rows * cols
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            flat = self._flat[role] = np.empty(size)
        return flat[:size].reshape(rows, cols)

    def child(self, key) -> Workspace:
        scope = self._children.get(key)
        if scope is None:
            scope = self._children[key] = Workspace()
        return scope


def _take(work: Workspace | None, role: str, rows: int, cols: int):
    """The workspace's array for ``role``, or None for a fresh result."""
    return None if work is None else work.take(role, rows, cols)


def segment_sum(h: nc.Tensor, index: _UnionIndex,
                work: Workspace | None = None) -> nc.Tensor:
    """Tape op: per-graph sums of node states, one row per graph."""
    if h.rows != index.num_nodes:
        raise nc.DimensionError(
            f"state rows {h.rows} != union nodes {index.num_nodes}")
    pooled = _take(work, "pooled", len(index.sizes), h.cols)
    return nc.op_node(index.pool(h.value, pooled), (h,), lambda g: (
        index.unpool(g, _take(work, "unpooled", h.rows, h.cols)),))


def gin_layer_forward(layer: GINLayer, h: nc.Tensor, index: _UnionIndex,
                      work: Workspace | None = None) -> nc.Tensor:
    """One GIN layer, MLP((1 + eps)·h + neighbour sums), as one tape node.

    Sums run in the order of the equivalent chain of elementwise and matrix
    ops, so values and gradients match it bit for bit. The pre-activation
    is checked for non-finite entries before the ReLU can hide one. With a
    workspace, every [nodes × width] array of the forward pass and of the
    backward rule is one of its buffers, so each layer needs a scope of its
    own (see ``Workspace.child``), as a tape keeps every layer's arrays.
    The ReLU mask is made from the activation by the backward rule, so a
    no-tape pass never makes it.
    """
    hv, e = h.value, layer.eps.value[0, 0]
    w1, w2 = layer.w1.value, layer.w2.value
    rows, width = hv.shape
    # (hv + e·hv) + neighbour sums, each sum in place
    combined = np.multiply(e, hv, out=_take(work, "combined", rows, width))
    combined += hv
    combined += index.neighbor(hv, _take(work, "scratch", rows, width))
    z = np.matmul(combined, w1, out=_take(work, "scratch", rows, w1.shape[1]))
    z += layer.b1.value
    nc.check_finite(z)
    r = np.maximum(z, 0.0, out=z)  # np.where(z > 0, z, 0.0), branch-free;
    r += 0.0                       # adding +0.0 turns any -0.0 into +0.0
    out = np.matmul(r, w2, out=_take(work, "state", rows, w2.shape[1]))
    out += layer.b2.value

    def rule(g):
        # the gradient at z
        gz = np.matmul(g, w2.T, out=_take(work, "gz", rows, w1.shape[1]))
        gz *= r > 0.0  # the ReLU mask: r > 0 exactly where z > 0
        # the gradient at combined
        gc = np.matmul(gz, w1.T, out=_take(work, "gc", rows, width))
        gw1, gb1 = combined.T @ gz, gz.sum(axis=0, keepdims=True)
        # gz is spent: its memory, or its buffer, takes the eps product and
        # then the gradient at h, so a layer's backward holds two buffers
        del gz
        geps = np.array([[np.sum(
            np.multiply(gc, hv, out=_take(work, "gz", rows, width)))]])
        gh = None
        if h.requires_grad:  # (neighbour sums of gc + gc) + e·gc
            gh = index.neighbor(gc, _take(work, "gz", rows, width))
            gh += gc
            gc *= e  # its last use, so it is scaled in place
            gh += gc
        return gh, geps, gw1, gb1, r.T @ g, g.sum(axis=0, keepdims=True)

    return nc.op_node(out, (h, layer.eps, layer.w1, layer.b1, layer.w2,
                            layer.b2), rule)


def _stack_features(features, work: Workspace | None = None) -> np.ndarray:
    """A union's feature arrays stacked row-wise, in the workspace's
    "features" buffer when one is given."""
    stacked = _take(work, "features", sum(len(f) for f in features),
                    features[0].shape[1])
    return np.concatenate(features, axis=0, out=stacked)


def encode_batch(enc: EncoderParams, graphs,
                 work: Workspace | None = None) -> nc.Tensor:
    """Representations for a batch of graphs, one row per graph, on the tape.

    With a workspace, every array of the pass and of its backward rules is
    one of its buffers, and the tape is valid until its next pass."""
    if not graphs:
        raise ValueError("cannot encode an empty batch")
    return _encode_union(enc, _UnionIndex(graphs),
                         _stack_features([g.features for g in graphs], work),
                         work)


def _encode_union(enc: EncoderParams, index: _UnionIndex,
                  features: np.ndarray,
                  work: Workspace | None = None) -> nc.Tensor:
    """``encode_batch`` on a union already indexed, its features stacked.

    A caller may pass a workspace for every intermediate and the result;
    each layer gets a child scope of it (see ``gin_layer_forward``).
    """
    if features.shape[1] != enc.input_dim:
        raise nc.DimensionError(
            f"feature width {features.shape[1]} != encoder input "
            f"{enc.input_dim}")
    h = nc.constant(features)
    for i, layer in enumerate(enc.layers):
        h = gin_layer_forward(layer, h, index,
                              None if work is None else work.child(i))
    return segment_sum(h, index, work)


def classify(clf: ClassifierParams, z: nc.Tensor,
             work: Workspace | None = None) -> nc.Tensor:
    """Class logits for a batch of representations, in the workspace's
    "logits" buffer when a caller passes one."""
    logits = nc.matmul(z, clf.w, out=_take(work, "logits", z.rows, clf.w.cols))
    return nc.add_bias(logits, clf.b,
                       out=None if work is None else logits.value)


def predict(model: Model, graphs) -> np.ndarray:
    """Predicted class index per graph.

    No gradients are kept: the forward pass runs inside ``nc.no_tape()``,
    so each intermediate is freed once the next layer has consumed it.
    Non-finite values still raise NonFiniteError.
    """
    if not graphs:
        raise ValueError("cannot predict an empty batch")
    return _predict_union(model, _UnionIndex(graphs),
                          _stack_features([g.features for g in graphs]))


def _predict_union(model: Model, index: _UnionIndex, features: np.ndarray,
                   work: Workspace | None = None) -> np.ndarray:
    """``predict`` on a union already indexed, its features stacked, with
    every intermediate in ``work`` when it is given."""
    with nc.no_tape():
        logits = classify(model.classifier,
                          _encode_union(model.encoder, index, features, work),
                          work)
    return np.argmax(logits.value, axis=1)


def weighted_prediction_step(model: Model, graphs, labels, weigh,
                             optimizer: nc.Adam,
                             work: Workspace | None = None) -> nc.Tensor:
    """One optimizer step on the weighted cross-entropy of a batch.

    The batch is encoded once and ``weigh(z.value)`` gives its weights; the
    same tape extends into the classifier and loss, so no second forward
    pass is needed. Returns the 1×1 loss, which holds the tape until it is
    dropped. With a workspace, the tape's arrays and the backward rules'
    are its buffers, so a step on a batch no larger than an earlier one
    allocates nothing of union size; the tape, and ``z.value`` as ``weigh``
    sees it, are then valid until the workspace's next pass. ``weigh`` may
    use the workspace too, under roles or child scopes the pass does not
    take. Any non-finite intermediate, also in ``weigh``, is reported as
    divergence.
    """
    try:
        z = encode_batch(model.encoder, graphs, work)
        weights = weigh(z.value)
        loss = nc.softmax_cross_entropy(classify(model.classifier, z, work),
                                        labels, weights)
        nc.zero_grad(optimizer.params)
        nc.backward(loss)
        optimizer.step()
    except nc.NonFiniteError as err:
        raise DivergenceError(str(err)) from err
    return loss
