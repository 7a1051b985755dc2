"""Synthetic graph datasets with controlled train/test distribution shift.

Graphs are undirected and unweighted, stored as canonical (u < v) edge lists
with per-node feature rows. The generator builds a 10-class triangle-counting
task by rejection sampling random graphs. Each candidate is drawn, counted
and featurised on endpoint arrays, and only an accepted one becomes a
``Graph``. Shift constructors split by graph size or perturb test features,
leaving structure untouched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .fileio import DataFormatError, atomic_write_text, is_number_list

DEGREE_CAP = 32          # one-hot degree features clamp here
TRIANGLE_MIN = 1         # accepted triangle counts, inclusive
TRIANGLE_MAX = 10
REJECTION_BUDGET = 100_000  # attempts per graph before giving up
EDGE_PROB_LOW = 0.1
EDGE_PROB_HIGH = 0.5
_NOISE_HOLDOUT_FRACTION = 0.2


class GenerationError(RuntimeError):
    """Rejection sampling exhausted its attempt budget or the memory."""


class DatasetError(ValueError):
    """A dataset violates a structural requirement."""


class NoiseOverflowError(DatasetError):
    """A feature-noise draw sigma·N(0, 1) is not finite: sigma is too large."""


@dataclass(frozen=True, eq=False)
class Graph:
    """One undirected graph: node count, canonical edges, features, label."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    features: np.ndarray
    label: int

    def __post_init__(self):
        if self.num_nodes < 1:
            raise DatasetError(f"graph needs at least one node, got {self.num_nodes}")
        seen = set()
        for u, v in self.edges:
            if not (0 <= u < v < self.num_nodes):
                raise DatasetError(f"edge ({u}, {v}) not canonical for {self.num_nodes} nodes")
            if (u, v) in seen:
                raise DatasetError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        feats = self.features
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes or feats.shape[1] < 1:
            raise DatasetError(
                f"features shape {feats.shape} does not match {self.num_nodes} nodes")
        if not np.isfinite(feats).all():
            raise DatasetError("features contain non-finite entries")
        if self.label < 0:
            raise DatasetError(f"label must be nonnegative, got {self.label}")

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as a read-only [E × 2] integer array.

        Built on first use and kept with the graph, whose structure never
        changes; the encoder scatters it into each batch's adjacency.
        """
        arr = np.array(self.edges, dtype=np.intp).reshape(-1, 2)
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    graphs: list[Graph]
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        if not self.graphs:
            raise DatasetError("dataset must contain at least one graph")
        if self.num_classes < 1:
            raise DatasetError("num_classes must be positive")
        for i, g in enumerate(self.graphs, start=1):
            if g.features.shape[1] != self.feature_dim:
                raise DatasetError(
                    f"graph {i} feature width {g.features.shape[1]} "
                    f"!= dataset width {self.feature_dim}")
            if g.label >= self.num_classes:
                raise DatasetError(f"label {g.label} outside {self.num_classes} classes")

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into shifted train/test halves."""

    kind: str                      # "by_size" or "by_feature_noise"
    train_max_nodes: int = 0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("by_size", "by_feature_noise"):
            raise DatasetError(f"unknown split kind {self.kind!r}")
        if self.kind == "by_size" and self.train_max_nodes < 1:
            raise DatasetError("by_size split needs train_max_nodes >= 1")
        sigma = self.noise_sigma
        if self.kind == "by_feature_noise" and not (math.isfinite(sigma) and sigma >= 0):
            raise DatasetError(f"noise_sigma must be finite and >= 0, got {sigma}")
        if self.seed < 0:
            raise DatasetError(f"split seed must be nonnegative, got {self.seed}")


def gen_random_graph(num_nodes: int, edge_prob: float, rng_seed) -> Graph:
    """Sample a random graph with each node pair joined independently.

    Features start as a single zero column and the label as 0; callers
    assign real features and labels afterwards. ``rng_seed`` is an integer
    seed or an already-constructed generator.
    """
    if num_nodes < 1:
        raise DatasetError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 0.0 <= edge_prob <= 1.0:
        raise DatasetError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(rng_seed)
    u, v = _sample_edges(num_nodes, edge_prob, rng)
    return Graph(num_nodes, tuple(zip(u.tolist(), v.tolist())),
                 np.zeros((num_nodes, 1)), 0)


def _sample_edges(n: int, p: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Keep each of the n(n−1)/2 node pairs with probability ``p``.

    One ``rng.random(n(n−1)/2)`` call decides every pair, in the row-major
    order of ``np.triu_indices(n, k=1)``. The kept flat indices become
    ``(u, v)`` endpoint arrays by arithmetic: row u starts at flat offset
    u(2n−u−1)/2, so ``searchsorted`` on the n row starts finds each row.
    The pairs come out canonical (u < v) and sorted, and nothing of size
    n(n−1)/2 is built besides the draw itself and its mask.
    """
    keep = (rng.random(n * (n - 1) // 2) < p).nonzero()[0]
    rows = np.arange(n)
    starts = rows * (2 * n - rows - 1) // 2
    u = starts.searchsorted(keep, side="right") - 1
    v = keep - starts[u] + u + 1
    return u, v


def adjacency_matrix(g: Graph) -> np.ndarray:
    adj = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges:
        adj[u, v] = adj[v, u] = 1.0
    return adj


def _triangles(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Triangles of the n-node graph with canonical edges (u[k], v[k]).

    Each edge's endpoint rows of a boolean adjacency are ANDed; a triangle
    shows once per edge, hence the division by three. The edges go in
    blocks of n, so besides the n×n adjacency each block holds at most two
    n×n boolean arrays.
    """
    if u.size < 3:
        return 0
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = True
    adj[v, u] = True
    closed = 0
    for start in range(0, u.size, n):
        common = adj.take(u[start:start + n], axis=0)
        common &= adj.take(v[start:start + n], axis=0)
        closed += int(np.count_nonzero(common))
    return closed // 3


def _degree_features(n: int, u: np.ndarray, v: np.ndarray,
                     max_degree: int) -> np.ndarray:
    degrees = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    features = np.zeros((n, max_degree + 1))
    features[np.arange(n), np.minimum(degrees, max_degree)] = 1.0
    return features


def count_triangles(g: Graph) -> int:
    """Exact number of node triples with all three connecting edges.

    Counts on the graph's edge array as the generator does. It needs the
    n×n boolean adjacency plus at most two more n×n boolean blocks, about
    3n² bytes, whatever the edge count.
    """
    edges = g.edge_array
    return _triangles(g.num_nodes, edges[:, 0], edges[:, 1])


def one_hot_degree_features(g: Graph, max_degree: int = DEGREE_CAP) -> Graph:
    """Replace features with a one-hot encoding of each node's degree.

    Degrees above ``max_degree`` share the top bucket, so the width is
    max_degree + 1 regardless of graph size.
    """
    edges = g.edge_array
    return replace(g, features=_degree_features(
        g.num_nodes, edges[:, 0], edges[:, 1], max_degree))


def _edge_prob_bounds(n: int) -> tuple[float, float]:
    # The fixed [0.1, 0.5] range starves large graphs of acceptable samples:
    # expected triangles grow as C(n,3) p^3, so the window tapers with size
    # to keep counts in [TRIANGLE_MIN, TRIANGLE_MAX] reachable.
    triples = n * (n - 1) * (n - 2) / 6.0
    low = min(EDGE_PROB_LOW, (0.5 / triples) ** (1.0 / 3.0))
    high = min(EDGE_PROB_HIGH, (14.0 / triples) ** (1.0 / 3.0))
    return low, max(high, low)


def gen_triangles_dataset(count: int, min_nodes: int, max_nodes: int,
                          rng_seed: int) -> Dataset:
    """Rejection-sample graphs whose triangle count lies in [1, 10].

    Class y is (triangle count - 1), features are one-hot degrees. Each
    graph draws from its own derived stream, so regenerating with the same
    arguments is bit-reproducible regardless of acceptance history.

    A candidate stays as the ``(u, v)`` endpoint arrays of ``_sample_edges``
    while its triangles are counted, so a rejected one builds no ``Graph``.
    An accepted one becomes one validated ``Graph`` with its label and
    features. A draw holds its n(n−1)/2 uniforms and about 3n² bytes for
    counting; running out of memory there raises GenerationError.
    """
    if count < 1:
        raise DatasetError("count must be positive")
    if not 3 <= min_nodes <= max_nodes:
        raise DatasetError(
            f"need 3 <= min_nodes <= max_nodes, got [{min_nodes}, {max_nodes}]")
    graphs = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([rng_seed, i]))
        for _ in range(REJECTION_BUDGET):
            n = int(rng.integers(min_nodes, max_nodes + 1))
            low, high = _edge_prob_bounds(n)
            try:  # all n(n-1)/2 node pairs are drawn, and n×n are counted
                u, v = _sample_edges(n, rng.uniform(low, high), rng)
                triangles = _triangles(n, u, v)
            except MemoryError as err:
                raise GenerationError(
                    f"graph {i}: out of memory drawing a {n}-node graph") from err
            if TRIANGLE_MIN <= triangles <= TRIANGLE_MAX:
                graphs.append(Graph(n, tuple(zip(u.tolist(), v.tolist())),
                                    _degree_features(n, u, v, DEGREE_CAP),
                                    triangles - 1))
                break
        else:
            raise GenerationError(
                f"graph {i}: no acceptable sample in {REJECTION_BUDGET} attempts")
    return Dataset(graphs, num_classes=TRIANGLE_MAX - TRIANGLE_MIN + 1,
                   feature_dim=DEGREE_CAP + 1)


def split_by_size(dataset: Dataset, train_max_nodes: int) -> tuple[Dataset, Dataset]:
    """Train keeps graphs with at most train_max_nodes nodes, test the rest."""
    small = [g for g in dataset.graphs if g.num_nodes <= train_max_nodes]
    large = [g for g in dataset.graphs if g.num_nodes > train_max_nodes]
    if not small or not large:
        raise DatasetError(
            f"split at {train_max_nodes} nodes leaves {len(small)} train / {len(large)} test")
    meta = dict(num_classes=dataset.num_classes, feature_dim=dataset.feature_dim)
    return Dataset(small, **meta), Dataset(large, **meta)


def _add_noise(features: np.ndarray, sigma: float,
               rng: np.random.Generator) -> np.ndarray:
    # The check reduces to two scalars and the noise dies on return, so the
    # arrays come and go as in the one expression features + sigma·z. A
    # boolean mask, or noise kept alive into the next graph's draw, moved
    # later allocations enough to slow training on the split by ~5%.
    noise = sigma * rng.standard_normal(features.shape)
    if not (math.isfinite(noise.max()) and math.isfinite(noise.min())):
        raise NoiseOverflowError(
            f"sigma {sigma} is too large: sigma·N(0, 1) overflows")
    return features + noise


def add_feature_noise(dataset: Dataset, sigma: float, rng_seed: int) -> Dataset:
    """Return a copy with i.i.d. Gaussian(0, sigma^2) added to every feature.

    Structure and labels are untouched; sigma = 0 reproduces the input
    features exactly. A sigma so large that a noise draw overflows raises
    NoiseOverflowError; finite noise that overflows a feature leaves a
    non-finite feature, which the graph check rejects with DatasetError.
    """
    if sigma < 0:
        raise DatasetError(f"sigma must be nonnegative, got {sigma}")
    rng = np.random.default_rng(rng_seed)
    noisy = []
    with np.errstate(over="ignore"):  # an overflow raises instead
        for g in dataset.graphs:
            noisy.append(replace(g, features=_add_noise(g.features, sigma,
                                                        rng)))
    return Dataset(noisy, num_classes=dataset.num_classes,
                   feature_dim=dataset.feature_dim)


def apply_split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Materialize a SplitSpec into (train, test) datasets.

    by_size partitions on node count. by_feature_noise shuffles with the
    spec seed, holds out 20% as test, and perturbs only the test features.
    """
    if spec.kind == "by_size":
        return split_by_size(dataset, spec.train_max_nodes)
    order = np.random.default_rng(spec.seed).permutation(len(dataset.graphs))
    holdout = max(1, int(len(order) * _NOISE_HOLDOUT_FRACTION))
    if holdout >= len(order):
        raise DatasetError("dataset too small to hold out a noise test split")
    meta = dict(num_classes=dataset.num_classes, feature_dim=dataset.feature_dim)
    train = Dataset([dataset.graphs[i] for i in order[holdout:]], **meta)
    test = Dataset([dataset.graphs[i] for i in order[:holdout]], **meta)
    return train, add_feature_noise(test, spec.noise_sigma, spec.seed + 1)


def permute_graph(g: Graph, perm) -> Graph:
    """Relabel nodes by perm (new index = perm[old index])."""
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(g.num_nodes)):
        raise DatasetError("perm must be a permutation of the node indices")
    edges = tuple(sorted(
        (min(int(perm[u]), int(perm[v])), max(int(perm[u]), int(perm[v])))
        for u, v in g.edges))
    features = np.empty_like(g.features)
    features[perm] = g.features
    return Graph(g.num_nodes, edges, features, g.label)


def save_dataset(dataset: Dataset, path) -> None:
    """Write one JSON record per graph: {"n", "edges", "x", "y"}."""
    lines = []
    for g in dataset.graphs:
        lines.append(json.dumps({
            "n": g.num_nodes,
            "edges": [[u, v] for u, v in g.edges],
            "x": g.features.tolist(),
            "y": g.label,
        }))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_graph_record(record, lineno: int, path) -> Graph:
    where = f"{path}:{lineno}"
    if not isinstance(record, dict) or set(record) != {"n", "edges", "x", "y"}:
        raise DataFormatError(f"{where}: expected keys n/edges/x/y")
    n, edges, x, y = record["n"], record["edges"], record["x"], record["y"]
    if type(n) is not int:
        raise DataFormatError(f"{where}: n must be an integer")
    if type(y) is not int:
        raise DataFormatError(f"{where}: y must be an integer")
    if not isinstance(edges, list):
        raise DataFormatError(f"{where}: edges must be a list")
    canonical = []
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or not all(type(t) is int for t in e)):
            raise DataFormatError(f"{where}: edge {e!r} is not an integer pair")
        canonical.append((min(e), max(e)))
    if not (isinstance(x, list) and all(map(is_number_list, x))):
        raise DataFormatError(f"{where}: x must be a list of rows of numbers")
    try:
        features = np.asarray(x, dtype=np.float64)
    except (ValueError, OverflowError):
        raise DataFormatError(f"{where}: x is not a numeric matrix") from None
    try:
        return Graph(n, tuple(sorted(canonical)), features, y)
    except DatasetError as err:
        raise DataFormatError(f"{where}: {err}") from None


def load_dataset(path, num_classes: int | None = None) -> Dataset:
    """Parse a dataset file, reporting the first malformed line by number.

    When ``num_classes`` is omitted it is inferred as max(y) + 1.
    """
    graphs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataFormatError(f"{path}:{lineno}: not valid JSON: {err}") from None
            graphs.append(_parse_graph_record(record, lineno, path))
    if not graphs:
        raise DataFormatError(f"{path}: no graph records")
    width = graphs[0].features.shape[1]
    classes = num_classes if num_classes is not None else max(g.label for g in graphs) + 1
    try:
        return Dataset(graphs, num_classes=classes, feature_dim=width)
    except DatasetError as err:
        raise DataFormatError(f"{path}: {err}") from None
