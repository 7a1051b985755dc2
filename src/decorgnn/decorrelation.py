"""Dependence measurement between representation dimensions and the
sample-weight optimizer that suppresses it.

Dependence between two columns of a representation matrix is scored through
random Fourier feature maps: the squared Frobenius norm of the weighted
partial cross-covariance between mapped columns. One draw of the map
x -> sqrt(2)·cos(freq·x + phase) is a bank, a plain [2 × q] array of
frequencies and phases; the banks of d dimensions are one [d × 2 × 2 × q]
array, and None stands for the identity maps. Summed over dimension pairs
this gives a differentiable objective in the per-sample weights, minimized
by projected gradient descent under the constraints sum(w) = N and
w >= W_MIN. Only the dimensions the pairs name are mapped and scored: a
dimension in no pair adds nothing to the objective, so a solve that pairs
a sampled fraction of the dimensions works on those columns alone. The
solve takes plain arrays and explicit settings;
``harness.TrainConfig`` alone sets their defaults and checks them. Each
solve allocates its buffers once, or takes them from a caller's workspace
that outlives it, and scores every step in them, bit for bit as fresh
arrays would. Every solve holds a leading block of its weights frozen, its
head: the stored groups of the global memory, or no rows without one.
Frozen rows still shape the objective, but the projection never changes
them, so a step takes the gradient only in the free weights, and the
head's share of the weighted maps is computed once per solve. A solve
without memory is the same computation with an empty head.

An independent Gaussian-kernel HSIC estimator is included as the
statistical oracle the objective is validated against.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

W_MIN = 1e-4  # weight floor, keeps every sample in play


class OptimizationError(RuntimeError):
    """The weight optimizer hit a non-finite value or infeasible constraint."""


def _draw(rng, shape: tuple, q: int) -> np.ndarray:
    """Banks as one [*shape × (freqs, phases) × q] array, drawn in C order,
    each as frequencies then phases (scalars when q = 1, the same stream).
    A phase is 2π·random(), the value uniform(0, 2π) computes as
    0 + (2π - 0)·random(), at half the call's cost. The only draw of a
    bank; an empty one (q < 1) is refused first."""
    if q < 1:
        raise ValueError(f"a bank needs at least one component, got q={q}")
    size = None if q == 1 else q
    fields = np.array([(rng.standard_normal(size), 2.0 * np.pi * rng.random(size))
                       for _ in range(math.prod(shape))])
    return fields.reshape(*shape, 2, q)


def sample_bank(q: int, rng) -> np.ndarray:
    """Draw one bank as a [2 × q] array: frequencies from N(0, 1) in row 0,
    phases from U[0, 2π) in row 1."""
    return _draw(np.random.default_rng(rng), (), q)


def sample_banks(d: int, q: int, rng) -> np.ndarray:
    """Dimension i's f and g banks as ``banks[i][0]`` and ``banks[i][1]`` of
    one [d × 2 × 2 × q] array; each role draws independently."""
    return _draw(np.random.default_rng(rng), (d, 2), q)


def feature_matrix(z: np.ndarray, bank) -> np.ndarray:
    """Map N samples to [N × Q] through a [2 × Q] bank; None is the identity."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if bank is None:
        return z[:, None].copy()
    freqs, phases = bank
    return np.sqrt(2.0) * np.cos(np.outer(z, freqs) + phases)


def weighted_partial_cov(zi, zj, weights, f_bank, g_bank) -> np.ndarray:
    """Weighted partial cross-covariance between zi and zj mapped through
    the [2 × Q] banks ``f_bank`` and ``g_bank`` (None is the identity map).

    Row n contributes (w_n f(z_i,n) - fbar) outer (w_n g(z_j,n) - gbar)
    where fbar is the plain mean of the weighted rows (divisor N), and the
    accumulated sum is divided by N - 1. Uniform weights reduce this to the
    ordinary cross-covariance of the mapped columns.
    """
    f, g = feature_matrix(zi, f_bank), feature_matrix(zj, g_bank)
    if len(f) != len(g):
        raise ValueError(f"column lengths differ: {len(f)} vs {len(g)}")
    _, w = _inputs(f, weights)
    return _Problem(np.concatenate([f, g], axis=1), 1.0).cov(w)


def dims_kept(d: int, fraction: float) -> int:
    """How many of d dimensions sample_pairs pairs up; fewer than two is a
    domain error."""
    if d < 2:
        raise ValueError(f"need d >= 2 dimensions, got {d}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    keep = int(np.ceil(fraction * d))
    if keep < 2:
        raise ValueError(
            f"fraction {fraction} of {d} dims keeps {keep} < 2 dimensions")
    return keep


def _kept_dims(d: int, fraction: float, rng) -> np.ndarray:
    """The sorted dimensions sample_pairs pairs up: all d at fraction 1,
    drawing nothing, else dims_kept(d, fraction) drawn without replacement."""
    keep = dims_kept(d, fraction)
    if fraction == 1.0:
        return np.arange(d)
    return np.sort(np.random.default_rng(rng).choice(d, size=keep, replace=False))


def _pair_index(d: int, fraction: float, rng) -> np.ndarray:
    """The pairs sample_pairs returns, as a [2 × pairs] index array."""
    dims = _kept_dims(d, fraction, rng)
    return dims[np.array(np.triu_indices(dims.size, k=1))]


def sample_pairs(d: int, fraction: float, rng) -> list[tuple[int, int]]:
    """Dimension pairs (i < j) to score, lexicographically ordered.

    fraction = 1 enumerates all C(d, 2) pairs. A smaller fraction samples
    ceil(fraction * d) dimensions without replacement and pairs within the
    sample; fewer than two surviving dimensions is a domain error. The
    objective maps and scores only the dimensions the pairs name, so a
    smaller fraction makes a cheaper solve.
    """
    return list(zip(*_pair_index(d, fraction, rng).tolist()))


def _block(work, role: str, rows: int, cols: int) -> np.ndarray:
    """A [rows × cols] array: the workspace's for ``role``, else fresh."""
    return np.empty((rows, cols)) if work is None else work.take(role, rows, cols)


def _columns(z: np.ndarray, banks, dims: np.ndarray, work=None):
    """z's columns ``dims`` and their banks (None stays None), in the
    workspace's "columns" and "banks" blocks when one is given. ``take``
    with mode "clip" writes straight into them; "raise" would buffer."""
    cols = np.take(z, dims, axis=1, mode="clip",
                   out=_block(work, "columns", len(z), dims.size))
    if banks is not None:
        banks = np.asarray(banks, dtype=np.float64)
        kept = _block(work, "banks", dims.size, banks[0].size)
        banks = np.take(banks, dims, axis=0, mode="clip",
                        out=kept.reshape(dims.size, *banks.shape[1:]))
    return cols, banks


def _maps(z: np.ndarray, fields, work=None) -> np.ndarray:
    """The f maps of all columns, then their g maps, as one [N × 2·d·q]
    block, from banks in a [d × (f, g) × (freqs, phases) × q] array; None
    is the identity map. Each entry is √2·cos(ω·z + φ), computed in place
    in the block (the workspace's "fg" when one is given)."""
    n, d = z.shape
    q = 1 if fields is None else np.shape(fields)[-1]
    fg = _block(work, "fg", n, 2 * d * q)
    if fields is None:
        fg[:, :d] = fg[:, d:] = z
        return fg
    freqs, phases = np.transpose(fields, (2, 1, 0, 3))[:, :, None]
    maps = fg.reshape(n, 2, d, q).transpose(1, 0, 2, 3)  # [(f, g) × N × d × q]
    np.multiply(z[:, :, None], freqs, out=maps)
    maps += phases
    np.cos(maps, out=maps)
    maps *= np.sqrt(2.0)
    return fg


def _mask(rows, cols, d: int, q: int) -> np.ndarray:
    """The 0/1 [d·q × d·q] mask of the pairs (rows, cols): each pair's
    q × q block is ones."""
    select = np.zeros((d, d))
    select[rows, cols] = 1.0
    mask = np.empty((d * q, d * q))
    mask.reshape(d, q, d, q)[...] = select[:, None, :, None]
    return mask


@functools.lru_cache(maxsize=8)
def _full_mask(d: int, q: int) -> np.ndarray:
    """The mask of all C(d, 2) pairs, built once per (d, q) and read-only,
    since every solve with pair_fraction 1 shares it; it draws nothing."""
    mask = _mask(*_pair_index(d, 1.0, None), d, q)
    mask.setflags(write=False)
    return mask


def _inputs(z, weights) -> tuple[np.ndarray, np.ndarray]:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError(f"representations must be [N>=2 x d], got {z.shape}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (z.shape[0],):
        raise ValueError(f"expected {z.shape[0]} weights, got shape {w.shape}")
    return z, w


def _setup(z, weights, banks, pairs):
    """Validated weights, stacked f/g maps and pair mask for one objective;
    ``banks`` is None (identity maps) or a [d × 2 × 2 × q] array. Only the
    sorted dimensions the pairs name are mapped, with the pairs renumbered
    among them, as a solve restricts itself to its kept dimensions."""
    z, w = _inputs(z, weights)
    d = z.shape[1]
    q = 1  # an identity map has width 1
    if banks is not None:
        q = np.shape(banks)[-1] if np.ndim(banks) == 4 else 0
        if np.shape(banks) != (d, 2, 2, q) or q < 1:
            raise ValueError(
                f"banks must have shape ({d}, 2, 2, q), got {np.shape(banks)}")
    rows, cols = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2).T
    bad = np.flatnonzero((rows < 0) | (rows >= cols) | (cols >= d))
    if bad.size:
        raise ValueError(f"pair ({rows[bad[0]]}, {cols[bad[0]]}) invalid for d={d}")
    dims = np.unique(np.concatenate([rows, cols]))
    if dims.size < d:
        z, banks = _columns(z, banks, dims)
        rows, cols = np.searchsorted(dims, rows), np.searchsorted(dims, cols)
    return w, _maps(z, banks), _mask(rows, cols, dims.size, q)


class _Problem:
    """One objective's buffers, allocated once: w -> ||M∘C(w)||² + λ||w||²
    and, if asked, its gradient in the free weights.

    C(w) = AᵀB/(N-1) with [A | B] = centred(w*[F | G]) is
    weighted_partial_cov for every pair at once; one pass weights and
    centres both halves of the [N × 2W] block ``fg`` = [F | G], which the
    problem reads and never writes.

    ``head`` holds the weights of the first ``lo`` rows, the frozen ones
    (the stored groups of a memory batch); by default it is empty and every
    row is free, so a problem without memory takes the same path. The
    head's rows are weighted, and their column sum taken, once per problem.
    The centred rows [A | B] live in rows 1..N of the block ``ab``, whose
    row 0 is spare: each call writes the head's column sum (zeros for an
    empty head) into row ``lo``, the weighted free rows after it, and sums
    from row ``lo`` on. numpy sums a C-ordered block over axis 0 as a left
    fold, row after row, so this continues the head's fold over the free
    rows and gives the bits of one sum over all N rows. The centred head
    then fills rows 1..lo, over the spent fold row. The head is weighted
    once, not with the free rows on every call: a broadcast over all N rows
    takes a numpy iterator buffer the size of the whole block, which a
    warmed solve must not allocate.

    By the product rule, the gradient in free weight n is row n of
    (F @ C)∘B plus row n of (A @ C)∘G, over the r free rows. The free rows
    of ``fg`` are copied once into ``ab`` after row N, so the left halves
    of its rows from lo + 1 on form one operand [A_r; F_r]: a single
    product with C writes both terms' left factors into one [2r × W] block.
    Their partners [G_r; B_r] are the right halves of the same rows in
    reverse block order, so the product is multiplied by them in place and
    no step copies a row. Two products, one per term, made a solve at
    N = 32 5-15% slower (2 vCPUs, one BLAS thread), as each call's fixed
    cost shows at these sizes; for the same reason every view is made once
    per problem. With a workspace ``work``, every block is one of its
    buffers, valid until its next use.
    """

    def __init__(self, fg, mask, l2_lambda: float = 0.0, head=(), work=None):
        n, width = fg.shape[0], fg.shape[1] // 2
        self.n, self.mask, self.l2_lambda = n, mask, l2_lambda
        self.lo = lo = len(head)
        self.fg = fg[lo:]
        rows = _block(work, "ab", 2 * n + 1 - lo, 2 * width)
        rows[n + 1:] = self.fg
        self.head = np.multiply(np.reshape(head, (-1, 1)), fg[:lo],
                                out=_block(work, "head", lo, 2 * width))
        self.head_sum = self.head.sum(axis=0)
        ab = rows[:n + 1]
        self.fold, self.tail, self.free = ab[lo], ab[lo:], ab[lo + 1:]
        self.centred_head = ab[1:lo + 1]
        self.a, self.b = ab[1:, :width].T, ab[1:, width:]
        self.c = _block(work, "c", width, width)
        self.left = rows[lo + 1:, :width]
        self.right = rows[lo + 1:, width:].reshape(2, n - lo, width)[::-1]
        self.t = _block(work, "t", 2 * (n - lo), width)
        self.terms = self.t.reshape(self.right.shape)

    def cov(self, w: np.ndarray) -> np.ndarray:
        """The masked C(w), held in the workspace until the next call."""
        self.fold[...] = self.head_sum
        np.multiply(w[self.lo:, None], self.fg, out=self.free)
        mean = self.tail.sum(axis=0) / self.n
        self.free -= mean
        np.subtract(self.head, mean, out=self.centred_head)
        c = np.matmul(self.a, self.b, out=self.c)
        c /= self.n - 1
        c *= self.mask
        return c

    def __call__(self, w: np.ndarray, want_grad: bool):
        c = self.cov(w)
        objective = float(np.vdot(c, c)) + self.l2_lambda * float(w @ w)
        if not want_grad:
            return objective, None
        np.matmul(self.left, c, out=self.t)
        self.terms *= self.right
        sums = self.terms.sum(axis=2)
        grad = ((2.0 / (self.n - 1)) * (sums[0] + sums[1])
                + 2.0 * self.l2_lambda * w[self.lo:])
        return objective, grad


def decorrelation_objective(z, weights, banks, pairs) -> float:
    """Sum over pairs (i, j) of the squared Frobenius norm of the weighted
    partial cross-covariance between mapped columns i and j; only the
    columns the pairs name are mapped."""
    w, *maps = _setup(z, weights, banks, pairs)
    return _Problem(*maps)(w, False)[0]


def objective_grad_weights(z, weights, banks, pairs,
                           l2_lambda: float = 0.0) -> np.ndarray:
    """Exact gradient of decorrelation_objective + l2_lambda * ||w||^2 in w,
    mapping only the columns the pairs name."""
    w, *maps = _setup(z, weights, banks, pairs)
    return _Problem(*maps, l2_lambda)(w, True)[1]


def _free_target(w: np.ndarray, total: float, frozen: int) -> float:
    """The sum the weights after the first ``frozen`` must reach once those
    are held; a count outside [0, N] is a ValueError, an unreachable sum an
    OptimizationError."""
    if not 0 <= frozen <= w.size:
        raise ValueError(f"frozen must lie in [0, {w.size}], got {frozen}")
    target = total - float(w[:frozen].sum())
    free = w.size - frozen
    if free and target < W_MIN * free - 1e-12:
        raise OptimizationError(
            f"cannot reach sum {target} with {free} weights floored at {W_MIN}")
    return target


def _rescale(vals: np.ndarray, target: float) -> np.ndarray:
    """Clamp to >= W_MIN and rescale to sum to ``target``, repeating on the
    entries still above the floor until both hold; in place in ``vals``,
    which is returned."""
    np.maximum(vals, W_MIN, out=vals)
    smallest = vals.min()
    if smallest > W_MIN:  # nothing on the floor: the loop's first pass
        factor = target / vals.sum()
        # rounding is monotone, so the scaled minimum is the scaled entries'
        if smallest * factor >= W_MIN:
            vals *= factor
            return vals
    for _ in range(vals.size):
        above = vals > W_MIN
        if not above.any():
            # target may sit below W_MIN * size by the roundoff the
            # feasibility check allows
            vals[:] = max(target / vals.size, W_MIN)
            break
        pinned = W_MIN * float(np.count_nonzero(~above))
        scaled = vals[above] * ((target - pinned) / vals[above].sum())
        if scaled.min() >= W_MIN:
            vals[above] = scaled
            break
        vals[above] = np.maximum(scaled, W_MIN)
    return vals


def project_weights(w: np.ndarray, total: float | None = None,
                    frozen: int = 0) -> np.ndarray:
    """Clamp weights to >= W_MIN, then rescale so they sum to ``total``.

    Rescaling can push just-clamped entries back under W_MIN, so the
    clamp-and-rescale cycle repeats on the still-adjustable entries until
    both constraints hold; one pass suffices in the common case. The first
    ``frozen`` entries are treated as constants and never move.
    """
    w = np.array(w, dtype=np.float64)
    target = _free_target(w, float(w.size) if total is None else total, frozen)
    if frozen < w.size:
        _rescale(w[frozen:], target)
    return w


@dataclass
class OptimizeResult:
    """One weight solve's outcome, as plain values."""

    weights: np.ndarray         # the final weights, all N of them
    objectives: list            # penalized objective, one entry per step + final
    improved: bool              # final <= initial; False doubles as the warning flag


def optimize_weights(z, w0, *, steps: int, lr_w: float, l2_lambda: float,
                     q: int, pair_fraction: float, seed, frozen: int = 0,
                     linear: bool = False, telemetry=None,
                     work=None) -> OptimizeResult:
    """Run ``steps`` projected gradient steps of size ``lr_w`` on the
    objective plus ``l2_lambda``·||w||², starting from the array ``w0``.

    Banks of width ``q`` for all d dimensions (``sample_banks``; identity
    maps when ``linear``), then the ``pair_fraction`` of the dimensions to
    pair up (the stream ``sample_pairs`` would use), are drawn once at
    entry from ``seed``. Only those K dimensions are mapped and scored:
    z's columns and banks are sliced to them, and every pair among them is
    scored with the shared all-pairs mask of K, so the solve costs what a
    full one on K dimensions would. The settings are used as given
    (``harness.TrainConfig`` checks them). A ``w0`` of the wrong shape
    raises ValueError, a non-finite one OptimizationError. The first
    ``frozen`` weights (the stored groups of a memory batch) are held as
    constants, and a count outside [0, N] raises ValueError; the
    projection rescales only the rest while the full vector keeps
    sum(w) = N, so the sum the free ones must reach is fixed at entry,
    each step takes the gradient in the free weights only, and the frozen
    head is weighted once for the whole solve. ``telemetry``, when given,
    receives (step, objective, weights) after each projection.

    ``work``, an object whose ``take(role, rows, cols)`` returns a reused
    [rows × cols] array (such as an ``encoder.Workspace``), holds the
    kept columns, their banks, the maps and every per-step block (the mask
    is shared between calls, read-only), so a solve no larger than an
    earlier one allocates nothing of its size. They are valid until the
    workspace's next use; the returned weights are always a fresh array.
    """
    z, w = _inputs(z, w0)
    if not np.isfinite(w).all():
        raise OptimizationError("initial weights contain non-finite entries")
    n, d = z.shape
    w = w.copy()
    rng = np.random.default_rng(seed)
    q = 1 if linear else q
    banks = None if linear else sample_banks(d, q, rng)
    dims = _kept_dims(d, pair_fraction, rng)
    if dims.size < d:
        z, banks = _columns(z, banks, dims, work)
    fg = _maps(z, banks, work)
    mask = _full_mask(dims.size, q)
    target = _free_target(w, float(n), frozen)
    problem = _Problem(fg, mask, l2_lambda, head=w[:frozen], work=work)

    history = []
    for step in range(steps):
        objective, grad = problem(w, True)
        if not np.isfinite(objective) or not np.isfinite(grad).all():
            raise OptimizationError(f"non-finite objective or gradient at step {step}")
        history.append(objective)
        if frozen < n:
            free_w = w[frozen:]
            free_w -= lr_w * grad
            _rescale(free_w, target)
        if telemetry is not None:
            telemetry(step, objective, w.copy())
    final, _ = problem(w, False)
    if not np.isfinite(final):
        raise OptimizationError("non-finite final objective")
    history.append(final)
    return OptimizeResult(weights=w, objectives=history,
                          improved=final <= history[0] + 1e-12)


def hsic_gaussian(x, y, bandwidth: float | None = None) -> float:
    """Biased V-statistic HSIC with Gaussian kernels: (1/N^2) tr(K H L H).

    Bandwidths default to the median pairwise distance of each input
    (computed separately for x and y). Requires N >= 4 paired samples; a
    zero-variance input degenerates to 0 with a warning.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.size != y.size:
        raise ValueError(f"sample counts differ: {x.size} vs {y.size}")
    if x.size < 4:
        raise ValueError(f"need at least 4 samples, got {x.size}")
    if bandwidth is not None and bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        warnings.warn("zero-variance input, HSIC degenerates to 0")
        return 0.0
    k = _gaussian_kernel(x, bandwidth)
    l = _gaussian_kernel(y, bandwidth)
    return float(np.vdot(_center(k), l)) / x.size ** 2


def _gaussian_kernel(v: np.ndarray, bandwidth: float | None) -> np.ndarray:
    dist = np.abs(v[:, None] - v[None, :])
    if bandwidth is None:
        positive = dist[dist > 0]
        bandwidth = float(np.median(positive))
    return np.exp(-(dist ** 2) / (2.0 * bandwidth ** 2))


def _center(k: np.ndarray) -> np.ndarray:
    # H K H without forming H: subtract row/column means, add back the total.
    row = k.mean(axis=0, keepdims=True)
    col = k.mean(axis=1, keepdims=True)
    return k - row - col + k.mean()


def hsic_permutation_threshold(x, y, shuffles: int = 200,
                               quantile: float = 0.95, rng_seed=0
                               ) -> tuple[float, float]:
    """HSIC of (x, y) plus the null quantile from label permutations.

    Shuffling y leaves each kernel matrix's entries intact, so the null
    statistics reuse the centered x kernel against row/column-permuted L.
    Returns (statistic, threshold).
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.size
    stat = hsic_gaussian(x, y)
    if np.ptp(x) == 0.0 or np.ptp(y) == 0.0:
        return stat, 0.0
    kc = _center(_gaussian_kernel(x, None))
    l = _gaussian_kernel(y, None)
    rng = np.random.default_rng(rng_seed)
    null = np.empty(shuffles)
    for s in range(shuffles):
        p = rng.permutation(n)
        null[s] = np.vdot(kc, l.take(p, 0).take(p, 1)) / n ** 2
    return stat, float(np.quantile(null, quantile))
