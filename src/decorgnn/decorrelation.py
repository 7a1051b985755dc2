"""Dependence measurement between representation dimensions and the
sample-weight optimizer that suppresses it.

Dependence between two columns of a representation matrix is scored through
random Fourier feature maps: the squared Frobenius norm of the weighted
partial cross-covariance between mapped columns. Summed over dimension
pairs this gives a differentiable objective in the per-sample weights,
minimized by projected gradient descent under the constraints
sum(w) = N and w >= W_MIN.

An independent Gaussian-kernel HSIC estimator is included as the
statistical oracle the objective is validated against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

W_MIN = 1e-4  # weight floor, keeps every sample in play

# Public entry-point call counts; training modes that must never touch this
# module are asserted against these.
COUNTERS = {
    "weighted_partial_cov": 0,
    "decorrelation_objective": 0,
    "objective_grad_weights": 0,
    "optimize_weights": 0,
    "hsic_gaussian": 0,
    "sample_pairs": 0,
    "sample_bank": 0,
}


def snapshot_counters() -> dict:
    return dict(COUNTERS)


class OptimizationError(RuntimeError):
    """The weight optimizer hit a non-finite value or infeasible constraint."""


@dataclass(frozen=True)
class RFFBank:
    """One draw of random Fourier features: x -> sqrt(2) * cos(freq*x + phase)."""

    freqs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        if self.freqs.shape != self.phases.shape or self.freqs.ndim != 1:
            raise ValueError("freqs and phases must be 1-D and the same length")
        if self.freqs.size < 1:
            raise ValueError("a bank needs at least one component")

    @property
    def size(self) -> int:
        return self.freqs.size


@dataclass
class WeightVector:
    """Per-sample weights constrained to sum(w) = n with w >= W_MIN."""

    w: np.ndarray
    n: int

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.w.shape != (self.n,):
            raise ValueError(f"expected {self.n} weights, got shape {self.w.shape}")
        if not np.isfinite(self.w).all():
            raise ValueError("weights contain non-finite entries")

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        return cls(np.ones(n), n)


@dataclass(frozen=True)
class ReweightConfig:
    epochs_reweight: int = 20
    lr_w: float = 0.01
    l2_lambda: float = 1.0
    q: int = 1
    pair_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs_reweight < 0:
            raise ValueError("epochs_reweight must be nonnegative")
        if self.lr_w <= 0:
            raise ValueError("lr_w must be positive")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be nonnegative")
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if not 0.0 < self.pair_fraction <= 1.0:
            raise ValueError("pair_fraction must lie in (0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


def sample_bank(q: int, rng) -> RFFBank:
    """Draw one bank: frequencies from N(0, 1), phases from U[0, 2*pi)."""
    COUNTERS["sample_bank"] += 1
    rng = np.random.default_rng(rng)
    return RFFBank(freqs=rng.standard_normal(q),
                   phases=rng.uniform(0.0, 2.0 * np.pi, size=q))


def sample_banks(d: int, q: int, rng, linear: bool = False) -> list:
    """Per-dimension (f, g) bank pairs; each role draws independently.

    ``linear=True`` returns identity maps (None placeholders), which turn
    the dependence measure into plain linear cross-covariance.
    """
    if linear:
        return [(None, None)] * d
    rng = np.random.default_rng(rng)
    return [(sample_bank(q, rng), sample_bank(q, rng)) for _ in range(d)]


def rff_apply(x: float, bank: RFFBank) -> np.ndarray:
    """Map one scalar through the bank; component q is sqrt(2)*cos(w_q x + p_q)."""
    return np.sqrt(2.0) * np.cos(bank.freqs * float(x) + bank.phases)


def feature_matrix(z: np.ndarray, bank: RFFBank | None) -> np.ndarray:
    """Map a column of N samples to [N × Q]; a None bank is the identity map."""
    z = np.asarray(z, dtype=np.float64).reshape(-1)
    if bank is None:
        return z[:, None].copy()
    return np.sqrt(2.0) * np.cos(np.outer(z, bank.freqs) + bank.phases)


def _weights_array(weights, n: int) -> np.ndarray:
    w = weights.w if isinstance(weights, WeightVector) else np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    return w


def weighted_partial_cov(zi, zj, weights, f_bank: RFFBank | None,
                         g_bank: RFFBank | None) -> np.ndarray:
    """Weighted partial cross-covariance between two mapped columns.

    Row n contributes (w_n f(z_i,n) - fbar) outer (w_n g(z_j,n) - gbar)
    where fbar is the plain mean of the weighted rows (divisor N), and the
    accumulated sum is divided by N - 1. Uniform weights reduce this to the
    ordinary cross-covariance of the mapped columns.
    """
    COUNTERS["weighted_partial_cov"] += 1
    zi = np.asarray(zi, dtype=np.float64).reshape(-1)
    zj = np.asarray(zj, dtype=np.float64).reshape(-1)
    n = zi.size
    if n != zj.size:
        raise ValueError(f"column lengths differ: {n} vs {zj.size}")
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    w = _weights_array(weights, n)
    wf = w[:, None] * feature_matrix(zi, f_bank)
    wg = w[:, None] * feature_matrix(zj, g_bank)
    a = wf - wf.mean(axis=0)
    b = wg - wg.mean(axis=0)
    return a.T @ b / (n - 1)


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


def sample_pairs(d: int, fraction: float, rng) -> list[tuple[int, int]]:
    """Dimension pairs (i < j) to score, lexicographically ordered.

    fraction = 1 enumerates all C(d, 2) pairs. A smaller fraction samples
    ceil(fraction * d) dimensions without replacement and pairs within the
    sample; fewer than two surviving dimensions is a domain error.
    """
    COUNTERS["sample_pairs"] += 1
    keep = dims_kept(d, fraction)
    if fraction == 1.0:
        dims = np.arange(d)
    else:
        rng = np.random.default_rng(rng)
        dims = np.sort(rng.choice(d, size=keep, replace=False))
    a, b = np.triu_indices(dims.size, k=1)
    return list(zip(dims[a].tolist(), dims[b].tolist()))


def _flat_maps(z: np.ndarray, banks) -> tuple[np.ndarray, np.ndarray, int]:
    """Stack per-dimension feature maps into [N × d*q] blocks for f and g."""
    n, d = z.shape
    if len(banks) != d:
        raise ValueError(f"got {len(banks)} bank pairs for {d} dimensions")
    widths = {1 if f is None else f.size for f, _ in banks}
    widths |= {1 if g is None else g.size for _, g in banks}
    if len(widths) != 1:
        raise ValueError("all banks must share one width")
    q = widths.pop()
    f_flat = np.empty((n, d * q))
    g_flat = np.empty((n, d * q))
    for i, (f_bank, g_bank) in enumerate(banks):
        f_flat[:, i * q:(i + 1) * q] = feature_matrix(z[:, i], f_bank)
        g_flat[:, i * q:(i + 1) * q] = feature_matrix(z[:, i], g_bank)
    return f_flat, g_flat, q


def _pair_mask(pairs, d: int, q: int) -> np.ndarray:
    select = np.zeros((d, d))
    for i, j in pairs:
        if not 0 <= i < j < d:
            raise ValueError(f"pair ({i}, {j}) invalid for d={d}")
        select[i, j] = 1.0
    return np.kron(select, np.ones((q, q)))


def _setup(z, weights, banks, pairs):
    """Validated weights, stacked f/g maps and pair mask for one objective."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError(f"representations must be [N>=2 x d], got {z.shape}")
    w = _weights_array(weights, z.shape[0])
    f_flat, g_flat, q = _flat_maps(z, banks)
    return w, f_flat, g_flat, _pair_mask(pairs, z.shape[1], q)


def _objective_core(f_flat, g_flat, w, mask, want_grad: bool, l2_lambda: float):
    # C blocks reproduce weighted_partial_cov for every pair at once:
    # A = centered(w*F), B = centered(w*G), C = A^T B / (N-1).
    n = w.size
    wf = w[:, None] * f_flat
    wg = w[:, None] * g_flat
    a = wf - wf.mean(axis=0)
    b = wg - wg.mean(axis=0)
    c = (a.T @ b) / (n - 1)
    cm = c * mask
    objective = float(np.vdot(cm, cm)) + l2_lambda * float(w @ w)
    if not want_grad:
        return objective, None
    # d||masked C||^2/dw_n from the product rule over the two weighted
    # centerings; raw maps pair with the opposing centered block.
    term1 = ((f_flat @ cm) * b).sum(axis=1)
    term2 = ((a @ cm) * g_flat).sum(axis=1)
    grad = (2.0 / (n - 1)) * (term1 + term2) + 2.0 * l2_lambda * w
    return objective, grad


def decorrelation_objective(z, weights, banks, pairs) -> float:
    """Sum over pairs (i, j) of the squared Frobenius norm of the weighted
    partial cross-covariance between mapped columns i and j."""
    COUNTERS["decorrelation_objective"] += 1
    w, f_flat, g_flat, mask = _setup(z, weights, banks, pairs)
    objective, _ = _objective_core(f_flat, g_flat, w, mask, False, 0.0)
    return objective


def objective_grad_weights(z, weights, banks, pairs,
                           l2_lambda: float = 0.0) -> np.ndarray:
    """Exact gradient of decorrelation_objective + l2_lambda * ||w||^2 in w."""
    COUNTERS["objective_grad_weights"] += 1
    w, f_flat, g_flat, mask = _setup(z, weights, banks, pairs)
    _, grad = _objective_core(f_flat, g_flat, w, mask, True, l2_lambda)
    return grad


def project_weights(w: np.ndarray, total: float | None = None,
                    free=None) -> np.ndarray:
    """Clamp weights to >= W_MIN, then rescale so they sum to ``total``.

    Rescaling can push just-clamped entries back under W_MIN, so the
    clamp-and-rescale cycle repeats on the still-adjustable entries until
    both constraints hold; one pass suffices in the common case. Entries
    outside ``free`` are treated as constants and never move.
    """
    w = np.array(w, dtype=np.float64)
    if total is None:
        total = float(w.size)
    free_mask = np.ones(w.size, dtype=bool) if free is None else np.asarray(free, dtype=bool)
    idx = np.flatnonzero(free_mask)
    if idx.size == 0:
        return w
    target = total - float(w[~free_mask].sum())
    if target < W_MIN * idx.size - 1e-12:
        raise OptimizationError(
            f"cannot reach sum {target} with {idx.size} weights floored at {W_MIN}")
    vals = np.maximum(w[idx], W_MIN)
    for _ in range(idx.size):
        above = vals > W_MIN
        if not above.any():
            # target may sit below W_MIN * size by the roundoff the
            # feasibility check allows
            vals[:] = max(target / idx.size, W_MIN)
            break
        pinned = W_MIN * float(np.count_nonzero(~above))
        scaled = vals[above] * ((target - pinned) / vals[above].sum())
        if scaled.min() >= W_MIN:
            vals[above] = scaled
            break
        vals[above] = np.maximum(scaled, W_MIN)
    w[idx] = vals
    return w


@dataclass
class OptimizeResult:
    weights: WeightVector
    objectives: list            # penalized objective, one entry per step + final
    improved: bool              # final <= initial; False doubles as the warning flag


def optimize_weights(z, w0: WeightVector, cfg: ReweightConfig, *,
                     free=None, linear: bool = False, seed=None,
                     telemetry=None) -> OptimizeResult:
    """Run ``cfg.epochs_reweight`` projected gradient steps on the penalized
    objective, starting from ``w0``.

    Banks and the pair set are resampled once at entry from ``seed`` (falls
    back to ``cfg.seed``). ``free`` masks which weights may move; the
    projection rescales only those, holding the rest as constants while the
    full vector keeps sum(w) = N. ``telemetry``, when given, receives
    (step, objective, weights) after each projection.
    """
    COUNTERS["optimize_weights"] += 1
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"representations must be [N x d], got {z.shape}")
    n, d = z.shape
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    banks = sample_banks(d, cfg.q, rng, linear=linear)
    pairs = sample_pairs(d, cfg.pair_fraction, rng)
    w, f_flat, g_flat, mask = _setup(z, w0, banks, pairs)
    w = w.copy()

    history = []
    for step in range(cfg.epochs_reweight):
        objective, grad = _objective_core(f_flat, g_flat, w, mask, True, cfg.l2_lambda)
        if not np.isfinite(objective) or not np.isfinite(grad).all():
            raise OptimizationError(f"non-finite objective or gradient at step {step}")
        history.append(objective)
        step_vec = cfg.lr_w * grad
        if free is not None:
            step_vec = np.where(np.asarray(free, dtype=bool), step_vec, 0.0)
        w = project_weights(w - step_vec, total=float(n), free=free)
        if telemetry is not None:
            telemetry(step, objective, w.copy())
    final, _ = _objective_core(f_flat, g_flat, w, mask, False, cfg.l2_lambda)
    if not np.isfinite(final):
        raise OptimizationError("non-finite final objective")
    history.append(final)
    return OptimizeResult(weights=WeightVector(w, n), objectives=history,
                          improved=final <= history[0] + 1e-12)


def hsic_gaussian(x, y, bandwidth: float | None = None) -> float:
    """Biased V-statistic HSIC with Gaussian kernels: (1/N^2) tr(K H L H).

    Bandwidths default to the median pairwise distance of each input
    (computed separately for x and y). Requires N >= 4 paired samples; a
    zero-variance input degenerates to 0 with a warning.
    """
    COUNTERS["hsic_gaussian"] += 1
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
        null[s] = np.vdot(kc, l[np.ix_(p, p)]) / n ** 2
    return stat, float(np.quantile(null, quantile))
