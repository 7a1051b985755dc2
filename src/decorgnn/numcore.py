"""Dense float64 matrices with a reverse-mode gradient tape.

Every value is a 2-D float64 array. An operation records its parents and
one backward rule on the output node only when some parent requires a
gradient and the tape is on. ``backward`` walks the recorded graph in
reverse topological order, calls each node's rule once, pairs the
gradients it returns with the node's parents, and accumulates them, once
per path. An operation over constants, or any operation inside
``no_tape()``, returns a parentless constant, so a forward pass that takes
no gradient keeps no intermediate alive. Every output is still checked for
non-finite entries. The tape is rebuilt on every forward pass, so
parameter arrays may be swapped between passes without invalidating
anything.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Operand shapes do not fit the requested operation."""


class NonFiniteError(ArithmeticError):
    """A produced value contains NaN or infinity."""


class ContractError(ValueError):
    """An operation was called outside its contract."""


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return arr


def check_finite(value: np.ndarray) -> np.ndarray:
    """Return ``value``; raise NonFiniteError if it holds NaN or infinity."""
    if not np.isfinite(value).all():
        raise NonFiniteError("matrix contains non-finite entries")
    return value


class Tensor:
    """A matrix node on the gradient tape.

    ``grad`` is lazily allocated and accumulates across backward calls until
    reset; call ``zero_grad`` before a fresh pass. Constants (inputs no
    gradient should flow into) are created with ``requires_grad=False`` and
    are skipped during backpropagation.
    """

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = True,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.value = check_finite(_as_matrix(values))
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    """Wrap values as a tape constant that never receives gradient."""
    return Tensor(values, requires_grad=False)


# per thread and per asyncio task, so a scope never leaks into another
_TAPING = contextvars.ContextVar("taping", default=True)


@contextlib.contextmanager
def no_tape():
    """Scope in which no operation records parents or backward rules.

    Every result is a constant, so intermediates are freed as soon as the
    caller drops them. The previous mode is restored on exit, also when the
    block raises.
    """
    token = _TAPING.set(False)
    try:
        yield
    finally:
        _TAPING.reset(token)


def op_node(value: np.ndarray, parents: Sequence[Tensor],
            rule: Callable) -> Tensor:
    """Create an operation result node.

    ``rule(g)`` maps the output gradient to one gradient per parent, in
    ``parents``' order; ``backward`` calls it once per pass and ignores the
    entry of a parent that needs no gradient, which may be None. Modules
    building their own structured operations (e.g. graph aggregation) use
    this hook instead of growing this module. When no parent requires a
    gradient, or inside ``no_tape()``, the result is a parentless constant.
    """
    if not (_TAPING.get() and any(t.requires_grad for t in parents)):
        return Tensor(value, requires_grad=False)
    return Tensor(value, _parents=tuple(parents), _backward=rule)


def matmul(a: Tensor, b: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Matrix product a @ b, written into ``out`` when it is given."""
    if a.cols != b.rows:
        raise DimensionError(
            f"cannot multiply shapes {a.shape} and {b.shape}")
    av, bv = a.value, b.value
    return op_node(np.matmul(av, bv, out=out), (a, b),
                   lambda g: (g @ bv.T, av.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape matrices."""
    if a.shape != b.shape:
        raise DimensionError(f"cannot add shapes {a.shape} and {b.shape}")
    return op_node(a.value + b.value, (a, b), lambda g: (g, g))


def add_bias(x: Tensor, bias: Tensor,
             out: np.ndarray | None = None) -> Tensor:
    """Add a 1×C bias row to every row of x. The only broadcast supported.

    The sum is written into ``out`` when it is given, which may be x's value.
    """
    if bias.rows != 1 or bias.cols != x.cols:
        raise DimensionError(
            f"bias shape {bias.shape} does not broadcast over {x.shape}")
    return op_node(np.add(x.value, bias.value, out=out), (x, bias),
                   lambda g: (g, g.sum(axis=0, keepdims=True)))


def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0). Derivative is exactly zero at x == 0."""
    mask = x.value > 0.0
    return op_node(np.where(mask, x.value, 0.0), (x,),
                   lambda g: (g * mask,))


def smul(s: Tensor, x: Tensor) -> Tensor:
    """Scale a matrix by a 1×1 tensor."""
    if s.shape != (1, 1):
        raise DimensionError(f"scale must be 1x1, got {s.shape}")
    s00 = s.value[0, 0]
    xv = x.value
    return op_node(s00 * xv, (s, x),
                   lambda g: (np.array([[np.sum(g * xv)]]), s00 * g))


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries, as a 1×1 tensor."""
    shape = x.shape
    return op_node(np.array([[x.value.sum()]]), (x,),
                   lambda g: (np.full(shape, g[0, 0]),))


def softmax_cross_entropy(logits: Tensor, labels, weights) -> Tensor:
    """Weighted mean softmax cross-entropy over a batch.

    Row n of ``logits`` scores the classes of sample n. The loss is
    (1/B) * sum_n weights[n] * CE(softmax(logits_n), labels[n]). Weights are
    constants: no gradient flows into them.

    Args:
        logits: [B × C] tensor.
        labels: length-B integer class indices.
        weights: length-B nonnegative reals.

    Returns:
        1×1 loss tensor.
    """
    batch, num_classes = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch {batch}")
    if labels.dtype.kind not in "iu":
        raise ContractError("labels must be integers")
    if labels.min() < 0 or labels.max() >= num_classes:
        raise IndexError(
            f"label out of range [0, {num_classes}) in {labels!r}")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (batch,):
        raise DimensionError(
            f"weights shape {w.shape} does not match batch {batch}")

    z = logits.value
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(batch)
    loss = float((w * -log_probs[rows, labels]).sum() / batch)
    probs = np.exp(log_probs)

    def rule(g):
        d = probs.copy()
        d[rows, labels] -= 1.0
        return ((g[0, 0] / batch) * (w[:, None] * d),)

    return op_node(np.array([[loss]]), (logits,), rule)


def _ordered_nodes(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS; parents precede the nodes consuming them.
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, any]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        pushed = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(node) into ``grad`` of every reachable leaf.

    ``root`` must be 1×1. Gradients add to whatever is already stored, which
    makes repeated calls sum their results; callers reset with ``zero_grad``
    first for a fresh pass. Shared subexpressions receive exactly one
    contribution per consumer. Reverse topological order completes each
    partial before it is passed on; an intermediate's is then dropped.
    """
    if root.shape != (1, 1):
        raise ContractError(f"backward root must be 1x1, got {root.shape}")
    if not root.requires_grad:
        return
    # Per-call partials keep earlier accumulated grads out of this pass.
    partial: dict[int, np.ndarray] = {id(root): np.ones((1, 1))}
    for node in reversed(_ordered_nodes(root)):
        g = partial.pop(id(node), None)
        if g is None:
            continue
        if not node._parents:
            node.grad = (np.array(g, dtype=np.float64) if node.grad is None
                         else node.grad + g)
            continue
        for parent, contribution in zip(node._parents, node._backward(g),
                                        strict=True):
            if parent.requires_grad:
                key = id(parent)
                partial[key] = (partial[key] + contribution if key in partial
                                else contribution)


def zero_grad(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


GRAD_CHECK_ROUNDOFF = 4.0


def grad_check(f: Callable[[Tensor], Tensor], x: np.ndarray,
               step: float = 1e-5) -> float:
    """Compare the tape gradient of f at x against central differences.

    ``f`` must be a deterministic function from one matrix tensor to a 1×1
    tensor. Returns the maximum relative error over entries, with the
    denominator floored at 1e-8 so near-zero gradients compare absolutely.

    A central difference cannot resolve a slope finer than its own roundoff,
    about eps·S/step, where S is the magnitude of the values f rounds along
    the way. So each entry's absolute gap first has a roundoff allowance of
    ``GRAD_CHECK_ROUNDOFF · eps · max(1, |f(x+h)|, |f(x-h)|) / step``
    taken off (never below zero). The allowance scales with max(1, |f|)
    rather than |f|: a loss such as cross-entropy is a difference of O(1)
    log-sum-exp terms, so it carries O(1) rounding even when f itself is
    near zero. A backward rule that is off by a relative 1e-3 on O(1)
    gradients still reports about 1e-3.
    """
    x = _as_matrix(x).copy()
    leaf = Tensor(x)
    out = f(leaf)
    backward(out)
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)

    numeric = np.zeros_like(x)
    scale = np.ones_like(x)
    for idx in np.ndindex(*x.shape):
        bump = x.copy()
        bump[idx] += step
        hi = f(Tensor(bump)).value[0, 0]
        bump[idx] -= 2.0 * step
        lo = f(Tensor(bump)).value[0, 0]
        numeric[idx] = (hi - lo) / (2.0 * step)
        scale[idx] = max(1.0, abs(hi), abs(lo))

    allowance = GRAD_CHECK_ROUNDOFF * np.finfo(np.float64).eps * scale / step
    gap = np.maximum(np.abs(analytic - numeric) - allowance, 0.0)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((gap / denom).max())


def glorot_uniform(rows: int, cols: int, rng: np.random.Generator) -> Tensor:
    """Weight matrix drawn from uniform(±sqrt(6 / (rows + cols)))."""
    limit = np.sqrt(6.0 / (rows + cols))
    return Tensor(rng.uniform(-limit, limit, size=(rows, cols)))


def zeros_param(rows: int, cols: int) -> Tensor:
    return Tensor(np.zeros((rows, cols)))


class Adam:
    """Adaptive moment estimation over parameter tensors, as flat buffers.

    The optimizer owns one flat buffer of parameter values, the moments m
    and v, one gradient buffer and one scratch buffer, all alive as long as
    it is. On construction each parameter's ``value`` becomes a view of the
    value buffer, so a write into a value in place reaches the buffer, and
    ``step`` updates m, v and the values in place without allocating
    anything of parameter size. A caller that rebinds a value instead (a
    test may; ``load_checkpoint`` builds a fresh model with no optimizer)
    keeps working: the next step copies the new array in and makes the view
    the value again.
    """

    def __init__(self, params: Sequence[Tensor], lr: float,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        sizes = [p.value.size for p in self.params]
        bounds = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        (self._value, self._grad, self._m, self._v,
         self._scratch) = np.zeros((5, int(bounds[-1])))
        self._views = []
        for p, lo, hi in zip(self.params, bounds[:-1], bounds[1:]):
            view = self._value[lo:hi].reshape(p.shape)
            view[...] = p.value
            p.value = view
            self._views.append((view, self._grad[lo:hi].reshape(p.shape)))

    def step(self) -> None:
        """One update from each parameter's gradient and current value."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, (value, grad) in zip(self.params, self._views):
            if p.value is not value:  # rebound by the caller: copy it in
                if p.value.shape != value.shape:
                    raise DimensionError(
                        f"parameter rebound to shape {p.value.shape}, "
                        f"expected {value.shape}")
                value[...] = p.value
                p.value = value
            if p.grad is None:
                grad.fill(0.0)
            else:
                grad[...] = p.grad
        # the sums, products and quotients of
        # m = b1·m + (1 - b1)·g, v = b2·v + (1 - b2)·g² and
        # value -= lr·(m / bias1) / (sqrt(v / bias2) + eps), in that order
        g, s = self._grad, self._scratch
        self._m *= b1
        self._m += np.multiply(g, 1.0 - b1, out=s)
        self._v *= b2
        np.square(g, out=s)
        s *= 1.0 - b2
        self._v += s
        np.divide(self._m, bias1, out=g)  # g now holds the step
        g *= self.lr
        np.divide(self._v, bias2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        g /= s
        self._value -= g
