"""Elementwise tape ops that only the tests use.

``encoder.gin_layer_forward`` fuses a GIN layer into one tape node, so the
library has no use for single elementwise ops. These are that layer as a
chain of small nodes, each with its own backward rule, built on the public
``numcore.op_node`` hook: the reference the fused layer is checked against
bit for bit, and small graphs on which the tape's own rules (ordering,
shared subexpressions, accumulation) are tested.
"""

import numpy as np

from decorgnn import numcore as nc


def add(a: nc.Tensor, b: nc.Tensor) -> nc.Tensor:
    """Elementwise sum of two same-shape matrices."""
    if a.shape != b.shape:
        raise nc.DimensionError(f"cannot add shapes {a.shape} and {b.shape}")
    return nc.op_node(a.value + b.value, (a, b), lambda g: (g, g))


def relu(x: nc.Tensor) -> nc.Tensor:
    """Elementwise max(x, 0). Derivative is exactly zero at x == 0."""
    mask = x.value > 0.0
    return nc.op_node(np.where(mask, x.value, 0.0), (x,),
                      lambda g: (g * mask,))


def smul(s: nc.Tensor, x: nc.Tensor) -> nc.Tensor:
    """Scale a matrix by a 1×1 tensor."""
    if s.shape != (1, 1):
        raise nc.DimensionError(f"scale must be 1x1, got {s.shape}")
    s00 = s.value[0, 0]
    xv = x.value
    return nc.op_node(s00 * xv, (s, x),
                      lambda g: (np.array([[np.sum(g * xv)]]), s00 * g))


def sum_all(x: nc.Tensor) -> nc.Tensor:
    """Sum of all entries, as a 1×1 tensor."""
    shape = x.shape
    return nc.op_node(np.array([[x.value.sum()]]), (x,),
                      lambda g: (np.full(shape, g[0, 0]),))
