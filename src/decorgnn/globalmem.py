"""Cross-batch memory of representations and sample weights.

K stored groups, each shaped like one mini-batch, are concatenated in front
of the current batch before weight optimization and pulled toward it
afterwards by per-group momentum. Group k's state moves as
state <- gamma_k * state + (1 - gamma_k) * current, so the gap to a fixed
input contracts by exactly gamma_k per update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import DimensionError


@dataclass
class GlobalMemory:
    z_groups: np.ndarray      # [k × batch_size × d]
    w_groups: np.ndarray      # [k × batch_size]
    gammas: np.ndarray        # [k]

    def __post_init__(self):
        z, w = self.z_groups, self.w_groups
        if z.ndim != 3 or w.shape != z.shape[:2]:
            raise DimensionError(f"stored blocks {z.shape} and weights "
                                 f"{w.shape} are not [k × B × d], [k × B]")
        if self.gammas.shape != (self.k_groups,):
            raise ValueError(f"need {self.k_groups} momentum values, "
                             f"got {self.gammas.size}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not np.all((0.0 <= self.gammas) & (self.gammas < 1.0)):
            raise ValueError(f"momentum must lie in [0, 1), got {self.gammas}")

    @property
    def k_groups(self) -> int:
        return self.z_groups.shape[0]

    @property
    def batch_size(self) -> int:
        return self.z_groups.shape[1]


def init_memory(k: int, batch_size: int, d: int, gammas) -> GlobalMemory:
    """Fresh memory: stored representations zero, stored weights one."""
    return GlobalMemory(z_groups=np.zeros((k, batch_size, d)),
                        w_groups=np.ones((k, batch_size)),
                        gammas=np.asarray(gammas, dtype=np.float64))


def _local(memory: GlobalMemory, z_local, w_local):
    """The current batch as float arrays, checked against the stored groups."""
    z_local = np.asarray(z_local, dtype=np.float64)
    w_local = np.asarray(w_local, dtype=np.float64)
    _, batch_size, d = memory.z_groups.shape
    if z_local.shape != (batch_size, d) or w_local.shape != (batch_size,):
        raise DimensionError(
            f"local block {z_local.shape} and weights {w_local.shape} do not "
            f"match a stored group {(batch_size, d)}")
    return z_local, w_local


def concat(memory: GlobalMemory, z_local: np.ndarray,
           w_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack stored groups then the local batch: [(k+1)*B × d] and [(k+1)*B].

    Order is group 1 through group k, local last. With no groups this is a
    copy of the local arrays.
    """
    z_local, w_local = _local(memory, z_local, w_local)
    z_hat = np.concatenate(
        [memory.z_groups.reshape(-1, z_local.shape[1]), z_local])
    w_hat = np.concatenate([memory.w_groups.reshape(-1), w_local])
    return z_hat, w_hat


def momentum_update(memory: GlobalMemory, z_local: np.ndarray,
                    w_local: np.ndarray) -> None:
    """Pull every stored group of ``memory`` toward the current batch."""
    z_local, w_local = _local(memory, z_local, w_local)
    gamma = memory.gammas[:, None]
    memory.w_groups = gamma * memory.w_groups + (1.0 - gamma) * w_local
    gamma = gamma[:, :, None]
    memory.z_groups = gamma * memory.z_groups + (1.0 - gamma) * z_local
