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

from .fileio import DataFormatError
from .numcore import DimensionError


@dataclass
class GlobalMemory:
    k_groups: int
    batch_size: int
    z_groups: list            # k entries of [batch_size × d]
    w_groups: list            # k entries of [batch_size]
    gammas: tuple

    def __post_init__(self):
        if self.k_groups < 0:
            raise ValueError(f"k_groups must be nonnegative, got {self.k_groups}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if not (len(self.z_groups) == len(self.w_groups)
                == len(self.gammas) == self.k_groups):
            raise ValueError("group lists must all have k_groups entries")
        for gamma in self.gammas:
            if not 0.0 <= gamma < 1.0:
                raise ValueError(f"momentum must lie in [0, 1), got {gamma}")
        for z, w in zip(self.z_groups, self.w_groups):
            if z.ndim != 2 or z.shape[0] != self.batch_size:
                raise DimensionError(
                    f"stored block shape {z.shape} != batch size {self.batch_size}")
            if w.shape != (self.batch_size,):
                raise DimensionError(f"stored weights shape {w.shape} invalid")


def init_memory(k: int, batch_size: int, d: int, gammas) -> GlobalMemory:
    """Fresh memory: stored representations zero, stored weights one."""
    gammas = tuple(float(g) for g in gammas)
    if len(gammas) != k:
        raise ValueError(f"need {k} momentum values, got {len(gammas)}")
    return GlobalMemory(
        k_groups=k,
        batch_size=batch_size,
        z_groups=[np.zeros((batch_size, d)) for _ in range(k)],
        w_groups=[np.ones(batch_size) for _ in range(k)],
        gammas=gammas,
    )


def _check_local(memory: GlobalMemory, z_local: np.ndarray, w_local: np.ndarray):
    if z_local.ndim != 2 or z_local.shape[0] != memory.batch_size:
        raise DimensionError(
            f"local block shape {z_local.shape} != batch size {memory.batch_size}")
    if w_local.shape != (memory.batch_size,):
        raise DimensionError(f"local weights shape {w_local.shape} invalid")
    for z in memory.z_groups:
        if z.shape[1] != z_local.shape[1]:
            raise DimensionError(
                f"stored width {z.shape[1]} != local width {z_local.shape[1]}")


def concat(memory: GlobalMemory, z_local: np.ndarray,
           w_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack stored groups then the local batch: [(k+1)*B × d] and [(k+1)*B].

    Order is group 1 through group k, local last. With no groups this is a
    copy of the local arrays.
    """
    z_local = np.asarray(z_local, dtype=np.float64)
    w_local = np.asarray(w_local, dtype=np.float64)
    _check_local(memory, z_local, w_local)
    z_hat = np.concatenate([*memory.z_groups, z_local], axis=0)
    w_hat = np.concatenate([*memory.w_groups, w_local])
    return z_hat, w_hat


def momentum_update(memory: GlobalMemory, z_local: np.ndarray,
                    w_local: np.ndarray) -> None:
    """Pull every stored group toward the current batch, in place."""
    z_local = np.asarray(z_local, dtype=np.float64)
    w_local = np.asarray(w_local, dtype=np.float64)
    _check_local(memory, z_local, w_local)
    for k, gamma in enumerate(memory.gammas):
        memory.z_groups[k] = gamma * memory.z_groups[k] + (1.0 - gamma) * z_local
        memory.w_groups[k] = gamma * memory.w_groups[k] + (1.0 - gamma) * w_local


def memory_arrays(memory: GlobalMemory) -> dict:
    """Flatten the memory into named matrices for a checkpoint manifest."""
    arrays = {"memory.gammas": np.asarray(memory.gammas).reshape(1, -1)}
    for k in range(memory.k_groups):
        arrays[f"memory.group{k}.z"] = memory.z_groups[k]
        arrays[f"memory.group{k}.w"] = memory.w_groups[k].reshape(1, -1)
    return arrays


def restore_memory(arrays: dict, k: int, batch_size: int,
                   d: int) -> GlobalMemory:
    """Rebuild a memory from manifest arrays, validating every shape.

    A missing entry raises DataFormatError naming it.
    """
    def entry(name):
        if name not in arrays:
            raise DataFormatError(f"missing {name}")
        return arrays[name]

    gammas = entry("memory.gammas").reshape(-1)
    if gammas.size != k:
        raise DimensionError(f"expected {k} momentum values, got {gammas.size}")
    z_groups, w_groups = [], []
    for idx in range(k):
        z = entry(f"memory.group{idx}.z")
        if z.shape != (batch_size, d):
            raise DimensionError(
                f"stored block {idx} has shape {z.shape}, expected {(batch_size, d)}")
        z_groups.append(z)
        w_groups.append(entry(f"memory.group{idx}.w").reshape(-1))
    return GlobalMemory(k, batch_size, z_groups, w_groups,
                        tuple(float(g) for g in gammas))
