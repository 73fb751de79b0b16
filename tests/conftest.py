"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest


def tv_dicts(p: dict[str, float], q: dict[str, float]) -> float:
    """Total variation distance between two sparse distributions."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def counts_to_probs(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def apply_unitary_tensor(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Gate-by-gate reference: contract u into the given 2-dimensional axes of
    tensor, moving the target axes to the front and back again."""
    front = tuple(range(len(axes)))
    moved = np.moveaxis(tensor, axes, front)
    out = (u @ moved.reshape(len(u), -1)).reshape(moved.shape)
    return np.moveaxis(out, front, axes)


def layer_gate_by_gate(tensor: np.ndarray, lay) -> np.ndarray:
    """A gate layer on a (2,) * n tensor through `apply_unitary_tensor`, one gate at a time."""
    for g in lay.gates:
        tensor = apply_unitary_tensor(tensor, g.matrix, g.targets)
    return tensor


def densify_broadcast(prod: np.ndarray) -> np.ndarray:
    """Product-state rows (batch, n, 2) as a (batch,) + (2,) * n tensor, one
    broadcast product per qubit, with the operand order of `qsim._densify`."""
    batch, n = prod.shape[:2]
    tensor = prod[:, 0, :]
    for q in range(1, n):
        tensor = (tensor[:, :, None] * prod[:, q, None, :]).reshape(batch, -1)
    return np.ascontiguousarray(tensor.reshape((batch,) + (2,) * n))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
