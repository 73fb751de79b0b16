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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
