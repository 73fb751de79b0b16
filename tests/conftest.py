"""Shared test helpers."""

from __future__ import annotations

import numpy as np
import pytest

from nisqlab.qsim import PAULI_MATRICES, GateLayer


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


def dense_density_reference(circuit, bindings=None) -> np.ndarray:
    """The final 2^n x 2^n density matrix of `circuit`, computed plainly:
    each gate by `apply_unitary_tensor` on the rows and its conjugate on the
    columns, each noise layer as the per-qubit Pauli Kraus sum
    (1 - 3 lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z), and each
    oracle call through its binding's own `apply_density`."""
    n, lam = circuit.n_qubits, circuit.noise.value
    rho = np.zeros((2,) * (2 * n), dtype=np.complex128)
    rho[(0,) * (2 * n)] = 1.0
    for op in circuit.schedule():
        if op is None:
            for q in range(n):
                kicked = [
                    apply_unitary_tensor(apply_unitary_tensor(rho, PAULI_MATRICES[p], (q,)), PAULI_MATRICES[p].conj(), (n + q,))
                    for p in "XYZ"
                ]
                rho = (1 - 0.75 * lam) * rho + (lam / 4) * sum(kicked)
        elif isinstance(op, GateLayer):
            for g in op.gates:
                rho = apply_unitary_tensor(rho, g.matrix, g.targets)
                rho = apply_unitary_tensor(rho, g.matrix.conj(), tuple(n + t for t in g.targets))
        else:
            rho = bindings[op.oracle_id].apply_density(rho, op.wires, n)
    return rho.reshape(2**n, 2**n)


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
