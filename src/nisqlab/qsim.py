"""Exact and trajectory simulation of depolarizing-noise circuits.

Model: an n-qubit register starts in |0^n>, then a layer of single-qubit
depolarizing noise D_lam acts on every qubit after initialization and after
each circuit step.  The layer following the last step doubles as measurement
noise, so a circuit with T >= 1 steps sees T + 1 noise layers and an empty
circuit sees 2 (one after init, one before readout).  Measurement is in the
computational basis.  `NoisyCircuit.schedule()` is the single statement of
this placement rule; every backend walks it.

Conventions fixed package-wide:
  - qubit 0 is the most significant bit of outcome strings,
  - amplitudes are complex128, states flattened in C order,
  - gate matrices for targets (a, b) use basis order |q_a q_b> with q_a the
    more significant bit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_int, extract_field, int_to_bits, ints_to_bits, spread_field
from .errors import CapacityError, UsageError
from .seeding import rng_for

DENSITY_QUBIT_CAP = 10
STATEVECTOR_QUBIT_CAP = 22
UNITARY_ATOL = 1e-12
STATE_ATOL = 1e-9

# chunk size for batched sampling, in amplitudes: it fixes the RNG stream
# layout, one stream per chunk, and depends only on (n, shots), never on
# thread count, so results are scheduling-independent.
_CHUNK_AMPLITUDES = 2**21
# row tile of a chunk's dense phase, in amplitudes: it fixes the working set,
# 1 MB of state that stays in L2 with the block kernel's copy and product.
# Of 2^15..2^18, fastest on the `checks` BV runs and near the fastest on
# `sampling`, with the smallest footprint of those (BENCH_row_tiles.json)
_TILE_AMPLITUDES = 2**16
# row block in which a chunk's uniforms become Pauli kinds and its sort keys
# are packed: a pass over a block stays in cache.  Also the fewest rows a
# sampling walk holds where there are that many: smaller chunks share walks
_EVENT_ROWS = 4096
_CHUNK_STREAM_TAG = 0x6368756E
# widest fused gate block, in qubits: fastest of 3..6 on `sampling` (BENCH_gate_fusion.json)
_FUSE_QUBITS = 5
# widest fused Pauli transfer block, in qubits: a k-qubit block costs 16^k products
# per coefficient.  On `density` 3 ties with 2 at 16x the cached bytes and 4 is 1.4x
# slower; 1 (no fusion) is 6-12% slower on the `checks` ops (BENCH_pauli_basis.json)
_TRANSFER_QUBITS = 2

_I2 = np.eye(2, dtype=np.complex128)
_PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    dtype=np.complex128,
)
_CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)

_NAMED_GATES = {
    "X": _PAULI_X,
    "Y": _PAULI_Y,
    "Z": _PAULI_Z,
    "H": _HADAMARD,
    "CNOT": _CNOT,
    "CZ": _CZ,
}

PAULI_MATRICES = {"I": _I2, "X": _PAULI_X, "Y": _PAULI_Y, "Z": _PAULI_Z}
# the 1- and 2-qubit Pauli strings in the density walk's index order, I X Y Z per qubit
_PAULIS = np.array(list(PAULI_MATRICES.values()))
_PAULI_STRINGS = {1: _PAULIS, 2: np.array([np.kron(a, b) for a in _PAULIS for b in _PAULIS])}


# ---------------------------------------------------------------------------
# circuit data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseRate:
    """A depolarizing rate lam in [0, 1]."""

    value: float

    def __post_init__(self) -> None:
        v = float(self.value)
        if not (0.0 <= v <= 1.0) or not math.isfinite(v):
            raise UsageError(f"noise rate must lie in [0, 1], got {self.value}")
        object.__setattr__(self, "value", v)


def _as_noise_rate(lam: "NoiseRate | float") -> NoiseRate:
    return lam if isinstance(lam, NoiseRate) else NoiseRate(float(lam))


@dataclass(frozen=True)
class Gate:
    """One 1- or 2-qubit unitary acting on ordered targets."""

    matrix: np.ndarray
    targets: tuple[int, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        k = len(self.targets)
        if k not in (1, 2):
            raise UsageError(f"gates act on 1 or 2 qubits, got {k} targets")
        if len(set(self.targets)) != k:
            raise UsageError("gate targets must be distinct")
        if m.shape != (2**k, 2**k):
            raise UsageError(f"matrix shape {m.shape} does not match {k} targets")
        err = np.abs(m.conj().T @ m - np.eye(2**k)).max()
        if err > UNITARY_ATOL:
            raise UsageError(f"matrix is not unitary (deviation {err:.3e})")


def X(q: int) -> Gate:
    return Gate(_PAULI_X, (q,), "X")


def Y(q: int) -> Gate:
    return Gate(_PAULI_Y, (q,), "Y")


def Z(q: int) -> Gate:
    return Gate(_PAULI_Z, (q,), "Z")


def H(q: int) -> Gate:
    return Gate(_HADAMARD, (q,), "H")


def CNOT(control: int, target: int) -> Gate:
    return Gate(_CNOT, (control, target), "CNOT")


def CZ(a: int, b: int) -> Gate:
    return Gate(_CZ, (a, b), "CZ")


def phase(q: int, theta: float) -> Gate:
    """diag(1, e^{i theta}) on qubit q."""
    return Gate(np.diag([1.0, np.exp(1j * theta)]), (q,))


@dataclass(frozen=True)
class GateLayer:
    """A depth-1 layer: gates with pairwise disjoint targets."""

    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        seen: set[int] = set()
        for g in self.gates:
            for t in g.targets:
                if t in seen:
                    raise UsageError(
                        f"qubit {t} targeted twice in one layer (depth-1 violation)"
                    )
                seen.add(t)

    @property
    def targets(self) -> set[int]:
        return {t for g in self.gates for t in g.targets}

    @functools.cached_property
    def _blocks(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """The gate matrices in blocks of at most _FUSE_QUBITS qubits (`_fuse`)."""
        return _fuse([(g.targets, g.matrix) for g in self.gates], _FUSE_QUBITS)

    @functools.cached_property
    def _transfers(self) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """(targets, Pauli transfer matrix `_transfer`) of each gate, in gate order."""
        return tuple((g.targets, _transfer(g.matrix)) for g in self.gates)

    def _transfer_blocks(self, qubits: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
        """The `_transfers` on `qubits` in blocks of at most _TRANSFER_QUBITS qubits,
        fused once per group: the layer on the density walk's factor over `qubits`."""
        fused = self.__dict__.setdefault("_fused", {})
        if qubits not in fused:
            fused[qubits] = _fuse([t for t in self._transfers if t[0][0] in qubits], _TRANSFER_QUBITS)
        return fused[qubits]


def _fuse(blocks: list, width: int) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """(targets, matrix) pairs grouped greedily, in order, into blocks of at most
    `width` qubits: (their targets in turn, the Kronecker product of their matrices)."""
    fused: list[tuple[tuple[int, ...], np.ndarray]] = []
    for targets, m in blocks:
        if fused and len(fused[-1][0]) + len(targets) <= width:
            fused[-1] = (fused[-1][0] + targets, np.kron(fused[-1][1], m))
        else:
            fused.append((targets, m))
    return tuple(fused)


def _transfer(u: np.ndarray) -> np.ndarray:
    """The real Pauli transfer matrix R_ij = 2^-k Tr(P_i u P_j u^dagger) of a
    k-qubit gate: u rho u^dagger on the Pauli coefficients of rho."""
    p = _PAULI_STRINGS[len(u).bit_length() - 1]
    return np.einsum("iab,jba->ij", p, u @ p @ u.conj().T).real / len(u)


def layer(*gates: Gate) -> GateLayer:
    return GateLayer(tuple(gates))


@dataclass(frozen=True)
class OracleCall:
    """One oracle invocation, wired to distinct circuit qubits.

    `wires` lists the circuit qubits carrying the oracle's registers, in the
    oracle's own register order (inputs first, then outputs).
    """

    oracle_id: str
    wires: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "wires", tuple(int(w) for w in self.wires))
        if len(set(self.wires)) != len(self.wires):
            raise UsageError("oracle wires must be distinct qubits")


CircuitStep = GateLayer | OracleCall


@dataclass(frozen=True)
class NoisyCircuit:
    """An ordered list of steps under per-qubit depolarizing noise."""

    n_qubits: int
    steps: tuple[CircuitStep, ...]
    noise: NoiseRate

    def __init__(
        self,
        n_qubits: int,
        steps: "tuple[CircuitStep, ...] | list[CircuitStep]" = (),
        noise: "NoiseRate | float" = 0.0,
    ) -> None:
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "noise", _as_noise_rate(noise))
        if self.n_qubits < 1:
            raise UsageError("n_qubits must be positive")
        for step in self.steps:
            if isinstance(step, GateLayer):
                used = step.targets
            elif isinstance(step, OracleCall):
                used = set(step.wires)
            else:
                raise UsageError(f"unsupported step type {type(step).__name__}")
            bad = [q for q in used if not (0 <= q < self.n_qubits)]
            if bad:
                raise UsageError(f"step references qubits {bad} outside [0, {self.n_qubits})")

    def schedule(self) -> tuple["CircuitStep | None", ...]:
        """The steps in order, None marking a noise layer.

        Noise follows init and every step: (None, s1, None, ..., sT, None).
        An empty circuit still gets its measurement-noise layer: (None, None).
        """
        if not self.steps:
            return (None, None)
        return (None,) + tuple(op for step in self.steps for op in (step, None))

    def noise_layer_count(self) -> int:
        return self.schedule().count(None)

    @functools.cached_property
    def _fingerprint(self) -> int:
        # computed once: single-trajectory sampling and the harness look it up per call
        h = hashlib.sha256()
        h.update(struct.pack(">qd", self.n_qubits, self.noise.value))
        for step in self.steps:
            if isinstance(step, OracleCall):
                h.update(b"call")
                h.update(step.oracle_id.encode())
                h.update(np.array(step.wires, dtype=np.int64).tobytes())
            else:
                h.update(b"layer")
                for g in sorted(step.gates, key=lambda g: g.targets):
                    h.update(np.array(g.targets, dtype=np.int64).tobytes())
                    h.update(np.ascontiguousarray(g.matrix).tobytes())
        return int.from_bytes(h.digest()[:8], "big") >> 4


# ---------------------------------------------------------------------------
# state data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PureState:
    """n-qubit statevector, qubit 0 most significant."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.shape != (2**self.n_qubits,):
            raise UsageError(
                f"expected {2**self.n_qubits} amplitudes, got {amps.shape}"
            )
        norm = float(np.vdot(amps, amps).real)
        if abs(norm - 1.0) > STATE_ATOL:
            raise UsageError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n_qubits: int) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[0] = 1.0
        return _built(cls, n_qubits, amps)

    @classmethod
    def basis(cls, n_qubits: int, bits: str) -> "PureState":
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise UsageError(f"basis label {bits!r} is not a {n_qubits}-bit string")
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[bits_to_int(bits)] = 1.0
        return cls(n_qubits, amps)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def to_density(self) -> "DensityMatrix":
        return _built(DensityMatrix, self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """n-qubit density operator.  The constructor checks shape, Hermiticity,
    unit trace and positivity; states the library built skip them (`_built`)."""

    n_qubits: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=np.complex128)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise UsageError(f"expected {dim}x{dim} matrix, got {m.shape}")
        herm = np.abs(m - m.conj().T).max()
        if herm > STATE_ATOL:
            raise UsageError(f"matrix deviates from Hermitian by {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > STATE_ATOL:
            raise UsageError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -STATE_ATOL:
            raise UsageError(f"matrix has eigenvalue {lo:.3e} < -{STATE_ATOL}")
        object.__setattr__(self, "entries", m)

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[0, 0] = 1.0
        return _built(cls, n_qubits, m)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return _built(cls, n_qubits, np.eye(dim, dtype=np.complex128) / dim)

    def tensor(self) -> np.ndarray:
        return self.entries.reshape((2,) * (2 * self.n_qubits))

    def outcome_distribution(self) -> "OutcomeDistribution":
        return OutcomeDistribution.from_array(self.n_qubits, np.diag(self.entries).real)


def _built(cls, n_qubits: int, tensor: np.ndarray):
    """The `cls` state (PureState or DensityMatrix) holding `tensor` reshaped,
    without the constructor's checks: for states the library computed from
    checked inputs.  The one place that turns a walk tensor into a state."""
    dim = 2**n_qubits
    name, shape = ("amplitudes", (dim,)) if cls is PureState else ("entries", (dim, dim))
    state = object.__new__(cls)
    object.__setattr__(state, "n_qubits", n_qubits)
    object.__setattr__(state, name, tensor.reshape(shape))
    return state


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over n-bit outcome strings (sparse: zeros omitted)."""

    n_bits: int
    probabilities: dict[str, float]

    def __post_init__(self) -> None:
        probs = {}
        total = 0.0
        for s, p in self.probabilities.items():
            if len(s) != self.n_bits or set(s) - {"0", "1"}:
                raise UsageError(f"outcome {s!r} is not a {self.n_bits}-bit string")
            p = float(p)
            if p < -STATE_ATOL:
                raise UsageError(f"negative probability {p} for outcome {s}")
            p = max(p, 0.0)
            if p > 0.0:
                probs[s] = p
            total += p
        if abs(total - 1.0) > STATE_ATOL:
            raise UsageError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def from_array(cls, n_bits: int, probs: np.ndarray) -> "OutcomeDistribution":
        # entries below 1e-14 are float dust from the backends; drop them
        probs = np.asarray(probs, dtype=float)
        kept = np.flatnonzero(probs > 1e-14)
        return cls(n_bits, dict(zip(ints_to_bits(kept, n_bits), probs[kept].tolist())))

    @classmethod
    def from_counts(cls, n_bits: int, counts: dict[str, int]) -> "OutcomeDistribution":
        total = sum(counts.values())
        if total <= 0:
            raise UsageError("empty counts")
        return cls(n_bits, {s: c / total for s, c in counts.items() if c})

    @classmethod
    def point_mass(cls, bits: str) -> "OutcomeDistribution":
        return cls(len(bits), {bits: 1.0})

    def get(self, bits: str) -> float:
        return self.probabilities.get(bits, 0.0)

    def as_array(self) -> np.ndarray:
        if self.n_bits > DENSITY_QUBIT_CAP + 4:
            raise CapacityError(f"dense array over {self.n_bits} bits is too large")
        out = np.zeros(2**self.n_bits)
        for s, p in self.probabilities.items():
            out[int(s, 2)] = p
        return out

    def items(self):
        return self.probabilities.items()


# ---------------------------------------------------------------------------
# tensor kernels
# ---------------------------------------------------------------------------


def partial_trace_tensor(tensor: np.ndarray, n: int, keep) -> np.ndarray:
    """Trace a (2,)*2n density tensor down to `keep`; axes stay (rows asc, cols asc)."""
    remaining = list(range(n))
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        i = remaining.index(q)
        tensor = np.trace(tensor, axis1=i, axis2=len(remaining) + i)
        remaining.remove(q)
    return tensor


def replace_register(
    tensor: np.ndarray, n: int, positions: tuple[int, ...], rho: np.ndarray
) -> np.ndarray:
    """Trace out `positions` and tensor rho back in at those positions."""
    keep = sorted(set(range(n)) - set(positions))
    full = rho.reshape((2,) * (2 * len(positions)))
    if keep:
        full = np.multiply.outer(full, partial_trace_tensor(tensor, n, keep))
    dests = list(positions) + [n + p for p in positions] + keep + [n + q for q in keep]
    full = np.moveaxis(full, list(range(len(dests))), dests)
    return full.reshape((2,) * (2 * n))


def _block_on_batch(tensor: np.ndarray, block: tuple, order: list[int]) -> tuple[np.ndarray, list[int]]:
    """One of `GateLayer._blocks` on a batch (axis 0) whose axis p + 1 holds qubit
    order[p]: its targets move to the last axes and stay there, so a block is one
    copy and one product.  Returns the C-contiguous result and its order; called
    per block, so a caller that rebinds its tensor frees each block's input.
    This is the one kernel that applies a gate matrix to a dense state."""
    targets, m = block
    moved_order = [q for q in order if q not in targets] + list(targets)
    moved = tensor.transpose(0, *(1 + order.index(q) for q in moved_order))
    out = (moved.reshape(-1, len(m)) @ m.T).reshape(moved.shape)
    return out, moved_order


def _on_every_axis(tensor: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The k x k matrix m applied along every axis of a (k,)*n tensor, into a new
    C-contiguous tensor.  Each product acts on the last axis and moves it to the
    front, reading its operand transposed in place, so n products restore the order."""
    k, n = len(m), tensor.ndim
    for _ in range(n):
        tensor = m @ tensor.reshape(-1, k).T
    return tensor.reshape((k,) * n)


def _to_pauli(rho: np.ndarray, n: int) -> np.ndarray:
    """The Pauli coefficients c_s = Tr(P_s rho) of a density matrix or (2,)*2n
    tensor, so rho = 2^-n sum_s c_s P_s: a new (4,)*n tensor whose axis q indexes
    I, X, Y, Z on qubit q, real up to rounding when rho is Hermitian."""
    pairs = itertools.chain(*zip(range(n), range(n, 2 * n)))  # row and column bit of each qubit
    paired = rho.reshape((2,) * (2 * n)).transpose(*pairs).reshape((4,) * n)
    return _on_every_axis(paired, _PAULIS.transpose(0, 2, 1).reshape(4, 4))


def _from_pauli(c: np.ndarray, n: int) -> np.ndarray:
    """The (2,)*2n density tensor of Pauli coefficients c: `_to_pauli` inverted."""
    paired = _on_every_axis(c, _PAULIS.reshape(4, 4).T / 2).reshape((2,) * (2 * n))
    return paired.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))


def _product_table(v: list[float], n: int) -> np.ndarray:
    """The (len(v),)*n tensor product of n copies of v."""
    return functools.reduce(np.multiply.outer, [np.array(v)] * n)


def _depolarize_density_tensor(tensor: np.ndarray, n: int, lam: float) -> np.ndarray:
    """D_lam on every qubit of a (2,)*2n tensor, into a new tensor (`tensor` is
    never written): it keeps each I coefficient and damps each X, Y, Z by 1 - lam."""
    return _from_pauli(_to_pauli(tensor, n) * _product_table([1.0] + [1.0 - lam] * 3, n), n)


def _pauli_events(lam: float, u: np.ndarray) -> np.ndarray:
    """Map uniform draws to Pauli kinds: 0, 1, 2 (X, Y, Z) on a hit, which
    comes w.p. 3 lam / 4 and picks X/Y/Z uniformly, else 3 (no error).

    This mixture reproduces D_lam exactly: (1-lam) rho + lam I/2 equals
    (1-3 lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z).
    """
    # 4 u / lam, not u / (lam / 4): a quarter of a subnormal rate underflows
    # to 0.  Clamping u at 3 lam / 4 keeps the quotient finite off the hits.
    choice = np.minimum((4.0 * np.minimum(u, 0.75 * lam) / lam).astype(np.uint8), 2)
    return np.where(u < 0.75 * lam, choice, np.uint8(3))


_Y_PHASES = np.array([[-1j], [1j]])


def _pauli_noise(qubit_view, n: int, kinds: np.ndarray) -> None:
    """Noise layer on a batch of trajectories.  Mutates in place.

    `qubit_view(q)` is a writable (batch, pre, 2, post) view of the batch
    with qubit q on axis 2; kinds[:, q] holds each trajectory's Pauli kind
    on qubit q (`_pauli_events`).  Paulis are applied as slice swaps and
    sign flips on the hit rows only.
    """
    for q in range(n):
        v = qubit_view(q)
        x, y, z = (np.nonzero(kinds[:, q] == c)[0] for c in range(3))
        v[x] = v[x][:, :, ::-1]  # X: swap the qubit slices
        v[y] = v[y][:, :, ::-1] * _Y_PHASES  # Y: swap with -i, +i phases
        v[z, :, 1] *= -1.0  # Z: negate the |1> slice


def _basis_map(m: np.ndarray) -> np.ndarray | None:
    """Column j -> the row of its one nonzero entry, or None unless m has
    exactly one nonzero entry, tested against exact zero, per row and column."""
    nonzero = m != 0
    if (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        return None
    return nonzero.argmax(axis=0)


def _layer_on_basis(outcomes: np.ndarray, maps: list, n: int) -> np.ndarray:
    for targets, image in maps:
        local = extract_field(outcomes, targets, n)
        outcomes = outcomes ^ spread_field(local ^ image[local], targets, n)
    return outcomes


def _draw_product(prod: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome indices of product states: the cumulative search's choice,
    made qubit by qubit (most significant first) by rescaling the draw."""
    sq = np.abs(prod) ** 2
    p0 = sq[:, :, 0] / sq.sum(axis=2)
    r, out = u, np.zeros(len(prod), dtype=np.int64)
    for p in p0.T:
        # a 1 needs p < 1 and a 0 needs r < p or p = 1: no denominator is 0
        bit = (r >= p) & (p < 1.0)
        r = np.where(bit, r - p, r) / np.where(bit, 1.0 - p, p)
        out = (out << 1) | bit
    return out


def _densify(prod: np.ndarray) -> np.ndarray:
    """The C-contiguous (batch,) + (2,) * n tensor of product-state rows."""
    batch, n = prod.shape[:2]
    tensor = prod[:, 0, :]
    for q in range(1, n):
        out = np.empty((batch, tensor.shape[1], 2), dtype=prod.dtype)
        for k in range(2):  # one product per value of qubit q: long inner loops
            np.multiply(tensor, prod[:, q, k, None], out=out[:, :, k])
        tensor = out.reshape(batch, -1)
    return np.ascontiguousarray(tensor.reshape((batch,) + (2,) * n))


# ---------------------------------------------------------------------------
# oracle binding protocol
# ---------------------------------------------------------------------------


class OracleBinding:
    """Interface oracles implement to act inside circuits.

    Tensors may carry a leading batch axis (statevector case); `wires` are
    circuit qubit indices in the oracle's register order.  A binding whose
    unitary maps basis states to phased basis states sets `is_monomial` and
    gives `apply_basis`: the images of a batch of basis-state indices.
    """

    n_wires: int
    is_monomial = False

    def apply_statevector(self, tensor: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
        raise NotImplementedError

    def apply_basis(self, outcomes: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
        raise NotImplementedError

    def apply_density(self, tensor: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
        raise NotImplementedError


def _resolve_binding(bindings, call: OracleCall) -> OracleBinding:
    bindings = bindings or {}
    if call.oracle_id not in bindings:
        raise UsageError(f"circuit references unbound oracle id {call.oracle_id!r}")
    binding = bindings[call.oracle_id]
    expected = getattr(binding, "n_wires", None)
    if expected is not None and expected != len(call.wires):
        raise UsageError(
            f"oracle {call.oracle_id!r} needs {expected} wires, call has {len(call.wires)}"
        )
    return binding


def _monomial_tail(schedule: tuple, oracle_bindings, n: int) -> tuple[int, list]:
    """Split off the ops after the schedule's last op that is not monomial
    (noise is; a layer of monomial matrices and an `is_monomial` call are):
    the cut and each tail op as a map of outcome indices, None for noise.
    A tail of noise alone is returned empty, cut = len(schedule)."""
    tail: list = []
    for op in reversed(schedule):
        if isinstance(op, GateLayer):
            maps = [(g.targets, _basis_map(g.matrix)) for g in op.gates]
            if any(m is None for _, m in maps):
                break
            op = functools.partial(_layer_on_basis, maps=maps, n=n)
        elif op is not None:
            binding = _resolve_binding(oracle_bindings, op)
            if not binding.is_monomial:
                break
            op = functools.partial(binding.apply_basis, wires=op.wires, n_qubits=n)
        tail.insert(0, op)
    if all(op is None for op in tail):
        tail = []
    return len(schedule) - len(tail), tail


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def apply_gate_layer(state: "PureState | DensityMatrix", lay: GateLayer):
    """Conjugate the state by the layer's tensor-product unitary."""
    n = state.n_qubits
    for t in lay.targets:
        if not (0 <= t < n):
            raise UsageError(f"gate target {t} outside [0, {n})")
    if isinstance(state, PureState):
        tensor, order = state.tensor()[None], list(range(n))
        for block in lay._blocks:
            tensor, order = _block_on_batch(tensor, block, order)
        return _built(PureState, n, tensor[0].transpose(np.argsort(order)))
    if isinstance(state, DensityMatrix):
        factors = _layer_on_factors([(_to_pauli(state.entries, n), tuple(range(n)))], lay)
        return _built(DensityMatrix, n, _from_pauli(_in_qubit_order(factors), n))
    raise UsageError(f"unsupported state type {type(state).__name__}")


def depolarize_all(rho: DensityMatrix, lam: "NoiseRate | float") -> DensityMatrix:
    """Apply D_lam independently to every qubit."""
    lam = _as_noise_rate(lam).value
    return _built(DensityMatrix, rho.n_qubits, _depolarize_density_tensor(rho.tensor(), rho.n_qubits, lam))


def _walk_density(circuit: NoisyCircuit, oracle_bindings=None):
    """Yield (op, factors) for each op of circuit.schedule(): the state's real
    Pauli coefficients (`_to_pauli`) as a product of factors (tensor, qubits),
    one per group of qubits that gates have joined, axis p indexing qubit
    qubits[p].  A yielded tensor is never written again."""
    n = circuit.n_qubits
    if n > DENSITY_QUBIT_CAP:
        raise CapacityError(f"density backend supports n <= {DENSITY_QUBIT_CAP}, got {n}")
    # a noise layer is a product over qubits, so it keeps factors apart.  Its table is the same
    # in every qubit order; a factor takes it in tables of at most 4^5, none the state's size
    table = functools.cache(lambda k: _product_table([1.0] + [1.0 - circuit.noise.value] * 3, k))

    def noise(c):
        out = c * table(min(c.ndim, 5))
        if c.ndim > 5:
            out *= table(c.ndim - 5).reshape((4,) * (c.ndim - 5) + (1,) * 5)
        return out

    factors = tuple((np.array([1.0, 0.0, 0.0, 1.0]), (q,)) for q in range(n))  # |0><0| = (I + Z) / 2
    for op in circuit.schedule():
        if op is None:
            factors = tuple((noise(c), qubits) for c, qubits in factors)
        elif isinstance(op, GateLayer):
            factors = _layer_on_factors(factors, op)
        else:  # bindings act on the matrix
            rho = _from_pauli(_in_qubit_order(factors), n)
            rho = _resolve_binding(oracle_bindings, op).apply_density(rho, op.wires, n)
            factors = ((_to_pauli(rho, n).real, tuple(range(n))),)
        yield op, factors


def _layer_on_factors(factors, lay: GateLayer) -> tuple:
    """A gate layer on the walk's factors: a gate across two factors joins
    them, then each factor's blocks act (`GateLayer._transfer_blocks`)."""
    factors = list(factors)
    for targets, _ in lay._transfers:
        hit = [i for i, (_, qubits) in enumerate(factors) if targets[0] in qubits or targets[-1] in qubits]
        if len(hit) > 1:
            factors = [f for i, f in enumerate(factors) if i not in hit] + [_join([factors[i] for i in hit])]
    out = []
    for c, qubits in factors:
        c, order = c[None], list(qubits)
        for block in lay._transfer_blocks(qubits):
            c, order = _block_on_batch(c, block, order)
        out.append((c[0], tuple(order)))
    return tuple(out)


def _join(factors) -> tuple[np.ndarray, tuple[int, ...]]:
    """One factor for the product of `factors`, axes in their qubits' turn."""
    return functools.reduce(np.multiply.outer, [c for c, _ in factors]), sum((q for _, q in factors), ())


def _in_qubit_order(factors) -> np.ndarray:
    """The tensor of the product of `factors`, its axis q indexing qubit q."""
    c, qubits = _join(factors)
    return c.transpose(np.argsort(qubits))


def evolve_density(circuit: NoisyCircuit, oracle_bindings=None) -> DensityMatrix:
    """Exact final pre-measurement state (all noise layers applied)."""
    for _, factors in _walk_density(circuit, oracle_bindings):
        pass
    return _built(DensityMatrix, circuit.n_qubits, _from_pauli(_in_qubit_order(factors), circuit.n_qubits))


def _noise_layer_states(circuit: NoisyCircuit, oracle_bindings=None):
    """Yield (state, next op) after each noise layer of the walk: state()
    builds the DensityMatrix that layer leaves, so only the states a caller
    reads are converted, and state(law=True) reads its outcome law without
    the matrix; the next op is the schedule op after the layer (None after
    the last one)."""
    n = circuit.n_qubits

    def state(factors, law=False):
        return _readout(factors) if law else _built(DensityMatrix, n, _from_pauli(_in_qubit_order(factors), n))

    after = circuit.schedule()[1:] + (None,)
    for (op, factors), nxt in zip(_walk_density(circuit, oracle_bindings), after):
        if op is None:
            yield functools.partial(state, factors), nxt


def exact_output_distribution(circuit: NoisyCircuit, oracle_bindings=None) -> OutcomeDistribution:
    """Exact outcome probabilities via the density-matrix backend."""
    for _, factors in _walk_density(circuit, oracle_bindings):
        pass
    return _readout(factors)


def _readout(factors) -> OutcomeDistribution:
    """Outcome law of the walk's factors.  Only their {I, Z} sub-tensors reach
    the diagonal, so only those are joined, and p(x) = 2^-n sum_s c_s (-1)^(x.s)
    is one Walsh-Hadamard step per qubit."""
    c = _in_qubit_order([(c[(slice(0, None, 3),) * c.ndim], qubits) for c, qubits in factors])
    p = _on_every_axis(c, np.array([[0.5, 0.5], [0.5, -0.5]]))
    return OutcomeDistribution.from_array(c.ndim, p.reshape(-1))


def evolve_statevector(circuit: NoisyCircuit, oracle_bindings=None) -> PureState:
    """Exact final pure state of a noiseless circuit."""
    n = circuit.n_qubits
    if circuit.noise.value != 0.0:
        raise UsageError("statevector evolution requires a noiseless circuit")
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(
            f"statevector backend supports n <= {STATEVECTOR_QUBIT_CAP}, got {n}"
        )
    # the noiseless one-row case of the trajectory walk: its kinds have no columns
    kinds = np.empty((1, 0), dtype=np.uint8)
    ((_, prod, tensor, order, _),) = _walk_rows(circuit.schedule(), oracle_bindings, n, kinds)
    if tensor is None:
        tensor = _densify(prod)
    return _built(PureState, n, tensor[0].transpose(np.argsort(order)))


def circuit_fingerprint(circuit: NoisyCircuit) -> int:
    """Stable 60-bit content hash of (n_qubits, noise, steps).

    Sampling streams are keyed by it, so two structurally equal circuits
    draw identical outcome sequences under the same seed while distinct
    circuits get independent streams.  Oracle bindings are not part of the
    fingerprint: the circuit references oracles by id only.
    """
    return circuit._fingerprint


def _chunk_rows(n: int) -> int:
    """Trajectories per sampling chunk; enforces the trajectory backend's cap."""
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(
            f"trajectory backend supports n <= {STATEVECTOR_QUBIT_CAP}, got {n}"
        )
    return max(1, _CHUNK_AMPLITUDES // (2**n))


def _walk_rows(ops, oracle_bindings, n: int, kinds: np.ndarray):
    """Run schedule ops on len(kinds) rows that start in |0..0>; noise op k
    applies the Pauli kinds (`_pauli_events`) in columns [k n, (k + 1) n) of
    kinds, and a noiseless walk's kinds have no columns.  While all rows are
    product states, yields (slice(None), prod, None, order, None) once:
    prod[:, q, :] holds each row's qubit-q amplitudes.  Once they are not,
    yields (rows, None, tensor, order, run) per tile of rows: row rows[i]
    holds state run[i] of tensor, whose axis p + 1 holds qubit order[p]."""
    # Rows stay product states until the first entangling step, so gates and
    # noise cost O(batch n) there instead of O(batch 2^n); the first 2-qubit
    # gate or oracle call densifies, one cache-sized tile of rows at a time.
    batch, col = len(kinds), 0
    prod = np.tile(np.array([1, 0], dtype=np.complex128), (batch, n, 1))
    for i, op in enumerate(ops):
        if op is None:
            if kinds.shape[1]:
                _pauli_noise(lambda q: prod[:, q, None, :, None], n, kinds[:, col : col + n])
                col += n
        elif not _entangles(op):
            for g in op.gates:
                q = g.targets[0]
                prod[:, q, :] = prod[:, q, :] @ g.matrix.T
        else:
            # sorted by noise history, the rows that share a history so far
            # are contiguous and hold bit-identical states
            walk = kinds[:, : ops.count(None) * n]
            perm = _history_order(walk)
            r = max(1, _TILE_AMPLITUDES >> n)
            for s in range(0, batch, r):
                rows = perm[s : s + r]
                yield rows, None, *_walk_tile(ops[i:], oracle_bindings, n, walk[rows], col, prod[rows])
            return
    yield slice(None), prod, None, list(range(n)), None


def _entangles(op) -> bool:
    """Whether a schedule op ends a walk's product phase: an oracle call or a 2-qubit gate layer."""
    return op is not None and not (isinstance(op, GateLayer) and all(len(g.targets) == 1 for g in op.gates))


def _history_order(kinds: np.ndarray) -> np.ndarray:
    """Row indices sorted stably by their kinds, column 0 first, so the rows
    of each common history prefix are contiguous.  The 2-bit kinds are packed
    32 to a uint64 word, a block of rows at a time, for one `np.lexsort`."""
    batch, cols = kinds.shape
    if not cols:
        return np.arange(batch)
    words = np.empty((-(-cols // 32), batch), dtype=np.uint64)
    shifts = (62 - 2 * (np.arange(cols) % 32)).astype(np.uint64)
    for s in range(0, batch, _EVENT_ROWS):
        codes = kinds[s : s + _EVENT_ROWS].astype(np.uint64) << shifts
        for w, word in enumerate(words):
            word[s : s + _EVENT_ROWS] = codes[:, 32 * w : 32 * w + 32].sum(axis=1)
    return np.lexsort(words[::-1])  # lexsort's last key is its primary one


def _runs(kinds: np.ndarray) -> np.ndarray:
    """True on row 0 of sorted kinds and on each row unequal to the one before."""
    head = np.ones(len(kinds), dtype=bool)
    head[1:] = (kinds[1:] != kinds[:-1]).any(axis=1)
    return head


def _walk_tile(ops, oracle_bindings, n: int, kinds: np.ndarray, col: int, prod: np.ndarray):
    """The dense phase of a tile of rows sorted by noise history
    (`_history_order`), from the op that densifies on, with one state per run
    of rows of equal history: kinds columns [0, col) are behind and prod holds
    the rows' product states.  Returns (tensor, order, run): row i holds state
    run[i].  The block loop runs in the frame that owns the tensor, so each
    block's input is freed."""
    head = _runs(kinds[:, :col])  # the first row of each run
    tensor, order = _densify(prod[head]), list(range(n))
    for op in ops:
        if op is None:
            if kinds.shape[1]:
                split = head | _runs(kinds[:, col : col + n])
                if np.count_nonzero(split) > len(tensor):  # each new run starts from its parent's state
                    tensor = tensor[np.cumsum(head)[split] - 1]
                head, paulis, col = split, kinds[split, col : col + n], col + n
                # tensor is C-contiguous here, so each reshape is a view
                _pauli_noise(lambda q: tensor.reshape(len(tensor), 1 << order.index(q), 2, -1), n, paulis)
        elif isinstance(op, GateLayer):
            for block in op._blocks:
                tensor, order = _block_on_batch(tensor, block, order)
        else:
            tensor = tensor.transpose(0, *(1 + np.argsort(order)))
            binding = _resolve_binding(oracle_bindings, op)
            # one query per row: the binding acts on every row, one per run is kept
            out = binding.apply_statevector(tensor[np.cumsum(head) - 1], op.wires, n)
            tensor, order = np.ascontiguousarray(out[head]), list(range(n))
    return tensor, order, np.cumsum(head) - 1


def _chunk_draws(
    circuit: NoisyCircuit, seed: int, chunk_index: int, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """The draws of rows [start, stop) of one chunk: Pauli kinds and measurement draws.

    All randomness of a chunk is one flat row-major draw, so a row consumes
    the same stream values whichever rows are drawn with it: the stream
    is advanced straight to row `start` (PCG64 spends one step per double).
    Column 0 of a row's draws is its measurement draw; the rest become its
    Pauli kinds, taken a block of rows at a time so the pass stays in cache.
    """
    lam, batch = circuit.noise.value, stop - start
    rng = rng_for(seed, circuit_fingerprint(circuit), _CHUNK_STREAM_TAG, chunk_index)
    width = circuit.noise_layer_count() * circuit.n_qubits + 1 if lam > 0.0 else 1
    rng.bit_generator.advance(start * width)
    kinds, u0 = np.empty((batch, width - 1), dtype=np.uint8), np.empty(batch)
    for s in range(0, batch, _EVENT_ROWS):
        u = rng.random((min(_EVENT_ROWS, batch - s), width))
        u0[s : s + len(u)] = u[:, 0]
        if lam > 0.0:
            kinds[s : s + len(u)] = _pauli_events(lam, u[:, 1:])
    return kinds, u0


def _walk_draws(circuit: NoisyCircuit, oracle_bindings, kinds: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Simulate one row per draw (`_chunk_draws`); returns outcome integers.
    A row's outcome depends on its own draws alone, whichever rows share a walk.

    Measurement commutes with monomial ops, so rows are measured where the
    monomial tail starts and the outcomes pushed through the tail; its noise
    flips a bit on X or Y.
    """
    n = circuit.n_qubits
    schedule = circuit.schedule()
    cut, tail = _monomial_tail(schedule, oracle_bindings, n)
    outcomes = np.empty(len(u0), dtype=np.int64)
    for rows, prod, tensor, order, run in _walk_rows(schedule[:cut], oracle_bindings, n, kinds):
        if prod is not None:
            outcomes[rows] = _draw_product(prod, u0)
            continue
        probs = (np.abs(tensor) ** 2).transpose(0, *(1 + np.argsort(order))).reshape(len(tensor), -1)
        probs /= probs.sum(axis=1, keepdims=True)
        cum, draw = np.cumsum(probs, axis=1), u0[rows]
        # a CDF never decreases, so a binary search of row i's CDF counts its
        # entries <= draw[i], capped at 2^n - 1
        pos = np.zeros(len(run), dtype=np.int64)
        for b in range(n - 1, -1, -1):
            pos = np.where(cum[run, pos + (1 << b) - 1] <= draw, pos + (1 << b), pos)
        outcomes[rows] = pos
    col = schedule[:cut].count(None) * n
    bit_values = 1 << np.arange(n - 1, -1, -1)
    for op in tail:
        if op is not None:
            outcomes = op(outcomes)
        elif kinds.shape[1]:
            outcomes = outcomes ^ ((kinds[:, col : col + n] < 2) @ bit_values)
            col += n
    return outcomes


def _sample_chunk(circuit: NoisyCircuit, oracle_bindings, seed: int, chunk_index: int, start: int, stop: int):
    """Simulate rows [start, stop) of one chunk; returns outcome integers."""
    return _walk_draws(circuit, oracle_bindings, *_chunk_draws(circuit, seed, chunk_index, start, stop))


def sample_outcomes(
    circuit: NoisyCircuit,
    oracle_bindings=None,
    seed: int = 0,
    shots: int = 1,
    threads: int = 1,
) -> dict[str, int]:
    """Draw many trajectory outcomes; returns counts per outcome string.

    Trajectories are drawn in fixed-size chunks with one RNG stream per
    chunk, so counts depend only on (circuit, seed, shots), not on threads.
    Consecutive whole chunks share walks of at least 4,096 rows, but a walk
    takes at most a thread's share of the chunks.  Threads take walks that
    reach the dense phase; walks of product states are too short to gain from
    a thread of their own and run in the calling thread.
    """
    n = circuit.n_qubits
    chunk = _chunk_rows(n)
    if shots < 1 or threads < 1:
        raise UsageError(f"shots and threads must be positive, got {shots} and {threads}")
    chunks = -(-shots // chunk)
    per_walk = min(-(-_EVENT_ROWS // chunk), -(-chunks // threads))

    def run(first: int) -> np.ndarray:
        last = min(first + per_walk, chunks)
        draws = [_chunk_draws(circuit, seed, ci, 0, min(chunk, shots - ci * chunk)) for ci in range(first, last)]
        # one chunk's draws are walked uncopied: at n <= 9 every walk holds one
        kinds, u0 = draws[0] if len(draws) == 1 else map(np.concatenate, zip(*draws))
        return _walk_draws(circuit, oracle_bindings, kinds, u0)

    walks = range(0, chunks, per_walk)
    schedule = circuit.schedule()
    dense = threads > 1 and any(map(_entangles, schedule[: _monomial_tail(schedule, oracle_bindings, n)[0]]))
    if dense and len(walks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, walks))
    else:
        parts = [run(first) for first in walks]
    return _counts(np.concatenate(parts), n)


def _counts(outcomes: np.ndarray, n: int) -> dict[str, int]:
    """Counts of integer outcomes as n-bit strings, in increasing outcome order."""
    values, reps = np.unique(outcomes, return_counts=True)
    return dict(zip(ints_to_bits(values, n), reps.tolist()))


def sample_stream(circuit: NoisyCircuit, oracle_bindings=None, seed: int = 0):
    """Yield trajectory outcome strings one at a time, lazily and forever.

    The first M yields are exactly the outcomes sample_outcomes(..., shots=M)
    aggregates, for every M: each chunk is simulated once, in row ranges of
    geometrically growing size, from the batch sampler's stream positions.
    """
    n = circuit.n_qubits
    chunk = _chunk_rows(n)
    for ci in itertools.count():
        start = 0
        while start < chunk:
            stop = min(chunk, max(64, 2 * start))
            yield from ints_to_bits(_sample_chunk(circuit, oracle_bindings, seed, ci, start, stop), n)
            start = stop


def sample_trajectory(
    circuit: NoisyCircuit, oracle_bindings=None, seed: int = 0, index: int = 0
) -> str:
    """Draw one outcome string: the `index`-th outcome of sample_stream(seed).

    Only that trajectory is simulated.  Distributed exactly as the
    density-matrix output distribution: at every noise point each qubit
    independently suffers a uniform Pauli error with probability 3 lam / 4.
    """
    n = circuit.n_qubits
    ci, row = divmod(int(index), _chunk_rows(n))
    vals = _sample_chunk(circuit, oracle_bindings, seed, ci, row, row + 1)
    return int_to_bits(int(vals[0]), n)


# ---------------------------------------------------------------------------
# random circuits (test and experiment fodder)
# ---------------------------------------------------------------------------


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_layer(n: int, rng: np.random.Generator, p_two: float = 0.5) -> GateLayer:
    """Random depth-1 layer: pair up shuffled qubits, Haar gate per slot."""
    order = list(rng.permutation(n))
    gates = []
    while order:
        if len(order) >= 2 and rng.random() < p_two:
            a, b = order.pop(), order.pop()
            gates.append(Gate(haar_unitary(4, rng), (int(a), int(b))))
        else:
            a = order.pop()
            gates.append(Gate(haar_unitary(2, rng), (int(a),)))
    return GateLayer(tuple(gates))


def random_circuit(
    n: int, depth: int, lam: "NoiseRate | float", rng: np.random.Generator, p_two: float = 0.5
) -> NoisyCircuit:
    steps = tuple(random_layer(n, rng, p_two) for _ in range(depth))
    return NoisyCircuit(n, steps, lam)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _matrix_to_json(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def circuit_to_json(circuit: NoisyCircuit) -> str:
    steps = []
    for step in circuit.steps:
        if isinstance(step, GateLayer):
            gates = []
            for g in step.gates:
                if g.name in _NAMED_GATES:
                    gates.append({"name": g.name, "targets": list(g.targets)})
                else:
                    gates.append({"matrix": _matrix_to_json(g.matrix), "targets": list(g.targets)})
            steps.append({"type": "layer", "gates": gates})
        else:
            steps.append({"type": "oracle", "id": step.oracle_id, "wires": list(step.wires)})
    doc = {"n_qubits": circuit.n_qubits, "lambda": circuit.noise.value, "steps": steps}
    return json.dumps(doc, indent=2)


def circuit_from_json(text: str) -> NoisyCircuit:
    try:
        doc = json.loads(text)
        lam = doc["lambda"]
        if isinstance(lam, bool) or not isinstance(lam, (int, float)):
            raise UsageError(f"lambda must be a number, got {lam!r}")
        steps = tuple(_step_from_json(raw) for raw in doc["steps"])
        return NoisyCircuit(_json_int(doc["n_qubits"], "n_qubits"), steps, lam)
    except KeyError as exc:
        raise UsageError(f"circuit JSON missing field: {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid circuit JSON: {exc}") from exc


def _json_int(value, what: str) -> int:
    """A JSON integer: a boolean, a fractional or an infinite number is none."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not float(value).is_integer():
        raise UsageError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _step_from_json(raw: dict) -> CircuitStep:
    kind = raw.get("type")
    if kind == "oracle":
        return OracleCall(raw["id"], tuple(_json_int(w, "oracle wire") for w in raw["wires"]))
    if kind != "layer":
        raise UsageError(f"unknown step type {kind!r}")
    gates = []
    for g in raw["gates"]:
        targets = tuple(_json_int(t, "gate target") for t in g["targets"])
        if "name" not in g:
            gates.append(Gate(_matrix_from_json(g["matrix"]), targets))
        elif g["name"] in _NAMED_GATES:
            gates.append(Gate(_NAMED_GATES[g["name"]], targets, g["name"]))
        else:
            raise UsageError(f"unknown gate name {g['name']!r}")
    return GateLayer(tuple(gates))
