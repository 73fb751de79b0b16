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
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, UsageError
from .seeding import rng_for

DENSITY_QUBIT_CAP = 10
STATEVECTOR_QUBIT_CAP = 22
UNITARY_ATOL = 1e-12
STATE_ATOL = 1e-9

# chunk size for batched sampling, in amplitudes; chosen so one chunk's
# state buffer stays ~32 MB. The chunk layout depends only on (n, shots),
# never on thread count, so results are scheduling-independent.
_CHUNK_AMPLITUDES = 2**21
_CHUNK_STREAM_TAG = 0x6368756E

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

    @property
    def n_steps(self) -> int:
        return len(self.steps)

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


def _bitstring(index: int, n: int) -> str:
    return format(index, f"0{n}b")


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
        return cls(n_qubits, amps)

    @classmethod
    def basis(cls, n_qubits: int, bits: str) -> "PureState":
        amps = np.zeros(2**n_qubits, dtype=np.complex128)
        amps[int(bits, 2)] = 1.0
        return cls(n_qubits, amps)

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n_qubits)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """n-qubit density operator; positivity checked on construction."""

    n_qubits: int
    entries: np.ndarray
    check_psd: bool = field(default=True, repr=False, compare=False)

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
        if self.check_psd:
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -STATE_ATOL:
                raise UsageError(f"matrix has eigenvalue {lo:.3e} < -{STATE_ATOL}")
        object.__setattr__(self, "entries", m)

    @classmethod
    def zero(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[0, 0] = 1.0
        return cls(n_qubits, m, check_psd=False)

    @classmethod
    def maximally_mixed(cls, n_qubits: int) -> "DensityMatrix":
        dim = 2**n_qubits
        return cls(n_qubits, np.eye(dim, dtype=np.complex128) / dim, check_psd=False)

    def tensor(self) -> np.ndarray:
        return self.entries.reshape((2,) * (2 * self.n_qubits))

    def outcome_distribution(self) -> "OutcomeDistribution":
        return OutcomeDistribution.from_array(self.n_qubits, np.diag(self.entries).real)


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
        return cls(n_bits, {_bitstring(i, n_bits): float(p) for i, p in enumerate(probs) if p > 1e-14})

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


def _apply_unitary_tensor(tensor: np.ndarray, u: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract u into the given 2-dimensional axes of tensor.

    The target axes are moved to the front, so the contraction is one matmul.
    """
    front = tuple(range(len(axes)))
    moved = np.moveaxis(tensor, axes, front)
    out = (u @ moved.reshape(len(u), -1)).reshape(moved.shape)
    return np.moveaxis(out, front, axes)


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


def _layer_on_pure(tensor: np.ndarray, lay: GateLayer, axis_offset: int = 0) -> np.ndarray:
    for g in lay.gates:
        tensor = _apply_unitary_tensor(
            tensor, g.matrix, tuple(t + axis_offset for t in g.targets)
        )
    return tensor


def _layer_on_density(tensor: np.ndarray, lay: GateLayer, n: int) -> np.ndarray:
    # row axes 0..n-1, column axes n..2n-1
    for g in lay.gates:
        tensor = _apply_unitary_tensor(tensor, g.matrix, g.targets)
        tensor = _apply_unitary_tensor(
            tensor, g.matrix.conj(), tuple(t + n for t in g.targets)
        )
    return tensor


def _depolarize_density_tensor(tensor: np.ndarray, n: int, lam: float) -> np.ndarray:
    if lam == 0.0:
        return tensor
    half_eye = _I2 / 2.0
    for q in range(n):
        traced = np.trace(tensor, axis1=q, axis2=n + q)
        mixed = np.moveaxis(np.multiply.outer(half_eye, traced), (0, 1), (q, n + q))
        tensor = (1.0 - lam) * tensor + lam * mixed
    return tensor


def _pauli_events(lam: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map uniform draws to (hit, choice): hit w.p. 3 lam / 4, uniform X/Y/Z.

    This mixture reproduces D_lam exactly: (1-lam) rho + lam I/2 equals
    (1-3 lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z).
    """
    hit = u < 0.75 * lam
    # 4 u / lam, not u / (lam / 4): a quarter of a subnormal rate underflows
    # to 0.  Clamping u at 3 lam / 4 keeps the quotient finite off the hits.
    choice = np.minimum((4.0 * np.minimum(u, 0.75 * lam) / lam).astype(np.int64), 2)
    return hit, choice


_Y_PHASES = np.array([[-1j], [1j]])


def _pauli_noise(qubit_view, n: int, lam: float, u: np.ndarray) -> None:
    """Noise layer on a batch of trajectories (lam > 0).  Mutates in place.

    `qubit_view(q)` is a writable (batch, pre, 2, post) view of the batch
    with qubit q on axis 2.  `u` holds one uniform draw per (trajectory,
    qubit): values below 3 lam / 4 trigger an error, and the sub-interval
    picks X, Y or Z uniformly.  Taking pre-drawn randomness keeps each
    trajectory's stream position independent of the batch size.  Paulis
    are applied as slice swaps and sign flips on the hit rows only.
    """
    hit, choice = _pauli_events(lam, u)
    kind = np.where(hit, choice, 3)
    for q in range(n):
        v = qubit_view(q)
        x, y, z = (np.nonzero(kind[:, q] == c)[0] for c in range(3))
        v[x] = v[x][:, :, ::-1]  # X: swap the qubit slices
        v[y] = v[y][:, :, ::-1] * _Y_PHASES  # Y: swap with -i, +i phases
        v[z, :, 1] *= -1.0  # Z: negate the |1> slice


# ---------------------------------------------------------------------------
# oracle binding protocol
# ---------------------------------------------------------------------------


class OracleBinding:
    """Interface oracles implement to act inside circuits.

    Tensors may carry a leading batch axis (statevector case); `wires` are
    circuit qubit indices in the oracle's register order.
    """

    n_wires: int

    def apply_statevector(self, tensor: np.ndarray, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
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
        out = _layer_on_pure(state.tensor(), lay)
        return PureState(n, out.reshape(-1))
    if isinstance(state, DensityMatrix):
        out = _layer_on_density(state.tensor(), lay, n)
        return DensityMatrix(n, out.reshape(2**n, 2**n), check_psd=False)
    raise UsageError(f"unsupported state type {type(state).__name__}")


def depolarize_all(rho: DensityMatrix, lam: "NoiseRate | float") -> DensityMatrix:
    """Apply D_lam independently to every qubit."""
    lam = _as_noise_rate(lam).value
    out = _depolarize_density_tensor(rho.tensor(), rho.n_qubits, lam)
    return DensityMatrix(rho.n_qubits, out.reshape(2**rho.n_qubits, 2**rho.n_qubits), check_psd=False)


def _walk_density(circuit: NoisyCircuit, oracle_bindings=None):
    """Yield (op, density tensor after op) for each op of circuit.schedule()."""
    n = circuit.n_qubits
    if n > DENSITY_QUBIT_CAP:
        raise CapacityError(f"density backend supports n <= {DENSITY_QUBIT_CAP}, got {n}")
    lam = circuit.noise.value
    rho = DensityMatrix.zero(n).tensor()
    for op in circuit.schedule():
        if op is None:
            rho = _depolarize_density_tensor(rho, n, lam)
        elif isinstance(op, GateLayer):
            rho = _layer_on_density(rho, op, n)
        else:
            rho = _resolve_binding(oracle_bindings, op).apply_density(rho, op.wires, n)
        yield op, rho


def evolve_density(circuit: NoisyCircuit, oracle_bindings=None) -> DensityMatrix:
    """Exact final pre-measurement state (all noise layers applied)."""
    n = circuit.n_qubits
    for _, rho in _walk_density(circuit, oracle_bindings):
        pass
    return DensityMatrix(n, rho.reshape(2**n, 2**n), check_psd=False)


def exact_output_distribution(circuit: NoisyCircuit, oracle_bindings=None) -> OutcomeDistribution:
    """Exact outcome probabilities via the density-matrix backend."""
    rho = evolve_density(circuit, oracle_bindings)
    return rho.outcome_distribution()


def evolve_statevector(circuit: NoisyCircuit, oracle_bindings=None) -> PureState:
    """Exact final pure state of a noiseless circuit."""
    n = circuit.n_qubits
    if circuit.noise.value != 0.0:
        raise UsageError("statevector evolution requires a noiseless circuit")
    if n > STATEVECTOR_QUBIT_CAP:
        raise CapacityError(
            f"statevector backend supports n <= {STATEVECTOR_QUBIT_CAP}, got {n}"
        )
    tensor = np.zeros((2,) * n, dtype=np.complex128)
    tensor.reshape(-1)[0] = 1.0
    for step in circuit.steps:
        if isinstance(step, GateLayer):
            tensor = _layer_on_pure(tensor, step)
        else:
            binding = _resolve_binding(oracle_bindings, step)
            tensor = binding.apply_statevector(tensor, step.wires, n)
    return PureState(n, tensor.reshape(-1))


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


def _sample_chunk(
    circuit: NoisyCircuit,
    oracle_bindings,
    seed: int,
    stream_key: int,
    chunk_index: int,
    start: int,
    stop: int,
) -> np.ndarray:
    """Simulate rows [start, stop) of one chunk; returns outcome integers.

    All randomness of a chunk is one flat row-major draw, so a row consumes
    the same stream values whichever rows are simulated with it: the stream
    is advanced straight to row `start` (PCG64 spends one step per double).
    """
    n = circuit.n_qubits
    lam = circuit.noise.value
    schedule = circuit.schedule()
    batch = stop - start
    rng = rng_for(seed, stream_key, _CHUNK_STREAM_TAG, chunk_index)
    width = schedule.count(None) * n + 1 if lam > 0.0 else 1
    rng.bit_generator.advance(start * width)
    u = rng.random((batch, width))  # column 0 is the measurement draw
    col = 1

    # Trajectories start in |0..0> and stay product states until the first
    # entangling step, so gates and noise cost O(batch n) there instead of
    # O(batch 2^n).  prod[:, q, :] holds each trajectory's qubit-q
    # amplitudes; the first 2-qubit gate or oracle call densifies.
    prod: np.ndarray | None = np.zeros((batch, n, 2), dtype=np.complex128)
    prod[:, :, 0] = 1.0
    tensor: np.ndarray | None = None

    def densify() -> None:
        nonlocal prod, tensor
        t = prod[:, 0, :]
        for q in range(1, n):
            t = (t[:, :, None] * prod[:, q, None, :]).reshape(batch, -1)
        tensor = np.ascontiguousarray(t.reshape((batch,) + (2,) * n))
        prod = None

    for op in schedule:
        if op is None:
            if lam == 0.0:
                continue
            block = u[:, col : col + n]
            col += n
            if prod is not None:
                _pauli_noise(lambda q: prod[:, q, None, :, None], n, lam, block)
            else:
                tensor = np.ascontiguousarray(tensor)
                _pauli_noise(lambda q: tensor.reshape(batch, 1 << q, 2, -1), n, lam, block)
        elif prod is not None and isinstance(op, GateLayer) and all(len(g.targets) == 1 for g in op.gates):
            for g in op.gates:
                q = g.targets[0]
                prod[:, q, :] = prod[:, q, :] @ g.matrix.T
        else:
            if prod is not None:
                densify()
            if isinstance(op, GateLayer):
                # rebinding per gate frees each gate's input; a layer call would hold the layer's input too
                for g in op.gates:
                    tensor = _apply_unitary_tensor(tensor, g.matrix, tuple(t + 1 for t in g.targets))
            else:
                tensor = _resolve_binding(oracle_bindings, op).apply_statevector(tensor, op.wires, n)
    if prod is not None:
        densify()
    probs = np.abs(tensor.reshape(batch, -1)) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    outcomes = (cum <= u[:, :1]).sum(axis=1)
    return np.minimum(outcomes, 2**n - 1)


def sample_outcomes(
    circuit: NoisyCircuit,
    oracle_bindings=None,
    seed: int = 0,
    shots: int = 1,
    threads: int = 1,
) -> dict[str, int]:
    """Draw many trajectory outcomes; returns counts per outcome string.

    Trajectories are simulated in fixed-size chunks with one RNG stream per
    chunk, so counts depend only on (circuit, seed, shots), not on threads.
    """
    n = circuit.n_qubits
    chunk = _chunk_rows(n)
    if shots < 1:
        raise UsageError("shots must be positive")
    stream_key = circuit_fingerprint(circuit)
    sizes = [min(chunk, shots - start) for start in range(0, shots, chunk)]

    def run(ci: int) -> np.ndarray:
        return _sample_chunk(circuit, oracle_bindings, seed, stream_key, ci, 0, sizes[ci])

    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(run, range(len(sizes))))
    else:
        parts = [run(ci) for ci in range(len(sizes))]
    counts: dict[str, int] = {}
    values, reps = np.unique(np.concatenate(parts), return_counts=True)
    for v, r in zip(values, reps):
        counts[_bitstring(int(v), n)] = int(r)
    return counts


def sample_stream(circuit: NoisyCircuit, oracle_bindings=None, seed: int = 0):
    """Yield trajectory outcome strings one at a time, lazily and forever.

    The first M yields are exactly the outcomes sample_outcomes(..., shots=M)
    aggregates, for every M: each chunk is simulated once, in row ranges of
    geometrically growing size, from the batch sampler's stream positions.
    """
    n = circuit.n_qubits
    chunk = _chunk_rows(n)
    stream_key = circuit_fingerprint(circuit)
    for ci in itertools.count():
        start = 0
        while start < chunk:
            stop = min(chunk, max(64, 2 * start))
            for v in _sample_chunk(circuit, oracle_bindings, seed, stream_key, ci, start, stop):
                yield _bitstring(int(v), n)
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
    vals = _sample_chunk(circuit, oracle_bindings, seed, circuit_fingerprint(circuit), ci, row, row + 1)
    return _bitstring(int(vals[0]), n)


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
        return NoisyCircuit(doc["n_qubits"], tuple(_step_from_json(raw) for raw in doc["steps"]), doc["lambda"])
    except KeyError as exc:
        raise UsageError(f"circuit JSON missing field: {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"invalid circuit JSON: {exc}") from exc


def _step_from_json(raw: dict) -> CircuitStep:
    kind = raw.get("type")
    if kind == "oracle":
        return OracleCall(raw["id"], tuple(raw["wires"]))
    if kind != "layer":
        raise UsageError(f"unknown step type {kind!r}")
    gates = []
    for g in raw["gates"]:
        targets = tuple(g["targets"])
        if "name" not in g:
            gates.append(Gate(_matrix_from_json(g["matrix"]), targets))
        elif g["name"] in _NAMED_GATES:
            gates.append(Gate(_NAMED_GATES[g["name"]], targets, g["name"]))
        else:
            raise UsageError(f"unknown gate name {g['name']!r}")
    return GateLayer(tuple(gates))
