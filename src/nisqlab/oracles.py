"""Classical and quantum oracle constructions with circuit bindings.

Every oracle carries a thread-safe query counter that increments exactly
once per classical evaluation or unitary application (a batched trajectory
application counts once per trajectory).  Table construction and other
internal bookkeeping never touch the counter.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .bits import extract_field, spread_field
from .errors import CapacityError, UsageError
from .qsim import PAULI_MATRICES, OracleBinding, replace_register
from .seeding import rng_for

ORACLE_TABLE_CAP = 22  # max input bits for explicit truth tables
SIMON_TABLE_CAP = 12  # beyond this, the seeded-bijection construction
SIMON_WIDTH_CAP = 63  # the bijection draws and mixes int64 words


class QueryCounter:
    """Thread-safe query tally."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def increment(self, by: int = 1) -> None:
        with self._lock:
            self._count += by

    @property
    def value(self) -> int:
        return self._count


# ---------------------------------------------------------------------------
# classical oracles
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ClassicalOracle:
    """A total function {0,1}^n_in -> {0,1}^m_out over integer encodings."""

    n_in: int
    m_out: int
    fn: "callable"
    name: str = "oracle"
    fn_vec: "callable | None" = None
    query_counter: QueryCounter = field(default_factory=QueryCounter, repr=False)
    bv_secret: "str | None" = None  # s when make_bv built f(x) = <x, s> mod 2

    def __post_init__(self) -> None:
        if self.n_in < 1 or self.m_out < 1:
            raise UsageError("oracle arities must be positive")
        self._table: np.ndarray | None = None

    def _raw_eval(self, x: int) -> int:
        y = int(self.fn(int(x)))
        if not (0 <= y < 2**self.m_out):
            raise UsageError(f"oracle output {y} outside {self.m_out} bits")
        return y

    def evaluate(self, x: "int | str") -> int:
        """One counted classical query."""
        if isinstance(x, str):
            x = int(x, 2) if x else 0
        if not (0 <= x < 2**self.n_in):
            raise UsageError(f"input {x} outside {self.n_in} bits")
        self.query_counter.increment()
        return self._raw_eval(x)

    def table(self) -> np.ndarray:
        """Full truth table (uncounted; one unitary application is one query)."""
        if self._table is None:
            if self.n_in > ORACLE_TABLE_CAP:
                raise CapacityError(
                    f"truth table over {self.n_in} input bits exceeds cap {ORACLE_TABLE_CAP}"
                )
            xs = np.arange(2**self.n_in, dtype=np.int64)
            if self.fn_vec is not None:
                vals = np.asarray(self.fn_vec(xs), dtype=np.int64)
            else:
                vals = np.fromiter((self._raw_eval(int(x)) for x in xs), dtype=np.int64)
            if vals.min() < 0 or vals.max() >= 2**self.m_out:
                raise UsageError("oracle table value outside output range")
            self._table = vals
        return self._table


class PermutationBinding(OracleBinding):
    """A signed basis permutation of the oracle's own register, lifted to a circuit.

    Subclasses give `_own_perm()`: register index r -> image index, and may
    give `_own_signs()`: the +-1 phase of each r (None: all +1).  On the
    circuit, basis index idx with register value reg maps to
    idx ^ spread(reg ^ own[reg]), so the other qubits are untouched.  The
    permutation is its own inverse, as every XOR lifting is, so one table
    serves the gathers of the state backends and the basis images.
    """

    is_monomial = True

    def __init__(self, oracle, n_wires: int):
        self.oracle = oracle
        self.n_wires = n_wires
        self._tables: dict[tuple, tuple] = {}

    def _own_perm(self) -> np.ndarray:
        raise NotImplementedError

    def _own_signs(self) -> np.ndarray | None:
        return None

    def _lifted(self, wires: tuple[int, ...], n_qubits: int) -> tuple:
        """The circuit permutation, and the mask of output indices whose
        amplitude is negated (None when no sign is -1)."""
        key = (wires, n_qubits)
        if key not in self._tables:
            if len(wires) != self.n_wires:
                raise UsageError(f"oracle needs {self.n_wires} wires, got {len(wires)}")
            idx = np.arange(2**n_qubits, dtype=np.int64)
            reg = extract_field(idx, wires, n_qubits)
            perm = idx ^ spread_field(reg ^ self._own_perm()[reg], wires, n_qubits)
            signs = self._own_signs()
            self._tables[key] = (perm, None if signs is None else (signs[reg] < 0)[perm])
        return self._tables[key]

    def _perm(self, wires: tuple[int, ...], n_qubits: int) -> np.ndarray:
        return self._lifted(wires, n_qubits)[0]

    def apply_statevector(self, tensor: np.ndarray, wires, n_qubits: int) -> np.ndarray:
        perm, neg = self._lifted(tuple(wires), n_qubits)
        batched = tensor.ndim == n_qubits + 1
        self.oracle.query_counter.increment(tensor.shape[0] if batched else 1)
        flat = (tensor.reshape(-1, 2**n_qubits) if batched else tensor.reshape(1, -1))[:, perm]
        if neg is not None:
            flat[:, neg] *= -1.0
        return flat.reshape(tensor.shape)

    def apply_basis(self, outcomes: np.ndarray, wires, n_qubits: int) -> np.ndarray:
        perm = self._perm(tuple(wires), n_qubits)
        self.oracle.query_counter.increment(len(outcomes))
        return perm[outcomes]

    def apply_density(self, tensor: np.ndarray, wires, n_qubits: int) -> np.ndarray:
        perm, neg = self._lifted(tuple(wires), n_qubits)
        self.oracle.query_counter.increment()
        rho = tensor.reshape(2**n_qubits, 2**n_qubits)[perm][:, perm]
        if neg is not None:
            rho[neg, :] *= -1.0
            rho[:, neg] *= -1.0
        return rho.reshape(tensor.shape)


class XorOracleBinding(PermutationBinding):
    """U_O |x>|y> = |x>|y xor O(x)>: a basis permutation, self-inverse."""

    def __init__(self, oracle: ClassicalOracle):
        super().__init__(oracle, oracle.n_in + oracle.m_out)

    def _own_perm(self) -> np.ndarray:
        o = self.oracle
        r = np.arange(2**self.n_wires, dtype=np.int64)
        return r ^ o.table()[r >> o.m_out]


def lift_to_unitary(oracle: ClassicalOracle) -> XorOracleBinding:
    """Circuit-applicable form of the XOR lifting of a classical oracle."""
    return XorOracleBinding(oracle)


# ---------------------------------------------------------------------------
# oracle families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimonSpec:
    """Period-s instance family; s = 0^n selects the 1-to-1 case."""

    n: int
    s: str
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.s) != self.n or set(self.s) - {"0", "1"}:
            raise UsageError(f"secret must be an {self.n}-bit string")

    @property
    def s_int(self) -> int:
        return int(self.s, 2)


def _mix_rounds(rng: np.random.Generator, n: int):
    mask = 2**n - 1
    params = [
        (int(rng.integers(0, 2**n)) | 1, int(rng.integers(1, max(2, n))), int(rng.integers(0, 2**n)))
        for _ in range(4)
    ]

    def mix(x):
        # each round is a bijection on n bits: odd multiply, xorshift, add
        for a, sh, c in params:
            x = (x * a) & mask
            x = x ^ (x >> sh)
            x = (x + c) & mask
        return x

    return mix


def make_simon(spec: SimonSpec) -> ClassicalOracle:
    """f(x) = f(x xor s), injective on pair representatives.

    Small n uses an explicit shuffled table (exhaustively checkable); larger
    n composes seeded bijective mixing rounds so no 2^n table is stored.
    """
    n, s = spec.n, spec.s_int
    if n > SIMON_WIDTH_CAP:
        raise CapacityError(f"Simon width {n} exceeds cap {SIMON_WIDTH_CAP}")
    if n <= SIMON_TABLE_CAP:
        # pair {x, x ^ s} takes the image at its representative's rank
        images = rng_for(spec.seed, 0x51).permutation(2**n).astype(np.int64)
        x = np.arange(2**n, dtype=np.int64)
        table = images[np.unique(np.minimum(x, x ^ s), return_inverse=True)[1]]
        return ClassicalOracle(
            n, n, lambda x: int(table[x]), f"simon-{spec.s}", fn_vec=lambda xs: table[xs]
        )
    mix = _mix_rounds(rng_for(spec.seed, 0x52), n)

    def fn(x: int) -> int:
        return mix(min(x, x ^ s))

    def fn_vec(xs: np.ndarray) -> np.ndarray:
        return mix(np.minimum(xs, xs ^ s))

    return ClassicalOracle(n, n, fn, f"simon-{spec.s}", fn_vec=fn_vec)


def make_bv(s: str) -> ClassicalOracle:
    """f(x) = <x, s> mod 2."""
    n = len(s)
    if n < 1 or set(s) - {"0", "1"}:
        raise UsageError("secret must be a nonempty bitstring")
    s_int = int(s, 2)

    def fn(x: int) -> int:
        return (x & s_int).bit_count() & 1

    def fn_vec(xs: np.ndarray) -> np.ndarray:
        return np.bitwise_count(np.int64(xs) & s_int).astype(np.int64) & 1

    return ClassicalOracle(n, 1, fn, f"bv-{s}", fn_vec=fn_vec, bv_secret=s)


def make_lifted_simon(f: ClassicalOracle) -> ClassicalOracle:
    """f~: {0,1}^{2n} -> {0,1}^n agreeing with f on x || 0^n, else 0^n."""
    if f.n_in != f.m_out:
        raise UsageError("lifting needs n_in == m_out")
    n = f.n_in
    mask = 2**n - 1

    def fn(x: int) -> int:
        return f._raw_eval(x >> n) if (x & mask) == 0 else 0

    def fn_vec(xs: np.ndarray) -> np.ndarray:
        return np.where((xs & mask) == 0, f.table()[xs >> n], 0)

    return ClassicalOracle(2 * n, n, fn, f"lifted-{f.name}", fn_vec=fn_vec)


# ---------------------------------------------------------------------------
# Grover phase oracle
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GroverOracle:
    """Phase oracle over a search domain; marked = 0 is the identity oracle.

    The domain {0, ..., n_search - 1} maps straight onto basis states of
    ceil(log2 n_search) wires; non-power-of-two domains leave the upper
    basis states as never-marked padding.  Index 0 doubles as the "no mark"
    oracle, so markable elements are 1 .. n_search - 1.
    """

    n_search: int
    marked: int
    query_counter: QueryCounter = field(default_factory=QueryCounter, repr=False)

    def __post_init__(self) -> None:
        if self.n_search < 2:
            raise UsageError("search domain needs at least 2 elements")
        if not (0 <= self.marked < self.n_search):
            raise UsageError(
                f"marked index {self.marked} outside [0, {self.n_search})"
            )

    @property
    def n_wires(self) -> int:
        return max(1, math.ceil(math.log2(self.n_search)))


class GroverPhaseBinding(PermutationBinding):
    """Diagonal +-1 unitary: negates the marked basis state of the register."""

    def __init__(self, oracle: GroverOracle):
        super().__init__(oracle, oracle.n_wires)

    def _own_perm(self) -> np.ndarray:
        return np.arange(2**self.n_wires, dtype=np.int64)

    def _own_signs(self) -> np.ndarray | None:
        r = np.arange(2**self.n_wires)
        return np.where(r == self.oracle.marked, -1.0, 1.0) if self.oracle.marked else None


def make_grover_phase(oracle: GroverOracle) -> GroverPhaseBinding:
    return GroverPhaseBinding(oracle)


# ---------------------------------------------------------------------------
# state oracle
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class StateOracle:
    """Prepares rho = (I + coeff * P) / 2^n in the state register.

    coeff = 0 (or pauli None) is the maximally mixed state; coeff = 1 adds
    one Pauli-string correlation P.  Both are PSD with trace 1.
    """

    n: int
    pauli: str | None = None
    coeff: int = 0
    query_counter: QueryCounter = field(default_factory=QueryCounter, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise UsageError("state register needs at least 1 qubit")
        if self.coeff not in (0, 1):
            raise UsageError("coeff must be 0 or 1")
        if self.pauli is not None:
            if len(self.pauli) != self.n or set(self.pauli) - set("IXYZ"):
                raise UsageError(f"pauli must be an {self.n}-letter IXYZ string")

    def density(self) -> np.ndarray:
        dim = 2**self.n
        rho = np.eye(dim, dtype=np.complex128)
        if self.coeff and self.pauli is not None:
            rho = rho + pauli_string_matrix(self.pauli)
        return rho / dim


def pauli_string_matrix(pauli: str) -> np.ndarray:
    """The Kronecker product of the one-qubit Paulis an IXYZ string names."""
    out = np.array([[1.0]], dtype=np.complex128)
    for ch in pauli:
        if ch not in PAULI_MATRICES:
            raise UsageError(f"bad Pauli letter {ch!r}")
        out = np.kron(out, PAULI_MATRICES[ch])
    return out


class StateOracleBinding(OracleBinding):
    """Density-only binding: trajectories cannot host a state-replacement."""

    def __init__(self, oracle: StateOracle):
        self.oracle = oracle
        self.n_wires = oracle.n

    def apply_statevector(self, tensor, wires, n_qubits):
        raise UsageError("state oracles require the density backend")

    def apply_density(self, tensor: np.ndarray, wires, n_qubits: int) -> np.ndarray:
        self.oracle.query_counter.increment()
        return replace_register(tensor, n_qubits, tuple(wires), self.oracle.density())
