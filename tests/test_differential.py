"""The backends against references on generated circuits.

Circuits mix Haar and named 1- and 2-qubit gates with oracle calls bound to
a lifted BV function, a lifted random permutation, a Grover phase and (for
the exact backend) a state oracle, at noise rates that include 0, the
smallest subnormal and 1.  The exact backend is held against a plain
dense-matrix reference, and at lam = 0 the statevector backend's law
against the exact one; the trajectory backend's batches, which simulate
each distinct noise history once, against its single-row draws.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab import qsim
from nisqlab.oracles import (
    ClassicalOracle,
    GroverOracle,
    StateOracle,
    StateOracleBinding,
    lift_to_unitary,
    make_bv,
    make_grover_phase,
)
from nisqlab.qsim import NoisyCircuit, OracleCall, circuit_from_json, circuit_to_json

from conftest import dense_density_reference

LAMBDAS = (0.0, 5e-324, 0.05, 0.3, 1.0)
ONE_QUBIT = ("haar1", "X", "Y", "Z", "phase")
TWO_QUBIT = ("haar2", "CNOT", "CZ")


def _gate(kind: str, targets: tuple[int, ...], rng: np.random.Generator) -> qsim.Gate:
    if kind.startswith("haar"):
        return qsim.Gate(qsim.haar_unitary(2 ** len(targets), rng), targets)
    if kind == "phase":
        return qsim.phase(targets[0], float(rng.uniform(0, 2 * np.pi)))
    return getattr(qsim, kind)(*targets)


@st.composite
def _layer(draw, n: int, rng: np.random.Generator) -> qsim.GateLayer:
    free, gates = list(draw(st.permutations(range(n)))), []
    while free:
        kind = draw(st.sampled_from(ONE_QUBIT + TWO_QUBIT + ("idle",)))
        if kind in TWO_QUBIT and len(free) < 2:
            kind = "haar1"
        width = 2 if kind in TWO_QUBIT else 1
        targets, free = tuple(free[:width]), free[width:]
        if kind != "idle":
            gates.append(_gate(kind, targets, rng))
    return qsim.GateLayer(tuple(gates))


@st.composite
def _oracle(draw, n: int, rng: np.random.Generator, states: bool):
    """(binding, wires) for one oracle kind that fits on n qubits; a state
    oracle only if `states`."""
    kinds = ["grover"] + ["state"] * states + (["bv", "permutation"] if n >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    wires = draw(st.permutations(range(n)))
    if kind == "bv":
        m = draw(st.integers(1, n - 1))
        secret = "".join(str(b) for b in rng.integers(0, 2, size=m))
        return lift_to_unitary(make_bv(secret)), tuple(wires[: m + 1])
    if kind == "permutation":
        m = draw(st.integers(1, n // 2))
        table = rng.permutation(2**m)
        oracle = ClassicalOracle(m, m, lambda x: int(table[x]), "permutation", fn_vec=lambda xs: table[xs])
        return lift_to_unitary(oracle), tuple(wires[: 2 * m])
    k = draw(st.integers(1, n))
    if kind == "grover":
        size = draw(st.integers(2, 2**k))
        binding = make_grover_phase(GroverOracle(size, draw(st.integers(0, size - 1))))
        return binding, tuple(wires[: binding.n_wires])
    pauli = "".join(draw(st.sampled_from("IXYZ")) for _ in range(k))
    # (I + P) / 2^k has trace 2 when P is the identity string: not a state
    coeff = draw(st.integers(0, 1)) if set(pauli) != {"I"} else 0
    return StateOracleBinding(StateOracle(k, pauli, coeff)), tuple(wires[:k])


@st.composite
def circuits(draw, states: bool):
    """(circuit, bindings, calls per oracle id) on 1 to 7 qubits; state
    oracles only if `states` (the trajectory backend cannot host them)."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, bindings, calls = [], {}, {}
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            steps.append(draw(_layer(n, rng)))
            continue
        oracle_id = draw(st.sampled_from([f"O{j}" for j in range(len(bindings) + 1)]))
        if oracle_id not in bindings:
            bindings[oracle_id], wires = draw(_oracle(n, rng, states))
            calls[oracle_id] = (wires, 0)
        wires, count = calls[oracle_id]
        calls[oracle_id] = (wires, count + 1)
        steps.append(OracleCall(oracle_id, wires))
    circuit = NoisyCircuit(n, steps, draw(st.sampled_from(LAMBDAS)))
    return circuit, bindings, {k: count for k, (_, count) in calls.items()}


def _queries(bindings, run) -> tuple[dict, object]:
    """The query count each binding's oracle gained while `run()` ran, and its result."""
    before = {k: b.oracle.query_counter.value for k, b in bindings.items()}
    out = run()
    return {k: b.oracle.query_counter.value - before[k] for k, b in bindings.items()}, out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(circuits(states=True))
def test_exact_backend_matches_dense_reference(case):
    circuit, bindings, calls = case
    ref_queries, ref = _queries(bindings, lambda: dense_density_reference(circuit, bindings))
    walk_queries, rho = _queries(bindings, lambda: qsim.evolve_density(circuit, bindings))
    read_queries, dist = _queries(bindings, lambda: qsim.exact_output_distribution(circuit, bindings))
    assert ref_queries == walk_queries == read_queries == calls
    np.testing.assert_allclose(rho.entries, ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dist.as_array(), np.diag(ref).real, rtol=0, atol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(circuits(states=False).map(lambda case: (NoisyCircuit(case[0].n_qubits, case[0].steps, 0.0), *case[1:])))
def test_noiseless_statevector_law_matches_exact_backend(case):
    circuit, bindings, calls = case
    state_queries, psi = _queries(bindings, lambda: qsim.evolve_statevector(circuit, bindings))
    exact_queries, dist = _queries(bindings, lambda: qsim.exact_output_distribution(circuit, bindings))
    assert state_queries == exact_queries == calls
    np.testing.assert_allclose(np.abs(psi.amplitudes) ** 2, dist.as_array(), rtol=0, atol=1e-12)


STREAM_PREFIX = 100
SHOTS = 300


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circuits(states=False), st.integers(0, 2**32 - 1))
def test_trajectory_batches_match_single_rows(case, seed):
    circuit, bindings, calls = case
    n = circuit.n_qubits

    def sample(circ, threads: int = 1) -> dict[str, int]:
        return qsim.sample_outcomes(circ, bindings, seed, SHOTS, threads)

    # a single-row walk shares nothing, so it is the per-row reference
    stream_queries, stream = _queries(
        bindings, lambda: list(itertools.islice(qsim.sample_stream(circuit, bindings, seed), STREAM_PREFIX))
    )
    assert stream == [qsim.sample_trajectory(circuit, bindings, seed, i) for i in range(STREAM_PREFIX)]
    assert dict(Counter(stream)) == qsim.sample_outcomes(circuit, bindings, seed, STREAM_PREFIX)
    assert stream_queries == {k: 128 * c for k, c in calls.items()}  # rows [0, 64) then [64, 128)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsim, "_CHUNK_AMPLITUDES", 128 << n)  # chunks of 128, 128 and 44 rows
        queries, counts = _queries(bindings, lambda: sample(circuit))  # one walk holds all three
        assert queries == {k: SHOTS * c for k, c in calls.items()}
        for floor in (256, 128):  # walks of chunks {0, 1} and {2}, then a walk per chunk, for the threads
            mp.setattr(qsim, "_EVENT_ROWS", floor)
            assert sample(circuit, threads=2) == counts
        back = circuit_from_json(circuit_to_json(circuit))
        assert qsim.circuit_fingerprint(back) == qsim.circuit_fingerprint(circuit)
        assert sample(back) == counts
        mp.setattr(qsim, "_TILE_AMPLITUDES", 3 << n)
        assert sample(circuit) == counts
