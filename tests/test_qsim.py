"""Core simulator: types, gate layers, noise channel, both backends."""

import functools
import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab import qsim
from nisqlab.errors import CapacityError, UsageError
from nisqlab.oracles import (
    ClassicalOracle,
    GroverOracle,
    StateOracle,
    StateOracleBinding,
    lift_to_unitary,
    make_bv,
    make_grover_phase,
)
from nisqlab.qsim import (
    CNOT,
    CZ,
    DensityMatrix,
    Gate,
    GateLayer,
    H,
    NoiseRate,
    NoisyCircuit,
    OracleCall,
    OutcomeDistribution,
    PureState,
    X,
    Y,
    Z,
    apply_gate_layer,
    circuit_from_json,
    circuit_to_json,
    depolarize_all,
    exact_output_distribution,
    layer,
    phase,
    sample_outcomes,
    sample_trajectory,
)
from nisqlab.seeding import rng_for

from conftest import counts_to_probs, tv_dicts

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def embedded(u: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """u on `targets` of n qubits as a 2^n x 2^n matrix: kron(u, I), axes permuted."""
    rest = [q for q in range(n) if q not in targets]
    order = list(targets) + rest  # the qubit on each tensor axis of kron(u, I)
    full = np.kron(u, np.eye(2 ** len(rest))).reshape((2,) * (2 * n))
    axes = [order.index(q) for q in range(n)]
    return full.transpose(axes + [n + a for a in axes]).reshape(2**n, 2**n)


def random_amplitudes(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestTypes:
    def test_noise_rate_bounds(self):
        NoiseRate(0.0)
        NoiseRate(1.0)
        NoiseRate(0.37)
        for bad in (-0.01, 1.01, float("nan")):
            with pytest.raises(UsageError):
                NoiseRate(bad)

    def test_gate_rejects_non_unitary(self):
        with pytest.raises(UsageError):
            Gate(np.array([[1, 0], [0, 0.999999]]), (0,))

    def test_gate_rejects_bad_arity(self):
        with pytest.raises(UsageError):
            Gate(np.eye(8), (0, 1, 2))
        with pytest.raises(UsageError):
            Gate(np.eye(4), (1, 1))
        with pytest.raises(UsageError):
            Gate(np.eye(4), (0,))

    def test_layer_rejects_overlap(self):
        with pytest.raises(UsageError, match="depth-1"):
            layer(CNOT(0, 1), X(1))

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(UsageError):
            NoisyCircuit(2, (layer(X(2)),), 0.0)
        with pytest.raises(UsageError):
            NoisyCircuit(2, (OracleCall("f", (0, 3)),), 0.0)

    def test_oracle_call_distinct_wires(self):
        with pytest.raises(UsageError):
            OracleCall("f", (0, 0))

    def test_pure_state_norm_check(self):
        with pytest.raises(UsageError):
            PureState(1, np.array([1.0, 1.0]))

    def test_density_matrix_checks(self):
        with pytest.raises(UsageError):
            DensityMatrix(1, np.array([[1.0, 0.5], [0.2, 0.0]]))
        with pytest.raises(UsageError):
            DensityMatrix(1, np.diag([0.7, 0.7]))
        with pytest.raises(UsageError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_outcome_distribution_checks(self):
        with pytest.raises(UsageError):
            OutcomeDistribution(1, {"0": 0.5, "1": 0.6})
        with pytest.raises(UsageError):
            OutcomeDistribution(1, {"0": 1.2, "1": -0.2})
        with pytest.raises(UsageError):
            OutcomeDistribution(2, {"0": 1.0})


class TestApplyGateLayer:
    def test_x_flips_msb(self):
        out = apply_gate_layer(PureState.zero(2), layer(X(0)))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 1, 0], atol=1e-12)

    def test_hadamard_plus_state(self):
        out = apply_gate_layer(PureState.zero(1), layer(H(0)))
        np.testing.assert_allclose(out.amplitudes, [1, 1] / np.sqrt(2), atol=1e-12)

    def test_cnot_bell_preparation(self):
        plus = apply_gate_layer(PureState.zero(2), layer(H(0)))
        bell = apply_gate_layer(plus, layer(CNOT(0, 1)))
        np.testing.assert_allclose(bell.amplitudes, [1, 0, 0, 1] / np.sqrt(2), atol=1e-12)

    def test_reversed_control_target(self):
        # CNOT(1, 0): qubit 1 controls, so |01> -> |11>
        out = apply_gate_layer(PureState.basis(2, "01"), layer(CNOT(1, 0)))
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_target_order_matches_swap_conjugation(self, rng):
        u = qsim.haar_unitary(4, rng)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(3, amps / np.linalg.norm(amps))
        direct = apply_gate_layer(psi, layer(Gate(u, (2, 1))))
        swap = layer(Gate(SWAP, (1, 2)))
        routed = apply_gate_layer(
            apply_gate_layer(apply_gate_layer(psi, swap), layer(Gate(u, (1, 2)))), swap
        )
        np.testing.assert_allclose(direct.amplitudes, routed.amplitudes, atol=1e-12)

    def test_density_matches_pure_conjugation(self, rng):
        lay = qsim.random_layer(3, rng)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(3, amps / np.linalg.norm(amps))
        via_pure = apply_gate_layer(psi, lay).to_density()
        via_density = apply_gate_layer(psi.to_density(), lay)
        np.testing.assert_allclose(via_density.entries, via_pure.entries, atol=1e-10)

    def test_out_of_range_target(self):
        with pytest.raises(UsageError):
            apply_gate_layer(PureState.zero(1), layer(X(1)))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_placement_matches_kron_reference(self, n, rng):
        placements = [(a,) for a in range(n)] + list(itertools.permutations(range(n), 2))
        layers = [layer(Gate(qsim.haar_unitary(2 ** len(t), rng), t)) for t in placements]
        for lay in layers + [qsim.random_layer(n, rng)]:
            full = functools.reduce(np.matmul, [embedded(g.matrix, g.targets, n) for g in lay.gates])
            psi = random_amplitudes(rng, 2**n)
            psi /= np.linalg.norm(psi)
            out = apply_gate_layer(PureState(n, psi), lay).amplitudes
            np.testing.assert_allclose(out, full @ psi, rtol=0, atol=1e-12)
            a = random_amplitudes(rng, 2**n, 2**n)
            rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
            out = apply_gate_layer(DensityMatrix(n, rho), lay).entries
            np.testing.assert_allclose(out, full @ rho @ full.conj().T, rtol=0, atol=1e-12)
            batch = random_amplitudes(rng, 3, 2**n)
            out = qsim._layer_on_pure(batch.reshape((3,) + (2,) * n), lay, axis_offset=1)
            np.testing.assert_allclose(out.reshape(3, -1), batch @ full.T, rtol=0, atol=1e-12)


class TestDepolarize:
    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix.maximally_mixed(2)
        out = depolarize_all(rho, 0.3)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-12)

    def test_zero_state_single_qubit(self):
        out = depolarize_all(DensityMatrix.zero(1), 0.4)
        np.testing.assert_allclose(out.entries, np.diag([0.8, 0.2]), atol=1e-12)

    def test_plus_state_full_noise(self):
        plus = apply_gate_layer(PureState.zero(1), layer(H(0))).to_density()
        out = depolarize_all(plus, 1.0)
        np.testing.assert_allclose(out.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_structure_two_qubits(self):
        out = depolarize_all(DensityMatrix.zero(2), 0.5)
        single = np.diag([0.75, 0.25])
        np.testing.assert_allclose(out.entries, np.kron(single, single), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_pauli_kraus_reference(self, n, rng):
        # per qubit (1 - 3 lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z),
        # on inputs neither Hermitian nor normalized, C-ordered and with
        # permuted strides (as gate layers leave them); the input stays as it was
        dim, shape = 2**n, (2,) * (2 * n)
        kraus = [
            [np.kron(np.kron(np.eye(2**q), p), np.eye(2 ** (n - 1 - q))) for p in (qsim._PAULI_X, qsim._PAULI_Y, qsim._PAULI_Z)]
            for q in range(n)
        ]
        rho = random_amplitudes(rng, dim, dim)
        permuted = np.moveaxis(np.moveaxis(rho.reshape(shape), 0, -1).copy(), -1, 0)
        a = random_amplitudes(rng, dim, dim)
        state = DensityMatrix(n, a @ a.conj().T / np.trace(a @ a.conj().T).real)
        for lam in (0.0, 5e-324, 0.1, 0.5, 1.0):
            want = rho
            for paulis in kraus:
                want = (1 - 0.75 * lam) * want + (lam / 4) * sum(p @ want @ p for p in paulis)
            for tensor in (rho.reshape(shape), permuted):
                before = tensor.copy()
                got = qsim._depolarize_density_tensor(tensor, n, lam)
                np.testing.assert_array_equal(tensor, before)
                np.testing.assert_allclose(got.reshape(dim, dim), want, rtol=0, atol=1e-12)
            entries = state.entries.copy()
            depolarize_all(state, lam)
            np.testing.assert_array_equal(state.entries, entries)

    def test_pauli_mixture_weights_reproduce_channel(self, rng):
        # (1-lam) rho + lam I/2 == (1-3lam/4) rho + (lam/4)(X rho X + Y rho Y + Z rho Z)
        lam = 0.37
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        channel = (1 - lam) * rho + lam * np.eye(2) / 2
        xs = [p @ rho @ p for p in (qsim._PAULI_X, qsim._PAULI_Y, qsim._PAULI_Z)]
        mixture = (1 - 0.75 * lam) * rho + (lam / 4) * sum(xs)
        np.testing.assert_allclose(mixture, channel, atol=1e-12)


def assert_readout_paths_agree(circ: NoisyCircuit, bindings=None) -> None:
    """exact_output_distribution (final noise layer on the diagonal) against
    the full walk's state, with equal oracle query counts on both paths."""
    counters = [b.oracle.query_counter for b in (bindings or {}).values()]
    start = [c.value for c in counters]
    diagonal = exact_output_distribution(circ, bindings).as_array()
    middle = [c.value for c in counters]
    full = qsim.evolve_density(circ, bindings).outcome_distribution().as_array()
    assert [m - s for m, s in zip(middle, start)] == [c.value - m for c, m in zip(counters, middle)]
    np.testing.assert_allclose(diagonal, full, rtol=0, atol=1e-12)


class TestExactDistribution:
    def test_noiseless_empty_circuit(self):
        dist = exact_output_distribution(NoisyCircuit(3, (), 0.0))
        assert dist.probabilities == {"000": 1.0}

    def test_empty_circuit_two_noise_layers(self):
        # init noise + measurement noise compose: p(1) = 0.2*(1-0.4) + 0.2 = 0.32
        dist = exact_output_distribution(NoisyCircuit(1, (), 0.4))
        assert math.isclose(dist.get("0"), 0.68, abs_tol=1e-12)
        assert math.isclose(dist.get("1"), 0.32, abs_tol=1e-12)

    def test_identity_step_adds_no_extra_layer(self):
        # one trivial step also yields exactly two noise layers
        circ = NoisyCircuit(1, (layer(phase(0, 0.0)),), 0.4)
        dist = exact_output_distribution(circ)
        assert math.isclose(dist.get("1"), 0.32, abs_tol=1e-12)

    def test_noise_layer_recursion_three_layers(self):
        # p_{k+1} = (1-lam) p_k + lam/2 from p_0 = 0: 0.2, 0.32, 0.392
        circ = NoisyCircuit(1, (layer(phase(0, 0.0)), layer(phase(0, 0.0))), 0.4)
        dist = exact_output_distribution(circ)
        assert math.isclose(dist.get("1"), 0.392, abs_tol=1e-12)

    def test_noise_layer_count_rule(self):
        assert NoisyCircuit(1, (), 0.1).noise_layer_count() == 2
        assert NoisyCircuit(1, (layer(X(0)),), 0.1).noise_layer_count() == 2
        three = (layer(X(0)), layer(X(0)), layer(X(0)))
        assert NoisyCircuit(1, three, 0.1).noise_layer_count() == 4

    def test_noiseless_matches_statevector(self, rng):
        circ = qsim.random_circuit(3, 4, 0.0, rng)
        psi = PureState.zero(3)
        for step in circ.steps:
            psi = apply_gate_layer(psi, step)
        expected = np.abs(psi.amplitudes) ** 2
        dist = exact_output_distribution(circ)
        np.testing.assert_allclose(dist.as_array(), expected, atol=1e-9)

    def test_manual_bv_circuit_is_deterministic_noiselessly(self):
        # parity circuit for s = 10: outcome bits are s then ancilla 1
        hx = Gate(qsim._HADAMARD @ qsim._PAULI_X, (2,))
        circ = NoisyCircuit(
            3,
            (
                layer(H(0), H(1), hx),
                layer(CNOT(0, 2)),
                layer(H(0), H(1), H(2)),
            ),
            0.0,
        )
        dist = exact_output_distribution(circ)
        assert set(dist.probabilities) == {"101"}
        assert math.isclose(dist.get("101"), 1.0, abs_tol=1e-12)

    def test_distribution_sums_to_one_with_noise(self, rng):
        circ = qsim.random_circuit(3, 3, 0.25, rng)
        dist = exact_output_distribution(circ)
        assert math.isclose(sum(p for _, p in dist.items()), 1.0, abs_tol=1e-9)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_diagonal_readout_matches_full_walk(self, n, rng):
        for lam in (0.0, 0.1, 1.0):
            assert_readout_paths_agree(qsim.random_circuit(n, 3, lam, rng))

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_diagonal_readout_with_oracle_calls(self, lam):
        bindings = {
            "G": make_grover_phase(GroverOracle(8, 5)),
            "F": lift_to_unitary(make_bv("101")),
            "S": StateOracleBinding(StateOracle(2, "XZ", 1)),
        }
        steps = (
            layer(H(0), H(1), H(2), H(3)),
            OracleCall("G", (0, 1, 2)),
            layer(CNOT(0, 3)),
            OracleCall("F", (2, 0, 1, 3)),
            OracleCall("S", (3, 1)),
        )
        for n in (4, 5):
            assert_readout_paths_agree(NoisyCircuit(n, steps, lam), bindings)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
    def test_diagonal_readout_of_empty_circuit(self, lam):
        for n in (1, 3):
            assert_readout_paths_agree(NoisyCircuit(n, (), lam))

    def test_walk_never_writes_a_yielded_tensor(self, rng):
        # consumers such as metrics.check_hybrid_bound keep yielded tensors
        bindings = {"F": lift_to_unitary(make_bv("11")), "S": StateOracleBinding(StateOracle(1, "Y", 1))}
        steps = (layer(H(0), H(1)), OracleCall("F", (0, 1, 2)), OracleCall("S", (1,)))
        steps += qsim.random_circuit(3, 2, 0.0, rng).steps
        for lam in (0.0, 0.3):
            kept = [(rho, rho.copy()) for _, rho in qsim._walk_density(NoisyCircuit(3, steps, lam), bindings)]
            for rho, snapshot in kept:
                np.testing.assert_array_equal(rho, snapshot)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            exact_output_distribution(NoisyCircuit(11, (), 0.0))

    def test_unbound_oracle(self):
        circ = NoisyCircuit(2, (OracleCall("f", (0, 1)),), 0.0)
        with pytest.raises(UsageError, match="unbound"):
            exact_output_distribution(circ)


class TestTrajectories:
    def test_deterministic_given_seed(self, rng):
        circ = qsim.random_circuit(3, 3, 0.3, rng)
        a = sample_trajectory(circ, seed=42, index=7)
        b = sample_trajectory(circ, seed=42, index=7)
        assert a == b

    def test_noiseless_trajectory_matches_exact(self, rng):
        circ = qsim.random_circuit(3, 3, 0.0, rng)
        exact = exact_output_distribution(circ).probabilities
        counts = sample_outcomes(circ, seed=5, shots=20000)
        assert tv_dicts(exact, counts_to_probs(counts)) < 3 * math.sqrt(8 / 20000)

    def test_noisy_backend_equivalence(self, rng):
        circ = qsim.random_circuit(3, 3, 0.2, rng)
        exact = exact_output_distribution(circ).probabilities
        counts = sample_outcomes(circ, seed=6, shots=30000)
        assert tv_dicts(exact, counts_to_probs(counts)) < 3 * math.sqrt(8 / 30000)

    def test_single_sample_path_agrees_with_exact(self, rng):
        circ = NoisyCircuit(1, (layer(H(0)),), 0.5)
        exact = exact_output_distribution(circ).probabilities
        shots = 4000
        counts: dict[str, int] = {}
        for k in range(shots):
            s = sample_trajectory(circ, seed=11, index=k)
            counts[s] = counts.get(s, 0) + 1
        assert tv_dicts(exact, counts_to_probs(counts)) < 3 * math.sqrt(2 / shots)

    def test_thread_count_does_not_change_counts(self, rng):
        circ = qsim.random_circuit(2, 2, 0.3, rng)
        one = sample_outcomes(circ, seed=9, shots=5000, threads=1)
        two = sample_outcomes(circ, seed=9, shots=5000, threads=4)
        assert one == two

    def test_product_noise_matches_dense_noise(self, rng):
        # lam = 1 hits 3/4 of the (trajectory, qubit) pairs, a third each with X, Y and Z
        batch, n = 64, 4
        prod = random_amplitudes(rng, batch, n, 2)
        u = rng.random((batch, n))
        hit, choice = qsim._pauli_events(1.0, u)
        assert set(choice[hit]) == {0, 1, 2}

        def densify(p):
            t = p[:, 0, :]
            for q in range(1, n):
                t = (t[:, :, None] * p[:, q, None, :]).reshape(batch, -1)
            return t

        dense = densify(prod)
        clean = dense.copy()
        qsim._pauli_noise(lambda q: dense.reshape(batch, 1 << q, 2, -1), n, 1.0, u)
        qsim._pauli_noise(lambda q: prod[:, q, None, :, None], n, 1.0, u)
        np.testing.assert_allclose(densify(prod), dense, rtol=1e-14, atol=0)
        assert not np.allclose(dense, clean)

    def test_subnormal_rate_samples_without_warnings(self):
        # a quarter of 5e-324 underflows to 0, so the Pauli choice must not divide by it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = sample_outcomes(NoisyCircuit(1, [layer(H(0))], 5e-324), seed=1, shots=10)
        assert sum(counts.values()) == 10

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            sample_trajectory(NoisyCircuit(23, (), 0.0), seed=0)
        with pytest.raises(CapacityError):
            sample_outcomes(NoisyCircuit(23, (), 0.0), seed=0, shots=2)

    def test_negative_seed_or_index_is_usage_error(self):
        circ = NoisyCircuit(1, (layer(H(0)),), 0.5)
        with pytest.raises(UsageError, match="nonnegative"):
            sample_trajectory(circ, seed=0, index=-1)
        with pytest.raises(UsageError, match="nonnegative"):
            sample_outcomes(circ, seed=-1, shots=2)

    def test_wide_noiseless_circuit_runs(self):
        circ = NoisyCircuit(16, (layer(X(0)),), 0.0)
        assert sample_trajectory(circ, seed=0) == "1" + "0" * 15


def assert_tv_within_3_sigma(exact: np.ndarray, counts: dict[str, int]) -> None:
    """TV between the counts and `exact` exceeds its mean by under 3 sigma.

    The mean is at most sum sqrt(p (1 - p) / shots) / 2 (Jensen); one shot
    moves TV by at most 1 / shots, so sigma is at most 1 / sqrt(2 shots).
    """
    shots = sum(counts.values())
    emp = np.zeros(len(exact))
    for bits, c in counts.items():
        emp[int(bits, 2)] = c / shots
    tv = 0.5 * np.abs(emp - exact).sum()
    bound = 0.5 * np.sqrt(exact * (1 - exact) / shots).sum() + 3 / math.sqrt(2 * shots)
    assert tv < bound, (tv, bound)


def random_oracle(rng, n_in: int, m_out: int) -> ClassicalOracle:
    table = rng.integers(0, 2**m_out, size=2**n_in)
    return ClassicalOracle(n_in, m_out, lambda x: int(table[x]), fn_vec=lambda xs: table[xs])


def monomial_gate(a: int, b: int) -> Gate:
    """A 2-qubit permutation that is not its own inverse, with phases."""
    m = np.zeros((4, 4), dtype=complex)
    m[[1, 2, 3, 0], [0, 1, 2, 3]] = np.exp(1j * np.arange(4))
    return Gate(m, (a, b))


def random_monomial_tail(n: int, rng, steps: int = 4) -> tuple[list, dict]:
    """Monomial steps on n qubits: layers of X, Y, Z, phase, CNOT, CZ and
    `monomial_gate`, XOR and Grover-phase oracle calls on random wires;
    returns (steps, bindings)."""
    out, bindings = [], {}
    for k in range(steps):
        kind = rng.integers(0, 3)
        wires = tuple(int(w) for w in rng.permutation(n)[: int(rng.integers(2, n + 1))])
        if kind == 0:
            bindings[f"O{k}"] = lift_to_unitary(random_oracle(rng, len(wires) - 1, 1))
        elif kind == 1:
            bindings[f"O{k}"] = make_grover_phase(GroverOracle(2 ** len(wires), int(rng.integers(0, 2 ** len(wires)))))
        else:
            order, gates = list(rng.permutation(n)), []
            while order:
                pick = int(rng.integers(0, 7 if len(order) > 1 else 4))
                if pick < 4:
                    q = int(order.pop())
                    gates.append((X, Y, Z, lambda q: phase(q, float(rng.uniform(0, 2 * math.pi))))[pick](q))
                else:
                    gates.append((CNOT, CZ, monomial_gate)[pick - 4](int(order.pop()), int(order.pop())))
            out.append(GateLayer(tuple(gates)))
            continue
        out.append(OracleCall(f"O{k}", wires))
    return out, bindings


class TestMonomialTail:
    def test_detector_reads_monomial_matrices(self, rng):
        perm = np.zeros((4, 4), dtype=complex)
        perm[[2, 0, 3, 1], [0, 1, 2, 3]] = [1, -1, 1j, -1j]
        for g in (X(0), Y(0), Z(0), CNOT(0, 1), CZ(0, 1), phase(0, 0.3), Gate(perm, (0, 1))):
            assert qsim._basis_map(g.matrix) is not None, g
        np.testing.assert_array_equal(qsim._basis_map(CNOT(0, 1).matrix), [0, 1, 3, 2])
        np.testing.assert_array_equal(qsim._basis_map(perm), [2, 0, 3, 1])
        tiny = Gate(np.array([[1e-17, 1], [1, 0]]), (0,))
        for g in (H(0), Gate(qsim.haar_unitary(2, rng), (0,)), tiny):
            assert qsim._basis_map(g.matrix) is None

    def test_product_draw_matches_cumulative_search(self, rng):
        batch, n = 2000, 6
        prod = random_amplitudes(rng, batch, n, 2)
        prod /= np.linalg.norm(prod, axis=2, keepdims=True)
        prod[:50, 0] = [1, 0]  # certain bits: P(bit = 0) is exactly 1 or 0
        prod[50:100, 1] = [0, 1j]
        u = rng.random(batch)
        dense = prod[:, 0, :]
        for q in range(1, n):
            dense = (dense[:, :, None] * prod[:, q, None, :]).reshape(batch, -1)
        cum = np.cumsum(np.abs(dense) ** 2, axis=1)
        expected = (cum <= u[:, None]).sum(axis=1)
        np.testing.assert_array_equal(qsim._draw_product(prod, u), expected)

    def test_cut_follows_the_last_non_monomial_step(self):
        def cut(circ, bindings=None):
            return qsim._monomial_tail(circ.schedule(), bindings, circ.n_qubits)[0]

        xor = {"E": lift_to_unitary(make_bv("1"))}
        state = {"E": StateOracleBinding(StateOracle(2, "ZZ", 1))}
        query = NoisyCircuit(2, [layer(H(0)), OracleCall("E", (0, 1))], 0.1)
        assert cut(query, xor) == 2
        assert cut(query, state) == len(query.schedule())
        assert cut(NoisyCircuit(2, [layer(H(0)), layer(CNOT(0, 1))], 0.1)) == 2
        # a tail holding only the measurement noise is no tail
        assert cut(NoisyCircuit(1, [layer(H(0))], 0.1)) == 3
        assert cut(NoisyCircuit(1, [], 0.1)) == 2
        assert cut(NoisyCircuit(1, [layer(X(0))], 0.1)) == 0

    @pytest.mark.parametrize("n", [3, 5, 9])
    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("entangled", [False, True])
    def test_random_tails_match_exact(self, n, lam, entangled):
        rng = np.random.default_rng([n, int(10 * lam), entangled])
        head = qsim.random_layer(n, rng, p_two=0.5 if entangled else 0.0)
        tail, bindings = random_monomial_tail(n, rng)
        circ = NoisyCircuit(n, [head, *tail], lam)
        assert qsim._monomial_tail(circ.schedule(), bindings, n)[0] == 2
        exact = exact_output_distribution(circ, bindings).as_array()
        assert_tv_within_3_sigma(exact, sample_outcomes(circ, bindings, seed=n, shots=40000))

    def test_wide_parity_query_matches_product_reference(self, rng):
        # n = 13 is past the density cap: push the product marginals at the
        # cut through bit-flip channels (rate lam / 2) and the oracle's table
        n, lam = 13, 0.1
        head = layer(*[Gate(qsim.haar_unitary(2, rng), (q,)) for q in range(n)])
        binding = lift_to_unitary(random_oracle(rng, 9, 4))
        circ = NoisyCircuit(n, [head, OracleCall("O", tuple(range(n)))], lam)

        def flip_all(p: np.ndarray) -> np.ndarray:
            t = p.reshape((2,) * n)
            for q in range(n):
                t = (1 - lam / 2) * t + (lam / 2) * np.flip(t, axis=q)
            return t.reshape(-1)

        dist = np.ones(1)
        for g in head.gates:
            rho = g.matrix @ np.diag([1 - lam / 2, lam / 2]) @ g.matrix.conj().T
            dist = np.kron(dist, np.diag(rho).real)
        exact = flip_all(flip_all(dist)[binding._perm(tuple(range(n)), n)])
        assert_tv_within_3_sigma(exact, sample_outcomes(circ, {"O": binding}, seed=3, shots=400000))

    def test_tail_counts_one_query_per_trajectory(self):
        oracle = make_bv("101100110010")
        circ = NoisyCircuit(13, [layer(*[H(i) for i in range(12)]), OracleCall("O", tuple(range(13)))], 0.1)
        b = {"O": lift_to_unitary(oracle)}
        sample_outcomes(circ, b, seed=4, shots=1000)
        assert oracle.query_counter.value == 1000
        list(itertools.islice(qsim.sample_stream(circ, b, seed=4), 100))
        assert oracle.query_counter.value - 1000 == 128  # rows [0, 64) then [64, 128)


class TestFusedLayers:
    @pytest.mark.parametrize("n", range(1, 10))
    @pytest.mark.parametrize("p_two", [0.5, 1.0])
    def test_blocks_match_gate_by_gate(self, n, p_two):
        # four layers with noise after each: the permuted qubit order carries
        # from layer to layer and through the noise layers' views
        rng = np.random.default_rng([n, int(10 * p_two)])
        batch, lam = 4, 0.6
        ref = random_amplitudes(rng, batch, *(2,) * n)
        fused, order = ref.copy(), list(range(n))
        for _ in range(4):
            lay = qsim.random_layer(n, rng, p_two)
            assert lay._blocks is lay._blocks
            assert sorted(t for targets, _ in lay._blocks for t in targets) == sorted(lay.targets)
            assert all(len(targets) <= qsim._FUSE_QUBITS for targets, _ in lay._blocks)
            for g in lay.gates:
                ref = qsim._apply_unitary_tensor(ref, g.matrix, tuple(t + 1 for t in g.targets))
            for block in lay._blocks:
                fused, order = qsim._block_on_batch(fused, block, order)
                assert fused.flags.c_contiguous
            ref = np.ascontiguousarray(ref)
            u = rng.random((batch, n))
            qsim._pauli_noise(lambda q: ref.reshape(batch, 1 << q, 2, -1), n, lam, u)
            qsim._pauli_noise(lambda q: fused.reshape(batch, 1 << order.index(q), 2, -1), n, lam, u)
        assert n < 6 or order != list(range(n))
        logical = fused.transpose(0, *(1 + np.argsort(order)))
        np.testing.assert_allclose(logical, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 6, 9])
    def test_walk_draws_the_gate_by_gate_outcomes(self, n):
        # the same stream through a gate-by-gate walk in qubit order: each
        # noise draw must reach its own qubit wherever the fused walk keeps it
        circ = qsim.random_circuit(n, 3, 0.3, np.random.default_rng([n, 0x77]), p_two=1.0)
        rows, schedule = 300, circ.schedule()
        key = qsim.circuit_fingerprint(circ)
        u = rng_for(4, key, qsim._CHUNK_STREAM_TAG, 0).random((rows, schedule.count(None) * n + 1))
        ref = np.zeros((rows,) + (2,) * n, dtype=complex)
        ref.reshape(rows, -1)[:, 0] = 1.0
        for i, op in enumerate(schedule):
            if op is None:
                ref = np.ascontiguousarray(ref)
                block = u[:, 1 + n * (i // 2) : 1 + n * (i // 2 + 1)]
                qsim._pauli_noise(lambda q: ref.reshape(rows, 1 << q, 2, -1), n, 0.3, block)
            else:
                for g in op.gates:
                    ref = qsim._apply_unitary_tensor(ref, g.matrix, tuple(t + 1 for t in g.targets))
        probs = np.abs(ref.reshape(rows, -1)) ** 2
        cum = np.cumsum(probs / probs.sum(axis=1, keepdims=True), axis=1)
        expected = np.minimum((cum <= u[:, :1]).sum(axis=1), 2**n - 1)
        np.testing.assert_array_equal(qsim._sample_chunk(circ, None, 4, key, 0, 0, rows), expected)

    @pytest.mark.parametrize("n", [7, 8])
    def test_oracle_between_fused_layers_matches_exact(self, n):
        # the final Haar layer keeps the oracle out of the monomial tail, so
        # the walk must restore qubit order before the call
        rng = np.random.default_rng([n, 0x0D])
        wires = tuple(int(w) for w in rng.permutation(n)[:5])
        b = {"O": lift_to_unitary(random_oracle(rng, len(wires) - 1, 1))}
        first, last = qsim.random_layer(n, rng, 1.0), qsim.random_layer(n, rng, 1.0)
        assert len(first._blocks) >= 2
        circ = NoisyCircuit(n, [first, OracleCall("O", wires), last], 0.05)
        assert qsim._monomial_tail(circ.schedule(), b, n)[0] == len(circ.schedule())
        exact = exact_output_distribution(circ, b).as_array()
        assert_tv_within_3_sigma(exact, sample_outcomes(circ, b, seed=n, shots=40000))

    def test_stream_prefix_matches_batch_with_two_blocks_a_layer(self):
        circ = qsim.random_circuit(8, 3, 0.2, np.random.default_rng(0x5E), p_two=1.0)
        assert all(len(lay._blocks) >= 2 for lay in circ.steps)
        for m in (1, 100, 300):
            stream = Counter(itertools.islice(qsim.sample_stream(circ, seed=3), m))
            assert dict(stream) == sample_outcomes(circ, seed=3, shots=m)


class TestSerialization:
    def test_roundtrip(self, rng):
        circ = NoisyCircuit(
            3,
            (
                layer(H(0), CNOT(1, 2)),
                OracleCall("f", (0, 2)),
                layer(Gate(qsim.haar_unitary(4, rng), (2, 0)), phase(1, 0.7)),
            ),
            0.15,
        )
        back = circuit_from_json(circuit_to_json(circ))
        assert back.n_qubits == 3
        assert back.noise.value == 0.15
        assert len(back.steps) == 3
        assert isinstance(back.steps[1], OracleCall)
        assert back.steps[1].oracle_id == "f"
        assert back.steps[1].wires == (0, 2)
        for orig, rebuilt in ((circ.steps[0], back.steps[0]), (circ.steps[2], back.steps[2])):
            for g0, g1 in zip(orig.gates, rebuilt.gates):
                assert g0.targets == g1.targets
                np.testing.assert_allclose(g0.matrix, g1.matrix, atol=1e-15)

    def test_named_gates_serialize_by_name(self):
        text = circuit_to_json(NoisyCircuit(2, (layer(CNOT(0, 1)),), 0.0))
        assert '"name": "CNOT"' in text

    def test_matrix_pairs_format(self):
        text = circuit_to_json(NoisyCircuit(1, (layer(phase(0, math.pi / 2)),), 0.0))
        doc = __import__("json").loads(text)
        m = doc["steps"][0]["gates"][0]["matrix"]
        np.testing.assert_allclose(m[0], [[1, 0], [0, 0]], atol=1e-15)
        np.testing.assert_allclose(m[1], [[0, 0], [0, 1]], atol=1e-12)

    def test_rejects_malformed(self):
        with pytest.raises(UsageError):
            circuit_from_json("not json")
        with pytest.raises(UsageError):
            circuit_from_json('{"n_qubits": 1}')
        with pytest.raises(UsageError):
            circuit_from_json(
                '{"n_qubits": 1, "lambda": 0, "steps": [{"type": "layer", "gates": [{"name": "Q", "targets": [0]}]}]}'
            )
        with pytest.raises(UsageError):
            circuit_from_json('{"n_qubits": 1, "lambda": 0, "steps": [{"type": "wat"}]}')


@settings(deadline=None, max_examples=25)
@given(lam=st.floats(0.0, 1.0), hits=st.integers(0, 3))
def test_depolarize_preserves_trace_and_psd(lam, hits):
    rng = np.random.default_rng(hits)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    out = depolarize_all(DensityMatrix(2, rho), lam)
    assert math.isclose(np.trace(out.entries).real, 1.0, abs_tol=1e-12)
    assert np.linalg.eigvalsh(out.entries).min() > -1e-12


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2**31 - 1))
def test_random_circuit_distribution_normalized(seed):
    rng = np.random.default_rng(seed)
    circ = qsim.random_circuit(2, 2, float(rng.uniform(0, 1)), rng)
    dist = exact_output_distribution(circ)
    assert math.isclose(sum(p for _, p in dist.items()), 1.0, abs_tol=1e-9)
    assert all(p >= 0 for _, p in dist.items())
