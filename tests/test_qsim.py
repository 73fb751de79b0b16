"""Core simulator: types, gate layers, noise channel, both backends."""

import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab import qsim
from nisqlab.errors import CapacityError, UsageError
from nisqlab.qsim import (
    CNOT,
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

    def test_wide_noiseless_circuit_runs(self):
        circ = NoisyCircuit(16, (layer(X(0)),), 0.0)
        assert sample_trajectory(circ, seed=0) == "1" + "0" * 15


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
