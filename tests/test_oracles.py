"""Oracle constructions, liftings, and their circuit bindings."""

import math

import numpy as np
import pytest

from nisqlab import qsim
from nisqlab.errors import CapacityError, UsageError
from nisqlab.metrics import trace_norm
from nisqlab.oracles import (
    ClassicalOracle,
    GroverOracle,
    SimonSpec,
    StateOracle,
    StateOracleBinding,
    lift_to_unitary,
    make_bv,
    make_grover_phase,
    make_lifted_simon,
    make_simon,
)
from nisqlab.qsim import (
    DensityMatrix,
    H,
    NoisyCircuit,
    OracleCall,
    PureState,
    exact_output_distribution,
    layer,
    sample_outcomes,
)
from nisqlab.seeding import rng_for


def constant_oracle(n_in: int, m_out: int, value: int = 0) -> ClassicalOracle:
    return ClassicalOracle(n_in, m_out, lambda x: value, f"const-{value}")


def identity_oracle(n: int) -> ClassicalOracle:
    return ClassicalOracle(n, n, lambda x: x, "identity")


class TestQueryCounter:
    def test_counts_classical_evaluations(self):
        f = make_bv("101")
        f.evaluate(0b111)
        f.evaluate("010")
        assert f.query_counter.value == 2

    def test_counts_unitary_applications(self):
        f = make_bv("10")
        binding = lift_to_unitary(f)
        circ = NoisyCircuit(3, (OracleCall("f", (0, 1, 2)),), 0.0)
        exact_output_distribution(circ, {"f": binding})
        assert f.query_counter.value == 1

    def test_batched_application_counts_per_trajectory(self):
        f = make_bv("10")
        binding = lift_to_unitary(f)
        circ = NoisyCircuit(3, (OracleCall("f", (0, 1, 2)),), 0.0)
        sample_outcomes(circ, {"f": binding}, seed=0, shots=50)
        assert f.query_counter.value == 50

    def test_table_construction_uncounted(self):
        f = make_bv("1100")
        f.table()
        assert f.query_counter.value == 0


class TestLiftToUnitary:
    def test_constant_zero_is_identity(self, rng):
        binding = lift_to_unitary(constant_oracle(2, 1))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        tensor = amps.reshape((2, 2, 2))
        out = binding.apply_statevector(tensor, (0, 1, 2), 3)
        np.testing.assert_allclose(out, tensor, atol=1e-15)

    def test_copy_oracle_duplicates_register(self):
        binding = lift_to_unitary(identity_oracle(2))
        psi = PureState.basis(4, "1000")  # x = 10, y = 00
        out = binding.apply_statevector(psi.tensor(), (0, 1, 2, 3), 4)
        expected = PureState.basis(4, "1010").tensor()
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_involution(self, rng):
        binding = lift_to_unitary(make_bv("11"))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        tensor = amps.reshape((2, 2, 2))
        once = binding.apply_statevector(tensor, (0, 1, 2), 3)
        twice = binding.apply_statevector(once, (0, 1, 2), 3)
        np.testing.assert_allclose(twice, tensor, atol=1e-15)

    def test_density_agrees_with_statevector(self, rng):
        binding = lift_to_unitary(make_bv("10"))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        psi = PureState(3, amps)
        sv = binding.apply_statevector(psi.tensor(), (2, 0, 1), 3).reshape(-1)
        dm = binding.apply_density(psi.to_density().tensor(), (2, 0, 1), 3).reshape(8, 8)
        np.testing.assert_allclose(dm, np.outer(sv, sv.conj()), atol=1e-12)

    def test_wire_count_mismatch(self):
        binding = lift_to_unitary(make_bv("10"))
        circ = NoisyCircuit(3, (OracleCall("f", (0, 1)),), 0.0)
        with pytest.raises(UsageError):
            exact_output_distribution(circ, {"f": binding})


class TestSimon:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_zero_secret_is_bijection(self, n):
        f = make_simon(SimonSpec(n, "0" * n, seed=3))
        values = f.table()
        assert len(set(values.tolist())) == 2**n

    def test_period_structure(self):
        f = make_simon(SimonSpec(3, "101", seed=1))
        table = f.table()
        for x in range(8):
            assert table[x] == table[x ^ 0b101]
        assert len(set(table.tolist())) == 4

    def test_preimage_counts(self):
        f = make_simon(SimonSpec(4, "0110", seed=2))
        _, counts = np.unique(f.table(), return_counts=True)
        assert set(counts.tolist()) == {2}
        g = make_simon(SimonSpec(4, "0000", seed=2))
        _, counts = np.unique(g.table(), return_counts=True)
        assert set(counts.tolist()) == {1}

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_table_matches_pairing_loop(self, seed):
        # reference: number the pairs {x, x ^ s} in order of first appearance;
        # pair k takes the k-th value of the seeded permutation
        for n in range(1, 11):
            for s in sorted({0, 1, 2**n - 1, (0b1011 * seed + 5) % 2**n}):
                images = rng_for(seed, 0x51).permutation(2**n)
                rank: dict[int, int] = {}
                expected = [int(images[rank.setdefault(min(x, x ^ s), len(rank))]) for x in range(2**n)]
                table = make_simon(SimonSpec(n, format(s, f"0{n}b"), seed)).table()
                assert table.tolist() == expected, (n, s)

    def test_large_instance_uses_bijective_mixing(self):
        spec = SimonSpec(14, "0" * 13 + "1", seed=5)
        f = make_simon(spec)
        table = f.table()
        for x in (0, 77, 9001):
            assert table[x] == table[x ^ 1]
        reps = np.arange(0, 2**14, 2)  # one representative per pair
        assert len(set(table[reps].tolist())) == 2**13

    def test_large_bijection_case(self):
        f = make_simon(SimonSpec(14, "0" * 14, seed=5))
        assert len(set(f.table().tolist())) == 2**14

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            SimonSpec(3, "01")

    def test_width_past_int64_mixing(self):
        # the bijection's words are int64: 63 bits build, 64 is refused
        f = make_simon(SimonSpec(63, "1" * 63, seed=1))
        pair = np.array([5, 5 ^ (2**63 - 1)], dtype=np.int64)
        assert f.fn(int(pair[0])) == f.fn(int(pair[1])) == f.fn_vec(pair)[0] == f.fn_vec(pair)[1]
        with pytest.raises(CapacityError, match="Simon width 64"):
            make_simon(SimonSpec(64, "1" * 64, seed=1))


class TestBV:
    def test_zero_secret_constant(self):
        f = make_bv("000")
        assert all(f.evaluate(x) == 0 for x in range(8))

    def test_first_coordinate_secret(self):
        f = make_bv("100")
        assert f.evaluate("100") == 1
        assert f.evaluate("011") == 0

    def test_inner_product_values(self):
        f = make_bv("1011")
        assert f.evaluate("1111") == 1
        assert f.evaluate("0100") == 0


class TestLiftedSimon:
    def test_agrees_on_zero_suffix(self):
        f = make_simon(SimonSpec(4, "1010", seed=0))
        lifted = make_lifted_simon(f)
        for x in range(16):
            assert lifted.evaluate(x << 4) == f.table()[x]

    def test_zero_elsewhere(self):
        lifted = make_lifted_simon(identity_oracle(3))
        for x in range(8):
            for y in range(1, 8):
                assert lifted.evaluate((x << 3) | y) == 0

    def test_identity_lift_examples(self):
        lifted = make_lifted_simon(identity_oracle(3))
        assert lifted.evaluate(int("101000", 2)) == 0b101
        assert lifted.evaluate(int("101010", 2)) == 0

    def test_arity_mismatch(self):
        with pytest.raises(UsageError):
            make_lifted_simon(make_bv("101"))


class TestGroverPhase:
    def test_identity_oracle(self, rng):
        binding = make_grover_phase(GroverOracle(8, 0))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        out = binding.apply_statevector(amps.reshape(2, 2, 2), (0, 1, 2), 3)
        np.testing.assert_allclose(out, amps.reshape(2, 2, 2), atol=1e-15)

    def test_marks_single_basis_state(self):
        binding = make_grover_phase(GroverOracle(8, 5))
        uniform = np.full(8, 1 / math.sqrt(8), dtype=complex).reshape(2, 2, 2)
        out = binding.apply_statevector(uniform, (0, 1, 2), 3).reshape(-1)
        expected = np.full(8, 1 / math.sqrt(8))
        expected[5] *= -1
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_involution(self, rng):
        binding = make_grover_phase(GroverOracle(8, 3))
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        t = amps.reshape(2, 2, 2)
        np.testing.assert_allclose(
            binding.apply_statevector(binding.apply_statevector(t, (0, 1, 2), 3), (0, 1, 2), 3),
            t,
            atol=1e-15,
        )

    def test_density_matches_statevector(self, rng):
        binding = make_grover_phase(GroverOracle(4, 2))
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        psi = PureState(2, amps)
        sv = binding.apply_statevector(psi.tensor(), (0, 1), 2).reshape(-1)
        dm = binding.apply_density(psi.to_density().tensor(), (0, 1), 2).reshape(4, 4)
        np.testing.assert_allclose(dm, np.outer(sv, sv.conj()), atol=1e-12)

    def test_padded_domain(self):
        oracle = GroverOracle(6, 5)  # 3 wires; states 6, 7 are padding
        assert oracle.n_wires == 3
        with pytest.raises(UsageError):
            GroverOracle(6, 6)

    def test_marked_range(self):
        with pytest.raises(UsageError):
            GroverOracle(8, 8)
        with pytest.raises(UsageError):
            GroverOracle(8, -1)


class TestStateOracle:
    def test_idempotent_on_product_input(self, rng):
        so = StateOracle(2, "ZZ", 1)
        tau = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tau = tau @ tau.conj().T
        tau /= np.trace(tau).real
        sigma = DensityMatrix(3, np.kron(so.density(), tau))
        out = StateOracleBinding(so).apply_density(sigma.tensor(), (0, 1), 3)
        np.testing.assert_allclose(out.reshape(8, 8), sigma.entries, atol=1e-12)

    def test_maximally_mixed_replacement(self, rng):
        so = StateOracle(2)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sigma = DensityMatrix(3, (a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        out = StateOracleBinding(so).apply_density(sigma.tensor(), (0, 1), 3)
        marg = qsim.partial_trace_tensor(sigma.tensor(), 3, [2]).reshape(2, 2)
        np.testing.assert_allclose(out.reshape(8, 8), np.kron(np.eye(4) / 4, marg), atol=1e-12)

    def test_zz_correlation_prepared(self, rng):
        so = StateOracle(2, "ZZ", 1)
        tau = np.eye(2, dtype=complex) / 2
        sigma = DensityMatrix(3, np.kron(np.diag([1.0, 0, 0, 0]).astype(complex), tau))
        out = StateOracleBinding(so).apply_density(sigma.tensor(), (0, 1), 3)
        state_marg = qsim.partial_trace_tensor(out, 3, [0, 1]).reshape(4, 4)
        zz = np.kron(np.diag([1, -1]), np.diag([1, -1]))
        assert np.trace(state_marg @ zz).real == pytest.approx(1.0, abs=1e-12)

    def test_register_size_mismatch(self):
        circ = NoisyCircuit(3, (OracleCall("rho", (0,)),), 0.0)
        with pytest.raises(UsageError, match="needs 2 wires"):
            exact_output_distribution(circ, {"rho": StateOracleBinding(StateOracle(2))})

    def test_density_is_psd_trace_one(self):
        rho = StateOracle(2, "XY", 1).density()
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(rho).min() >= -1e-12

    def test_counter_and_validation(self):
        so = StateOracle(1, "Z", 1)
        StateOracleBinding(so).apply_density(DensityMatrix.zero(2).tensor(), (1,), 2)
        assert so.query_counter.value == 1
        with pytest.raises(UsageError):
            StateOracle(2, "ZX", 2)
        with pytest.raises(UsageError):
            StateOracle(2, "QQ", 1)


class TestHybridPauliDecay:
    """Raw trace norm of D_lam[(O_1 - O_0)(sigma)] equals (1 - lam)^|P|."""

    @pytest.mark.parametrize("pauli,weight", [("ZI", 1), ("ZZ", 2), ("XY", 2)])
    def test_exact_decay(self, pauli, weight, rng):
        from nisqlab.qsim import _depolarize_density_tensor

        n_state, n_work = 2, 1
        n = n_state + n_work
        e1 = StateOracle(n_state, pauli, 1)
        e0 = StateOracle(n_state)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sigma = DensityMatrix(n, (a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        for lam in (0.0, 0.25, 0.6):
            diff = (
                StateOracleBinding(e1).apply_density(sigma.tensor(), (0, 1), n)
                - StateOracleBinding(e0).apply_density(sigma.tensor(), (0, 1), n)
            )
            noisy = _depolarize_density_tensor(diff, n, lam)
            value = trace_norm(noisy.reshape(8, 8))
            assert value == pytest.approx((1 - lam) ** weight, abs=1e-10)
