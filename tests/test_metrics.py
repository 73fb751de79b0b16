"""Distances, information functionals, and the decay/averaging checks."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab import metrics, qsim
from nisqlab.errors import CapacityError, UsageError
from nisqlab.metrics import (
    InformationValue,
    SubsetSelector,
    check_hybrid_bound,
    check_info_decay,
    check_projection_bound,
    check_random_subset_separation,
    check_subsystem_averaging,
    flip_hit_probabilities,
    information,
    kl_divergence,
    reduced_state,
    separation_bound,
    trace_distance,
    trace_norm_diff,
    tv_distance,
)
from nisqlab.qsim import (
    DensityMatrix,
    H,
    NoisyCircuit,
    OracleCall,
    OutcomeDistribution,
    PureState,
    depolarize_all,
    layer,
)

from conftest import apply_unitary_tensor


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    dim = 2**n
    rank = rank or dim
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = a @ a.conj().T
    return DensityMatrix(n, m / np.trace(m).real)


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class _UnitaryBinding(qsim.OracleBinding):
    """Test helper: apply a fixed 1-qubit unitary at wires[0]."""

    n_wires = 1

    def __init__(self, u: np.ndarray):
        self.u = np.asarray(u, dtype=complex)

    def apply_statevector(self, tensor, wires, n_qubits):
        offset = tensor.ndim - n_qubits
        return apply_unitary_tensor(tensor, self.u, (wires[0] + offset,))

    def apply_density(self, tensor, wires, n_qubits):
        tensor = apply_unitary_tensor(tensor, self.u, (wires[0],))
        return apply_unitary_tensor(tensor, self.u.conj(), (wires[0] + n_qubits,))


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = random_density(2, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = PureState.basis(1, "0").to_density()
        b = PureState.basis(1, "1").to_density()
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_zero_state_vs_maximally_mixed(self):
        # eigenvalues of the difference are +1/2 and -1/2
        a = DensityMatrix.zero(1)
        b = DensityMatrix.maximally_mixed(1)
        assert trace_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_metric_axioms_on_random_triples(self, rng):
        for _ in range(5):
            a, b, c = (random_density(2, rng) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-11)
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-11
            assert 0.0 <= dab <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            trace_distance(DensityMatrix.zero(1), DensityMatrix.zero(2))


class TestTVDistance:
    def test_identical(self):
        p = OutcomeDistribution(1, {"0": 0.3, "1": 0.7})
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        p = OutcomeDistribution.point_mass("0")
        q = OutcomeDistribution.point_mass("1")
        assert tv_distance(p, q) == 1.0

    def test_quarter_shift(self):
        p = OutcomeDistribution(1, {"0": 0.75, "1": 0.25})
        q = OutcomeDistribution(1, {"0": 0.25, "1": 0.75})
        assert tv_distance(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_mismatch(self):
        with pytest.raises(UsageError):
            tv_distance(OutcomeDistribution.point_mass("0"), OutcomeDistribution.point_mass("00"))


class TestInformation:
    def test_pure_state(self):
        assert information(PureState.zero(3).to_density()).value == pytest.approx(3.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert information(DensityMatrix.maximally_mixed(3)).value == pytest.approx(0.0, abs=1e-9)

    def test_depolarized_zero_state(self):
        # product of diag(1 - lam/2, lam/2) qubits
        lam, n = 0.3, 3
        rho = depolarize_all(PureState.zero(n).to_density(), lam)
        expected = n * (1.0 - binary_entropy(lam / 2))
        assert information(rho).value == pytest.approx(expected, abs=1e-9)

    def test_value_range_enforced(self):
        with pytest.raises(UsageError):
            InformationValue(-0.5, 2)
        with pytest.raises(UsageError):
            InformationValue(2.5, 2)


class TestKL:
    def test_self_divergence(self):
        p = OutcomeDistribution(1, {"0": 0.4, "1": 0.6})
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    def test_against_uniform_is_information_gap(self):
        p = OutcomeDistribution(2, {"00": 0.5, "01": 0.25, "10": 0.25})
        q = OutcomeDistribution(2, {b: 0.25 for b in ("00", "01", "10", "11")})
        entropy = -(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25))
        assert kl_divergence(p, q) == pytest.approx(2 - entropy, abs=1e-12)

    def test_support_escape_is_infinite(self):
        p = OutcomeDistribution.point_mass("0")
        q = OutcomeDistribution.point_mass("1")
        assert kl_divergence(p, q) == math.inf


class TestSubsetSelector:
    def test_reduced_state_keeps_selected_factors(self):
        # |0><0| x |1><1| x |+><+| restricted to S = {0, 2}
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        zero = np.diag([1.0, 0.0]).astype(complex)
        sigma = DensityMatrix(3, np.kron(zero, np.kron(one, plus)))
        out = reduced_state(sigma, SubsetSelector(3, {0, 2}))
        np.testing.assert_allclose(out.entries, np.kron(zero, plus), atol=1e-12)
        with pytest.raises(UsageError):
            reduced_state(sigma, SubsetSelector(3, set()))

    def test_selector_validation(self):
        with pytest.raises(UsageError):
            SubsetSelector(2, {0, 5})


class TestInfoDecay:
    def test_noiseless_bound_is_n(self, rng):
        circ = qsim.random_circuit(3, 3, 0.0, rng)
        rep = check_info_decay(circ)
        assert rep["holds"]
        assert all(entry["bound"] == 3.0 for entry in rep["details"]["layers"])

    def test_full_noise_kills_information_immediately(self):
        circ = NoisyCircuit(2, (layer(H(0)),), 1.0)
        rep = check_info_decay(circ)
        first = rep["details"]["layers"][0]
        assert first["t"] == 1
        assert first["information"] == pytest.approx(0.0, abs=1e-9)

    def test_random_noisy_circuits_hold(self, rng):
        for _ in range(5):
            circ = qsim.random_circuit(3, 4, 0.3, rng)
            rep = check_info_decay(circ)
            assert rep["holds"], rep

    def test_report_shape(self, rng):
        rep = check_info_decay(qsim.random_circuit(2, 2, 0.2, rng))
        assert {"claim", "lhs", "rhs", "holds", "tolerance"} <= set(rep)

    def test_density_cap_raises_at_once(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            check_info_decay(NoisyCircuit(11, (), 0.1))
        assert time.perf_counter() - start < 1.0


class TestSubsystemAveraging:
    def test_pure_product_state_equality(self):
        rep = check_subsystem_averaging(PureState.zero(4).to_density(), 2)
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(2.0, abs=1e-9)
        assert rep["rhs"] == pytest.approx(2.0, abs=1e-9)

    def test_maximally_mixed(self):
        rep = check_subsystem_averaging(DensityMatrix.maximally_mixed(3), 2)
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-9)

    def test_random_mixed_states(self, rng):
        for _ in range(3):
            sigma = random_density(4, rng, rank=5)
            for k in (1, 2, 3):
                rep = check_subsystem_averaging(sigma, k)
                assert rep["holds"], rep

    def test_k_range(self):
        sigma = DensityMatrix.maximally_mixed(2)
        with pytest.raises(UsageError):
            check_subsystem_averaging(sigma, 2)
        with pytest.raises(UsageError):
            check_subsystem_averaging(sigma, -1)


class TestProjectionBound:
    def test_full_outcome_set(self, rng):
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi = PureState(3, amps / np.linalg.norm(amps))
        rep = check_projection_bound(psi, [format(i, "03b") for i in range(8)], 0.4)
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(1.0, abs=1e-9)
        assert rep["rhs"] == pytest.approx(1.0, abs=1e-9)

    def test_zero_string_equality(self):
        lam, n = 0.3, 4
        rep = check_projection_bound(PureState.zero(n), ["0000"], lam)
        assert rep["holds"]
        expected = (1 - lam / 2) ** n
        assert rep["lhs"] == pytest.approx(expected, abs=1e-9)
        assert rep["rhs"] == pytest.approx(expected, abs=1e-9)

    def test_lhs_matches_full_noise_layer(self, rng):
        # the diagonal-only noise against the diagonal of the 4^n channel
        for n, lam in ((1, 0.7), (3, 0.3), (5, 1.0)):
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            psi = PureState(n, amps / np.linalg.norm(amps))
            omega = sorted(set(rng.integers(0, 2**n, size=3).tolist()))
            full = np.diag(depolarize_all(psi.to_density(), lam).entries).real
            lhs = check_projection_bound(psi, omega, lam)["lhs"]
            assert lhs == pytest.approx(full[omega].sum(), rel=0, abs=1e-12)

    def test_suffix_zero_outcomes(self, rng):
        lam, n = 0.4, 4
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = PureState(n, amps / np.linalg.norm(amps))
        omega = [i << 2 for i in range(4)]  # last two bits zero
        rep = check_projection_bound(psi, omega, lam)
        assert rep["holds"]
        assert rep["rhs"] <= (1 - lam / 2) ** 2 + 1e-9


class TestHybridBound:
    def _template(self, calls: int) -> NoisyCircuit:
        steps = []
        for _ in range(calls):
            steps.append(OracleCall("E", (0,)))
            steps.append(layer(H(0), H(1)))
        return NoisyCircuit(2, tuple(steps), 0.2)

    def test_equal_channels_zero_tv(self):
        e = _UnitaryBinding(np.eye(2))
        rep = check_hybrid_bound(e, e, self._template(2), trials=4)
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-10)

    def test_distinct_unitaries(self):
        e0 = _UnitaryBinding(np.eye(2))
        e1 = _UnitaryBinding(np.array([[1, 0], [0, -1]]))
        rep = check_hybrid_bound(e0, e1, self._template(3), trials=8)
        assert rep["holds"]
        assert rep["details"]["calls"] == 3
        assert rep["lhs"] <= rep["rhs"] + 1e-9

    def test_requires_oracle_call(self):
        circ = NoisyCircuit(2, (layer(H(0)),), 0.1)
        with pytest.raises(UsageError):
            check_hybrid_bound(_UnitaryBinding(np.eye(2)), _UnitaryBinding(np.eye(2)), circ)

    def test_density_cap(self):
        circ = NoisyCircuit(11, (OracleCall("O", (0,)),), 0.1)
        with pytest.raises(CapacityError):
            check_hybrid_bound(_UnitaryBinding(np.eye(2)), _UnitaryBinding(np.eye(2)), circ, "O")


class TestSubsetSeparation:
    def test_singleton_never_violates(self):
        rep = check_random_subset_separation(16, 1, 0.1, trials=20)
        assert rep["holds"]
        assert rep["lhs"] == 0.0

    def test_pair_dominates_bound(self):
        rep = check_random_subset_separation(16, 2, 0.1, trials=200, seed=3)
        assert rep["holds"]

    def test_reference_parameters(self):
        rep = check_random_subset_separation(20, 32, 0.05, trials=300, seed=1)
        assert rep["holds"]
        assert rep["details"]["bound"] == pytest.approx(separation_bound(20, 32, 0.05))

    def test_parameter_validation(self):
        with pytest.raises(UsageError):
            check_random_subset_separation(30, 2, 0.1)
        with pytest.raises(UsageError):
            check_random_subset_separation(10, 2**9 + 1, 0.1)
        with pytest.raises(UsageError):
            check_random_subset_separation(10, 4, 1.5)


def greedy_separated_set(n: int, min_dist: int, rng: np.random.Generator, scan: int = 4000) -> list[int]:
    chosen: list[int] = []
    for _ in range(scan):
        cand = int(rng.integers(0, 2**n))
        if all(bin(cand ^ c).count("1") >= min_dist for c in chosen):
            chosen.append(cand)
    return chosen


class TestClassicalAntiConcentration:
    @pytest.mark.parametrize("n", [10, 16])
    def test_separated_sets_decay_exponentially(self, n):
        rng = np.random.default_rng(77)
        omega = greedy_separated_set(n, max(1, (3 * n) // 10), rng)
        assert len(omega) >= 8
        for lam in (0.2, 0.5, 1.0):
            best = float(flip_hit_probabilities(n, omega, lam).max())
            rate = -math.log(best) / (lam * n)
            assert rate > 0.05, (n, lam, best)


class TestDataProcessing:
    def test_tv_of_measurements_below_trace_distance(self, rng):
        for n in (2, 3):
            for _ in range(4):
                a, b = random_density(n, rng), random_density(n, rng)
                pa = OutcomeDistribution.from_array(n, np.diag(a.entries).real)
                pb = OutcomeDistribution.from_array(n, np.diag(b.entries).real)
                assert tv_distance(pa, pb) <= trace_distance(a, b) + 1e-10


class TestKLInformationBound:
    def test_kl_against_uniform_bounded_by_information(self, rng):
        for n in (2, 3, 4):
            for _ in range(3):
                rho = random_density(n, rng, rank=3)
                p = OutcomeDistribution.from_array(n, np.clip(np.diag(rho.entries).real, 0, None))
                q = OutcomeDistribution(n, {format(i, f"0{n}b"): 2**-n for i in range(2**n)})
                assert kl_divergence(p, q) <= information(rho).value + 1e-9


@settings(deadline=None, max_examples=30)
@given(
    raw_p=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    raw_q=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
    raw_r=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
)
def test_tv_metric_axioms(raw_p, raw_q, raw_r):
    def dist(raw):
        tot = sum(raw)
        return OutcomeDistribution(2, {format(i, "02b"): v / tot for i, v in enumerate(raw)})

    p, q, r = dist(raw_p), dist(raw_q), dist(raw_r)
    assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-12)
    assert tv_distance(p, q) <= tv_distance(p, r) + tv_distance(r, q) + 1e-12
    assert tv_distance(p, p) == 0.0
    assert 0.0 <= tv_distance(p, q) <= 1.0 + 1e-12


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**31 - 1))
def test_trace_distance_axioms(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_density(2, rng) for _ in range(3))
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-11)
    assert trace_distance(a, b) <= trace_distance(a, c) + trace_distance(c, b) + 1e-10
    assert trace_norm_diff(a, a) == pytest.approx(0.0, abs=1e-12)
