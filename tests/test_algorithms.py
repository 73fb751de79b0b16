"""Algorithm-level behavior: BV majority voting, Grover, Zalka sums,
Pauli distinguishing, lifted-Simon damping, noisy parity."""

import collections
import itertools
import math

import numpy as np
import pytest

from nisqlab.algorithms import (
    BVRunConfig,
    DistinguishResult,
    NoisyParityInstance,
    _fast_bv_counts,
    binomial_tv,
    bv_circuit,
    bv_outcome_counts,
    bv_repetitions,
    check_zalka_sum,
    diffusion_steps,
    generate_noisy_parity,
    grover_circuit,
    grover_ideal_success,
    grover_zalka_template,
    lifted_simon_tv,
    phase_on_all_ones_steps,
    random_zalka_template,
    run_noisy_bv,
    run_noisy_grover,
    shadow_distinguish,
    solve_noisy_parity_bruteforce,
)
from nisqlab import algorithms
from nisqlab.bits import bits_to_int, str_to_arr
from nisqlab.errors import CapacityError, InvariantViolation, UsageError
from nisqlab.metrics import check_hybrid_bound
from nisqlab.oracles import (
    GroverOracle,
    StateOracle,
    StateOracleBinding,
    lift_to_unitary,
    make_bv,
)
from nisqlab.qsim import (
    NoisyCircuit,
    OracleCall,
    evolve_statevector,
    exact_output_distribution,
    H,
    layer,
    sample_outcomes,
)
from nisqlab.seeding import rng_for

from conftest import layer_gate_by_gate


def circuit_unitary(steps, n):
    """Assemble the unitary a noiseless gate-step list implements."""
    cols = []
    for i in range(2**n):
        tensor = np.zeros((2,) * n, dtype=np.complex128)
        tensor.reshape(-1)[i] = 1.0
        for st in steps:
            tensor = layer_gate_by_gate(tensor, st)
        cols.append(tensor.reshape(-1))
    return np.stack(cols, axis=1)


class TestBVConfig:
    def test_validation(self):
        with pytest.raises(UsageError):
            BVRunConfig(0, 0.01, 0.1)
        with pytest.raises(UsageError):
            BVRunConfig(4, 0.01, 0.0)
        with pytest.raises(UsageError, match="repetitions explicitly"):
            BVRunConfig(4, 0.12, 0.1)  # floor (1-lam)^6 dips below 1/2
        BVRunConfig(4, 0.12, 0.1, repetitions=9)  # explicit count is fine

    def test_guaranteed_regime_flag(self):
        assert BVRunConfig(4, 0.04, 0.1).guaranteed
        cfg = BVRunConfig(4, 0.05, 0.1)  # auto still works here
        assert not cfg.guaranteed
        assert bv_repetitions(cfg) > bv_repetitions(BVRunConfig(4, 0.04, 0.1))

    def test_noiseless_formula(self):
        # f(0) = 1 makes the denominator 1/2: M = ceil(2 ln(n/delta))
        cfg = BVRunConfig(16, 0.0, 0.01)
        assert bv_repetitions(cfg) == math.ceil(2 * math.log(1600))

    def test_reference_count(self):
        assert bv_repetitions(BVRunConfig(16, 0.02, 0.01)) == 25

    def test_monotone_in_noise(self):
        ms = [bv_repetitions(BVRunConfig(16, lam, 0.01)) for lam in (0.0, 0.01, 0.03, 0.04)]
        assert ms == sorted(ms) and ms[0] < ms[-1]

    def test_log_scaling(self):
        m8, m16, m32, m64 = (
            bv_repetitions(BVRunConfig(n, 0.04, 0.01)) for n in (8, 16, 32, 64)
        )
        assert abs((m64 - m32) - (m32 - m16)) <= 1
        assert abs((m32 - m16) - (m16 - m8)) <= 1


class TestBVRun:
    def test_noiseless_single_run_recovers(self):
        s = "1011"
        cfg = BVRunConfig(4, 0.0, 0.5, repetitions=1)
        assert run_noisy_bv(cfg, make_bv(s), seed=3) == s

    def test_noiseless_point_mass(self):
        s = "0110"
        dist = exact_output_distribution(
            bv_circuit(4, 0.0), {"O": lift_to_unitary(make_bv(s))}
        )
        assert dist.get(s + "1") == pytest.approx(1.0, abs=1e-12)

    def test_fast_backend_matches_exact_distribution(self):
        # closed-form outcome law vs the density backend, all 8 outcomes
        n, lam, s = 2, 0.3, "10"
        exact = exact_output_distribution(
            bv_circuit(n, lam), {"O": lift_to_unitary(make_bv(s))}
        )
        counts = _fast_bv_counts(str_to_arr(s), lam, 200_000, rng_for(11, 0x6276))
        total = sum(counts.values())
        tv = 0.5 * sum(
            abs(counts.get(w, 0) / total - exact.get(w))
            for w in set(counts) | {w for w, _ in exact.items()}
        )
        assert tv < 0.01

    def test_backends_agree(self):
        n, lam, s = 3, 0.2, "101"
        a = sample_outcomes(bv_circuit(n, lam), {"O": lift_to_unitary(make_bv(s))}, seed=4, shots=20_000)
        b = _fast_bv_counts(str_to_arr(s), lam, 20_000, rng_for(4, 0x6276))
        tv = 0.5 * sum(
            abs(a.get(w, 0) - b.get(w, 0)) / 20_000 for w in set(a) | set(b)
        )
        assert tv < 0.03

    def test_per_bit_success_rates(self):
        # empirical per-bit rates vs both the exact law and the proof's floor
        n, lam, s, runs = 6, 0.1, "110100", 10_000
        cfg = BVRunConfig(n, lam, 0.1, repetitions=1)
        counts = bv_outcome_counts(cfg, make_bv(s), runs, seed=9)
        ones = np.zeros(n + 1)
        for word, c in counts.items():
            ones += c * np.array([int(ch) for ch in word])
        floor = (1 - lam) ** 6
        for i, s_i in enumerate(s):
            hit = ones[i] / runs if s_i == "1" else 1 - ones[i] / runs
            expect = (1 + (1 - lam) ** (6 if s_i == "1" else 4)) / 2
            sigma = math.sqrt(expect * (1 - expect) / runs)
            assert abs(hit - expect) <= 4 * sigma, (i, hit, expect)
            assert hit >= floor - 3 * sigma
        anc_rate = ones[n] / runs
        anc_expect = (1 + (1 - lam) ** 4) / 2
        assert abs(anc_rate - anc_expect) <= 4 * math.sqrt(anc_expect * (1 - anc_expect) / runs)

    def test_auto_majority_recovery(self):
        cfg = BVRunConfig(8, 0.04, 0.05)
        s = "10110001"
        wins = sum(run_noisy_bv(cfg, make_bv(s), seed=t) == s for t in range(30))
        assert wins >= 28

    def test_wide_fast_path(self):
        s = "01" * 16
        cfg = BVRunConfig(32, 0.04, 0.01)
        assert run_noisy_bv(cfg, make_bv(s), seed=2) == s  # auto-selects fast backend

    def test_oracle_mismatch(self):
        with pytest.raises(UsageError):
            run_noisy_bv(BVRunConfig(4, 0.0, 0.1, repetitions=1), make_bv("101"))

    def test_nonlinear_oracle_is_sampled_by_trajectory(self):
        # f(x) = x_0 AND x_1 is not an inner product: the circuit spreads its
        # first two data bits over all four values, which the linear law misses
        from nisqlab.oracles import ClassicalOracle

        f = ClassicalOracle(15, 1, lambda x: (x >> 14) & (x >> 13) & 1, "and2")
        cfg = BVRunConfig(15, 0.0, 0.1, repetitions=1)
        counts = bv_outcome_counts(cfg, f, 400, seed=1)
        assert set(counts) == {a + b + "0" * 13 + "1" for a in "01" for b in "01"}
        assert all(c >= 50 for c in counts.values())

    def test_fast_path_reads_the_declared_secret(self):
        f = make_bv("1" * 16)
        counts = bv_outcome_counts(BVRunConfig(16, 0.0, 0.1, repetitions=1), f, 50, seed=1)
        assert counts == {"1" * 16 + "1": 50}
        assert f.query_counter.value == 0


class TestGroverDecomposition:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_phase_on_all_ones_exact(self, k):
        u = circuit_unitary(phase_on_all_ones_steps(tuple(range(k))), k)
        want = np.eye(2**k, dtype=np.complex128)
        want[-1, -1] = -1.0
        assert np.abs(u - want).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_diffusion_matrix(self, n):
        u = circuit_unitary(diffusion_steps(n), n)
        dim = 2**n
        want = np.eye(dim) - np.full((dim, dim), 2.0 / dim)  # minus the reflection
        assert np.abs(u - want).max() < 1e-12

    def test_depth_grows_with_width(self):
        assert len(diffusion_steps(3)) > len(diffusion_steps(2))


class TestGroverRuns:
    @pytest.mark.parametrize(
        "n_search,iterations", [(4, 1), (8, 1), (8, 2), (16, 2), (16, 3)]
    )
    def test_noiseless_matches_closed_form(self, n_search, iterations):
        p = run_noisy_grover(GroverOracle(n_search, n_search - 1), 0.0, iterations)
        assert p == pytest.approx(grover_ideal_success(n_search, iterations), abs=1e-9)

    def test_shot_backend(self):
        p = run_noisy_grover(GroverOracle(8, 5), 0.0, 2, shots=4000, seed=13)
        ideal = grover_ideal_success(8, 2)
        assert abs(p - ideal) <= 3 * math.sqrt(ideal * (1 - ideal) / 4000) + 1e-9

    def test_noise_strictly_degrades(self):
        for n_search, t in [(4, 1), (8, 2)]:
            clean = run_noisy_grover(GroverOracle(n_search, 1), 0.0, t)
            noisy = run_noisy_grover(GroverOracle(n_search, 1), 0.1, t)
            assert noisy < clean

    def test_requires_power_of_two(self):
        with pytest.raises(UsageError, match="power of two"):
            run_noisy_grover(GroverOracle(6, 2), 0.0, 1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(UsageError, match="iterations"):
            run_noisy_grover(GroverOracle(4, 1), 0.1, -1)


class TestZalka:
    def test_zero_queries(self):
        template = NoisyCircuit(3, [layer(*[H(i) for i in range(3)])], 0.0)
        rep = check_zalka_sum(template, 8)
        assert rep["lhs"] == 0.0 and rep["holds"]

    def test_grover_template(self):
        rep = check_zalka_sum(grover_zalka_template(8, 2), 8)
        assert rep["holds"] and rep["rhs"] == 16.0
        assert rep["lhs"] == pytest.approx(12.25, abs=1e-9)

    def test_random_templates(self, rng):
        for _ in range(10):
            template = random_zalka_template(8, 3, rng)
            rep = check_zalka_sum(template, 8)
            assert rep["holds"] and rep["lhs"] <= 36.0 + 1e-9

    def test_rejects_noisy_template(self):
        with pytest.raises(UsageError, match="noiseless"):
            check_zalka_sum(grover_circuit(3, 1, 0.2), 8)


class TestShadow:
    @pytest.mark.parametrize("pauli,lam", [("ZI", 0.1), ("ZZ", 0.3), ("XY", 0.25)])
    def test_per_query_decay(self, pauli, lam):
        r = shadow_distinguish(pauli, lam, 3)
        weight = sum(ch != "I" for ch in pauli)
        assert r.trace_distance_per_query == pytest.approx((1 - lam) ** weight, abs=1e-10)

    def test_multiplicative_in_weight(self):
        lam = 0.3
        a = shadow_distinguish("ZII", lam, 1).trace_distance_per_query
        b = shadow_distinguish("IZZ", lam, 1).trace_distance_per_query
        ab = shadow_distinguish("ZZZ", lam, 1).trace_distance_per_query
        assert ab == pytest.approx(a * b, abs=1e-9)

    def test_noiseless_advantage(self):
        r = shadow_distinguish("ZZZZ", 0.0, 2)
        assert r.advantage == pytest.approx(1 - 0.25, abs=1e-12)  # 1 - 2^-N
        assert r.advantage >= 1 / 3

    def test_full_noise_kills_advantage(self):
        r = shadow_distinguish("ZZ", 1.0, 50)
        assert r.advantage == pytest.approx(0.0, abs=1e-12)
        assert r.trace_distance_per_query == pytest.approx(0.0, abs=1e-12)

    def test_sampled_mode_tracks_exact(self):
        exact = shadow_distinguish("ZZ", 0.4, 6)
        sampled = shadow_distinguish("ZZ", 0.4, 6, mode="sampled", trials=6000, seed=1)
        assert abs(sampled.advantage - exact.advantage) < 0.08

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_mode_needs_a_trial(self, trials):
        with pytest.raises(UsageError, match="trial"):
            shadow_distinguish("Z", 0.2, 2, mode="sampled", trials=trials)

    def test_result_invariant(self):
        with pytest.raises(InvariantViolation):
            DistinguishResult(0.9, 0.1, 2)
        DistinguishResult(0.15, 0.1, 2)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            shadow_distinguish("Z" * 9, 0.1, 1)

    def test_hybrid_bound_cross_check(self):
        template = NoisyCircuit(
            2, [OracleCall("E", (0, 1)), OracleCall("E", (0, 1))], 0.3
        )
        rep = check_hybrid_bound(
            StateOracleBinding(StateOracle(2, "ZZ", 0)),
            StateOracleBinding(StateOracle(2, "ZZ", 1)),
            template,
            trials=8,
        )
        assert rep["holds"]

    def test_binomial_tv(self):
        assert binomial_tv(3, 0.5, 0.5) == 0.0
        assert binomial_tv(1, 1.0, 0.0) == 1.0
        assert binomial_tv(2, 1.0, 0.5) == pytest.approx(0.75)


class TestLiftedSimon:
    def test_capacity(self):
        with pytest.raises(CapacityError):
            lifted_simon_tv(4, 0.5)

    def test_noiseless_vacuous_bound(self):
        rep = lifted_simon_tv(2, 0.0)
        assert rep["holds"] and rep["rhs"] == 4.0

    def test_damping_and_monotonicity(self):
        r2 = lifted_simon_tv(2, 0.6)
        r3 = lifted_simon_tv(3, 0.6)
        assert r2["holds"] and r3["holds"]
        assert 0.0 < r3["lhs"] < r2["lhs"] < 0.05

    def test_reference_bound_values(self):
        assert lifted_simon_tv(2, 0.5)["rhs"] == pytest.approx(4 * math.exp(-0.25))
        assert lifted_simon_tv(3, 0.8)["rhs"] == pytest.approx(4 * math.exp(-0.6))

    def test_query_count_scales_bound(self):
        assert lifted_simon_tv(2, 0.5, queries=2)["rhs"] == pytest.approx(
            8 * math.exp(-0.25)
        )


def parity_query_circuit(oracle, lam):
    """The circuit generate_noisy_parity samples for `oracle`."""
    n = oracle.n_in
    h_in = layer(*[H(i) for i in range(n)])
    wires = tuple(range(n + oracle.m_out))
    steps = [h_in, OracleCall("O", wires)] + ([] if oracle.m_out == 1 else [h_in])
    return NoisyCircuit(len(wires), steps, lam)


def reference_parity_solver(inst):
    """The per-candidate loop over bit strings that the one scoring pass
    replaced: rank (agreement, candidate) highest first, the zero candidate
    dropped when every label is 0, None within 3 sqrt(m) of the runner-up."""
    xs, ys = [format(x, f"0{inst.n}b") for x in inst.xs.tolist()], inst.ys.tolist()
    scored = []
    for w in range(inst.w_max + 1):
        for pos in itertools.combinations(range(inst.k), w):
            if w == 0 and not any(ys):
                continue
            agree = sum(sum(int(x[p]) for p in pos) % 2 == y for x, y in zip(xs, ys))
            scored.append((agree, sum(1 << (inst.n - 1 - p) for p in pos)))
    if not scored or not ys:
        return None, scored
    scored.sort(reverse=True)
    if len(scored) > 1 and scored[0][0] - scored[1][0] < 3.0 * math.sqrt(len(ys)):
        return None, scored
    return format(scored[0][1], f"0{inst.n}b"), scored


class TestNoisyParityGeneration:
    def test_noiseless_bv_samples(self):
        s = "1010"
        inst = generate_noisy_parity(make_bv(s), 0.0, 300, seed=5, true_s=s)
        assert inst.eta == 0.0
        assert inst.xs.dtype == np.int64 and inst.ys.dtype == np.uint8 and len(inst.xs) == 300
        assert len(set(inst.xs.tolist())) > 4  # x really is spread out
        for x, y in zip(inst.xs.tolist(), inst.ys.tolist()):
            assert (x & bits_to_int(s)).bit_count() % 2 == y

    def test_noiseless_simon_samples(self):
        from nisqlab.oracles import SimonSpec, make_simon

        s = "1010"
        inst = generate_noisy_parity(
            make_simon(SimonSpec(4, s, seed=2)), 0.0, 300, seed=6, true_s=s
        )
        assert inst.eta == 0.0
        for x, y in zip(inst.xs.tolist(), inst.ys.tolist()):
            assert 0 <= x < 16 and y == 0 and (x & bits_to_int(s)).bit_count() % 2 == 0

    @pytest.mark.parametrize("style", ["bv", "simon"])
    def test_samples_expand_the_sampler_counts(self, style):
        # the instance is the sampler's counts, each word repeated by its
        # count in increasing word order, split into x and its label
        from nisqlab.oracles import SimonSpec, make_simon

        s, lam, shots, seed = "0110", 0.2, 700, 21
        oracle = make_bv(s) if style == "bv" else make_simon(SimonSpec(4, s, seed=4))
        counts = sample_outcomes(
            parity_query_circuit(oracle, lam), {"O": lift_to_unitary(oracle)}, seed=seed, shots=shots
        )
        pairs = [(int(w[:4], 2), int(w[4]) if style == "bv" else 0) for w in sorted(counts) for _ in range(counts[w])]
        before = oracle.query_counter.value
        inst = generate_noisy_parity(oracle, lam, shots, seed=seed, true_s=s)
        assert oracle.query_counter.value - before == shots
        assert list(zip(inst.xs.tolist(), inst.ys.tolist())) == pairs
        flips = sum((x & bits_to_int(s)).bit_count() % 2 != y for x, y in pairs)
        assert type(inst.eta) is float and inst.eta == flips / shots
        assert 0 < flips < shots  # the recount sees both agreeing and flipped samples

    def test_k_zero_is_usage_error(self):
        with pytest.raises(UsageError, match="k <= n"):
            generate_noisy_parity(make_bv("1010"), 0.1, 10, seed=1, k=0)

    def test_full_noise_half_rate(self):
        s = "1100"
        inst = generate_noisy_parity(make_bv(s), 1.0, 2000, seed=7, true_s=s)
        assert abs(inst.eta - 0.5) <= 3 * math.sqrt(0.25 / 2000)

    def test_bv_calibration_matches_exact_rate(self):
        # flip rate (1 - (1-lam)^(3 + |s|)) / 2: three ancilla layers plus
        # one post-oracle layer per secret bit
        s, lam = "110000", 0.1
        inst = generate_noisy_parity(make_bv(s), lam, 4000, seed=8, true_s=s)
        eta = 0.5 * (1 - (1 - lam) ** 5)
        assert abs(inst.eta - eta) <= 3 * math.sqrt(eta * (1 - eta) / 4000)

    def test_simon_calibration_matches_exact_rate(self):
        from nisqlab.oracles import SimonSpec, make_simon

        # four noise layers act on each secret-support qubit
        s, lam = "1100", 0.15
        inst = generate_noisy_parity(
            make_simon(SimonSpec(4, s, seed=3)), lam, 4000, seed=9, true_s=s
        )
        eta = 0.5 * (1 - (1 - lam) ** 8)
        assert abs(inst.eta - eta) <= 3 * math.sqrt(eta * (1 - eta) / 4000)
        assert inst.eta < 0.5

    def test_simon_style_past_the_trajectory_cap(self):
        # 2n = 24 wires: the trajectory backend refuses before building a state
        from nisqlab.oracles import SimonSpec, make_simon

        f = make_simon(SimonSpec(12, "1" * 12, seed=1))
        with pytest.raises(CapacityError, match="trajectory backend"):
            generate_noisy_parity(f, 0.1, 10, seed=1)
        assert f.query_counter.value == 0

    def test_rejects_other_arities(self):
        from nisqlab.oracles import ClassicalOracle

        odd = ClassicalOracle(4, 2, lambda x: 0, "odd")
        with pytest.raises(UsageError):
            generate_noisy_parity(odd, 0.1, 10)


class TestParitySolver:
    def make_instance(self, rng, n, s, eta, samples, k, w_max):
        s_int = bits_to_int(s)
        xs, ys = [], []
        for _ in range(samples):
            xs.append(int(rng.integers(0, 2**n)))
            ys.append((xs[-1] & s_int).bit_count() % 2 ^ int(rng.random() < eta))
        return NoisyParityInstance(n, np.array(xs), np.array(ys), k, w_max, eta)

    def test_exact_recovery(self, rng):
        inst = self.make_instance(rng, 8, "10010000", 0.0, 300, 4, 2)
        assert solve_noisy_parity_bruteforce(inst) == "10010000"

    def test_contradictory_data_fails(self, rng):
        xs = []
        for _ in range(100):
            xs += [int(rng.integers(0, 16))] * 2
        inst = NoisyParityInstance(4, np.array(xs), np.tile([0, 1], 100), 4, 2)
        assert solve_noisy_parity_bruteforce(inst) is None

    def test_zero_label_instances_exclude_zero(self, rng):
        # Simon-style data: labels all zero; the blank candidate would win
        s = "011000000000"
        s_int = bits_to_int(s)
        xs = []
        while len(xs) < 400:
            x = int(rng.integers(0, 2**12))
            if (x & s_int).bit_count() % 2 == 0:
                xs.append(x)
        inst = NoisyParityInstance(12, np.array(xs), np.zeros(400, dtype=np.uint8), 6, 2)
        assert solve_noisy_parity_bruteforce(inst) == s

    def test_no_samples_is_none(self):
        assert solve_noisy_parity_bruteforce(NoisyParityInstance(4, [], [], 4, 2)) is None

    @pytest.mark.parametrize("cells", [algorithms._SCORE_CELLS, 7])
    def test_matches_the_per_candidate_loop(self, cells, monkeypatch):
        # seven cells score one candidate at a time on all but the smallest instances
        monkeypatch.setattr(algorithms, "_SCORE_CELLS", cells)
        rng = np.random.default_rng(77)
        seen = collections.Counter()
        for _ in range(300):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            w_max = int(rng.integers(0, k + 1))
            m = int(rng.integers(0, 100))
            xs = rng.integers(0, 2**n, size=m)
            kind = rng.integers(0, 4)
            if kind == 0:  # Simon-style: every label 0
                ys = np.zeros(m, dtype=np.uint8)
            elif kind == 1:  # each x twice, with both labels: every candidate ties
                xs, ys = np.repeat(xs[: m // 2], 2), np.tile([0, 1], m // 2)
            else:  # a planted secret behind label noise of rate 0 or 0.3
                s = int(rng.integers(0, 2**n))
                ys = (np.bitwise_count(xs & s) & 1) ^ (rng.random(m) < 0.3 * (kind - 2))
            inst = NoisyParityInstance(n, xs, ys, k, w_max)
            want, scored = reference_parity_solver(inst)
            assert solve_noisy_parity_bruteforce(inst) == want
            if len(scored) > 1:
                gap = scored[0][0] - scored[1][0]
                seen["tie" if gap == 0 else "narrow" if gap < 3.0 * math.sqrt(len(ys)) else "clear"] += 1
            seen["zero dropped"] += bool(len(ys)) and not ys.any() and w_max > 0
            seen["found"] += want is not None
        assert min(seen[c] for c in ("tie", "narrow", "clear", "zero dropped", "found")) >= 5, seen

    def test_candidate_cap(self):
        inst = NoisyParityInstance(40, [0], [0], 40, 10)
        with pytest.raises(CapacityError):
            solve_noisy_parity_bruteforce(inst)

    def test_pipeline_recovery_rate(self, rng):
        # reduced-size version of the end-to-end pipeline check
        n, k, w_max, lam = 12, 6, 2, 0.1
        wins = 0
        for t in range(10):
            pos = rng.choice(k, size=2, replace=False)
            s = "".join("1" if i in pos else "0" for i in range(n))
            inst = generate_noisy_parity(
                make_bv(s), lam, 1000, seed=100 + t, k=k, w_max=w_max
            )
            wins += solve_noisy_parity_bruteforce(inst) == s
        assert wins >= 9

    def test_validation(self):
        with pytest.raises(UsageError):
            NoisyParityInstance(4, [], [], 5, 2)
        with pytest.raises(UsageError):
            NoisyParityInstance(4, [], [], 2, 3)

    @pytest.mark.parametrize(
        "xs, ys",
        [([1, 2], [0]), ([3], [0, 1]), ([[3]], [[0]]), ([16], [0]), ([-1], [0]), ([3], [2]), ([3], [-1])],
        ids=["short-ys", "short-xs", "2-d", "x-too-wide", "x-negative", "y-two", "y-negative"],
    )
    def test_sample_validation(self, xs, ys):
        with pytest.raises(UsageError):
            NoisyParityInstance(4, np.array(xs), np.array(ys), 4, 2)
