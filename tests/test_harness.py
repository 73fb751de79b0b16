"""Learning-tree execution: transcripts, exact leaf enumeration,
two-point distinguishing, and the leaf-perturbation bound."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nisqlab
from nisqlab.algorithms import (
    BVRunConfig,
    bv_circuit,
    grover_circuit,
    lifted_simon_template,
    lifted_simon_tv,
    run_noisy_bv,
    shadow_distinguish,
)
from nisqlab.errors import CapacityError, UsageError
from nisqlab.harness import (
    BVMajorityController,
    CircuitEdge,
    ClassicalEdge,
    ClassicalQuery,
    Controller,
    FunctionController,
    LeafDistribution,
    Output,
    RunCircuit,
    Transcript,
    exact_leaf_distribution,
    lecam_advantage,
    perturbation_check,
    run_controller,
)
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
    NoisyCircuit,
    OracleCall,
    X,
    exact_output_distribution,
    H,
    layer,
    random_layer,
    sample_outcomes,
    sample_stream,
    sample_trajectory,
)


def run_then_output(circuit, depth=1):
    """Controller that runs `circuit` `depth` times, then outputs the last outcome."""

    def step(t):
        if t.circuit_depth < depth:
            return RunCircuit(circuit)
        return Output(t.edges[-1].outcome)

    return FunctionController(step)


def wide_oracle_circuit():
    """n = 16, so one sampling chunk is 32 trajectories; BV oracle on all wires."""
    circ = NoisyCircuit(16, [layer(*[H(i) for i in range(16)]), OracleCall("O", tuple(range(16)))], 0.1)
    return circ, {"O": lift_to_unitary(make_bv("101100111000101"))}


def adaptive_controller(rng, lam):
    """Two 2-qubit query circuits; the second is picked by the first outcome's last bit."""

    def query_circuit():
        return NoisyCircuit(2, [random_layer(2, rng), OracleCall("O", (0, 1)), random_layer(2, rng)], lam)

    first, on0, on1 = query_circuit(), query_circuit(), query_circuit()

    def step(t):
        if t.circuit_depth == 0:
            return RunCircuit(first)
        if t.circuit_depth == 1:
            return RunCircuit(on1 if t.edges[-1].outcome.endswith("1") else on0)
        return Output(t.edges[-1].outcome)

    return FunctionController(step)


class CountingController(Controller):
    """Counts step calls of a wrapped controller."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def step(self, transcript):
        self.calls += 1
        return self.inner.step(transcript)


def per_member_lecam(controller, family0, family1, noise):
    """Exact two-point TV and transcript count, mixing one leaf distribution
    per family member."""
    mixes = []
    for family in (family0, family1):
        mix = {}
        for w, oracle in family:
            for t, p in exact_leaf_distribution(controller, oracle, noise).probabilities.items():
                mix[t] = mix.get(t, 0.0) + w * p
        mixes.append(mix)
    keys = mixes[0] | mixes[1]
    return 0.5 * sum(abs(mixes[0].get(k, 0.0) - mixes[1].get(k, 0.0)) for k in keys), len(keys)


ZERO_1BIT = ClassicalOracle(1, 1, lambda x: 0, "zero1", fn_vec=lambda xs: np.zeros_like(xs))


def zero_oracle(n):
    return ClassicalOracle(2 * n, n, lambda x: 0, "zero", fn_vec=lambda xs: np.zeros_like(xs))


class TestRunController:
    def test_single_classical_query(self):
        def step(t):
            if len(t) == 0:
                return ClassicalQuery(5)
            return Output(t.edges[0].fx)

        r = run_controller(FunctionController(step), make_bv("1010"), 0.1, seed=3)
        assert len(r.transcript) == 1
        assert r.queries == 1
        assert r.answer == make_bv("1010").evaluate(5)

    def test_zero_action_controller(self):
        r = run_controller(FunctionController(lambda t: Output(42)), make_bv("11"), 0.2)
        assert r.transcript == Transcript()
        assert r.queries == 0 and r.runtime_units == 0
        assert r.answer == 42

    @pytest.mark.parametrize(
        "seed, repetitions", [(0, 0), (1, 0), (7, 0), (99, 0), (1, 2)], ids=["0", "1", "7", "99", "tie"]
    )
    def test_bv_controller_matches_direct_estimator(self, seed, repetitions):
        # same circuit, same seed, same outcome stream: answers agree run for run
        cfg = BVRunConfig(6, 0.03, 0.01, repetitions)
        oracle = make_bv("101101")
        direct = run_noisy_bv(cfg, oracle, seed=seed)
        res = run_controller(BVMajorityController(cfg), oracle, cfg.noise, seed=seed)
        assert res.answer == direct
        if repetitions == 2:
            # the two runs disagree on some bit, and both callers read the tie as 0
            a, b = (e.outcome[:6] for e in res.transcript.edges)
            assert a != b
            assert direct == "".join(x if x == y else "0" for x, y in zip(a, b))

    def test_stream_prefix_matches_batch_sampler(self):
        circ = NoisyCircuit(3, [layer(H(0), H(1)), OracleCall("O", (0, 1, 2))], 0.2)
        b = {"O": lift_to_unitary(make_bv("10"))}
        wide, wide_b = wide_oracle_circuit()
        for circ, b, m in ((circ, b, 1), (circ, b, 7), (circ, b, 40), (wide, wide_b, 100)):
            from collections import Counter

            stream = Counter(itertools.islice(sample_stream(circ, b, seed=17), m))
            assert dict(stream) == sample_outcomes(circ, b, seed=17, shots=m)

    def test_single_trajectory_is_stream_outcome(self):
        # indices 0..99 cross three 32-trajectory chunk boundaries
        circ, b = wide_oracle_circuit()
        stream = list(itertools.islice(sample_stream(circ, b, seed=5), 100))
        assert [sample_trajectory(circ, b, seed=5, index=k) for k in range(100)] == stream

    def test_stream_simulates_each_trajectory_once(self):
        oracle = make_bv("10")
        circ = NoisyCircuit(3, [layer(H(0), H(1)), OracleCall("O", (0, 1, 2))], 0.2)
        list(itertools.islice(sample_stream(circ, {"O": lift_to_unitary(oracle)}, seed=17), 100))
        assert oracle.query_counter.value == 128  # rows [0, 64) then [64, 128)

    def test_query_accounting(self):
        # two oracle calls inside one circuit count as two queries
        circ = NoisyCircuit(2, [OracleCall("O", (0, 1)), OracleCall("O", (0, 1))], 0.1)

        def step(t):
            if len(t) == 0:
                return ClassicalQuery(0)
            if t.circuit_depth < 1:
                return RunCircuit(circ)
            return Output(None)

        r = run_controller(FunctionController(step), make_bv("1"), 0.1, seed=2)
        assert r.queries == 3
        assert r.transcript.edges[1].oracle_calls == 2
        assert r.runtime_units == 2 * 2

    def test_ambient_noise_overrides_circuit(self):
        # circuit stamped lam=0.9 but ambient 0: X gate gives |1> surely
        circ = NoisyCircuit(1, [layer(X(0))], 0.9)
        r = run_controller(run_then_output(circ), make_bv("1"), 0.0, seed=1)
        assert r.transcript.edges[0].outcome == "1"

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr("nisqlab.harness.STEP_BUDGET", 25)
        looping = FunctionController(lambda t: ClassicalQuery(0))
        with pytest.raises(CapacityError, match="budget"):
            run_controller(looping, make_bv("10"), 0.0)

    def test_depth_cap(self, monkeypatch):
        monkeypatch.setattr("nisqlab.harness.DEPTH_CAP", 10)
        deep = NoisyCircuit(1, [layer(X(0))] * 12, 0.0)
        with pytest.raises(CapacityError, match="depth"):
            run_controller(run_then_output(deep), make_bv("1"), 0.0)

    def test_classical_query_needs_classical_view(self):
        ctrl = FunctionController(lambda t: ClassicalQuery(1))
        binding = StateOracleBinding(StateOracle(2, "ZZ", 1))
        with pytest.raises(UsageError, match="classical"):
            run_controller(ctrl, binding, 0.1)

    def test_bad_action_rejected(self):
        with pytest.raises(UsageError, match="not an action"):
            run_controller(FunctionController(lambda t: "hm"), make_bv("1"), 0.0)

    def test_reproducible_bit_for_bit(self):
        cfg = BVRunConfig(4, 0.05, 0.1, repetitions=6)
        oracle = make_bv("1011")
        a = run_controller(BVMajorityController(cfg), oracle, cfg.noise, seed=11)
        b = run_controller(BVMajorityController(cfg), oracle, cfg.noise, seed=11)
        assert a.transcript == b.transcript
        c = run_controller(BVMajorityController(cfg), oracle, cfg.noise, seed=12)
        assert c.transcript != a.transcript  # different seed, different runs

    def test_transcript_edges(self):
        def step(t):
            if len(t) == 0:
                return ClassicalQuery(1)
            if t.circuit_depth < 1:
                return RunCircuit(NoisyCircuit(2, [OracleCall("O", (0, 1))], 0.1))
            return Output("x")

        r = run_controller(FunctionController(step), make_bv("1"), 0.1, seed=4)
        first, second = r.transcript.edges
        assert first == ClassicalEdge(1, make_bv("1").evaluate(1))
        assert isinstance(second, CircuitEdge) and len(second.circuit_key) == 15


class TestExactLeaves:
    def test_deterministic_circuit_single_leaf(self):
        circ = NoisyCircuit(1, [layer(X(0))], 0.0)
        ld = exact_leaf_distribution(run_then_output(circ), make_bv("1"), 0.0)
        assert len(ld.probabilities) == 1
        (t, p), = ld.probabilities.items()
        assert p == pytest.approx(1.0, abs=1e-12)
        assert t.edges[0].outcome == "1"
        assert ld.answers[t] == "1"

    def test_leaves_sum_to_one_depth2(self, rng):
        for _ in range(4):
            circ = NoisyCircuit(3, [random_layer(3, rng), random_layer(3, rng)], 0.25)
            ld = exact_leaf_distribution(run_then_output(circ, depth=2), make_bv("11"), 0.25)
            assert abs(sum(ld.probabilities.values()) - 1.0) < 1e-9
            assert len(ld.probabilities) == 64  # 8 outcomes squared

    def test_first_edge_marginal_matches_qsim(self):
        circ = NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.3)
        ld = exact_leaf_distribution(run_then_output(circ, depth=2), make_bv("1"), 0.3)
        want = exact_output_distribution(circ, {"O": lift_to_unitary(make_bv("1"))})
        marg: dict[str, float] = {}
        for t, p in ld.probabilities.items():
            o = t.edges[0].outcome
            marg[o] = marg.get(o, 0.0) + p
        for o, p in marg.items():
            assert p == pytest.approx(want.get(o), abs=1e-12)

    def test_classical_branch_is_deterministic(self):
        def step(t):
            if len(t) == 0:
                return ClassicalQuery(2)
            return Output(t.edges[0].fx)

        ld = exact_leaf_distribution(FunctionController(step), make_bv("10"), 0.1)
        assert len(ld.probabilities) == 1
        assert list(ld.answers.values()) == [make_bv("10").evaluate(2)]

    def test_sampled_frequencies_converge(self):
        circ = NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.2)
        ctrl = run_then_output(circ, depth=2)
        exact = exact_leaf_distribution(ctrl, make_bv("1"), 0.2)
        trials = 1500
        freq: dict = {}
        for t in range(trials):
            r = run_controller(ctrl, make_bv("1"), 0.2, seed=t)
            freq[r.transcript] = freq.get(r.transcript, 0) + 1
        keys = set(freq) | set(exact.probabilities)
        tv = 0.5 * sum(
            abs(freq.get(k, 0) / trials - exact.probabilities.get(k, 0.0)) for k in keys
        )
        assert tv <= 3 * math.sqrt(len(exact.probabilities) / trials)

    def test_leaf_cap(self, monkeypatch):
        monkeypatch.setattr("nisqlab.harness.LEAF_CAP", 30)
        circ = NoisyCircuit(2, [layer(H(0), H(1))], 0.2)
        with pytest.raises(CapacityError):
            exact_leaf_distribution(run_then_output(circ, depth=3), make_bv("1"), 0.2)

    def test_distribution_validation(self):
        t = Transcript((ClassicalEdge(0, 1),))
        with pytest.raises(UsageError, match="sum"):
            LeafDistribution({t: 0.5})


class TestLeCam:
    def test_identical_families_zero(self):
        circ = NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.3)
        fam = [(1.0, make_bv("1"))]
        rep = lecam_advantage(run_then_output(circ), fam, fam, 0.3)
        assert rep["lhs"] == 0.0 and rep["holds"]

    def test_matches_lifted_simon_tv(self):
        # the direct distribution comparison and the tree enumeration are
        # two code paths computing one quantity
        n, lam = 2, 0.6
        template = lifted_simon_template(n, 1, lam)
        lifted = make_lifted_simon(make_simon(SimonSpec(n, "11", 7)))
        f0 = [(1.0, {"F": lift_to_unitary(lifted)})]
        f1 = [(1.0, {"F": lift_to_unitary(zero_oracle(n))})]
        rep = lecam_advantage(run_then_output(template), f0, f1, lam)
        assert rep["lhs"] == pytest.approx(lifted_simon_tv(n, lam, seed=7)["lhs"], abs=1e-12)

    def test_grover_single_query_mixture(self):
        # one noiseless iteration cannot tell a uniformly random mark from none
        g = grover_circuit(3, 1, 0.0)
        f0 = [(1 / 8, {"G": make_grover_phase(GroverOracle(8, i))}) for i in range(8)]
        f1 = [(1.0, {"G": make_grover_phase(GroverOracle(8, 0))})]
        rep = lecam_advantage(run_then_output(g), f0, f1, 0.0)
        assert rep["holds"] and rep["lhs"] < 1 / 3

    def test_sampled_mode_agrees(self):
        g = grover_circuit(3, 1, 0.0)
        f0 = [(1 / 8, {"G": make_grover_phase(GroverOracle(8, i))}) for i in range(8)]
        f1 = [(1.0, {"G": make_grover_phase(GroverOracle(8, 0))})]
        exact = lecam_advantage(run_then_output(g), f0, f1, 0.0)
        rep = lecam_advantage(
            run_then_output(g), f0, f1, 0.0, mode="sampled", trials=500, seed=5
        )
        assert rep["holds"]
        assert abs(rep["lhs"] - exact["lhs"]) <= rep["details"]["slack"]

    def test_sampled_mode_shares_streams_per_member(self):
        # a member's trials continue one stream set: each of the first
        # family's 8 members simulates one 64-row range, the second's one two
        g = grover_circuit(3, 1, 0.0)
        marks = [GroverOracle(8, i) for i in range(8)]
        no_mark = GroverOracle(8, 0)
        f0 = [(1 / 8, {"G": make_grover_phase(o)}) for o in marks]
        f1 = [(1.0, {"G": make_grover_phase(no_mark)})]
        lecam_advantage(run_then_output(g), f0, f1, 0.0, mode="sampled", trials=100, seed=5)
        assert sum(o.query_counter.value for o in marks + [no_mark]) <= 640

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.3])
    def test_grover_family_matches_per_member_mixture(self, lam):
        g = grover_circuit(3, 1, lam)
        f0 = [(1 / 8, {"G": make_grover_phase(GroverOracle(8, i))}) for i in range(8)]
        f1 = [(1.0, {"G": make_grover_phase(GroverOracle(8, 0))})]
        rep = lecam_advantage(run_then_output(g), f0, f1, lam)
        tv, transcripts = per_member_lecam(run_then_output(g), f0, f1, lam)
        assert abs(rep["lhs"] - tv) <= 1e-15
        assert rep["details"]["transcripts"] == transcripts

    @pytest.mark.parametrize("seed,lam", [(0, 0.2), (1, 0.5), (2, 0.0)])
    def test_shared_oracle_families_match_per_member_mixture(self, seed, lam):
        # the families mix the same two oracle objects, as the benchmark's do
        ctrl = adaptive_controller(np.random.default_rng(seed), lam)
        one, zero = make_bv("1"), make_bv("0")
        f0, f1 = [(0.5, one), (0.5, zero)], [(0.3, one), (0.7, zero)]
        rep = lecam_advantage(ctrl, f0, f1, lam)
        tv, transcripts = per_member_lecam(ctrl, f0, f1, lam)
        assert abs(rep["lhs"] - tv) <= 1e-15
        assert rep["details"]["transcripts"] == transcripts

    def test_families_differing_in_classical_answers(self):
        # each member answers the controller's classical query itself
        def step(t):
            if len(t) == 0:
                return ClassicalQuery(1)
            if t.circuit_depth < 1:
                return RunCircuit(NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.2))
            return Output((t.edges[0].fx, t.edges[-1].outcome))

        ctrl = FunctionController(step)
        f0 = [(0.5, make_bv("1")), (0.5, make_bv("0"))]
        f1 = [(1.0, make_bv("0"))]
        rep = lecam_advantage(ctrl, f0, f1, 0.2)
        tv, transcripts = per_member_lecam(ctrl, f0, f1, 0.2)
        assert rep["lhs"] == pytest.approx(0.5, abs=1e-12)
        assert abs(rep["lhs"] - tv) <= 1e-15
        assert rep["details"]["transcripts"] == transcripts

    def test_exact_mode_steps_once_per_tree_node(self):
        ctrl = CountingController(adaptive_controller(np.random.default_rng(4), 0.2))
        exact_leaf_distribution(ctrl, make_bv("1"), 0.2)
        nodes, ctrl.calls = ctrl.calls, 0
        one, zero = make_bv("1"), make_bv("0")
        lecam_advantage(ctrl, [(0.5, one), (0.5, zero)], [(0.3, one), (0.7, zero)], 0.2)
        assert nodes == 1 + 4 + 16
        assert ctrl.calls == nodes

    def test_disjoint_supports_walk_each_member_path_once(self):
        # noiseless BV: every member's tree is one path, and the members' outcomes differ
        circ = bv_circuit(3, 0.0)
        secrets = ["".join(bits) for bits in itertools.product("01", repeat=3)]
        f0 = [(1 / 8, make_bv(s)) for s in secrets]
        f1 = [(1.0, make_bv("000"))]
        ctrl = CountingController(run_then_output(circ, depth=7))
        for _, oracle in f0 + f1:
            exact_leaf_distribution(ctrl, oracle, 0.0)
        member_nodes, ctrl.calls = ctrl.calls, 0
        rep = lecam_advantage(ctrl, f0, f1, 0.0)
        assert member_nodes == 9 * 8
        assert ctrl.calls <= member_nodes
        tv, transcripts = per_member_lecam(ctrl, f0, f1, 0.0)
        assert rep["lhs"] == tv == pytest.approx(7 / 8, abs=1e-12)
        assert rep["details"]["transcripts"] == transcripts == 8

    def test_differing_classical_answers_walk_each_member_path_once(self):
        # k queries on which two members differ: two paths, not 2^k
        def step(t):
            if len(t) < 6:
                return ClassicalQuery(1)
            return Output(t.edges[-1].fx)

        ctrl = CountingController(FunctionController(step))
        rep = lecam_advantage(ctrl, [(1.0, make_bv("1"))], [(1.0, make_bv("0"))], 0.0)
        assert ctrl.calls == 2 * 7 - 1
        assert rep["lhs"] == 1.0
        assert rep["details"]["transcripts"] == 2

    def test_members_simulate_only_nodes_they_reach(self):
        # the second circuit depends on the first outcome's data bit, which
        # tells the members apart: each member runs only its own second circuit
        second = {
            "1": NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.0),
            "0": NoisyCircuit(2, [OracleCall("O", (0, 1))], 0.0),
        }

        def step(t):
            if len(t) == 0:
                return RunCircuit(bv_circuit(1, 0.0))
            if len(t) == 1:
                return RunCircuit(second[t.edges[0].outcome[0]])
            return Output(t.edges[-1].outcome)

        one, zero = make_bv("1"), make_bv("0")
        rep = lecam_advantage(FunctionController(step), [(1.0, one)], [(1.0, zero)], 0.0)
        assert (one.query_counter.value, zero.query_counter.value) == (2, 2)
        assert rep["lhs"] == 0.999999999999999
        # the perturbation check still compares both trees at every node
        pert = perturbation_check(FunctionController(step), make_bv("1"), make_bv("0"), 0.0)
        assert (pert["lhs"], pert["rhs"]) == (0.999999999999999, 1.9999999999999982)
        assert (pert["details"]["depth"], pert["details"]["leaves"]) == (2, 3)

    def test_family_validation(self):
        circ = NoisyCircuit(2, [OracleCall("O", (0, 1))], 0.1)
        good = [(1.0, make_bv("1"))]
        with pytest.raises(UsageError, match="weights"):
            lecam_advantage(run_then_output(circ), [(0.5, make_bv("1"))], good, 0.1)
        with pytest.raises(UsageError, match="empty"):
            lecam_advantage(run_then_output(circ), [], good, 0.1)
        with pytest.raises(UsageError, match="mode"):
            lecam_advantage(run_then_output(circ), good, good, 0.1, mode="guess")

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_mode_needs_a_trial(self, trials):
        circ = NoisyCircuit(2, [OracleCall("O", (0, 1))], 0.1)
        fam = [(1.0, make_bv("1"))]
        with pytest.raises(UsageError, match="trial"):
            lecam_advantage(run_then_output(circ), fam, fam, 0.1, mode="sampled", trials=trials)


class TestPerturbation:
    def test_identity_substitution(self):
        circ = NoisyCircuit(2, [layer(H(0)), OracleCall("O", (0, 1))], 0.3)
        rep = perturbation_check(run_then_output(circ, depth=2), make_bv("1"), make_bv("1"), 0.3)
        assert rep["lhs"] == 0.0
        assert rep["details"]["epsilon"] == 0.0
        assert rep["holds"]

    def test_lifted_to_zero_two_queries(self):
        n, lam = 2, 0.5
        template = lifted_simon_template(n, 1, lam)
        lifted = make_lifted_simon(make_simon(SimonSpec(n, "11", 7)))
        rep = perturbation_check(
            run_then_output(template, depth=2),
            {"F": lifted},
            {"F": zero_oracle(n)},
            lam,
        )
        assert rep["holds"]
        assert rep["details"]["depth"] == 2
        assert rep["rhs"] == pytest.approx(2 * rep["details"]["epsilon"])

    def test_epsilon_matches_shadow_trace_norm(self):
        # replacing P-state with the mixed state drifts each node by exactly
        # half the per-query trace-norm difference
        lam = 0.3
        probe = NoisyCircuit(2, [OracleCall("E", (0, 1))], lam)
        per_q = shadow_distinguish("ZZ", lam, 1).trace_distance_per_query
        rep = perturbation_check(
            run_then_output(probe),
            {"E": StateOracleBinding(StateOracle(2, "ZZ", 1))},
            {"E": StateOracleBinding(StateOracle(2, "ZZ", 0))},
            lam,
        )
        assert rep["details"]["epsilon"] == pytest.approx(per_q / 2, abs=1e-10)
        assert rep["holds"]

    def test_classical_edges_do_not_drift(self):
        def step(t):
            if len(t) == 0:
                return ClassicalQuery(1)
            if t.circuit_depth < 1:
                return RunCircuit(NoisyCircuit(2, [OracleCall("O", (0, 1))], 0.2))
            return Output(t.edges[-1].outcome)

        rep = perturbation_check(FunctionController(step), make_bv("1"), ZERO_1BIT, 0.2)
        assert rep["holds"]
        assert rep["details"]["depth"] == 1


    def test_leaf_tv_independent_of_hash_seed(self):
        # transcripts hash through strings; the leaf TV must not sum in hash order
        code = (
            "from nisqlab.harness import FunctionController, Output, RunCircuit, perturbation_check\n"
            "from nisqlab.oracles import make_bv\n"
            "from nisqlab.qsim import H, NoisyCircuit, OracleCall, layer\n"
            "circ = NoisyCircuit(2, [layer(H(0)), OracleCall('O', (0, 1)), layer(H(0))], 0.2)\n"
            "step = lambda t: RunCircuit(circ) if t.circuit_depth < 2 else Output(t.edges[-1].outcome)\n"
            "print(repr(perturbation_check(FunctionController(step), make_bv('1'), make_bv('0'), 0.2)['lhs']))\n"
        )
        src = str(Path(nisqlab.__file__).resolve().parents[1])
        outs = []
        for hash_seed in ("0", "4"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout.strip())
        assert outs[0] == outs[1]


class TestControllerProtocol:
    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Controller().step(Transcript())

    def test_transcript_properties(self):
        t = Transcript(
            (
                ClassicalEdge(1, 0),
                CircuitEdge("abc", "01", oracle_calls=2, runtime_units=6),
            )
        )
        assert t.query_count == 3
        assert t.circuit_depth == 1
        assert t.runtime_units == 6
        assert len(t) == 2
