"""Runtime self-checks: one fast deterministic check per core invariant.

`run_checks` executes a registry of small named checks grouped by module
(qsim, metrics, oracles, codes, algorithms, harness) and returns a
JSON-ready summary.  Every check recomputes its expectation from scratch
with plain arithmetic and compares it to what the package computes, so a
regression in either side surfaces as a failed check rather than two
consistently wrong numbers.

Checks look their targets up through the module objects (for example
`qsim.depolarize_all`, never a from-import of the function), so the
suite exercises whatever implementation the package exposes at call
time, including patched-in replacements.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algorithms, codes, harness, metrics, oracles, qsim
from .errors import UsageError
from .oracles import (
    ClassicalOracle,
    GroverOracle,
    SimonSpec,
    StateOracle,
    StateOracleBinding,
)
from .qsim import (
    DensityMatrix,
    H,
    NoisyCircuit,
    OracleCall,
    OutcomeDistribution,
    X,
    layer,
    phase,
)
from .reporting import make_report
from .seeding import rng_for


@dataclass(frozen=True)
class Check:
    name: str
    group: str
    fn: Callable[[], dict]


_REGISTRY: list[Check] = []


def _check(group: str, name: str):
    def deco(fn: Callable[[], dict]) -> Callable[[], dict]:
        _REGISTRY.append(Check(f"{group}.{name}", group, fn))
        return fn

    return deco


def available_groups() -> list[str]:
    seen: list[str] = []
    for c in _REGISTRY:
        if c.group not in seen:
            seen.append(c.group)
    return seen


def run_checks(only: str | None = None) -> dict:
    """Run every registered check (or one group); returns the summary dict."""
    if only is not None and only not in available_groups():
        raise UsageError(
            f"unknown check group {only!r}; choose from {', '.join(available_groups())}"
        )
    results = []
    failures = []
    t_total = time.perf_counter()
    for check in _REGISTRY:
        if only is not None and check.group != only:
            continue
        t0 = time.perf_counter()
        rep = check.fn()
        entry = {"name": check.name, "seconds": round(time.perf_counter() - t0, 4), **rep}
        results.append(entry)
        if not rep["holds"]:
            failures.append(check.name)
    return {
        "passed": not failures,
        "group": only or "all",
        "total": len(results),
        "failures": failures,
        "seconds": round(time.perf_counter() - t_total, 4),
        "checks": results,
    }


def _random_density(n: int, rng: np.random.Generator) -> DensityMatrix:
    dim = 2**n
    eigs = rng.dirichlet(np.ones(dim))
    u = qsim.haar_unitary(dim, rng)
    return DensityMatrix(n, (u * eigs) @ u.conj().T)


# ---------------------------------------------------------------------------
# qsim
# ---------------------------------------------------------------------------


@_check("qsim", "depolarizing-action")
def _check_depolarizing_action() -> dict:
    """D_lam[rho] == (1 - lam) rho + lam I/2 per qubit, recomputed inline."""
    rng = rng_for(0, 0x7601)
    worst = 0.0
    for lam in (0.25, 0.6):
        rho = _random_density(1, rng)
        got = qsim.depolarize_all(rho, lam).entries
        want = (1.0 - lam) * rho.entries + lam * np.eye(2) / 2.0
        worst = max(worst, float(np.abs(got - want).max()))
        # per-qubit action factorizes over product states
        a, b = _random_density(1, rng), _random_density(1, rng)
        prod = DensityMatrix(2, np.kron(a.entries, b.entries))
        got2 = qsim.depolarize_all(prod, lam).entries
        d1 = lambda m: (1.0 - lam) * m + lam * np.eye(2) / 2.0
        worst = max(worst, float(np.abs(got2 - np.kron(d1(a.entries), d1(b.entries))).max()))
    return make_report(
        "depolarizing channel acts as (1 - lam) rho + lam I/2 on each qubit",
        worst,
        1e-12,
        worst <= 1e-12,
        1e-12,
    )


@_check("qsim", "noise-layer-count")
def _check_noise_layer_count() -> dict:
    """A T-step circuit applies T + 1 noise layers; an empty one applies 2."""
    lam = 0.4
    worst = 0.0
    for steps, layers in (([], 2), ([layer(phase(0, 0.0))] * 3, 4)):
        dist = qsim.exact_output_distribution(NoisyCircuit(1, steps, lam))
        want = (1.0 - (1.0 - lam) ** layers) / 2.0
        worst = max(worst, abs(dist.get("1") - want))
    return make_report(
        "noise layer count is T + 1, and 2 for an empty circuit",
        worst,
        1e-12,
        worst <= 1e-12,
        1e-12,
    )


@_check("qsim", "noiseless-reduction")
def _check_noiseless_reduction() -> dict:
    """lam = 0 exact distribution equals squared statevector amplitudes."""
    circ = qsim.random_circuit(3, 4, 0.0, rng_for(0, 0x7602))
    exact = qsim.exact_output_distribution(circ).as_array()
    amps = qsim.evolve_statevector(circ).amplitudes
    gap = float(np.abs(exact - np.abs(amps) ** 2).max())
    return make_report(
        "noiseless exact distribution equals |<s|U|0>|^2",
        gap,
        1e-9,
        gap <= 1e-9,
        1e-9,
    )


@_check("qsim", "backend-equivalence")
def _check_backend_equivalence() -> dict:
    """Trajectory sampling converges to the exact distribution."""
    shots = 40_000
    circ = qsim.random_circuit(3, 3, 0.3, rng_for(0, 0x7603))
    exact = qsim.exact_output_distribution(circ)
    counts = qsim.sample_outcomes(circ, seed=20, shots=shots)
    sampled = OutcomeDistribution.from_counts(3, counts)
    tv = metrics.tv_distance(exact, sampled)
    bound = 3.0 * math.sqrt(2**3 / shots)
    return make_report(
        "trajectory and exact backends agree within sampling error",
        tv,
        bound,
        tv <= bound,
        bound,
        shots=shots,
    )


@_check("qsim", "sampling-determinism")
def _check_sampling_determinism() -> dict:
    """Fixed (circuit, seed) reproduces counts; stream prefixes aggregate."""
    circ = qsim.random_circuit(2, 2, 0.2, rng_for(0, 0x7604))
    a = qsim.sample_outcomes(circ, seed=5, shots=300)
    b = qsim.sample_outcomes(circ, seed=5, shots=300)
    stream = qsim.sample_stream(circ, seed=5)
    prefix: dict[str, int] = {}
    for _ in range(25):
        w = next(stream)
        prefix[w] = prefix.get(w, 0) + 1
    head = qsim.sample_outcomes(circ, seed=5, shots=25)
    ok = a == b and prefix == head
    return make_report(
        "identical seeds reproduce samples and stream prefixes match batches",
        0.0 if ok else 1.0,
        0.0,
        ok,
        0.0,
    )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@_check("metrics", "metric-axioms")
def _check_metric_axioms() -> dict:
    rng = rng_for(0, 0x7610)
    worst = 0.0
    for _ in range(3):
        a, b, c = (_random_density(2, rng) for _ in range(3))
        dab = metrics.trace_distance(a, b)
        worst = max(worst, abs(dab - metrics.trace_distance(b, a)))
        worst = max(worst, metrics.trace_distance(a, a))
        worst = max(
            worst, dab - metrics.trace_distance(a, c) - metrics.trace_distance(c, b)
        )
    return make_report(
        "trace distance is symmetric, zero on identical states, triangular",
        worst,
        1e-9,
        worst <= 1e-9,
        1e-9,
    )


@_check("metrics", "data-processing")
def _check_data_processing() -> dict:
    """Measurement TV never exceeds trace distance."""
    rng = rng_for(0, 0x7611)
    worst = -math.inf
    for _ in range(4):
        a, b = _random_density(3, rng), _random_density(3, rng)
        pa = OutcomeDistribution.from_array(3, np.diag(a.entries).real)
        pb = OutcomeDistribution.from_array(3, np.diag(b.entries).real)
        worst = max(worst, metrics.tv_distance(pa, pb) - metrics.trace_distance(a, b))
    return make_report(
        "computational-basis TV is bounded by trace distance",
        worst,
        1e-9,
        worst <= 1e-9,
        1e-9,
    )


@_check("metrics", "kl-information")
def _check_kl_information() -> dict:
    """KL(measured p || uniform) <= I(rho)."""
    rng = rng_for(0, 0x7612)
    uniform = OutcomeDistribution.from_array(3, np.full(8, 1 / 8))
    worst = -math.inf
    for _ in range(4):
        rho = _random_density(3, rng)
        p = OutcomeDistribution.from_array(3, np.diag(rho.entries).real)
        worst = max(
            worst, metrics.kl_divergence(p, uniform) - metrics.information(rho).value
        )
    return make_report(
        "KL to uniform under measurement is at most the information",
        worst,
        1e-9,
        worst <= 1e-9,
        1e-9,
    )


@_check("metrics", "anti-concentration")
def _check_anti_concentration() -> dict:
    """Hitting a well-separated set under bit flips decays as exp(-c lam n)."""
    n = 12
    omega = [0, 2**n - 1]
    worst_c = math.inf
    for lam in (0.2, 0.5, 1.0):
        hit = float(metrics.flip_hit_probabilities(n, omega, lam).max())
        worst_c = min(worst_c, -math.log(hit) / (lam * n))
    return make_report(
        "flip-noise hit rate on separated targets decays exponentially",
        0.0,
        worst_c,
        worst_c > 0.0,
        0.0,
        n_bits=n,
        fitted_c=worst_c,
    )


@_check("metrics", "projection-bound")
def _check_projection_bound() -> dict:
    psi = qsim.evolve_statevector(qsim.random_circuit(3, 2, 0.0, rng_for(0, 0x7613)))
    return metrics.check_projection_bound(psi, [0, 3, 5], 0.3)


@_check("metrics", "info-decay")
def _check_info_decay() -> dict:
    circ = qsim.random_circuit(3, 3, 0.3, rng_for(0, 0x7614))
    return metrics.check_info_decay(circ)


@_check("metrics", "subsystem-averaging")
def _check_subsystem_averaging() -> dict:
    sigma = _random_density(3, rng_for(0, 0x7615))
    return metrics.check_subsystem_averaging(sigma, 2)


@_check("metrics", "subset-separation")
def _check_subset_separation() -> dict:
    return metrics.check_random_subset_separation(16, 8, 0.05, trials=120, seed=3)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@_check("oracles", "bv-truth-table")
def _check_bv_truth_table() -> dict:
    s = 0b1011
    oracle = oracles.make_bv("1011")
    bad = sum(
        1
        for x in range(16)
        if oracle.evaluate(x) != bin(x & s).count("1") % 2
    )
    return make_report(
        "inner-product oracle matches its truth table",
        float(bad),
        0.0,
        bad == 0,
        0.0,
    )


@_check("oracles", "simon-promise")
def _check_simon_promise() -> dict:
    spec = SimonSpec(3, "101", 2)
    table = oracles.make_simon(spec).table()
    s = 0b101
    collisions_ok = all(table[x] == table[x ^ s] for x in range(8))
    distinct = len({int(table[x]) for x in range(8)}) == 4
    ok = collisions_ok and distinct
    return make_report(
        "Simon oracle is constant on s-cosets and distinct across them",
        0.0 if ok else 1.0,
        0.0,
        ok,
        0.0,
    )


@_check("oracles", "lifted-xor-action")
def _check_lifted_xor_action() -> dict:
    """The lifted oracle permutes basis states as |x>|a> -> |x>|a xor f(x)>."""
    rng = rng_for(0, 0x7620)
    table = rng.integers(0, 4, size=4)
    oracle = ClassicalOracle(
        2, 2, lambda x: int(table[x]), "rand", fn_vec=lambda xs: table[xs]
    )
    binding = oracles.lift_to_unitary(oracle)
    seen = set()
    bad = 0
    for x in range(4):
        for a in range(4):
            prep = [X(i) for i in range(2) if (x >> (1 - i)) & 1]
            prep += [X(2 + i) for i in range(2) if (a >> (1 - i)) & 1]
            steps = ([layer(*prep)] if prep else []) + [OracleCall("O", (0, 1, 2, 3))]
            out = qsim.evolve_statevector(
                NoisyCircuit(4, steps, 0.0), {"O": binding}
            ).amplitudes
            idx = int(np.argmax(np.abs(out)))
            bad += abs(abs(out[idx]) - 1.0) > 1e-12
            bad += idx != (x << 2 | (a ^ int(table[x])))
            seen.add(idx)
    bad += len(seen) != 16
    return make_report(
        "lifted XOR oracle is the expected basis permutation",
        float(bad),
        0.0,
        bad == 0,
        0.0,
    )


@_check("oracles", "query-counter")
def _check_query_counter() -> dict:
    """Each oracle call inside a run increments the counter exactly once."""
    oracle = oracles.make_bv("10")
    binding = oracles.lift_to_unitary(oracle)
    circ = NoisyCircuit(
        3, [OracleCall("O", (0, 1, 2)), OracleCall("O", (0, 1, 2))], 0.0
    )
    for _ in range(3):
        qsim.evolve_statevector(circ, {"O": binding})
    count = oracle.query_counter.value
    return make_report(
        "query counter equals oracle calls times runs",
        float(count),
        6.0,
        count == 6,
        0.0,
    )


@_check("oracles", "grover-phase-action")
def _check_grover_phase_action() -> dict:
    """The phase oracle flips exactly the marked amplitude."""
    binding = oracles.make_grover_phase(GroverOracle(4, 3))
    circ = NoisyCircuit(2, [layer(H(0), H(1)), OracleCall("G", (0, 1))], 0.0)
    amps = qsim.evolve_statevector(circ, {"G": binding}).amplitudes
    gap = float(np.abs(amps - np.array([0.5, 0.5, 0.5, -0.5])).max())
    return make_report(
        "phase oracle negates the marked basis amplitude only",
        gap,
        1e-12,
        gap <= 1e-12,
        1e-12,
    )


@_check("oracles", "lifted-simon-damping")
def _check_lifted_simon_damping() -> dict:
    r2 = algorithms.lifted_simon_tv(2, 0.6, s="11", seed=7)
    r3 = algorithms.lifted_simon_tv(3, 0.6, s="111", seed=7)
    holds = r2["holds"] and r3["holds"] and r3["lhs"] < r2["lhs"]
    return make_report(
        "lifted-Simon output TV is bounded and shrinks with width",
        r3["lhs"],
        r2["lhs"],
        holds,
        1e-9,
        bound_n2=r2["rhs"],
        bound_n3=r3["rhs"],
    )


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


@_check("codes", "partition")
def _check_code_partition() -> dict:
    """Exhaustive depth-1 check: A_0, A_1 disjoint, complement-symmetric,
    and B-membership implies A-membership with the same bit."""
    spec = codes.ConcatCodeSpec(codes.hamming_base_code(), 1)
    bad = 0
    for x in range(2**7):
        word = [(x >> (6 - i)) & 1 for i in range(7)]
        flip = [1 - v for v in word]
        a = codes.membership_A(word, spec)
        a_flip = codes.membership_A(flip, spec)
        if a.is_bottom:
            bad += not a_flip.is_bottom
        else:
            bad += a_flip.is_bottom or a_flip.bit != 1 - a.bit
        b = codes.membership_B(word, spec)
        if not b.is_bottom:
            bad += a.is_bottom or a.bit != b.bit
    return make_report(
        "code membership partitions the cube symmetrically",
        float(bad),
        0.0,
        bad == 0,
        0.0,
    )


@_check("codes", "sparse-stability")
def _check_sparse_stability() -> dict:
    """Sparse flip patterns never change the robust evaluation."""
    spec = codes.ConcatCodeSpec(codes.hamming_base_code(), 2)
    simon = SimonSpec(2, "10", 5)
    rng = rng_for(0, 0x7630)
    bad = 0
    for _ in range(200):
        z = int(rng.integers(0, 4))
        clean = np.concatenate(
            [
                codes.sample_codeword(spec, (z >> 1) & 1, rng),
                codes.sample_codeword(spec, z & 1, rng),
            ]
        )
        noisy = clean.copy()
        for j in range(2):
            noisy[j * 49 : (j + 1) * 49] ^= codes.sample_sparse_flips(spec, rng)
        bad += codes.robust_simon_eval(noisy, spec, simon) != codes.robust_simon_eval(
            clean, spec, simon
        )
    return make_report(
        "robust evaluation is invariant under sparse flips",
        float(bad),
        0.0,
        bad == 0,
        0.0,
        trials=200,
    )


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


@_check("algorithms", "bv-repetitions")
def _check_bv_repetitions() -> dict:
    """Repetition counts: frozen reference, noiseless formula, log growth."""
    bad = 0
    bad += algorithms.bv_repetitions(algorithms.BVRunConfig(16, 0.02, 0.01)) != 25
    want = math.ceil(2.0 * math.log(4 / 0.01))
    bad += algorithms.bv_repetitions(algorithms.BVRunConfig(4, 0.0, 0.01)) != want
    ms = [
        algorithms.bv_repetitions(algorithms.BVRunConfig(n, 0.05, 0.01))
        for n in (8, 16, 32)
    ]
    bad += abs((ms[2] - ms[1]) - (ms[1] - ms[0])) > 1
    return make_report(
        "repetition counts match references and grow logarithmically",
        float(bad),
        0.0,
        bad == 0,
        0.0,
        counts=ms,
    )


@_check("algorithms", "bv-recovery")
def _check_bv_recovery() -> dict:
    noiseless = algorithms.run_noisy_bv(
        algorithms.BVRunConfig(4, 0.0, 0.01), oracles.make_bv("1011"), seed=3
    )
    noisy = algorithms.run_noisy_bv(
        algorithms.BVRunConfig(8, 0.05, 0.01), oracles.make_bv("10110100"), seed=3
    )
    ok = noiseless == "1011" and noisy == "10110100"
    return make_report(
        "majority vote recovers the secret in both noise regimes",
        0.0 if ok else 1.0,
        0.0,
        ok,
        0.0,
    )


@_check("algorithms", "grover-closed-form")
def _check_grover_closed_form() -> dict:
    worst = 0.0
    for n_search, t in ((4, 1), (8, 2)):
        got = algorithms.run_noisy_grover(GroverOracle(n_search, 1), 0.0, t)
        theta = math.asin(1.0 / math.sqrt(n_search))
        worst = max(worst, abs(got - math.sin((2 * t + 1) * theta) ** 2))
    degraded = algorithms.run_noisy_grover(GroverOracle(8, 1), 0.1, 2)
    clean = algorithms.run_noisy_grover(GroverOracle(8, 1), 0.0, 2)
    holds = worst <= 1e-9 and degraded < clean
    return make_report(
        "noiseless success matches the closed form; noise strictly degrades it",
        worst,
        1e-9,
        holds,
        1e-9,
        degraded=degraded,
        clean=clean,
    )


@_check("algorithms", "shadow-decay")
def _check_shadow_decay() -> dict:
    lam = 0.3
    worst = 0.0
    for pauli in ("Z", "ZZ", "ZIZ", "ZZZ"):
        got = algorithms.shadow_distinguish(pauli, lam, 1).trace_distance_per_query
        weight = sum(c != "I" for c in pauli)
        worst = max(worst, abs(got - (1.0 - lam) ** weight))
    d1 = algorithms.shadow_distinguish("Z", lam, 1).trace_distance_per_query
    d3 = algorithms.shadow_distinguish("ZZZ", lam, 1).trace_distance_per_query
    d4 = algorithms.shadow_distinguish("ZZZZ", lam, 1).trace_distance_per_query
    worst = max(worst, abs(d4 - d1 * d3))
    return make_report(
        "per-query trace distance is (1 - lam)^weight, multiplicative",
        worst,
        1e-9,
        worst <= 1e-9,
        1e-9,
    )


@_check("algorithms", "zalka-sum")
def _check_zalka_sum() -> dict:
    rep = algorithms.check_zalka_sum(algorithms.grover_zalka_template(8, 2), 8)
    holds = rep["holds"] and abs(rep["lhs"] - 12.25) <= 1e-9
    return make_report(rep["claim"], rep["lhs"], rep["rhs"], holds, 1e-9)


@_check("algorithms", "hybrid-consistency")
def _check_hybrid_consistency() -> dict:
    template = NoisyCircuit(
        2, [OracleCall("E", (0, 1)), OracleCall("E", (0, 1))], 0.3
    )
    return metrics.check_hybrid_bound(
        StateOracleBinding(StateOracle(2, "ZZ", 1)),
        StateOracleBinding(StateOracle(2, "ZZ", 0)),
        template,
        trials=6,
        seed=2,
    )


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


@_check("harness", "leaf-normalization")
def _check_leaf_normalization() -> dict:
    circ = qsim.random_circuit(2, 2, 0.3, rng_for(0, 0x7640))
    dist = harness.exact_leaf_distribution(
        harness.run_then_output(circ, depth=2), oracles.make_bv("11"), 0.3
    )
    total = sum(dist.probabilities.values())
    ok = abs(total - 1.0) <= 1e-9 and len(dist.probabilities) == 16
    return make_report(
        "exact leaf probabilities form a distribution",
        total,
        1.0,
        ok,
        1e-9,
        leaves=len(dist.probabilities),
    )


@_check("harness", "lecam-consistency")
def _check_lecam_consistency() -> dict:
    """Tree enumeration and direct output comparison agree on the TV."""
    n, lam = 2, 0.6
    template = algorithms.lifted_simon_template(n, 1, lam)
    lifted, zero = algorithms.lifted_simon_bindings(n, "11", 7)
    rep = harness.lecam_advantage(harness.run_then_output(template), [(1.0, lifted)], [(1.0, zero)], lam)
    direct = algorithms.lifted_simon_tv(n, lam, s="11", seed=7)
    gap = abs(rep["lhs"] - direct["lhs"])
    return make_report(
        "learning-tree TV matches the direct distribution TV",
        gap,
        1e-9,
        gap <= 1e-9 and rep["holds"],
        1e-9,
    )


@_check("harness", "lecam-null")
def _check_lecam_null() -> dict:
    circ = NoisyCircuit(1, [layer(H(0))], 0.2)
    fam = [(1.0, {"O": oracles.lift_to_unitary(oracles.make_bv("1"))})]
    rep = harness.lecam_advantage(harness.run_then_output(circ), fam, fam, 0.2)
    return make_report(
        "identical oracle families give zero advantage",
        rep["lhs"],
        0.0,
        rep["holds"] and rep["lhs"] <= 1e-12,
        1e-12,
    )


@_check("harness", "perturbation-identity")
def _check_perturbation_identity() -> dict:
    oracle = oracles.make_bv("10")
    rep = harness.perturbation_check(
        harness.run_then_output(algorithms.bv_circuit(2, 0.2)), oracle, oracle, 0.2
    )
    ok = rep["holds"] and rep["lhs"] <= 1e-12 and rep["details"]["epsilon"] <= 1e-12
    return make_report(
        "substituting an oracle for itself moves nothing",
        rep["lhs"],
        0.0,
        ok,
        1e-12,
    )


@_check("harness", "bv-equivalence")
def _check_bv_equivalence() -> dict:
    """The majority controller reproduces the direct runner bit-for-bit."""
    cfg = algorithms.BVRunConfig(6, 0.03, 0.01)
    oracle = oracles.make_bv("101101")
    res = harness.run_controller(harness.BVMajorityController(cfg), oracle, cfg.noise, seed=11)
    direct = algorithms.run_noisy_bv(cfg, oracle, seed=11)
    ok = res.answer == direct == "101101"
    return make_report(
        "harness majority answers equal the direct runner's answers",
        0.0 if ok else 1.0,
        0.0,
        ok,
        0.0,
        answer=res.answer,
        queries=res.queries,
    )
