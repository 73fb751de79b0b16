"""NISQ algorithms on the noisy simulator and their quantitative checks.

Covers majority-vote Bernstein-Vazirani, Grover with a fully decomposed
diffusion operator, the Zalka query-perturbation sum, Pauli-state
distinguishing under depolarizing decay, lifted-Simon output damping, and
noisy-parity sample generation plus brute-force recovery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import bits_to_int, int_to_bits, str_to_arr, strs_to_arr
from .errors import CapacityError, InvariantViolation, UsageError
from .metrics import trace_norm, tv_distance
from .oracles import (
    ClassicalOracle,
    GroverOracle,
    SimonSpec,
    StateOracle,
    make_grover_phase,
    make_lifted_simon,
    make_simon,
    lift_to_unitary,
    pauli_string_matrix,
)
from .qsim import (
    CNOT,
    DensityMatrix,
    Gate,
    GateLayer,
    H,
    NoiseRate,
    NoisyCircuit,
    OracleCall,
    X,
    _as_noise_rate,
    _built,
    _counts,
    depolarize_all,
    evolve_statevector,
    exact_output_distribution,
    layer,
    phase,
    random_layer,
    sample_outcomes,
)
from .reporting import make_report
from .seeding import resolve_seed, rng_for

# the repetition formula needs a per-bit floor f = (1-lam)^6 above 1/2
BV_AUTO_NOISE_CAP = 1.0 - 2.0 ** (-1.0 / 6.0)
# below 1/24 the count is covered by the clean first-order bound
# (1 - 2f)^2 >= 1 - 24 lam; beyond it recovery still works empirically
BV_GUARANTEE_CAP = 1.0 / 24.0
BV_FAST_QUBIT_MIN = 15  # above this the trajectory backend gets slow
PARITY_CANDIDATE_CAP = 10**6
_SCORE_CELLS = 2**20  # sample-candidate cells a scoring pass holds at once
SHADOW_EXACT_CAP = 8

_HX = np.array([[1, 1], [-1, 1]], dtype=np.complex128) / math.sqrt(2)  # |0> -> |->


# ---------------------------------------------------------------------------
# Bernstein-Vazirani with majority votes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BVRunConfig:
    """Parameters for one majority-vote secret recovery."""

    n: int
    noise: NoiseRate
    delta: float
    repetitions: int = 0  # 0 = derive from (n, noise, delta)

    def __post_init__(self) -> None:
        object.__setattr__(self, "noise", _as_noise_rate(self.noise))
        if self.n < 1:
            raise UsageError("n must be positive")
        if not (0.0 < self.delta < 1.0):
            raise UsageError("delta must lie in (0, 1)")
        if self.repetitions < 0:
            raise UsageError("repetitions must be nonnegative")
        if self.repetitions == 0 and self.noise.value >= BV_AUTO_NOISE_CAP:
            raise UsageError(
                f"automatic repetition count needs (1 - noise)^6 > 1/2, got "
                f"noise {self.noise.value}; pass repetitions explicitly"
            )

    @property
    def guaranteed(self) -> bool:
        """Whether the noise sits in the regime the clean query-count bound
        covers (below 1/24); recovery typically works well beyond it."""
        return self.noise.value < BV_GUARANTEE_CAP


def bv_repetitions(cfg: BVRunConfig) -> int:
    """Majority-vote count M = ceil(ln(n/delta) / (2 (1/2 - f)^2)),
    f = (1 - lambda)^6 the per-bit correctness floor."""
    if cfg.repetitions:
        return cfg.repetitions
    f = (1.0 - cfg.noise.value) ** 6
    return math.ceil(math.log(cfg.n / cfg.delta) / (2.0 * (0.5 - f) ** 2))


def bv_circuit(n: int, noise) -> NoisyCircuit:
    """The one-query secret-extraction circuit on n data qubits + ancilla.

    One preparation layer (H on data, HX on the ancilla so it starts |->),
    the oracle, one closing H layer: four noise layers total, matching the
    (1-lambda)^6 per-bit accounting (4 on the data qubit, 2 on the ancilla
    before the oracle).
    """
    prep = GateLayer(tuple(H(i) for i in range(n)) + (Gate(_HX, (n,), "HX"),))
    close = layer(*[H(i) for i in range(n + 1)])
    call = OracleCall("O", tuple(range(n + 1)))
    return NoisyCircuit(n + 1, [prep, call, close], noise)


def _fast_bv_counts(s_bits: np.ndarray, lam: float, runs: int, rng) -> dict[str, int]:
    # Exact classical replica of the circuit's outcome law, from Pauli
    # propagation: bits with s_i = 1 flip on own-qubit noise (4 layers) and
    # share the ancilla's two pre-oracle flips; s_i = 0 bits see only their
    # own 4 layers; the ancilla adds two private post-oracle layers.
    n = s_bits.size
    p_own = 0.5 * (1.0 - (1.0 - lam) ** 4)
    p_anc_extra = 0.5 * (1.0 - (1.0 - lam) ** 2)
    shared = rng.random((runs, 2)) < lam / 2
    a = shared[:, 0] ^ shared[:, 1]
    flips = rng.random((runs, n)) < p_own
    s_bool = s_bits.astype(bool)
    bits = (s_bool[None, :] ^ flips ^ (a[:, None] & s_bool[None, :])).astype(np.uint8)
    anc = (~a ^ (rng.random(runs) < p_anc_extra)).astype(np.uint8)
    words = np.concatenate([bits, anc[:, None]], axis=1)
    return _counts(words @ (1 << np.arange(n, -1, -1, dtype=np.int64)), n + 1)


def bv_outcome_counts(
    cfg: BVRunConfig,
    oracle: ClassicalOracle,
    runs: int,
    seed: int | None = None,
    threads: int = 1,
) -> dict[str, int]:
    """Outcome counts of `runs` independent noisy executions.

    The circuit's exact outcome law for a linear f serves only oracles that
    declare their secret (`make_bv` does), above BV_FAST_QUBIT_MIN qubits;
    every other oracle is sampled by trajectory.
    """
    if oracle.n_in != cfg.n or oracle.m_out != 1:
        raise UsageError(f"need a {cfg.n}-bit single-output oracle")
    seed = resolve_seed(seed)
    secret = oracle.bv_secret
    if secret is not None and cfg.n + 1 > BV_FAST_QUBIT_MIN:
        # distribution-identical to the trajectory sampler at any width
        return _fast_bv_counts(str_to_arr(secret), cfg.noise.value, runs, rng_for(seed, 0x6276))
    circuit = bv_circuit(cfg.n, cfg.noise)
    return sample_outcomes(circuit, {"O": lift_to_unitary(oracle)}, seed=seed, shots=runs, threads=threads)


def run_noisy_bv(cfg: BVRunConfig, oracle: ClassicalOracle, seed: int | None = None, threads: int = 1) -> str:
    """Estimate the secret: M noisy runs, per-bit majority over outcomes."""
    counts = bv_outcome_counts(cfg, oracle, bv_repetitions(cfg), seed=seed, threads=threads)
    return majority_vote(counts, cfg.n)


def majority_vote(counts: dict[str, int], n: int) -> str:
    """Per-bit majority of the first n bits over counted outcome words; a
    tie reads 0."""
    ones = np.zeros(n, dtype=np.int64)
    for word, c in counts.items():
        ones += c * str_to_arr(word[:n]).astype(np.int64)
    m = sum(counts.values())
    return "".join("1" if o > m / 2 else "0" for o in ones)


# ---------------------------------------------------------------------------
# Grover under decomposed diffusion
# ---------------------------------------------------------------------------


def phase_on_all_ones_steps(qubits: tuple[int, ...]) -> list[GateLayer]:
    """C^{k-1}Z on `qubits` as single- and two-qubit depth-1 steps.

    Fourier expansion of the AND: for every nonempty subset S, accumulate
    the parity of S into its last qubit with a CNOT chain, apply
    phase(-pi 2^{1-k} (-1)^{|S|}), and uncompute.  Exact, no global phase.
    """
    k = len(qubits)
    steps: list[GateLayer] = []
    for size in range(1, k + 1):
        theta = -math.pi * 2.0 ** (1 - k) * (-1.0) ** size
        for subset in itertools.combinations(qubits, size):
            for q in subset[:-1]:
                steps.append(layer(CNOT(q, subset[-1])))
            steps.append(layer(phase(subset[-1], theta)))
            for q in reversed(subset[:-1]):
                steps.append(layer(CNOT(q, subset[-1])))
    return steps


def diffusion_steps(n: int) -> list[GateLayer]:
    """Inversion about the mean, decomposed; equals the reflection up to a
    global -1 (irrelevant to outcomes)."""
    h_all = layer(*[H(i) for i in range(n)])
    x_all = layer(*[X(i) for i in range(n)])
    return [h_all, x_all, *phase_on_all_ones_steps(tuple(range(n))), x_all, h_all]


def grover_circuit(n: int, iterations: int, noise) -> NoisyCircuit:
    """Uniform init + `iterations` rounds of (phase oracle "G", diffusion)."""
    if iterations < 0:
        raise UsageError(f"iterations must be nonnegative, got {iterations}")
    steps: list = [layer(*[H(i) for i in range(n)])]
    for _ in range(iterations):
        steps.append(OracleCall("G", tuple(range(n))))
        steps.extend(diffusion_steps(n))
    return NoisyCircuit(n, steps, noise)


def grover_ideal_success(n_search: int, iterations: int) -> float:
    """Noiseless closed form sin^2((2T+1) arcsin(1/sqrt(N)))."""
    return math.sin((2 * iterations + 1) * math.asin(1.0 / math.sqrt(n_search))) ** 2


def run_noisy_grover(
    oracle: GroverOracle, noise, iterations: int, shots: int = 0, seed: int | None = None
) -> float:
    """Probability of measuring the marked index; shots = 0 is exact."""
    n_search = oracle.n_search
    if n_search & (n_search - 1):
        raise UsageError("search domain must be a power of two")
    n = oracle.n_wires
    circuit = grover_circuit(n, iterations, noise)
    bindings = {"G": make_grover_phase(oracle)}
    target = int_to_bits(oracle.marked, n)
    if shots == 0:
        return exact_output_distribution(circuit, bindings).get(target)
    counts = sample_outcomes(circuit, bindings, seed=resolve_seed(seed), shots=shots)
    return counts.get(target, 0) / shots


# ---------------------------------------------------------------------------
# Zalka query sum
# ---------------------------------------------------------------------------


def grover_zalka_template(n_search: int, iterations: int) -> NoisyCircuit:
    return grover_circuit(GroverOracle(n_search, 0).n_wires, iterations, 0.0)


def random_zalka_template(n_search: int, iterations: int, rng: np.random.Generator) -> NoisyCircuit:
    """Random noiseless layers interleaved with `iterations` oracle calls."""
    n = GroverOracle(n_search, 0).n_wires
    steps: list = [random_layer(n, rng)]
    for _ in range(iterations):
        steps.append(OracleCall("G", tuple(range(n))))
        steps.append(random_layer(n, rng))
    return NoisyCircuit(n, steps, 0.0)


def check_zalka_sum(template: NoisyCircuit, n_search: int) -> dict:
    """Verify sum_i ||phi_i - phi_0||^2 <= 4 T^2 over marked elements i.

    phi_i is the exact noiseless output state of the template with the
    phase oracle marking i; i = 0 is the no-mark oracle.
    """
    if template.noise.value != 0.0:
        raise UsageError("the query-sum bound is about noiseless templates")
    queries = sum(1 for s in template.steps if isinstance(s, OracleCall) and s.oracle_id == "G")
    states = []
    for i in range(n_search):
        binding = make_grover_phase(GroverOracle(n_search, i))
        states.append(evolve_statevector(template, {"G": binding}).amplitudes)
    terms = [float(np.linalg.norm(phi - states[0]) ** 2) for phi in states[1:]]
    total = float(sum(terms))
    bound = 4.0 * queries**2
    return make_report(
        "query-perturbation sum <= 4 T^2",
        total,
        bound,
        total <= bound + 1e-9,
        1e-9,
        n_search=n_search,
        queries=queries,
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Pauli-state distinguishing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistinguishResult:
    """Outcome of a distinguishing experiment; the advantage must respect
    the hybrid bound per-query x queries (plus sampling slack)."""

    advantage: float
    trace_distance_per_query: float
    queries_used: int
    slack: float = 0.0

    def __post_init__(self) -> None:
        if not (-1e-9 <= self.advantage <= 1.0 + 1e-9):
            raise InvariantViolation(f"advantage {self.advantage} outside [0, 1]")
        cap = self.trace_distance_per_query * self.queries_used + self.slack + 1e-9
        if self.advantage > cap:
            raise InvariantViolation(
                f"advantage {self.advantage} exceeds hybrid cap {cap}"
            )


def binomial_pmf(n: int, p: float) -> np.ndarray:
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[n] = 1.0
        return out
    k = np.arange(n + 1, dtype=np.float64)
    log_comb = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(v + 1) for v in k])
        - np.array([math.lgamma(n - v + 1) for v in k])
    )
    return np.exp(log_comb + k * math.log(p) + (n - k) * math.log(1.0 - p))


def binomial_tv(n: int, p: float, q: float) -> float:
    return 0.5 * float(np.abs(binomial_pmf(n, p) - binomial_pmf(n, q)).sum())


def shadow_distinguish(
    pauli: str,
    noise,
    queries: int,
    mode: str = "exact",
    trials: int = 4000,
    seed: int | None = None,
) -> DistinguishResult:
    """Distinguish (I + P)/2^n from I/2^n with noisy single-copy queries.

    Each query hands the learner one depolarized copy; measuring in P's
    eigenbasis yields a +/-1 sample with mean tr(P D[rho]).  Exact mode
    computes the advantage of the N-sample count statistic; sampled mode
    estimates it empirically.  The per-query trace-norm difference is
    computed from the actual density matrices.
    """
    n = len(pauli)
    noise = _as_noise_rate(noise)
    if n > SHADOW_EXACT_CAP:
        raise CapacityError(f"exact distinguishing caps at {SHADOW_EXACT_CAP} qubits")
    if queries < 1:
        raise UsageError("need at least one query")
    rho1 = depolarize_all(_built(DensityMatrix, n, StateOracle(n, pauli, 1).density()), noise)
    rho0 = depolarize_all(_built(DensityMatrix, n, StateOracle(n, pauli, 0).density()), noise)
    per_query = trace_norm(rho1.entries - rho0.entries)
    p_mat = pauli_string_matrix(pauli)
    p1 = 0.5 * (1.0 + float(np.trace(p_mat @ rho1.entries).real))
    p0 = 0.5 * (1.0 + float(np.trace(p_mat @ rho0.entries).real))
    if mode == "exact":
        advantage = binomial_tv(queries, p1, p0)
        slack = 0.0
    elif mode == "sampled":
        if trials < 1:
            raise UsageError(f"sampled mode needs at least one trial, got {trials}")
        rng = rng_for(resolve_seed(seed), 0x5348)
        c1 = np.bincount(rng.binomial(queries, p1, trials), minlength=queries + 1)
        c0 = np.bincount(rng.binomial(queries, p0, trials), minlength=queries + 1)
        advantage = 0.5 * float(np.abs(c1 - c0).sum()) / trials
        slack = 3.0 * math.sqrt((queries + 1) / trials)  # multi-bin estimation noise
    else:
        raise UsageError(f"unknown mode {mode!r}")
    return DistinguishResult(advantage, per_query, queries, slack)


# ---------------------------------------------------------------------------
# lifted Simon damping
# ---------------------------------------------------------------------------


def lifted_simon_template(n: int, queries: int, noise) -> NoisyCircuit:
    """Simon-style template on 2n input + n output wires."""
    in_wires = tuple(range(2 * n))
    all_wires = tuple(range(3 * n))
    h_in = layer(*[H(i) for i in in_wires])
    steps: list = [h_in]
    for _ in range(queries):
        steps.append(OracleCall("F", all_wires))
        steps.append(h_in)
    return NoisyCircuit(3 * n, steps, noise)


def lifted_simon_bindings(n: int, s: str, seed: int) -> tuple[dict, dict]:
    """{"F": ...} bindings of the lifted Simon function of period `s` and of
    the constant 0^n function, for `lifted_simon_template`."""
    lifted = make_lifted_simon(make_simon(SimonSpec(n, s, seed)))
    zero = ClassicalOracle(2 * n, n, lambda x: 0, "zero", fn_vec=lambda xs: np.zeros_like(xs))
    return {"F": lift_to_unitary(lifted)}, {"F": lift_to_unitary(zero)}


def lifted_simon_tv(
    n: int,
    noise,
    queries: int = 1,
    s: str | None = None,
    seed: int | None = None,
) -> dict:
    """Exact TV between template outputs under the lifted function vs the
    identity oracle, against the damping bound 4 N exp(-lambda n / 4)."""
    noise = _as_noise_rate(noise)
    template = lifted_simon_template(n, queries, noise)
    lifted, zero = lifted_simon_bindings(n, s or "1" * n, resolve_seed(seed))
    d_lift = exact_output_distribution(template, lifted)
    d_id = exact_output_distribution(template, zero)
    tv = tv_distance(d_lift, d_id)
    bound = 4.0 * queries * math.exp(-noise.value * n / 4.0)
    return make_report(
        "lifted-Simon output damping",
        tv,
        bound,
        tv <= bound + 1e-9,
        1e-9,
        n=n,
        noise=noise.value,
        queries=queries,
    )


# ---------------------------------------------------------------------------
# noisy parity
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NoisyParityInstance:
    """Samples (x, y) hiding a parity secret: xs holds each x as an n-bit
    int64 word (MSB-first), ys its uint8 label.  eta is the calibrated label
    flip rate when the generator knew the true secret."""

    n: int
    xs: np.ndarray
    ys: np.ndarray
    k: int
    w_max: int
    eta: float | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n <= 63) or not (0 <= self.w_max <= self.k):
            raise UsageError("need 1 <= k <= n <= 63 and 0 <= w_max <= k")
        if self.eta is not None and not (0.0 <= self.eta <= 1.0):
            raise UsageError(f"eta {self.eta} outside [0, 1]")
        xs, ys = np.asarray(self.xs, dtype=np.int64), np.asarray(self.ys)
        # xs >> n is nonzero for x >= 2^n, and -1 for x < 0
        if xs.ndim != 1 or xs.shape != ys.shape or (xs >> self.n).any() or not np.isin(ys, (0, 1)).all():
            raise UsageError(f"need one label in {{0, 1}} per sample x in [0, 2^{self.n})")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys.astype(np.uint8))


def generate_noisy_parity(
    oracle: ClassicalOracle,
    noise,
    samples: int,
    seed: int | None = None,
    k: int | None = None,
    w_max: int | None = None,
    true_s: str | None = None,
    threads: int = 1,
) -> NoisyParityInstance:
    """Draw parity samples from one-query noisy circuit runs.

    A single-output oracle runs the query circuit |+>^n (x) |0>: the data
    measurement is an exactly uniform x and the ancilla its noisy parity.
    An n-output oracle runs the Simon sampling circuit H-oracle-H on 2n
    wires: x is the measured constraint vector and y = 0 by convention.
    """
    n = oracle.n_in
    noise = _as_noise_rate(noise)
    seed = resolve_seed(seed)
    labelled = oracle.m_out == 1
    if not labelled and oracle.m_out != n:
        raise UsageError("oracle must output 1 bit (explicit labels) or n bits (Simon style)")
    h_in = layer(*[H(i) for i in range(n)])
    wires = tuple(range(n + oracle.m_out))
    steps = [h_in, OracleCall("O", wires)] + ([] if labelled else [h_in])
    circuit = NoisyCircuit(len(wires), steps, noise)
    counts = sample_outcomes(circuit, {"O": lift_to_unitary(oracle)}, seed=seed, shots=samples, threads=threads)
    words = strs_to_arr(list(counts)) @ (1 << np.arange(len(wires) - 1, -1, -1))
    words = np.repeat(words, list(counts.values()))
    xs, ys = words >> oracle.m_out, (words & 1 if labelled else np.zeros_like(words))
    eta = None
    if true_s is not None:
        eta = int(np.count_nonzero(np.bitwise_count(xs & bits_to_int(true_s)) & 1 != ys)) / len(xs)
    return NoisyParityInstance(n, xs, ys, n if k is None else k, n if w_max is None else w_max, eta)


def solve_noisy_parity_bruteforce(inst: NoisyParityInstance) -> str | None:
    """Best-agreement candidate with support in the first k bits and weight <= w_max;
    None without samples or when the top two scores are closer than 3 sqrt(samples).

    The zero candidate is dropped when every label is zero: it then scores
    perfectly regardless of the data, and both sample conventions promise a
    nonzero secret in that regime.
    """
    n, k, w_max, xs, ys = inst.n, inst.k, inst.w_max, inst.xs, inst.ys
    total = sum(math.comb(k, w) for w in range(w_max + 1))
    if total > PARITY_CANDIDATE_CAP:
        raise CapacityError(f"{total} candidates exceed {PARITY_CANDIDATE_CAP}")
    supports = (pos for w in range(int(not ys.any()), w_max + 1) for pos in itertools.combinations(range(k), w))
    masks = np.fromiter((sum(1 << (n - 1 - p) for p in pos) for pos in supports), dtype=np.int64)
    if not len(masks) or not len(ys):
        return None
    step = max(1, _SCORE_CELLS // len(ys))  # candidates scored at once: bounded memory
    agree = np.concatenate([
        (np.bitwise_count(xs[:, None] & masks[s : s + step]) & 1 == ys[:, None]).sum(axis=0)
        for s in range(0, len(masks), step)
    ])
    best = np.lexsort((masks, agree))[-1]  # rank by (agreement, candidate), highest first
    if len(masks) > 1 and agree[best] - np.partition(agree, -2)[-2] < 3.0 * math.sqrt(len(ys)):
        return None
    return int_to_bits(int(masks[best]), n)
