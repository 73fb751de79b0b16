"""The four benchmark workloads: inputs built from a seed, timed ops, checks.

A workload is a fixed list of ops (one pass).  The runner repeats whole
passes, so every op index runs the same call on the same inputs each time;
its output and exact counts must then repeat exactly.
Each op's output is checked once, outside the timed region.

The layer suite (`build_suite`) is one small op per traced layer function.
It warms up every workload, and the traced run adds it to every traced
pass, so each per-layer metric is measured on every workload, also where
the workload's own ops never reach that layer.

Counts are exact work tallies taken from the inputs and from the oracles'
query counters, not from timers:

- `queries`: oracle queries (one per trajectory or density application);
- `shots`: trajectories requested from `qsim.sample_outcomes`;
- `stream_outcomes` / `stream_trajectories`: outcomes a controller consumed
  from `sample_stream` and trajectories simulated to produce them;
- `amplitude_updates` (computed): shots x 2^n x (gates + oracle calls +
  noise layers) of each sampled circuit;
- `density_bytes` (computed): 16 x 4^n bytes, read and written once per
  gate application (two per gate: U and U*) and once per qubit per noise
  layer, for each exactly evolved circuit;
- `recovered`: planted parity secrets recovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nisqlab import algorithms, codes, harness, metrics, oracles, qsim
from nisqlab.qsim import GateLayer, NoisyCircuit, OracleCall

# Amplitudes per sampling op: shots = 2^21 / 2^n is exactly one full chunk of
# qsim's batched sampler (2^21 amplitudes, 32 MB), the chunk every call of
# 2^21 / 2^n shots or more runs; op cost stays flat over n while the
# trajectory batch and the target axes change with n.
SAMPLING_AMPLITUDES = 2**21
TV_DELTA = 1e-9
DENSE_ATOL = 1e-10


@dataclass
class Op:
    """One timed call (or group of calls).  `call` returns (output, counts)."""

    kind: str
    call: Callable[[], tuple[object, dict]]
    check: Callable[[object], str | None]
    key: Callable[[object], object] = lambda out: out


def _rng(seed: int, tag: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, *key])


def _step_ops(circuit: NoisyCircuit) -> int:
    return sum(len(s.gates) if isinstance(s, GateLayer) else 1 for s in circuit.steps)


def _amplitude_updates(circuit: NoisyCircuit, shots: int) -> int:
    return shots * 2**circuit.n_qubits * (_step_ops(circuit) + circuit.noise_layer_count())


def _density_bytes(circuit: NoisyCircuit) -> int:
    n = circuit.n_qubits
    passes = 2 * _step_ops(circuit) + n * circuit.noise_layer_count()
    return 2 * 16 * 4**n * passes


def _binomial_mad(shots: int, p: float) -> float:
    """E|X - shots p| for X ~ Binomial(shots, p), by De Moivre's closed form."""
    m = math.floor(shots * p)
    if p <= 0.0 or m >= shots:
        return 0.0
    log_term = (
        math.lgamma(shots + 1) - math.lgamma(m + 2) - math.lgamma(shots - m)
        + (m + 1) * math.log(p) + (shots - m) * math.log1p(-p)
    )
    return 2 * (m + 1) * math.exp(log_term)


def tv_bound(probs: np.ndarray, shots: int) -> float:
    """TV between `shots` samples and `probs` stays below this except with
    probability TV_DELTA.

    The expected TV is exact: half the sum over the support of each
    outcome's binomial mean absolute deviation, divided by shots.  One shot
    moves TV by at most 1 / shots, so by McDiarmid TV exceeds its mean by
    sqrt(ln(1 / delta) / (2 shots)) with probability at most delta.
    """
    mean = 0.5 * sum(_binomial_mad(shots, float(p)) for p in probs if p > 0.0) / shots
    return mean + math.sqrt(math.log(1 / TV_DELTA) / (2 * shots))


# ---------------------------------------------------------------------------
# sampling: qsim.sample_outcomes on random Haar circuits
# ---------------------------------------------------------------------------


def _sampling_op(circuit: NoisyCircuit, seed: int, shots: int) -> Op:
    def call():
        counts = qsim.sample_outcomes(circuit, seed=seed, shots=shots, threads=1)
        return counts, {
            "shots": shots,
            "amplitude_updates": _amplitude_updates(circuit, shots),
        }

    def check(counts) -> str | None:
        n = circuit.n_qubits
        exact = qsim.exact_output_distribution(circuit).as_array()
        emp = np.zeros(2**n)
        for bits, c in counts.items():
            emp[int(bits, 2)] = c
        if emp.sum() != shots:
            return f"counts sum to {emp.sum()}, not {shots}"
        tv = 0.5 * np.abs(emp / shots - exact).sum()
        bound = tv_bound(exact, shots)
        return None if tv <= bound else f"TV {tv:.4f} above bound {bound:.4f}"

    return Op("sample", call, check, key=lambda c: tuple(sorted(c.items())))


def build_sampling(seed: int) -> list[Op]:
    """n = 5..9, noise rate alternating 0.1 and 0.3, depth cycling 4, 5, 6;
    one full chunk of shots each.

    p_two = 1 pairs up qubits in every layer, so the first layer entangles
    and the gate count per layer is fixed: run time depends on the seed only
    through gate placement, not through how many gates are drawn.
    """
    ops = []
    for i, n in enumerate(range(5, 10)):
        rng = _rng(seed, 0x73616D70, i)
        circuit = qsim.random_circuit(n, 4 + i % 3, (0.1, 0.3)[i % 2], rng, p_two=1.0)
        ops.append(_sampling_op(circuit, int(rng.integers(0, 2**62)), SAMPLING_AMPLITUDES >> n))
    return ops


# ---------------------------------------------------------------------------
# parity: the noisy-parity pipeline at the CLI defaults
# ---------------------------------------------------------------------------

PARITY_N, PARITY_K, PARITY_W, PARITY_LAMBDA, PARITY_SAMPLES, PARITY_INSTANCES = 12, 6, 2, 0.1, 2000, 10


def _parity_op(secret: str, sample_seed: int, samples: int = PARITY_SAMPLES, k: int = PARITY_K) -> Op:
    oracle = oracles.make_bv(secret)
    oracle.table()
    n = len(secret)
    # the query circuit generate_noisy_parity samples, for the amplitude count
    circuit = NoisyCircuit(
        n + 1, [qsim.layer(*[qsim.H(i) for i in range(n)]), OracleCall("O", tuple(range(n + 1)))], PARITY_LAMBDA
    )

    def call():
        before = oracle.query_counter.value
        inst = algorithms.generate_noisy_parity(
            oracle, PARITY_LAMBDA, samples, seed=sample_seed, k=k, w_max=PARITY_W, true_s=secret,
        )
        found = algorithms.solve_noisy_parity_bruteforce(inst)
        return (found, inst.eta), {
            "queries": oracle.query_counter.value - before,
            "shots": samples,
            "amplitude_updates": _amplitude_updates(circuit, samples),
            "recovered": int(found == secret),
        }

    def check(out) -> str | None:
        found, eta = out
        if found != secret:
            return f"recovered {found!r}, planted {secret}"
        return None if 1.0 - 2.0 * eta > 0.0 else f"label noise {eta} leaves no margin"

    return Op("parity", call, check)


def _planted_secret(rng: np.random.Generator, n: int, k: int) -> str:
    """A secret of weight 1..w_max inside the first k bits, as the CLI plants it."""
    bits = np.zeros(n, dtype=np.int64)
    bits[rng.choice(k, size=1 + int(rng.integers(0, PARITY_W)), replace=False)] = 1
    return "".join(map(str, bits))


def build_parity(seed: int) -> list[Op]:
    ops = []
    for i in range(PARITY_INSTANCES):
        rng = _rng(seed, 0x70617269, i)
        ops.append(_parity_op(_planted_secret(rng, PARITY_N, PARITY_K), int(rng.integers(0, 2**62))))
    return ops


# ---------------------------------------------------------------------------
# density: qsim.exact_output_distribution at n = 9 and 10
# ---------------------------------------------------------------------------


def _layer_unitary(lay: GateLayer, n: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of a layer of gates on disjoint qubits."""
    order = [q for g in lay.gates for q in g.targets]
    rest = [q for q in range(n) if q not in order]
    m = np.eye(2 ** len(rest), dtype=complex)
    for g in reversed(lay.gates):
        m = np.kron(g.matrix, m)
    pos = np.argsort(order + rest)
    t = m.reshape((2,) * (2 * n)).transpose(list(pos) + [n + p for p in pos])
    return t.reshape(2**n, 2**n)


def _dense_depolarize(rho: np.ndarray, n: int, lam: float) -> np.ndarray:
    """D_lam on every qubit as (1 - 3 lam/4) rho + (lam/4)(X.X + Y.Y + Z.Z)."""
    idx = np.arange(2**n)
    for q in range(n):
        flip = idx ^ (1 << (n - 1 - q))
        sign = 1 - 2 * ((idx >> (n - 1 - q)) & 1)
        z = sign[:, None] * rho * sign[None, :]
        x = rho[flip][:, flip]
        y = z[flip][:, flip]
        rho = (1 - 0.75 * lam) * rho + 0.25 * lam * (x + y + z)
    return rho


def dense_reference(circuit: NoisyCircuit) -> np.ndarray:
    """Output distribution from plain dense matrices, independent of qsim's kernels."""
    n, lam = circuit.n_qubits, circuit.noise.value
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    rho = _dense_depolarize(rho, n, lam)
    for lay in circuit.steps:
        u = _layer_unitary(lay, n)
        rho = _dense_depolarize(u @ rho @ u.conj().T, n, lam)
    return np.diag(rho).real


def _density_op(circuit: NoisyCircuit, reference: bool) -> Op:
    def call():
        dist = qsim.exact_output_distribution(circuit)
        return dist, {"density_bytes": _density_bytes(circuit)}

    def check(dist) -> str | None:
        probs = dist.as_array()
        if abs(probs.sum() - 1.0) > 1e-9:
            return f"probabilities sum to {probs.sum()!r}"
        if reference:
            err = np.abs(dense_reference(circuit) - probs).max()
            if not err <= DENSE_ATOL:
                return f"dense reference differs by {err:.2e}"
        return None

    return Op("exact", call, check, key=lambda d: d.as_array().tobytes())


def build_density(seed: int) -> list[Op]:
    """One n = 10 and two n = 9 depth-6 circuits; the first n = 9 one is
    also held against the dense-matrix reference."""
    ops = []
    for i, (n, lam) in enumerate(((10, 0.1), (9, 0.1), (9, 0.3))):
        circuit = qsim.random_circuit(n, 6, lam, _rng(seed, 0x64656E73, i), p_two=1.0)
        ops.append(_density_op(circuit, reference=i == 1))
    return ops



# ---------------------------------------------------------------------------
# checks: many small calls, as `nisqlab verify` and criteria 4, 6, 10 make
# ---------------------------------------------------------------------------

BV_N, BV_DELTA = 8, 0.01
BV_SHORT_LAMBDA, BV_LONG_LAMBDA = 0.05, 0.1  # M = 61 and M = 3382 repetitions
# 101 ops a pass.  Ranked by time, the info checks come first, then the
# code batches, the harness pairs, the short BV runs and the long one, so
# the median op is a code batch and the 90th percentile a harness pair,
# each well inside its group.
BV_SHORT_RUNS = 6
HARNESS_PAIRS = 24
INFO_CHECKS = 38
CODE_BATCHES, CODE_BATCH_WORDS = 32, 32


def _bv_op(secret: str, lam: float, seed: int) -> Op:
    cfg = algorithms.BVRunConfig(len(secret), lam, BV_DELTA)
    controller = harness.BVMajorityController(cfg)
    oracle = oracles.make_bv(secret)
    oracle.table()

    def call():
        before = oracle.query_counter.value
        result = harness.run_controller(controller, oracle, cfg.noise, seed=seed)
        simulated = oracle.query_counter.value - before
        return result.answer, {
            "queries": simulated,
            "stream_outcomes": result.transcript.circuit_depth,
            "stream_trajectories": simulated,
        }

    def check(answer) -> str | None:
        return None if answer == secret else f"majority vote gave {answer}, secret {secret}"

    return Op("bv", call, check)


def _adaptive_controller(rng: np.random.Generator, lam: float) -> harness.FunctionController:
    """Two query circuits; the second is picked by the first outcome's last bit."""

    def query_circuit() -> NoisyCircuit:
        return NoisyCircuit(2, [qsim.random_layer(2, rng), OracleCall("O", (0, 1)), qsim.random_layer(2, rng)], lam)

    first, on0, on1 = query_circuit(), query_circuit(), query_circuit()

    def step(t):
        if t.circuit_depth == 0:
            return harness.RunCircuit(first)
        if t.circuit_depth == 1:
            return harness.RunCircuit(on1 if t.edges[-1].outcome.endswith("1") else on0)
        return harness.Output(t.edges[-1].outcome)

    return harness.FunctionController(step)


def _harness_op(rng: np.random.Generator, lam: float) -> Op:
    """perturbation_check and lecam_advantage on one random adaptive controller.

    The families are (1/2, 1/2) and (w, 1 - w) mixtures of the same two
    oracles, so the two-point TV equals |1/2 - w| times the leaf TV that
    perturbation_check reports: one call checks the other.
    """
    controller = _adaptive_controller(rng, lam)
    w = float(rng.uniform(0.2, 0.8))
    one, zero = oracles.make_bv("1"), oracles.make_bv("0")
    fam0, fam1 = [(0.5, one), (0.5, zero)], [(w, one), (1.0 - w, zero)]

    def call():
        before = one.query_counter.value + zero.query_counter.value
        pert = harness.perturbation_check(controller, one, zero, lam)
        lecam = harness.lecam_advantage(controller, fam0, fam1, lam)
        out = (pert["lhs"], pert["holds"], pert["details"]["depth"], lecam["lhs"], lecam["holds"])
        return out, {"queries": one.query_counter.value + zero.query_counter.value - before}

    def check(out) -> str | None:
        leaf_tv, pert_holds, depth, tv, lecam_holds = out
        if not (pert_holds and lecam_holds and depth == 2):
            return f"perturbation holds={pert_holds} depth={depth}, lecam holds={lecam_holds}"
        if abs(tv - abs(0.5 - w) * leaf_tv) > 1e-9:
            return f"two-point TV {tv} is not |1/2 - w| x leaf TV {leaf_tv}"
        return None

    return Op("harness", call, check)


def _info_op(circuit: NoisyCircuit) -> Op:
    def call():
        rep = metrics.check_info_decay(circuit)
        return (rep["holds"], tuple(e["information"] for e in rep["details"]["layers"])), {}

    def check(out) -> str | None:
        holds, layers = out
        if not holds:
            return "information exceeded (1 - lambda)^t n"
        expected = circuit.noise_layer_count()
        return None if len(layers) == expected else f"{len(layers)} layers recorded, {expected} expected"

    return Op("info", call, check)


def _codes_op(spec: codes.ConcatCodeSpec, words: list[tuple[np.ndarray, int | None, bool]]) -> Op:
    """membership_A and membership_B over one batch of r = 2 words.

    Each word is (bits, planted bit or None, flipped): a codeword of b must
    be in A_b and B_b, a codeword with absorbable flips must be in A_b, and
    any word in B_b must be in A_b.
    """

    def call():
        a = tuple(codes.membership_A(x, spec) for x, _, _ in words)
        b = tuple(codes.membership_B(x, spec) for x, _, _ in words)
        return (a, b), {}

    def check(out) -> str | None:
        for (_, planted, flipped), a, b in zip(words, *out):
            if not b.is_bottom and (a.is_bottom or a.bit != b.bit):
                return "a word of B_b is outside A_b"
            if planted is not None:
                if a.is_bottom or a.bit != planted:
                    return f"a word planted in A_{planted} decoded to {a}"
                if not flipped and (b.is_bottom or b.bit != planted):
                    return f"a codeword of B_{planted} decoded to {b}"
        return None

    return Op("codes", call, check)


def _code_words(spec: codes.ConcatCodeSpec, rng: np.random.Generator, count: int) -> list:
    """Random words, codewords, and codewords with absorbable flips, in turn."""
    words = []
    for j in range(count):
        if j % 3 == 0:
            words.append((rng.integers(0, 2, size=spec.block_length).astype(np.uint8), None, False))
            continue
        b = int(rng.integers(0, 2))
        x = codes.sample_codeword(spec, b, rng)
        if j % 3 == 2:
            x = (x + codes.sample_sparse_flips(spec, rng)) % 2
        words.append((x, b, j % 3 == 2))
    return words


def build_checks(seed: int) -> list[Op]:
    """One long BV run, short BV runs, harness pairs, info-decay checks and
    code batches, interleaved so that each kind spreads over the pass."""
    rng = _rng(seed, 0x63686B73)

    def secret() -> str:
        return "".join(str(b) for b in rng.integers(0, 2, size=BV_N))

    bv = [_bv_op(secret(), BV_LONG_LAMBDA, int(rng.integers(0, 2**62)))]
    bv += [_bv_op(secret(), BV_SHORT_LAMBDA, int(rng.integers(0, 2**62))) for _ in range(BV_SHORT_RUNS)]
    pairs = [_harness_op(rng, (0.2, 0.5)[i % 2]) for i in range(HARNESS_PAIRS)]
    info = [
        _info_op(qsim.random_circuit(2 + i % 3, 1 + i % 8, (0.2, 0.5)[i % 2], rng))
        for i in range(INFO_CHECKS)
    ]
    spec = codes.ConcatCodeSpec(codes.hamming_base_code(), 2)
    batches = [_codes_op(spec, _code_words(spec, rng, CODE_BATCH_WORDS)) for _ in range(CODE_BATCHES)]
    ops = bv[:1]
    rest = [bv[1:], pairs, info, batches]
    while any(rest):
        for group in rest:
            if group:
                ops.append(group.pop(0))
    return ops


# ---------------------------------------------------------------------------
# layer suite: one small op per traced layer function
# ---------------------------------------------------------------------------

SUITE_N = 4


def build_suite(seed: int) -> list[Op]:
    """sample_outcomes, exact_output_distribution (held against the dense
    reference), the noisy-parity pair, run_controller, perturbation_check
    with lecam_advantage, check_info_decay and both code memberships, each
    on a few qubits."""
    rng = _rng(seed, 0x73756974)
    spec = codes.ConcatCodeSpec(codes.hamming_base_code(), 2)
    bv_secret = "".join(str(b) for b in rng.integers(0, 2, size=SUITE_N))
    ops = [
        _sampling_op(qsim.random_circuit(SUITE_N, 3, 0.1, rng, p_two=1.0), int(rng.integers(0, 2**62)), 256),
        _density_op(qsim.random_circuit(SUITE_N - 1, 3, 0.1, rng, p_two=1.0), reference=True),
        _parity_op(_planted_secret(rng, SUITE_N, SUITE_N), int(rng.integers(0, 2**62)), samples=512, k=SUITE_N),
        _bv_op(bv_secret, BV_SHORT_LAMBDA, int(rng.integers(0, 2**62))),
        _harness_op(rng, 0.2),
        _info_op(qsim.random_circuit(2, 2, 0.2, rng)),
        _codes_op(spec, _code_words(spec, rng, 6)),
    ]
    for op in ops:
        op.kind = f"suite.{op.kind}"
    return ops


WORKLOADS = {
    "sampling": build_sampling,
    "parity": build_parity,
    "density": build_density,
    "checks": build_checks,
}
