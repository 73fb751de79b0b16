"""Distances, entropy functionals, and noise-decay checks.

Conventions: trace_distance and tv_distance carry the 1/2 factor; the raw
Schatten-1 norm is exposed as trace_norm / trace_norm_diff for bounds that
want the un-halved quantity.  Entropies and divergences are in bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UsageError
from .qsim import (
    DensityMatrix,
    NoiseRate,
    NoisyCircuit,
    OracleCall,
    OutcomeDistribution,
    PureState,
    _as_noise_rate,
    _built,
    _depolarize_density_tensor,
    _noise_layer_states,
    depolarize_all,
    haar_unitary,
    partial_trace_tensor,
)
from .reporting import make_report
from .seeding import rng_for

PROJECTION_QUBIT_CAP = 8
SUBSET_SEPARATION_BIT_CAP = 24
EIG_FLOOR = 1e-12
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class InformationValue:
    """I(rho) = n - S(rho), in [0, n]."""

    value: float
    n_qubits: int

    def __post_init__(self) -> None:
        if not (-CHECK_TOL <= self.value <= self.n_qubits + CHECK_TOL):
            raise UsageError(
                f"information {self.value} outside [0, {self.n_qubits}]"
            )
        object.__setattr__(
            self, "value", min(max(float(self.value), 0.0), float(self.n_qubits))
        )


@dataclass(frozen=True)
class SubsetSelector:
    """A subset of qubit positions within an n-qubit register."""

    n_qubits: int
    subset: frozenset[int]

    def __init__(self, n_qubits: int, subset) -> None:
        object.__setattr__(self, "n_qubits", int(n_qubits))
        object.__setattr__(self, "subset", frozenset(int(q) for q in subset))
        bad = [q for q in self.subset if not (0 <= q < self.n_qubits)]
        if bad:
            raise UsageError(f"subset members {bad} outside [0, {self.n_qubits})")


# ---------------------------------------------------------------------------
# distances and entropies
# ---------------------------------------------------------------------------


def trace_norm(m: np.ndarray) -> float:
    """Schatten-1 norm of a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(m)).sum())


def trace_norm_diff(a: DensityMatrix, b: DensityMatrix) -> float:
    if a.n_qubits != b.n_qubits:
        raise UsageError("states have different qubit counts")
    return trace_norm(a.entries - b.entries)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """(1/2) ||a - b||_1, in [0, 1]."""
    return 0.5 * trace_norm_diff(a, b)


def dict_tv(p: dict, q: dict) -> float:
    """(1/2) sum_k |p(k) - q(k)| over mappings with missing keys as 0.

    The sum runs over p | q, in dict insertion order, so its last bits do not
    depend on hash seeds the way a set union's iteration order does.
    """
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in p | q)


def tv_distance(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """(1/2) sum_s |p(s) - q(s)|."""
    if p.n_bits != q.n_bits:
        raise UsageError("distributions have different bit counts")
    return dict_tv(p.probabilities, q.probabilities)


def _entropy_bits(eigs: np.ndarray) -> float:
    live = eigs[eigs > EIG_FLOOR]
    return float(-(live * np.log2(live)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) in bits; eigenvalues below 1e-12 contribute zero."""
    return _entropy_bits(np.linalg.eigvalsh(rho.entries))


def information(rho: DensityMatrix) -> InformationValue:
    """I(rho) = n - S(rho)."""
    return InformationValue(rho.n_qubits - von_neumann_entropy(rho), rho.n_qubits)


def kl_divergence(p: OutcomeDistribution, q: OutcomeDistribution) -> float:
    """KL(p || q) in bits; infinite if supp(p) escapes supp(q)."""
    if p.n_bits != q.n_bits:
        raise UsageError("distributions have different bit counts")
    total = 0.0
    for s, ps in p.items():
        qs = q.get(s)
        if qs == 0.0:
            return math.inf
        total += ps * math.log2(ps / qs)
    return max(total, 0.0)


# ---------------------------------------------------------------------------
# subsystem restriction
# ---------------------------------------------------------------------------


def reduced_state(sigma: DensityMatrix, subset) -> DensityMatrix:
    """sigma restricted to the given qubits (ascending original order)."""
    sel = subset if isinstance(subset, SubsetSelector) else SubsetSelector(sigma.n_qubits, subset)
    keep = sorted(sel.subset)
    if not keep:
        raise UsageError("cannot build a 0-qubit state; handle the empty subset upstream")
    return _built(DensityMatrix, len(keep), partial_trace_tensor(sigma.tensor(), sigma.n_qubits, keep))


# ---------------------------------------------------------------------------
# decay and averaging checks
# ---------------------------------------------------------------------------


def check_info_decay(circuit: NoisyCircuit) -> dict:
    """Verify I(rho_t) <= (1 - lam)^t * n after every noise layer.

    The circuit binds no oracle, so every step is a unitary gate layer; a
    state-replacement oracle could inject fresh information.
    """
    n = circuit.n_qubits
    lam = circuit.noise.value
    layers = []
    for t, (state, _) in enumerate(_noise_layer_states(circuit), 1):
        info = information(state()).value
        bound = (1.0 - lam) ** t * n
        layers.append(
            {"t": t, "information": info, "bound": bound, "holds": info <= bound + CHECK_TOL}
        )
    worst = max(layers, key=lambda entry: entry["information"] - entry["bound"])
    return make_report(
        "information decays as (1 - lam)^t * n under noise layers",
        worst["information"],
        worst["bound"],
        all(entry["holds"] for entry in layers),
        CHECK_TOL,
        layers=layers,
        n_qubits=n,
        noise=lam,
    )


def check_subsystem_averaging(sigma: DensityMatrix, k: int) -> dict:
    """Verify mean over |S| = k of I(sigma|_S) <= (k/n) I(sigma)."""
    n = sigma.n_qubits
    if n > 6:
        raise CapacityError("subset enumeration supported for n <= 6")
    if not (0 <= k < n):
        raise UsageError(f"k must lie in [0, {n}), got {k}")
    total_info = information(sigma).value
    if k == 0:
        avg = 0.0
    else:
        values = [
            information(reduced_state(sigma, s)).value
            for s in itertools.combinations(range(n), k)
        ]
        avg = float(np.mean(values))
    rhs = (k / n) * total_info
    return make_report(
        "k-qubit restrictions carry at most a k/n share of the information",
        avg,
        rhs,
        avg <= rhs + CHECK_TOL,
        CHECK_TOL,
        n_qubits=n,
        k=k,
        information=total_info,
    )


def flip_hit_probabilities(n_bits: int, omega_words, lam: "NoiseRate | float") -> np.ndarray:
    """For every a in {0,1}^n: Pr[a with lam/2 bit flips lands in omega]."""
    lam = _as_noise_rate(lam).value
    p = lam / 2.0
    w_arr = np.asarray(sorted(omega_words), dtype=np.uint32)
    a_arr = np.arange(2**n_bits, dtype=np.uint32)
    dist = np.bitwise_count(np.bitwise_xor.outer(a_arr, w_arr))
    if p == 0.0:
        mass = (dist == 0).astype(float)
    elif p == 1.0:
        mass = (dist == n_bits).astype(float)
    else:
        mass = np.exp(dist * math.log(p) + (n_bits - dist) * math.log(1.0 - p))
    return mass.sum(axis=1)


def check_projection_bound(
    psi: PureState, omega, lam: "NoiseRate | float"
) -> dict:
    """Compare Tr(Pi_Omega D_lam^n[psi]) with the best classical flip strategy.

    The classical side is the sup over input strings a of the probability
    that flipping each bit of a independently with probability lam/2 lands
    in Omega (point masses attain the sup by linearity).
    """
    n = psi.n_qubits
    if n > PROJECTION_QUBIT_CAP:
        raise CapacityError(f"projection check supports n <= {PROJECTION_QUBIT_CAP}")
    lam = _as_noise_rate(lam).value
    words = sorted({s if isinstance(s, int) else int(s, 2) for s in omega})
    for w in words:
        if not (0 <= w < 2**n):
            raise UsageError(f"outcome {w} outside n = {n} bit range")
    probs = depolarize_all(psi.to_density(), lam).outcome_distribution().as_array()
    lhs = float(probs[words].sum()) if words else 0.0
    rhs = float(flip_hit_probabilities(n, words, lam).max()) if words else 0.0
    return make_report(
        "projection weight after one noise layer is classically attainable",
        lhs,
        rhs,
        lhs <= rhs + CHECK_TOL,
        CHECK_TOL,
        n_qubits=n,
        noise=lam,
        omega_size=len(words),
    )


# ---------------------------------------------------------------------------
# hybrid-argument check
# ---------------------------------------------------------------------------


def check_hybrid_bound(
    e0,
    e1,
    template: NoisyCircuit,
    oracle_id: str = "E",
    trials: int = 20,
    seed: int = 0,
) -> dict:
    """Verify TV(p0, p1) <= eps * T for a circuit run under two channels.

    eps is the largest raw trace-norm difference of (channel + noise layer)
    outputs, maximized over Haar-random pure inputs and over the actual
    pre-call states of both runs; the raw norm makes the verified inequality
    the loose form of the hybrid bound (a factor 2 above the TV version).
    T counts the template's calls to `oracle_id`.
    """
    n = template.n_qubits
    calls = [s for s in template.steps if isinstance(s, OracleCall) and s.oracle_id == oracle_id]
    if not calls:
        raise UsageError(f"template never calls oracle {oracle_id!r}")
    wires = calls[0].wires
    if any(c.wires != wires for c in calls):
        raise UsageError("hybrid check assumes a fixed wire assignment per oracle id")
    t_calls = len(calls)
    lam = template.noise.value

    # one walk per channel: the state before each oracle call is a probe
    # (a noise layer precedes every op), the last state is read out
    probes: list[np.ndarray] = []
    finals = []
    for channel in (e0, e1):
        for state, nxt in _noise_layer_states(template, {oracle_id: channel}):
            if isinstance(nxt, OracleCall):
                probes.append(state().tensor())
        finals.append(state(law=True))
    p0, p1 = finals
    rng = rng_for(seed, 0x4879)
    for _ in range(trials):
        v = haar_unitary(2**n, rng)[:, 0]
        probes.append(np.outer(v, v.conj()).reshape((2,) * (2 * n)))

    eps = 0.0
    for probe in probes:
        # the channel, then one noise layer: the unit the hybrid argument swaps
        a, b = (_depolarize_density_tensor(e.apply_density(probe, wires, n), n, lam) for e in (e0, e1))
        eps = max(eps, trace_norm_diff(_built(DensityMatrix, n, a), _built(DensityMatrix, n, b)))
    tv = tv_distance(p0, p1)
    return make_report(
        "output TV under two oracle channels is within eps * T",
        tv,
        eps * t_calls,
        tv <= eps * t_calls + CHECK_TOL,
        CHECK_TOL,
        epsilon=eps,
        calls=t_calls,
        probes=len(probes),
        noise=lam,
    )


# ---------------------------------------------------------------------------
# random-subset separation
# ---------------------------------------------------------------------------


def separation_bound(m_bits: int, size: int, delta: float) -> float:
    """(M/2(1 - sqrt(2 log2(S^2/delta) / M)); may be negative (vacuous)."""
    return 0.5 * m_bits * (1.0 - math.sqrt(2.0 * math.log2(size**2 / delta) / m_bits))


def _min_pairwise_distance(words: np.ndarray) -> int:
    dist = np.bitwise_count(np.bitwise_xor.outer(words, words))
    upper = dist[np.triu_indices(len(words), k=1)]
    return int(upper.min()) if upper.size else 0


def check_random_subset_separation(
    m_bits: int, size: int, delta: float, trials: int = 200, seed: int = 0
) -> dict:
    """Estimate how often a random size-S subset of {0,1}^M is under-separated."""
    if m_bits > SUBSET_SEPARATION_BIT_CAP or m_bits < 1:
        raise UsageError(f"M must lie in [1, {SUBSET_SEPARATION_BIT_CAP}]")
    if not (1 <= size <= 2 ** (m_bits - 1)):
        raise UsageError("S must lie in [1, 2^(M-1)]")
    if not (0.0 < delta < 1.0):
        raise UsageError("delta must lie in (0, 1)")
    if trials < 1:
        raise UsageError(f"trials must be positive, got {trials}")
    rng = rng_for(seed, 0x5EB5)
    bound = separation_bound(m_bits, size, delta)
    violations = 0
    min_dists = []
    for _ in range(trials):
        chosen: set[int] = set()
        while len(chosen) < size:
            draw = rng.integers(0, 2**m_bits, size=size - len(chosen))
            chosen.update(int(v) for v in draw)
        words = np.array(sorted(chosen), dtype=np.uint32)
        if size == 1:
            min_dists.append(m_bits)
            continue
        d = _min_pairwise_distance(words)
        min_dists.append(d)
        if d < bound:
            violations += 1
    rate = violations / trials
    slack = 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return make_report(
        "random subsets fall below the separation bound with rate <= delta",
        rate,
        delta,
        rate <= delta + slack,
        slack,
        bound=bound,
        trials=trials,
        min_distance_mean=float(np.mean(min_dists)),
    )
