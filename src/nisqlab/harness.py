"""Hybrid quantum-classical execution as learning trees.

A controller is a deterministic step function from the transcript so far to
the next action: query the classical oracle, run a noisy circuit, or output
an answer.  Executing one controller yields a transcript (the root-to-leaf
path actually taken); enumerating all circuit outcomes yields the exact
distribution over leaves.  On top of that sit the two-point distinguishing
advantage and the leaf-perturbation bound.

The ambient noise rate is a property of the execution environment, not of
the submitted circuit: every circuit a controller hands in is re-stamped
with the harness's rate before it runs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .algorithms import bv_circuit, bv_repetitions, majority_vote
from .errors import CapacityError, UsageError
from .metrics import dict_tv
from .oracles import ClassicalOracle, OracleBinding, lift_to_unitary
from .qsim import (
    NoisyCircuit,
    OracleCall,
    circuit_fingerprint,
    exact_output_distribution,
    sample_stream,
)
from .reporting import make_report
from .seeding import resolve_seed, rng_for

STEP_BUDGET = 10_000
DEPTH_CAP = 1_000  # steps per submitted circuit; always reported
LEAF_CAP = 10**6

LECAM_THRESHOLD = 1.0 / 3.0


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalEdge:
    """One classical oracle query: input x, oracle answer fx."""

    x: int
    fx: int


@dataclass(frozen=True)
class CircuitEdge:
    """One circuit run: content key of the executed circuit, the measured
    outcome, and that run's query / runtime accounting."""

    circuit_key: str
    outcome: str
    oracle_calls: int
    runtime_units: int


Edge = ClassicalEdge | CircuitEdge


@dataclass(frozen=True)
class Transcript:
    """Ordered record of every oracle interaction, root to leaf."""

    edges: tuple[Edge, ...] = ()

    def with_edge(self, edge: Edge) -> "Transcript":
        return Transcript(self.edges + (edge,))

    def __len__(self) -> int:
        return len(self.edges)

    @property
    def query_count(self) -> int:
        """Oracle invocations: classical queries plus calls inside circuits."""
        return sum(
            1 if isinstance(e, ClassicalEdge) else e.oracle_calls for e in self.edges
        )

    @property
    def circuit_depth(self) -> int:
        return sum(1 for e in self.edges if isinstance(e, CircuitEdge))

    @property
    def runtime_units(self) -> int:
        """Simulated cost: n_qubits x n_steps summed over circuit runs."""
        return sum(e.runtime_units for e in self.edges if isinstance(e, CircuitEdge))


# ---------------------------------------------------------------------------
# controllers and actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalQuery:
    x: int


@dataclass(frozen=True)
class RunCircuit:
    circuit: NoisyCircuit


@dataclass(frozen=True)
class Output:
    answer: object


Action = ClassicalQuery | RunCircuit | Output


class Controller:
    """Decides the next action from the transcript so far.

    step() must be a pure function of the transcript (plus construction-time
    configuration), so the tree enumerator can replay it down every branch.
    """

    def step(self, transcript: Transcript) -> Action:
        raise NotImplementedError


class FunctionController(Controller):
    """Wrap a plain function transcript -> action."""

    def __init__(self, fn):
        self.fn = fn

    def step(self, transcript: Transcript) -> Action:
        return self.fn(transcript)


def run_then_output(circuit: NoisyCircuit, depth: int = 1) -> FunctionController:
    """Run `circuit` `depth` times, then output the last outcome."""

    def step(t: Transcript) -> Action:
        if t.circuit_depth < depth:
            return RunCircuit(circuit)
        return Output(t.edges[-1].outcome)

    return FunctionController(step)


class BVMajorityController(Controller):
    """Secret recovery by repetition: run the standard one-query circuit M
    times, output the per-bit majority of the data register.

    Answer-equivalent, run for run, to `run_noisy_bv` under a shared seed
    while that estimator samples by trajectory (it does for n <= 14): the
    harness feeds repeated runs of one circuit from the same outcome stream
    the batch sampler uses.  Wider registers run here by trajectory too, so
    they are slow and past the trajectory cap raise CapacityError.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.repetitions = bv_repetitions(cfg)
        self.circuit = bv_circuit(cfg.n, cfg.noise)

    def step(self, transcript: Transcript) -> Action:
        # every edge is a run of the one circuit
        if len(transcript) < self.repetitions:
            return RunCircuit(self.circuit)
        return Output(majority_vote(Counter(e.outcome for e in transcript.edges), self.cfg.n))


# ---------------------------------------------------------------------------
# the learning-tree walk
# ---------------------------------------------------------------------------


def _oracle_views(oracle):
    """Normalize the oracle argument to (circuit bindings, classical view).

    Accepts a ClassicalOracle (bound to id "O", classically queryable), a
    single OracleBinding (bound to id "O", no classical interface), or a
    dict id -> oracle/binding whose classical view is the entry under "O"
    when that entry is a ClassicalOracle.
    """
    if isinstance(oracle, ClassicalOracle):
        return {"O": lift_to_unitary(oracle)}, oracle
    if isinstance(oracle, OracleBinding):
        return {"O": oracle}, None
    if isinstance(oracle, dict):
        bindings = {}
        classical = None
        for key, value in oracle.items():
            if isinstance(value, ClassicalOracle):
                bindings[key] = lift_to_unitary(value)
                if key == "O":
                    classical = value
            elif isinstance(value, OracleBinding):
                bindings[key] = value
            else:
                raise UsageError(f"cannot bind {type(value).__name__} under {key!r}")
        return bindings, classical
    raise UsageError(f"cannot interpret {type(oracle).__name__} as an oracle")


def _stamped(circuit: NoisyCircuit, noise) -> NoisyCircuit:
    """Re-issue the circuit at the ambient noise rate."""
    if circuit.noise.value == getattr(noise, "value", noise):
        return circuit
    return NoisyCircuit(circuit.n_qubits, circuit.steps, noise)


def _walk_tree(controller, views, noise, children):
    """Walk the controller's learning tree with one path probability per
    (circuit bindings, classical view) pair in `views`.

    A view stays alive on a path while every factor on it is nonzero, and
    the walk drops a branch on which no view is alive.  A classical query
    branches over the live views' distinct answers, with factor 1 under the
    views giving each and 0 under the rest.  A stamped circuit branches over
    `children(circuit, bindings, alive)`, its (outcome, per-view factor)
    pairs; a view dead on the path may get any factor.
    Returns the leaves (transcript -> (path probabilities, live flags)) and
    their answers.
    """
    bindings, classicals = zip(*views)
    leaves: dict[Transcript, tuple[tuple[float, ...], tuple[bool, ...]]] = {}
    answers: dict[Transcript, object] = {}
    stack = [(Transcript(), (1.0,) * len(views), (True,) * len(views))]
    while stack:
        transcript, ps, alive = stack.pop()
        if len(transcript) >= STEP_BUDGET:
            raise CapacityError(f"controller did not output within the step budget of {STEP_BUDGET}")
        action = controller.step(transcript)
        if isinstance(action, Output):
            if len(leaves) >= LEAF_CAP:
                raise CapacityError(f"more than {LEAF_CAP} leaves")
            leaves[transcript] = ps, alive
            answers[transcript] = action.answer
            continue
        if isinstance(action, ClassicalQuery):
            if None in classicals:
                raise UsageError("controller made a classical query but the oracle has no classical view")
            x = int(action.x)
            answering = dict.fromkeys(view for view, a in zip(classicals, alive) if a)
            fx = {c: c.evaluate(x) for c in answering}
            branches = [
                (ClassicalEdge(x, v), tuple(float(fx.get(c) == v) for c in classicals))
                for v in sorted(set(fx.values()))
            ]
        elif isinstance(action, RunCircuit):
            circuit = _stamped(action.circuit, noise)
            if len(circuit.steps) > DEPTH_CAP:
                raise CapacityError(f"circuit depth {len(circuit.steps)} exceeds the cap {DEPTH_CAP}")
            key = f"{circuit_fingerprint(circuit):015x}"
            calls = sum(1 for s in circuit.steps if isinstance(s, OracleCall))
            units = circuit.n_qubits * len(circuit.steps)
            branches = [(CircuitEdge(key, o, calls, units), f) for o, f in children(circuit, bindings, alive)]
        else:
            raise UsageError(f"controller returned {type(action).__name__}, not an action")
        for edge, factors in branches:
            live = tuple(a and f != 0.0 for a, f in zip(alive, factors))
            if any(live):
                stack.append((transcript.with_edge(edge), tuple(p * f for p, f in zip(ps, factors)), live))
                if len(stack) + len(leaves) > LEAF_CAP:
                    raise CapacityError(f"branching exceeded {LEAF_CAP} paths")
    return leaves, answers


# ---------------------------------------------------------------------------
# sampled execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    transcript: Transcript
    answer: object
    queries: int
    runtime_units: int
    wall_seconds: float
    depth_cap: int


def _next_outcomes(seed: int):
    """The one-branch rule of a sampled walk: each circuit edge takes the
    next outcome of that circuit's stream, one stream per circuit content.
    Walks that share the rule continue each other's streams."""
    streams: dict[int, object] = {}

    def next_outcome(circuit, bindings, alive):
        key = circuit_fingerprint(circuit)
        if key not in streams:
            streams[key] = sample_stream(circuit, bindings[0], seed=seed)
        return [(next(streams[key]), (1.0,))]

    return next_outcome


def run_controller(controller: Controller, oracle, noise, seed: int | None = None) -> RunResult:
    """Execute one controller, sampling circuit outcomes by trajectory.

    The one-branch walk of the learning tree.  Repeated runs of a
    structurally identical circuit consume consecutive outcomes of one
    stream keyed by the circuit's content, so M runs here aggregate to
    exactly the counts of an M-shot batch under the same seed.
    """
    next_outcome = _next_outcomes(resolve_seed(seed))
    start = time.perf_counter()
    leaves, answers = _walk_tree(controller, [_oracle_views(oracle)], noise, next_outcome)
    (t,) = leaves
    return RunResult(t, answers[t], t.query_count, t.runtime_units, time.perf_counter() - start, DEPTH_CAP)


# ---------------------------------------------------------------------------
# exact tree enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafDistribution:
    """Exact probabilities over leaf transcripts, with each leaf's answer."""

    probabilities: dict[Transcript, float]
    answers: dict[Transcript, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = sum(self.probabilities.values())
        if abs(total - 1.0) > 1e-9:
            raise UsageError(f"leaf probabilities sum to {total}, not 1")
        if any(p < -1e-12 for p in self.probabilities.values()):
            raise UsageError("negative leaf probability")


def _support(dists) -> list[str]:
    return sorted(set().union(*(d.probabilities for d in dists)))


def _enumerate_tree(controller, views, noise):
    """The all-branch walk over the union of the live views' exact supports.
    Also returns, per circuit fingerprint, the circuit and each view's exact
    output distribution, computed only where that view is live (else None)."""
    nodes: dict[int, tuple] = {}

    def live_support(circuit, bindings, alive):
        _, dists = nodes.setdefault(circuit_fingerprint(circuit), (circuit, [None] * len(bindings)))
        for j, b in enumerate(bindings):
            if alive[j] and dists[j] is None:
                dists[j] = exact_output_distribution(circuit, b)
        live = [d for d, a in zip(dists, alive) if a]
        return [(o, tuple(d.get(o) if a else 0.0 for d, a in zip(dists, alive))) for o in _support(live)]

    leaves, answers = _walk_tree(controller, views, noise, live_support)
    return leaves, answers, nodes


def exact_leaf_distribution(controller: Controller, oracle, noise) -> LeafDistribution:
    """Enumerate the learning tree, multiplying exact outcome probabilities.

    The controller is replayed down every branch, so its step function must
    be pure.  Classical edges are deterministic; circuit edges branch over
    the exact output distribution of the stamped circuit.
    """
    leaves, answers, _ = _enumerate_tree(controller, [_oracle_views(oracle)], noise)
    return LeafDistribution({t: p for t, ((p,), _) in leaves.items()}, answers)


# ---------------------------------------------------------------------------
# two-point distinguishing
# ---------------------------------------------------------------------------


def _check_family(family) -> list[tuple[float, object]]:
    family = list(family)
    if not family:
        raise UsageError("oracle family is empty")
    weights = [float(w) for w, _ in family]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise UsageError("family weights must be nonnegative and sum to 1")
    return [(float(w), o) for w, o in family]


def lecam_advantage(
    controller: Controller,
    family0,
    family1,
    noise,
    mode: str = "exact",
    trials: int = 2000,
    seed: int | None = None,
) -> dict:
    """Two-point distinguishing advantage of one controller.

    Exact mode computes the TV distance between the mixture leaf
    distributions of the two (weight, oracle) families; sampled mode
    estimates the TV distance between the controller's answer
    distributions.  Either way the report compares against the 1/3
    threshold: holding means this controller fails to distinguish.
    """
    family0 = _check_family(family0)
    family1 = _check_family(family1)
    if mode == "exact":
        # one walk over both families' distinct oracles, mixed member by member
        members = [[(w, o) for w, o in family if w > 0.0] for family in (family0, family1)]
        distinct = list({id(o): o for _, o in members[0] + members[1]}.values())
        column = {id(o): j for j, o in enumerate(distinct)}
        views = [_oracle_views(o) for o in distinct]
        leaves, _, _ = _enumerate_tree(controller, views, noise)
        mix0, mix1 = {}, {}
        for family, mix in zip(members, (mix0, mix1)):
            for weight, oracle in family:
                j = column[id(oracle)]
                for t, (ps, alive) in leaves.items():
                    if alive[j]:
                        mix[t] = mix.get(t, 0.0) + weight * ps[j]
        tv = dict_tv(mix0, mix1)
        slack = 0.0
        details = {"mode": mode, "transcripts": len(mix0 | mix1)}
    elif mode == "sampled":
        if trials < 1:
            raise UsageError(f"sampled mode needs at least one trial, got {trials}")
        master = resolve_seed(seed)
        answer_dists = []
        for b, family in enumerate((family0, family1)):
            # a member's trials are consecutive walks over one stream set
            rng = rng_for(master, 0x6C65, b)
            seeds = rng.integers(0, 2**62, size=len(family))
            picks = rng.choice(len(family), size=trials, p=[w for w, _ in family])
            counts: Counter = Counter()
            for j, member_trials in zip(*np.unique(picks, return_counts=True)):
                views = [_oracle_views(family[j][1])]
                next_outcome = _next_outcomes(int(seeds[j]))
                for _ in range(member_trials):
                    _, leaf = _walk_tree(controller, views, noise, next_outcome)
                    counts.update(leaf.values())
            answer_dists.append({a: c / trials for a, c in counts.items()})
        tv = dict_tv(*answer_dists)
        answers = len(answer_dists[0] | answer_dists[1])
        slack = 3.0 * (max(answers, 1) / trials) ** 0.5
        details = {"mode": mode, "trials": trials, "answers": answers, "slack": slack}
    else:
        raise UsageError(f"unknown mode {mode!r}")
    details["depth_cap"] = DEPTH_CAP
    return make_report(
        "distinguishing advantage below the two-point threshold",
        tv,
        LECAM_THRESHOLD,
        tv < LECAM_THRESHOLD + slack,
        slack,
        **details,
    )


# ---------------------------------------------------------------------------
# leaf perturbation
# ---------------------------------------------------------------------------


def perturbation_check(controller: Controller, oracle, substitute, noise) -> dict:
    """Verify leaf TV <= epsilon x depth under a circuit-level substitution.

    Both trees share the controller, so they share structure; only circuit
    edge probabilities differ.  epsilon is the largest per-node TV between
    the two child distributions, depth is the most circuit edges on any
    root-to-leaf path, and classical queries are answered by the original
    oracle in both trees (the substitution acts inside circuits only).
    """
    bindings, classical = _oracle_views(oracle)
    views = [(bindings, classical), (_oracle_views(substitute)[0], classical)]
    leaves, _, nodes = _enumerate_tree(controller, views, noise)

    def node_tv(circuit, dists) -> float:
        # both trees' child distributions, also where one tree never runs the node
        d0, d1 = (exact_output_distribution(circuit, v[0]) if d is None else d for d, v in zip(dists, views))
        return 0.5 * sum(abs(d0.get(o) - d1.get(o)) for o in _support((d0, d1)))

    epsilon = max((node_tv(*node) for node in nodes.values()), default=0.0)
    depth = max((t.circuit_depth for t in leaves), default=0)
    leaf_tv = 0.5 * sum(abs(p0 - p1) for (p0, p1), _ in leaves.values())
    bound = epsilon * depth
    return make_report(
        "leaf TV within per-node drift times circuit depth",
        leaf_tv,
        bound,
        leaf_tv <= bound + 1e-9,
        1e-9,
        epsilon=epsilon,
        depth=depth,
        leaves=len(leaves),
        depth_cap=DEPTH_CAP,
    )
