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

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .bits import str_to_arr
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

DEFAULT_STEP_BUDGET = 10_000
DEFAULT_DEPTH_CAP = 1_000  # steps per submitted circuit; configurable, always reported
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

    def to_json_lines(self) -> str:
        lines = []
        for e in self.edges:
            if isinstance(e, ClassicalEdge):
                lines.append(json.dumps({"kind": "classical", "x": e.x, "fx": e.fx}))
            else:
                lines.append(
                    json.dumps(
                        {
                            "kind": "circuit",
                            "circuit": e.circuit_key,
                            "outcome": e.outcome,
                            "oracle_calls": e.oracle_calls,
                            "runtime_units": e.runtime_units,
                        },
                        sort_keys=True,
                    )
                )
        return "\n".join(lines)

    def digest(self) -> str:
        return hashlib.sha256(self.to_json_lines().encode()).hexdigest()[:16]


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
    Controllers carrying mutable state must override clone().
    """

    def step(self, transcript: Transcript) -> Action:
        raise NotImplementedError

    def clone(self) -> "Controller":
        return self


class FunctionController(Controller):
    """Wrap a plain function transcript -> action."""

    def __init__(self, fn):
        self.fn = fn

    def step(self, transcript: Transcript) -> Action:
        return self.fn(transcript)


class BVMajorityController(Controller):
    """Secret recovery by repetition: run the standard one-query circuit M
    times, output the per-bit majority of the data register.

    Answer-equivalent, run for run, to the direct estimator in the
    algorithms module under a shared seed: the harness feeds repeated runs
    of one circuit from the same outcome stream the batch sampler uses.
    """

    def __init__(self, cfg):
        from .algorithms import bv_circuit, bv_repetitions

        self.cfg = cfg
        self.repetitions = bv_repetitions(cfg)
        self.circuit = bv_circuit(cfg.n, cfg.noise)

    def step(self, transcript: Transcript) -> Action:
        done = transcript.circuit_depth
        if done < self.repetitions:
            return RunCircuit(self.circuit)
        ones = np.zeros(self.cfg.n, dtype=np.int64)
        for e in transcript.edges:
            ones += str_to_arr(e.outcome[: self.cfg.n]).astype(np.int64)
        m = self.repetitions
        return Output("".join("1" if o > m / 2 else "0" for o in ones))


# ---------------------------------------------------------------------------
# oracle argument handling
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


def _circuit_edge(circuit: NoisyCircuit, outcome: str) -> CircuitEdge:
    calls = sum(1 for s in circuit.steps if isinstance(s, OracleCall))
    return CircuitEdge(
        circuit_key=f"{circuit_fingerprint(circuit):015x}",
        outcome=outcome,
        oracle_calls=calls,
        runtime_units=circuit.n_qubits * len(circuit.steps),
    )


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


def run_controller(
    controller: Controller,
    oracle,
    noise,
    seed: int | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> RunResult:
    """Execute one controller, sampling circuit outcomes by trajectory.

    Repeated runs of a structurally identical circuit consume consecutive
    outcomes of one stream keyed by the circuit's content, so M runs here
    aggregate to exactly the counts of an M-shot batch under the same seed.
    """
    master = resolve_seed(seed)
    bindings, classical = _oracle_views(oracle)
    controller = controller.clone()
    streams: dict[int, object] = {}
    transcript = Transcript()
    start = time.perf_counter()
    for _ in range(step_budget):
        action = controller.step(transcript)
        if isinstance(action, Output):
            return RunResult(
                transcript,
                action.answer,
                transcript.query_count,
                transcript.runtime_units,
                time.perf_counter() - start,
                depth_cap,
            )
        if isinstance(action, ClassicalQuery):
            if classical is None:
                raise UsageError("controller made a classical query but the oracle has no classical view")
            transcript = transcript.with_edge(
                ClassicalEdge(int(action.x), classical.evaluate(int(action.x)))
            )
            continue
        if not isinstance(action, RunCircuit):
            raise UsageError(f"controller returned {type(action).__name__}, not an action")
        circuit = _stamped(action.circuit, noise)
        if len(circuit.steps) > depth_cap:
            raise CapacityError(
                f"circuit depth {len(circuit.steps)} exceeds the cap {depth_cap}"
            )
        key = circuit_fingerprint(circuit)
        if key not in streams:
            streams[key] = sample_stream(circuit, bindings, seed=master)
        outcome = next(streams[key])
        transcript = transcript.with_edge(_circuit_edge(circuit, outcome))
    raise CapacityError(f"controller did not output within the step budget of {step_budget}")


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

    def tv_to(self, other: "LeafDistribution") -> float:
        return dict_tv(self.probabilities, other.probabilities)

    def answer_marginal(self) -> dict:
        out: dict = {}
        for t, p in self.probabilities.items():
            a = self.answers.get(t)
            out[a] = out.get(a, 0.0) + p
        return out

    def to_csv(self) -> str:
        rows = sorted((t.digest(), p) for t, p in self.probabilities.items())
        body = "\n".join(f"{h},{p:.17g}" for h, p in rows)
        return "transcript_hash,probability\n" + body + "\n"


def _enumerate_tree(controller, oracles, noise, step_budget, depth_cap, leaf_cap):
    """Enumerate the learning tree once, carrying one probability per oracle.

    Classical queries are answered by the first oracle; a circuit edge
    branches over the union of the stamped circuit's outcome supports under
    every oracle.  Returns the leaves (transcript -> tuple of path
    probabilities), their answers, and per visited circuit fingerprint the
    tuple of exact outcome distributions with their sorted joint support.
    """
    views = [_oracle_views(o) for o in oracles]
    classical = views[0][1]
    controller = controller.clone()
    leaves: dict[Transcript, tuple[float, ...]] = {}
    answers: dict[Transcript, object] = {}
    nodes: dict[int, tuple] = {}
    stack = [(Transcript(), (1.0,) * len(views))]
    n_leaves = 0
    while stack:
        transcript, ps = stack.pop()
        if len(transcript) >= step_budget:
            raise CapacityError(f"a branch exceeded {step_budget} steps")
        action = controller.step(transcript)
        if isinstance(action, Output):
            n_leaves += 1
            if n_leaves > leaf_cap:
                raise CapacityError(f"more than {leaf_cap} leaves")
            old = leaves.get(transcript, (0.0,) * len(views))
            leaves[transcript] = tuple(a + p for a, p in zip(old, ps))
            answers[transcript] = action.answer
            continue
        if isinstance(action, ClassicalQuery):
            if classical is None:
                raise UsageError("controller made a classical query but the oracle has no classical view")
            edge = ClassicalEdge(int(action.x), classical.evaluate(int(action.x)))
            stack.append((transcript.with_edge(edge), ps))
            continue
        if not isinstance(action, RunCircuit):
            raise UsageError(f"controller returned {type(action).__name__}, not an action")
        circuit = _stamped(action.circuit, noise)
        if len(circuit.steps) > depth_cap:
            raise CapacityError(
                f"circuit depth {len(circuit.steps)} exceeds the cap {depth_cap}"
            )
        key = circuit_fingerprint(circuit)
        if key not in nodes:
            dists = tuple(exact_output_distribution(circuit, bindings) for bindings, _ in views)
            nodes[key] = (dists, sorted(set().union(*(d.probabilities for d in dists))))
        dists, support = nodes[key]
        for outcome in support:
            edge = _circuit_edge(circuit, outcome)
            stack.append((transcript.with_edge(edge), tuple(p * d.get(outcome) for p, d in zip(ps, dists))))
            if len(stack) + n_leaves > leaf_cap:
                raise CapacityError(f"branching exceeded {leaf_cap} paths")
    return leaves, answers, nodes


def exact_leaf_distribution(
    controller: Controller,
    oracle,
    noise,
    step_budget: int = DEFAULT_STEP_BUDGET,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    leaf_cap: int = LEAF_CAP,
) -> LeafDistribution:
    """Enumerate the learning tree, multiplying exact outcome probabilities.

    The controller is replayed down every branch, so its step function must
    be pure.  Classical edges are deterministic; circuit edges branch over
    the exact output distribution of the stamped circuit.
    """
    leaves, answers, _ = _enumerate_tree(controller, [oracle], noise, step_budget, depth_cap, leaf_cap)
    return LeafDistribution({t: p for t, (p,) in leaves.items()}, answers)


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


def _mixture_leaves(controller, family, noise, **caps) -> dict[Transcript, float]:
    mix: dict[Transcript, float] = {}
    for weight, oracle in family:
        if weight == 0.0:
            continue
        dist = exact_leaf_distribution(controller, oracle, noise, **caps)
        for t, p in dist.probabilities.items():
            mix[t] = mix.get(t, 0.0) + weight * p
    return mix


def lecam_advantage(
    controller: Controller,
    family0,
    family1,
    noise,
    mode: str = "exact",
    trials: int = 2000,
    seed: int | None = None,
    step_budget: int = DEFAULT_STEP_BUDGET,
    depth_cap: int = DEFAULT_DEPTH_CAP,
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
    caps = {"step_budget": step_budget, "depth_cap": depth_cap}
    if mode == "exact":
        mix0 = _mixture_leaves(controller, family0, noise, **caps)
        mix1 = _mixture_leaves(controller, family1, noise, **caps)
        tv = dict_tv(mix0, mix1)
        slack = 0.0
        details = {"mode": mode, "transcripts": len(mix0 | mix1)}
    elif mode == "sampled":
        master = resolve_seed(seed)
        answer_dists = []
        for b, family in enumerate((family0, family1)):
            weights = np.array([w for w, _ in family])
            cum = np.cumsum(weights)
            counts: dict = {}
            for t in range(trials):
                rng = rng_for(master, 0x6C65, b, t)
                idx = int(np.searchsorted(cum, rng.random(), side="right"))
                idx = min(idx, len(family) - 1)
                child = int(rng.integers(0, 2**62))
                result = run_controller(controller, family[idx][1], noise, seed=child, **caps)
                counts[result.answer] = counts.get(result.answer, 0) + 1
            answer_dists.append({a: c / trials for a, c in counts.items()})
        tv = dict_tv(*answer_dists)
        answers = len(answer_dists[0] | answer_dists[1])
        slack = 3.0 * (max(answers, 1) / trials) ** 0.5
        details = {"mode": mode, "trials": trials, "answers": answers, "slack": slack}
    else:
        raise UsageError(f"unknown mode {mode!r}")
    details["depth_cap"] = depth_cap
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


def perturbation_check(
    controller: Controller,
    oracle,
    substitute,
    noise,
    step_budget: int = DEFAULT_STEP_BUDGET,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    leaf_cap: int = LEAF_CAP,
) -> dict:
    """Verify leaf TV <= epsilon x depth under a circuit-level substitution.

    Both trees share the controller, so they share structure; only circuit
    edge probabilities differ.  epsilon is the largest per-node TV between
    the two child distributions, depth is the most circuit edges on any
    root-to-leaf path, and classical queries are answered by the original
    oracle in both trees (the substitution acts inside circuits only).
    """
    leaves, _, nodes = _enumerate_tree(
        controller, [oracle, substitute], noise, step_budget, depth_cap, leaf_cap
    )
    epsilon = max(
        (0.5 * sum(abs(d0.get(o) - d1.get(o)) for o in support) for (d0, d1), support in nodes.values()),
        default=0.0,
    )
    depth = max((t.circuit_depth for t in leaves), default=0)
    leaf_tv = 0.5 * sum(abs(p0 - p1) for p0, p1 in leaves.values())
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
        depth_cap=depth_cap,
    )
