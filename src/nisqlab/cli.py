"""Command-line entry point: simulate circuits, run experiments, verify.

Three commands share one flag set:

    nisqlab simulate --circuit circuit.json [--backend ... --shots ...]
    nisqlab experiment NAME [--n ... --lambda ... --out ...]
    nisqlab verify [--only GROUP]

`--experiment NAME` is an alias for the experiment command, so a config
file alone can select the run.  Precedence is CLI flag > config file >
built-in default, with the NISQLAB_SEED environment variable as the
last-resort seed.  Every CSV ends with a metadata comment (version,
effective seed, git hash); identical (config, seed) pairs produce
byte-identical files.

Exit codes: 0 success, 1 invariant failure, 2 usage, 3 capacity.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__, algorithms, harness, metrics, oracles, qsim, verify
from .errors import CapacityError, InvariantViolation, UsageError
from .plotting import line_plot_svg
from .seeding import resolve_seed, rng_for

EXPERIMENT_NAMES = (
    "bv-scaling",
    "grover-degradation",
    "shadow-decay",
    "lifted-simon-tv",
    "info-decay",
    "noisy-parity",
    "codes-verify",
    "lecam",
    "zalka",
    "subset-separation",
)

_FLOAT_FMT = "%.12g"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def parse_n_spec(spec: "str | int | list") -> list[int]:
    """Parse a qubit-count spec: "5", "8,16,32", or "1..6"."""
    if isinstance(spec, int):
        return [spec]
    if isinstance(spec, list):
        if not all(isinstance(v, int) for v in spec):
            raise UsageError(f"--n list members must be integers, got {spec!r}")
        return list(spec)
    spec = str(spec).strip()
    try:
        if ".." in spec:
            lo, hi = spec.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in spec.split(",")]
    except ValueError:
        raise UsageError(f"cannot parse --n value {spec!r}; use forms 5, 8,16,32, 1..6")


def _git_hash() -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if res.returncode == 0:
            return res.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[tuple], seed: int) -> None:
    lines = [",".join(header)]
    lines += [",".join(_cell(v) for v in row) for row in rows]
    lines.append(f"# version={__version__} seed={seed} git={_git_hash()}")
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")


def _write_svg(path: Path, series, title: str, x_label: str, y_label: str) -> None:
    path.write_text(line_plot_svg(series, title=title, x_label=x_label, y_label=y_label))
    print(f"wrote {path}")


def _flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Long flag name -> argparse action, for every flag a config file may set."""
    return {
        a.option_strings[-1][2:]: a
        for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


def _load_config(path: str, flags: dict[str, argparse.Action]) -> dict:
    """Read a config file; its keys are the long flag names, minus --config.

    A value is converted by its flag's argparse `type`; a flag without one
    takes only a JSON string.
    """
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"config file {path} not found")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    unknown = sorted(set(data) - set(flags))
    if unknown:
        raise UsageError(f"unknown config parameters: {', '.join(unknown)}")
    for key, value in data.items():
        convert = flags[key].type
        if value is None or (convert is None and isinstance(value, str)):
            continue
        if convert is None:
            raise UsageError(f"config parameter {key} must be a string, got {value!r}")
        try:
            data[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise UsageError(f"config parameter {key} must be {convert.__name__}, got {value!r}")
    return data


class _Params:
    """Effective parameters: CLI flag > config file > caller default."""

    def __init__(self, args: argparse.Namespace, flags: dict[str, argparse.Action], config: dict):
        self._cli = {key: getattr(args, action.dest) for key, action in flags.items()}
        self._config = config

    def get(self, key: str, default=None):
        if self._cli.get(key) is not None:
            return self._cli[key]
        if self._config.get(key) is not None:
            return self._config[key]
        return default

    def seed(self) -> int:
        raw = self.get("seed")
        return resolve_seed(None if raw is None else int(raw))

    def out_dir(self) -> Path:
        out = Path(self.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
        return out

    def n_list(self, default: str) -> list[int]:
        return parse_n_spec(self.get("n", default))

    def single_n(self, default: int) -> int:
        values = parse_n_spec(self.get("n", default))
        if len(values) != 1:
            raise UsageError("this mode takes a single --n value")
        return values[0]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(p: _Params) -> int:
    circuit_path = p.get("circuit")
    if circuit_path is None:
        raise UsageError("simulate needs --circuit <file.json>")
    try:
        text = Path(circuit_path).read_text()
    except FileNotFoundError:
        raise UsageError(f"circuit file {circuit_path} not found")
    circuit = qsim.circuit_from_json(text)
    lam = p.get("lambda")
    if lam is not None:
        circuit = qsim.NoisyCircuit(circuit.n_qubits, circuit.steps, float(lam))
    if any(isinstance(s, qsim.OracleCall) for s in circuit.steps):
        raise UsageError("circuit JSON references oracles; bind them via the API instead")
    backend = p.get("backend", "exact")
    seed = p.seed()
    out = p.out_dir() / "distribution.csv"
    if backend == "exact":
        dist = qsim.exact_output_distribution(circuit)
        rows = [(s, prob) for s, prob in sorted(dist.items())]
        _write_csv(out, ["outcome", "probability"], rows, seed)
    elif backend == "trajectory":
        shots = int(p.get("shots", 10_000))
        if shots < 1:
            raise UsageError("--shots must be positive")
        counts = qsim.sample_outcomes(
            circuit, seed=seed, shots=shots, threads=int(p.get("threads", 1))
        )
        rows = [(s, c, c / shots) for s, c in sorted(counts.items())]
        _write_csv(out, ["outcome", "count", "probability"], rows, seed)
    else:
        raise UsageError(f"unknown backend {backend!r}; choose exact or trajectory")
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_bv_scaling(p: _Params, out: Path) -> int:
    lam = float(p.get("lambda", 0.05))
    delta = float(p.get("delta", 0.01))
    trials = int(p.get("trials", 50))
    threads = int(p.get("threads", 1))
    seed = p.seed()
    rows = []
    for n in p.n_list("8,16,32"):
        cfg = algorithms.BVRunConfig(n, lam, delta)
        m = algorithms.bv_repetitions(cfg)
        successes = 0
        for t in range(trials):
            rng = rng_for(seed, 0x6273, n, t)
            secret = "".join(str(b) for b in rng.integers(0, 2, size=n))
            run_seed = int(rng.integers(0, 2**62))
            got = algorithms.run_noisy_bv(
                cfg, oracles.make_bv(secret), seed=run_seed, threads=threads
            )
            successes += got == secret
        rows.append((n, m, cfg.guaranteed, trials, successes, successes / trials))
    _write_csv(
        out / "bv-scaling.csv",
        ["n", "M", "guaranteed", "trials", "successes", "success_rate"],
        rows,
        seed,
    )
    ns = [float(r[0]) for r in rows]
    _write_svg(
        out / "bv-scaling.svg",
        [("repetitions M", ns, [float(r[1]) for r in rows])],
        "Majority repetitions vs width",
        "n",
        "M",
    )
    return 0


def _exp_grover_degradation(p: _Params, out: Path) -> int:
    n = p.single_n(3)
    n_search = 2**n
    lam = float(p.get("lambda", 0.1))
    iterations = int(p.get("trials", 6))
    oracle = oracles.GroverOracle(n_search, 1)
    rows = []
    ok = True
    for t in range(iterations + 1):
        theta = math.asin(1.0 / math.sqrt(n_search))
        ideal = math.sin((2 * t + 1) * theta) ** 2
        clean = algorithms.run_noisy_grover(oracle, 0.0, t)
        noisy = algorithms.run_noisy_grover(oracle, lam, t)
        if abs(clean - ideal) > 1e-9:
            ok = False
        # noise drags success toward the uniform 1/N baseline, so the strict
        # comparison only applies while the clean run sits above it
        if t >= 1 and lam > 0 and clean > 1.0 / n_search and not noisy < clean:
            ok = False
        rows.append((t, ideal, clean, noisy))
    _write_csv(
        out / "grover-degradation.csv",
        ["iterations", "closed_form", "noiseless", "noisy"],
        rows,
        p.seed(),
    )
    ts = [float(r[0]) for r in rows]
    _write_svg(
        out / "grover-degradation.svg",
        [
            ("closed form", ts, [r[1] for r in rows]),
            ("noiseless", ts, [r[2] for r in rows]),
            (f"lambda={_cell(lam)}", ts, [r[3] for r in rows]),
        ],
        "Marked-state probability vs iterations",
        "iterations",
        "success probability",
    )
    if not ok:
        print("FAIL grover-degradation: noise did not strictly degrade success")
        return 1
    print("PASS grover-degradation: closed form matched, noise strictly degrades")
    return 0


def _exp_shadow_decay(p: _Params, out: Path) -> int:
    lam = float(p.get("lambda", 0.1))
    rows = []
    ok = True
    for n in p.n_list("1..6"):
        got = algorithms.shadow_distinguish("Z" * n, lam, 1).trace_distance_per_query
        expected = (1.0 - lam) ** n
        if abs(got - expected) > 1e-10:
            ok = False
        rows.append((n, got, expected))
    _write_csv(
        out / "shadow-decay.csv",
        ["n", "trace_distance", "expected"],
        rows,
        p.seed(),
    )
    ns = [float(r[0]) for r in rows]
    _write_svg(
        out / "shadow-decay.svg",
        [
            ("per-query trace distance", ns, [r[1] for r in rows]),
            ("(1-lambda)^n", ns, [r[2] for r in rows]),
        ],
        "Per-query distinguishability decay",
        "Pauli weight n",
        "trace distance",
    )
    if not ok:
        print("FAIL shadow-decay: trace distance deviates from (1-lambda)^n")
        return 1
    print("PASS shadow-decay: trace distance equals (1-lambda)^n within 1e-10")
    return 0


def _exp_lifted_simon_tv(p: _Params, out: Path) -> int:
    lam = float(p.get("lambda", 0.6))
    seed = p.seed()
    rows = []
    ok = True
    for n in p.n_list("2,3"):
        rep = algorithms.lifted_simon_tv(n, lam, seed=seed)
        ok = ok and rep["holds"]
        rows.append((n, rep["lhs"], rep["rhs"], rep["holds"]))
    _write_csv(
        out / "lifted-simon-tv.csv", ["n", "tv", "bound", "holds"], rows, seed
    )
    ns = [float(r[0]) for r in rows]
    _write_svg(
        out / "lifted-simon-tv.svg",
        [
            ("output TV", ns, [r[1] for r in rows]),
            ("damping bound", ns, [r[2] for r in rows]),
        ],
        "Lifted-function output damping",
        "n",
        "total variation",
    )
    if not ok:
        print("FAIL lifted-simon-tv: TV exceeded the damping bound")
        return 1
    print("PASS lifted-simon-tv: TV within the damping bound at every n")
    return 0


def _exp_info_decay(p: _Params, out: Path) -> int:
    n = p.single_n(3)
    lam = float(p.get("lambda", 0.3))
    depth = int(p.get("trials", 4))
    seed = p.seed()
    circuit = qsim.random_circuit(n, depth, lam, rng_for(seed, 0x696E66))
    rep = metrics.check_info_decay(circuit)
    rows = [
        (e["t"], e["information"], e["bound"], e["holds"])
        for e in rep["details"]["layers"]
    ]
    _write_csv(
        out / "info-decay.csv", ["t", "information", "bound", "holds"], rows, seed
    )
    ts = [float(r[0]) for r in rows]
    _write_svg(
        out / "info-decay.svg",
        [
            ("information", ts, [r[1] for r in rows]),
            ("(1-lambda)^t n", ts, [r[2] for r in rows]),
        ],
        "Information decay under noise layers",
        "noise layers t",
        "bits",
    )
    if not rep["holds"]:
        print("FAIL info-decay: a layer exceeded the decay bound")
        return 1
    print("PASS info-decay: information within (1-lambda)^t * n at every layer")
    return 0


def _exp_noisy_parity(p: _Params, out: Path) -> int:
    n = p.single_n(12)
    lam = float(p.get("lambda", 0.1))
    samples = int(p.get("shots", 2000))
    instances = int(p.get("trials", 10))
    k = min(6, n)
    w_max = min(2, k)
    threads = int(p.get("threads", 1))
    seed = p.seed()
    rows = []
    wins = 0
    for i in range(instances):
        rng = rng_for(seed, 0x7061, i)
        w = 1 + int(rng.integers(0, w_max))
        support = rng.choice(k, size=w, replace=False)
        bits = np.zeros(n, dtype=np.int64)
        bits[support] = 1
        secret = "".join(str(b) for b in bits)
        inst = algorithms.generate_noisy_parity(
            oracles.make_bv(secret),
            lam,
            samples,
            seed=int(rng.integers(0, 2**62)),
            k=k,
            w_max=w_max,
            true_s=secret,
            threads=threads,
        )
        recovered = algorithms.solve_noisy_parity_bruteforce(inst)
        success = recovered == secret
        wins += success
        rows.append((i, secret, recovered or "", success, inst.eta))
    _write_csv(
        out / "noisy-parity.csv",
        ["instance", "secret", "recovered", "success", "eta"],
        rows,
        seed,
    )
    print(f"noisy-parity: recovered {wins}/{instances} secrets")
    return 0


def _exp_codes_verify(p: _Params, out: Path) -> int:
    summary = verify.run_checks(only="codes")
    rows = [
        (c["name"], "PASS" if c["holds"] else "FAIL", c["lhs"], c["rhs"])
        for c in summary["checks"]
    ]
    _write_csv(out / "codes-verify.csv", ["check", "status", "lhs", "rhs"], rows, p.seed())
    for name, status, *_ in rows:
        print(f"{status} {name}")
    return 0 if summary["passed"] else 1


def _exp_lecam(p: _Params, out: Path) -> int:
    n = p.single_n(2)
    lam_arg = p.get("lambda")
    lams = [float(lam_arg)] if lam_arg is not None else [0.2, 0.4, 0.6, 0.8]
    seed = p.seed()
    rows = []
    ok = True
    for lam in lams:
        template = algorithms.lifted_simon_template(n, 1, lam)
        lifted = oracles.make_lifted_simon(
            oracles.make_simon(oracles.SimonSpec(n, "1" * n, seed))
        )
        zero = oracles.ClassicalOracle(
            2 * n, n, lambda x: 0, "zero", fn_vec=lambda xs: np.zeros_like(xs)
        )
        f0 = [(1.0, {"F": oracles.lift_to_unitary(lifted)})]
        f1 = [(1.0, {"F": oracles.lift_to_unitary(zero)})]

        def step(t, template=template):
            if t.circuit_depth < 1:
                return harness.RunCircuit(template)
            return harness.Output(t.edges[-1].outcome)

        rep = harness.lecam_advantage(harness.FunctionController(step), f0, f1, lam)
        ok = ok and rep["holds"]
        rows.append((lam, rep["lhs"], rep["rhs"], rep["holds"]))
    _write_csv(
        out / "lecam.csv", ["lambda", "advantage", "threshold", "holds"], rows, seed
    )
    xs = [r[0] for r in rows]
    _write_svg(
        out / "lecam.svg",
        [
            ("distinguishing advantage", xs, [r[1] for r in rows]),
            ("1/3 threshold", xs, [r[2] for r in rows]),
        ],
        "Two-point advantage vs noise",
        "lambda",
        "total variation",
    )
    if not ok:
        print("FAIL lecam: an advantage crossed the threshold")
        return 1
    print("PASS lecam: one-query advantage below 1/3 at every lambda")
    return 0


def _exp_zalka(p: _Params, out: Path) -> int:
    n = p.single_n(3)
    n_search = 2**n
    iterations = int(p.get("trials", 3))
    rows = []
    ok = True
    for t in range(iterations + 1):
        rep = algorithms.check_zalka_sum(
            algorithms.grover_zalka_template(n_search, t), n_search
        )
        ok = ok and rep["holds"]
        rows.append((t, rep["lhs"], rep["rhs"], rep["holds"]))
    _write_csv(
        out / "zalka.csv",
        ["iterations", "progress_sum", "bound", "holds"],
        rows,
        p.seed(),
    )
    ts = [float(r[0]) for r in rows]
    _write_svg(
        out / "zalka.svg",
        [
            ("progress sum", ts, [r[1] for r in rows]),
            ("4 T^2", ts, [r[2] for r in rows]),
        ],
        "Query progress vs budget",
        "oracle calls T",
        "summed squared displacement",
    )
    if not ok:
        print("FAIL zalka: progress sum exceeded 4 T^2")
        return 1
    print("PASS zalka: progress sum within 4 T^2 at every depth")
    return 0


def _exp_subset_separation(p: _Params, out: Path) -> int:
    m_bits = p.single_n(16)
    delta = float(p.get("delta", 0.05))
    trials = int(p.get("trials", 200))
    seed = p.seed()
    rows = []
    ok = True
    for size in (4, 8, 16):
        rep = metrics.check_random_subset_separation(
            m_bits, size, delta, trials=trials, seed=seed
        )
        ok = ok and rep["holds"]
        rows.append(
            (
                m_bits,
                size,
                delta,
                rep["lhs"],
                rep["details"]["bound"],
                rep["details"]["min_distance_mean"],
                rep["holds"],
            )
        )
    _write_csv(
        out / "subset-separation.csv",
        ["m_bits", "size", "delta", "violation_rate", "bound", "min_distance_mean", "holds"],
        rows,
        seed,
    )
    xs = [float(r[1]) for r in rows]
    _write_svg(
        out / "subset-separation.svg",
        [
            ("mean min distance", xs, [r[5] for r in rows]),
            ("separation bound", xs, [r[4] for r in rows]),
        ],
        "Random subset separation",
        "subset size",
        "Hamming distance",
    )
    if not ok:
        print("FAIL subset-separation: violation rate exceeded delta")
        return 1
    print("PASS subset-separation: under-separation stayed within delta")
    return 0


_EXPERIMENTS = {
    "bv-scaling": _exp_bv_scaling,
    "grover-degradation": _exp_grover_degradation,
    "shadow-decay": _exp_shadow_decay,
    "lifted-simon-tv": _exp_lifted_simon_tv,
    "info-decay": _exp_info_decay,
    "noisy-parity": _exp_noisy_parity,
    "codes-verify": _exp_codes_verify,
    "lecam": _exp_lecam,
    "zalka": _exp_zalka,
    "subset-separation": _exp_subset_separation,
}


def cmd_experiment(name: str, p: _Params) -> int:
    if name not in _EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    return _EXPERIMENTS[name](p, p.out_dir())


def cmd_verify(p: _Params) -> int:
    summary = verify.run_checks(only=p.get("only"))
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nisqlab",
        description="Simulate depolarizing-noise circuits and run the experiment suite.",
    )
    parser.add_argument("command", nargs="?", choices=["simulate", "experiment", "verify"])
    parser.add_argument("name", nargs="?", help="experiment name for the experiment command")
    parser.add_argument("--experiment", help="experiment name (alias for the positional form)")
    parser.add_argument("--config", help="JSON file with default parameters")
    parser.add_argument("--circuit", help="circuit JSON file for simulate")
    parser.add_argument("--seed", type=int, help="RNG seed (else NISQLAB_SEED, else default)")
    parser.add_argument("--shots", type=int, help="trajectory sample count")
    parser.add_argument("--lambda", dest="lam", type=float, help="depolarizing rate override")
    parser.add_argument("--n", dest="n_spec", type=parse_n_spec, help="qubit counts: 5, 8,16,32, or 1..6")
    parser.add_argument("--delta", type=float, help="failure budget for repetition formulas")
    parser.add_argument("--trials", type=int, help="trial/sweep count (experiment-specific)")
    parser.add_argument("--out", help="output directory (default: current directory)")
    parser.add_argument("--backend", choices=["exact", "trajectory"], help="simulation backend")
    parser.add_argument("--threads", type=int, help="worker cap for trajectory sampling")
    parser.add_argument("--only", help="restrict verify to one check group")
    return parser


def _main(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flags = _flags(parser)
    config = _load_config(args.config, flags) if args.config else {}
    p = _Params(args, flags, config)
    command = args.command
    if command is None:
        if args.experiment or config.get("experiment"):
            command = "experiment"
        elif args.circuit or config.get("circuit"):
            command = "simulate"
        else:
            raise UsageError("nothing to do: pass a command, --experiment, or --circuit")
    if command == "simulate":
        return cmd_simulate(p)
    if command == "verify":
        return cmd_verify(p)
    name = args.name or p.get("experiment")
    if name is None:
        raise UsageError("experiment command needs a name")
    if args.name and args.experiment and args.name != args.experiment:
        raise UsageError("positional experiment name and --experiment disagree")
    return cmd_experiment(name, p)


def main(argv: "list[str] | None" = None) -> int:
    try:
        return _main(argv if argv is not None else sys.argv[1:])
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
