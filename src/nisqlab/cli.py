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
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, algorithms, harness, metrics, oracles, qsim, verify
from .errors import CapacityError, InvariantViolation, UsageError
from .plotting import line_plot_svg
from .seeding import resolve_seed, rng_for

_FLOAT_FMT = "%.12g"


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def parse_n_spec(spec: "str | int | list") -> list[int]:
    """Parse a qubit-count spec: "5", "8,16,32", or "1..6"."""
    if isinstance(spec, int):
        return [spec]
    if isinstance(spec, list):
        if not all(type(v) is int for v in spec):
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
            # a JSON boolean is no number, and int() would truncate 2.7
            integral = not isinstance(value, float) or value.is_integer()
            if isinstance(value, bool) or (convert is int and not integral):
                raise ValueError
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

    def count(self, key: str, default: int, least: int = 1) -> int:
        value = int(self.get(key, default))
        if value < least:
            raise UsageError(f"--{key} must be at least {least}, got {value}")
        return value

    def n_list(self, default: str) -> list[int]:
        values = parse_n_spec(self.get("n", default))
        if not values or min(values) < 1:
            raise UsageError(f"--n takes positive qubit counts, got {values}")
        return values

    def single_n(self, default: int) -> int:
        values = self.n_list(default)
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
        shots = p.count("shots", 10_000)
        counts = qsim.sample_outcomes(
            circuit, seed=seed, shots=shots, threads=p.count("threads", 1)
        )
        rows = [(s, c, c / shots) for s, c in sorted(counts.items())]
        _write_csv(out, ["outcome", "count", "probability"], rows, seed)
    else:
        raise UsageError(f"unknown backend {backend!r}; choose exact or trajectory")
    return 0


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


class _Plot(NamedTuple):
    """A line plot of a record: `x` and each series' y name CSV columns."""

    title: str
    x_label: str
    y_label: str
    x: str
    series: list[tuple[str, str]]


@dataclass
class _Record:
    """One experiment run: its CSV table, an optional plot of it, the lines
    to print, and whether the checked claim held (else exit 1)."""

    header: list[str]
    rows: list[tuple]
    seed: int
    plot: _Plot | None = None
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def svg(self) -> str:
        def column(name: str) -> list[float]:
            return [float(row[self.header.index(name)]) for row in self.rows]

        series = [(label, column(self.plot.x), column(y)) for label, y in self.plot.series]
        return line_plot_svg(series, self.plot.title, self.plot.x_label, self.plot.y_label)


def _verdict(name: str, ok: bool, passed: str, failed: str, outside: int = 0, rows: int = 0) -> list[str]:
    """The PASS/FAIL line; `outside` of the `rows` rows lay outside the
    regime where the checked claim applies and were not judged."""
    if ok and outside == rows > 0:
        return [f"PASS {name}: no row in the claim's regime ({rows} outside)"]
    note = f" ({outside} of {rows} rows outside the claim's regime)" if outside else ""
    return [(f"PASS {name}: {passed}" if ok else f"FAIL {name}: {failed}") + note]


def _sweep(xs, check, in_regime=lambda x: True) -> tuple[list[tuple], bool]:
    """(x, lhs, rhs, holds) rows of the report `check(x)` at each x, and
    whether every report in the claim's regime held; outside it holds is n/a."""
    reports = [(x, check(x)) for x in xs]
    rows = [(x, rep["lhs"], rep["rhs"], rep["holds"] if in_regime(x) else "n/a") for x, rep in reports]
    return rows, all(row[3] for row in rows if row[3] != "n/a")


def _exp_bv_scaling(p: _Params) -> _Record:
    lam = float(p.get("lambda", 0.05))
    delta = float(p.get("delta", 0.01))
    trials = p.count("trials", 50)
    threads = p.count("threads", 1)
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
    return _Record(
        ["n", "M", "guaranteed", "trials", "successes", "success_rate"],
        rows,
        seed,
        _Plot("Majority repetitions vs width", "n", "M", "n", [("repetitions M", "M")]),
    )


def _exp_grover_degradation(p: _Params) -> _Record:
    n = p.single_n(3)
    n_search = 2**n
    lam = float(p.get("lambda", 0.1))
    iterations = p.count("trials", 6, least=0)
    oracle = oracles.GroverOracle(n_search, 1)
    tol = 1e-9
    ideals = [algorithms.grover_ideal_success(n_search, t) for t in range(iterations + 1)]
    # The strict claim covers the walk's first rise, up to t*, the last t
    # before the closed form first decreases; past it the rotation
    # overshoots, and at a trough noise can raise success.
    t_star = next((t for t in range(iterations) if ideals[t + 1] < ideals[t]), iterations)
    rows = []
    ok = True
    outside = 0
    for t, ideal in enumerate(ideals):
        clean = algorithms.run_noisy_grover(oracle, 0.0, t)
        noisy = algorithms.run_noisy_grover(oracle, lam, t)
        if abs(clean - ideal) > tol:
            ok = False
        # Global depolarizing at rate lam on each of the L noise layers would
        # leave (1-lam)^L clean + (1 - (1-lam)^L) / N.  The strict comparison
        # applies where that degradation is resolvable above the tolerance.
        layers = algorithms.grover_circuit(n, t, lam).noise_layer_count()
        if t > t_star or (1.0 - (1.0 - lam) ** layers) * (clean - 1.0 / n_search) <= tol:
            outside += 1
        elif not noisy < clean:
            ok = False
        rows.append((t, ideal, clean, noisy))
    series = [("closed form", "closed_form"), ("noiseless", "noiseless"), (f"lambda={_cell(lam)}", "noisy")]
    return _Record(
        ["iterations", "closed_form", "noiseless", "noisy"],
        rows,
        p.seed(),
        _Plot(
            "Marked-state probability vs iterations", "iterations", "success probability", "iterations", series
        ),
        _verdict(
            "grover-degradation",
            ok,
            "closed form matched, noise strictly degrades",
            "noise did not strictly degrade success",
            outside, len(rows),
        ),
        ok,
    )


def _exp_shadow_decay(p: _Params) -> _Record:
    lam = float(p.get("lambda", 0.1))
    rows = []
    for n in p.n_list("1..6"):
        got = algorithms.shadow_distinguish("Z" * n, lam, 1).trace_distance_per_query
        rows.append((n, got, (1.0 - lam) ** n))
    ok = all(abs(got - expected) <= 1e-10 for _, got, expected in rows)
    series = [("per-query trace distance", "trace_distance"), ("(1-lambda)^n", "expected")]
    return _Record(
        ["n", "trace_distance", "expected"],
        rows,
        p.seed(),
        _Plot("Per-query distinguishability decay", "Pauli weight n", "trace distance", "n", series),
        _verdict(
            "shadow-decay",
            ok,
            "trace distance equals (1-lambda)^n within 1e-10",
            "trace distance deviates from (1-lambda)^n",
        ),
        ok,
    )


def _exp_lifted_simon_tv(p: _Params) -> _Record:
    lam = float(p.get("lambda", 0.6))
    seed = p.seed()
    rows, ok = _sweep(p.n_list("2,3"), lambda n: algorithms.lifted_simon_tv(n, lam, seed=seed))
    series = [("output TV", "tv"), ("damping bound", "bound")]
    return _Record(
        ["n", "tv", "bound", "holds"],
        rows,
        seed,
        _Plot("Lifted-function output damping", "n", "total variation", "n", series),
        _verdict(
            "lifted-simon-tv", ok, "TV within the damping bound at every n", "TV exceeded the damping bound"
        ),
        ok,
    )


def _exp_info_decay(p: _Params) -> _Record:
    n = p.single_n(3)
    lam = float(p.get("lambda", 0.3))
    depth = p.count("trials", 4, least=0)
    seed = p.seed()
    circuit = qsim.random_circuit(n, depth, lam, rng_for(seed, 0x696E66))
    rep = metrics.check_info_decay(circuit)
    rows = [
        (e["t"], e["information"], e["bound"], e["holds"])
        for e in rep["details"]["layers"]
    ]
    series = [("information", "information"), ("(1-lambda)^t n", "bound")]
    return _Record(
        ["t", "information", "bound", "holds"],
        rows,
        seed,
        _Plot("Information decay under noise layers", "noise layers t", "bits", "t", series),
        _verdict(
            "info-decay",
            rep["holds"],
            "information within (1-lambda)^t * n at every layer",
            "a layer exceeded the decay bound",
        ),
        rep["holds"],
    )


def _exp_noisy_parity(p: _Params) -> _Record:
    n = p.single_n(12)
    lam = float(p.get("lambda", 0.1))
    samples = p.count("shots", 2000)
    instances = p.count("trials", 10)
    k = min(6, n)
    w_max = min(2, k)
    threads = p.count("threads", 1)
    seed = p.seed()
    rows = []
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
        rows.append((i, secret, recovered or "", recovered == secret, inst.eta))
    wins = sum(row[3] for row in rows)
    return _Record(
        ["instance", "secret", "recovered", "success", "eta"],
        rows,
        seed,
        lines=[f"noisy-parity: recovered {wins}/{instances} secrets"],
    )


def _exp_codes_verify(p: _Params) -> _Record:
    summary = verify.run_checks(only="codes")
    rows = [
        (c["name"], "PASS" if c["holds"] else "FAIL", c["lhs"], c["rhs"])
        for c in summary["checks"]
    ]
    lines = [f"{status} {name}" for name, status, *_ in rows]
    return _Record(["check", "status", "lhs", "rhs"], rows, p.seed(), lines=lines, ok=summary["passed"])


def _exp_lecam(p: _Params) -> _Record:
    n = p.single_n(2)
    lam_arg = p.get("lambda")
    lams = [float(lam_arg)] if lam_arg is not None else [0.2, 0.4, 0.6, 0.8]
    seed = p.seed()
    lifted, zero = algorithms.lifted_simon_bindings(n, "1" * n, seed)

    def advantage(lam: float) -> dict:
        controller = harness.run_then_output(algorithms.lifted_simon_template(n, 1, lam))
        return harness.lecam_advantage(controller, [(1.0, lifted)], [(1.0, zero)], lam)

    # Global depolarizing at rate lam on each of the L noise layers damps any
    # advantage by (1-lam)^L.  The claim applies where that damping alone
    # takes the noiseless advantage below the threshold.
    layers = algorithms.lifted_simon_template(n, 1, 0.0).noise_layer_count()
    noiseless = advantage(0.0)["lhs"]
    rows, ok = _sweep(lams, advantage, lambda lam: noiseless * (1 - lam) ** layers < harness.LECAM_THRESHOLD)
    series = [("distinguishing advantage", "advantage"), ("1/3 threshold", "threshold")]
    return _Record(
        ["lambda", "advantage", "threshold", "holds"],
        rows,
        seed,
        _Plot("Two-point advantage vs noise", "lambda", "total variation", "lambda", series),
        _verdict(
            "lecam",
            ok,
            "one-query advantage below 1/3 at every lambda",
            "an advantage crossed the threshold",
            sum(row[3] == "n/a" for row in rows), len(rows),
        ),
        ok,
    )


def _exp_zalka(p: _Params) -> _Record:
    n_search = 2 ** p.single_n(3)
    iterations = p.count("trials", 3, least=0)
    rows, ok = _sweep(
        range(iterations + 1),
        lambda t: algorithms.check_zalka_sum(algorithms.grover_zalka_template(n_search, t), n_search),
    )
    series = [("progress sum", "progress_sum"), ("4 T^2", "bound")]
    return _Record(
        ["iterations", "progress_sum", "bound", "holds"],
        rows,
        p.seed(),
        _Plot(
            "Query progress vs budget", "oracle calls T", "summed squared displacement", "iterations", series
        ),
        _verdict("zalka", ok, "progress sum within 4 T^2 at every depth", "progress sum exceeded 4 T^2"),
        ok,
    )


def _exp_subset_separation(p: _Params) -> _Record:
    m_bits = p.single_n(16)
    delta = float(p.get("delta", 0.05))
    trials = p.count("trials", 200)
    seed = p.seed()
    rows = []
    for size in (4, 8, 16):
        rep = metrics.check_random_subset_separation(
            m_bits, size, delta, trials=trials, seed=seed
        )
        details = rep["details"]
        rows.append(
            (m_bits, size, delta, rep["lhs"], details["bound"], details["min_distance_mean"], rep["holds"])
        )
    ok = all(row[6] for row in rows)
    series = [("mean min distance", "min_distance_mean"), ("separation bound", "bound")]
    return _Record(
        ["m_bits", "size", "delta", "violation_rate", "bound", "min_distance_mean", "holds"],
        rows,
        seed,
        _Plot("Random subset separation", "subset size", "Hamming distance", "size", series),
        _verdict(
            "subset-separation", ok, "under-separation stayed within delta", "violation rate exceeded delta"
        ),
        ok,
    )


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
EXPERIMENT_NAMES = tuple(_EXPERIMENTS)


def cmd_experiment(name: str, p: _Params) -> int:
    """Run one experiment, then write `<name>.csv` and `<name>.svg` and print
    its lines.  The SVG is rendered first, so a failed render writes nothing."""
    if name not in _EXPERIMENTS:
        raise UsageError(
            f"unknown experiment {name!r}; choose from {', '.join(EXPERIMENT_NAMES)}"
        )
    record = _EXPERIMENTS[name](p)
    svg = record.svg() if record.plot else None
    out = p.out_dir()
    _write_csv(out / f"{name}.csv", record.header, record.rows, record.seed)
    if svg is not None:
        (out / f"{name}.svg").write_text(svg)
        print(f"wrote {out / name}.svg")
    for line in record.lines:
        print(line)
    return 0 if record.ok else 1


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
