#!/usr/bin/env python3
"""nisqlab benchmark: one workload per process, untraced or traced.

    python3 benchmarks/run.py --workload sampling --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from `src/`, BLAS is
pinned to one thread and `sample_outcomes` runs with threads=1.  Workloads
(see BENCHMARK.json and workloads.py): sampling, parity, density, checks.

Inputs come from `--seed` only.  The run set-up is timed as `setup_s`: one
set-up is the time to import numpy and nisqlab in a fresh interpreter, plus
the time to generate the inputs (oracle tables included) and warm up by
running the layer suite once (`workloads.build_suite`); `setup_s` is the
median of nine, five before the timed region and four after it.
Then the workload's pass of ops is repeated in whole passes for about
`--seconds`.  Outputs are checked after the timed region.

Each op's latency is its mean time over the passes of the run.  On a
shared 2-vCPU Xeon host, CPU speed switches between states up to 1.6 times
apart, for seconds to a minute at a time.  A mean moves smoothly with the
share of the run spent in each state, where a median or a minimum jumps
from one state to the other.  `wall_s` sums the ops' mean times, the mean time of
one pass; `op_p50_ms` and `op_p90_ms` are percentiles of the ops' mean
times over the ops of a pass.

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` every op of a pass runs twice, once untraced and once traced, in
an order that alternates between ops and passes, so machine drift cancels
between the two modes; the layer suite then runs traced, so every layer is
measured on every workload.  A pass then takes about twice as long, and at
least one pass runs even where that exceeds `--seconds`.  The last line
reports the per-layer metrics, and the lines before it print every metric
by name with its unit.  Results, the machine description and the traced
spans are written under `benchmarks/out/`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 9
SETUP_REPS_BEFORE = 5  # the rest run after the timed region
# counts computed from input sizes rather than measured
COMPUTED = {"qsim.amplitude_updates", "qsim.amplitude_updates_per_s", "qsim.density_bytes_computed"}

# per-pass span self times reported as "<metric>.self_s"
SELF_TIMED = {
    "qsim.sample_outcomes": "qsim.sample_outcomes",
    "qsim.exact_output_distribution": "qsim.exact",
    "algorithms.generate_noisy_parity": "algorithms.generate_noisy_parity",
    "algorithms.solve_noisy_parity_bruteforce": "algorithms.solve_noisy_parity_bruteforce",
    "metrics.check_info_decay": "metrics.check_info_decay",
    "harness.run_controller": "harness.run_controller",
    "harness.perturbation_check": "harness.perturbation_check",
    "harness.lecam_advantage": "harness.lecam_advantage",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sampling", "parity", "density", "checks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Runner:
    """Runs ops, keeps their first output and counts, and tallies failures.

    `ops` are the workload's ops, then any that run only traced.
    """

    def __init__(self, ops, timed: int) -> None:
        self.ops = ops
        self.timed = timed  # the first `timed` ops are the workload's
        self.first: list[tuple | None] = [None] * len(ops)  # (output, key, counts)
        self.matched = [0] * len(ops)  # repetitions equal to the first
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i} ({self.ops[i].kind}): {why}")

    def phase(self, seconds: float, tracer=None) -> tuple[list[list[float]], list[list[float]], int]:
        """Repeat whole passes, as many as fit `seconds` most closely (at least one).

        Only whole passes run, so every op index is timed equally often and
        the op-time percentiles see the same mix of ops in every run.  With
        a tracer, each workload op runs untraced and traced, the traced run
        first on every other op, and the traced-only ops follow.  Returns
        the untraced and traced seconds per workload op, and the passes run.
        """
        plain: list[list[float]] = [[] for _ in range(self.timed)]
        traced: list[list[float]] = [[] for _ in range(self.timed)]
        start = time.perf_counter()
        passes = 0
        while True:
            pass_start = time.perf_counter()
            for i in range(self.timed):
                modes = [None] if tracer is None else [None, tracer]
                if (i + passes) % 2:
                    modes.reverse()
                for mode in modes:
                    (traced if mode else plain)[i].append(self._run(i, mode))
            for i in range(self.timed, len(self.ops)) if tracer else ():
                self._run(i, tracer)
            passes += 1
            now = time.perf_counter()
            if now - start + (now - pass_start) / 2 >= seconds:
                return plain, traced, passes

    def _run(self, i: int, tracer) -> float:
        op = self.ops[i]
        if tracer:
            tracer.install()
            span = tracer.begin(f"op.{op.kind}", self.attempted)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, counts = op.call()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            dt = time.perf_counter() - t0
            self._fail(i, f"raised {type(exc).__name__}: {exc}")
            return dt
        finally:
            if tracer:
                tracer.end(span)
                tracer.uninstall()
        dt = time.perf_counter() - t0
        key = op.key(out)
        if self.first[i] is None:
            self.first[i] = (out, key, counts)
            self.matched[i] = 1
        elif (key, counts) != self.first[i][1:]:
            self._fail(i, "output or exact counts differ from the first repetition")
        else:
            self.matched[i] += 1
        return dt

    def check_outputs(self) -> None:
        """Check each op's first output; a failed check fails every repetition
        that reproduced it."""
        for i, op in enumerate(self.ops):
            if self.first[i] is None:
                continue
            try:
                why = op.check(self.first[i][0])
            except Exception as exc:  # a check that raises fails the op
                why = f"check raised {type(exc).__name__}: {exc}"
            if why:
                self._fail(i, why)
                self.failed += self.matched[i] - 1

    def pass_counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for first in self.first:
            for k, v in (first[2] if first else {}).items():
                total[k] = total.get(k, 0) + v
        return total


def end_to_end(times: list[list[float]]) -> dict[str, float]:
    """wall_s sums each op's mean time over one pass; the percentiles are
    taken over the ops' mean times."""
    mean = [statistics.fmean(ts) for ts in times]
    return {
        "wall_s": sum(mean),
        "op_p50_ms": 1e3 * statistics.median(mean),
        "op_p90_ms": 1e3 * statistics.quantiles(mean, n=10, method="inclusive")[8],
    }


def per_layer(tracer, counts: dict[str, int], passes: int) -> dict[str, float]:
    """Layer metrics of the traced passes (workload ops and layer suite);
    self times and counts are per pass.  The layer suite reaches every
    span and count, so none of these is 0."""
    from tracing import NQ, duration

    totals = tracer.self_totals()
    out = {f"{metric}.self_s": totals[span] / passes for span, metric in SELF_TIMED.items()}
    sample_s = out["qsim.sample_outcomes.self_s"]
    small = [duration(s) for s in tracer.calls("qsim.exact_output_distribution") if s[NQ] <= 4]
    out.update(
        {
            "qsim.shots_per_s": counts["shots"] / sample_s,
            "qsim.amplitude_updates_per_s": counts["amplitude_updates"] / sample_s,
            "qsim.amplitude_updates": counts["amplitude_updates"],
            "qsim.trajectories": counts["shots"] + counts["stream_trajectories"],
            "qsim.stream_useful_ratio": counts["stream_outcomes"] / counts["stream_trajectories"],
            "qsim.exact_small_ms": 1e3 * statistics.mean(small),
            "qsim.density_bytes_computed": counts["density_bytes"],
            "oracles.queries": counts["queries"],
            "algorithms.recovered": counts["recovered"],
        }
    )
    for fn in ("membership_A", "membership_B"):
        out[f"codes.{fn}_us_per_word"] = 1e6 * statistics.mean(duration(s) for s in tracer.calls(f"codes.{fn}"))
    return out


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {**{v: os.environ[v] for v in THREAD_VARS}, "sample_outcomes": 1},
    }


def import_seconds() -> float:
    """Time to import numpy and the layers in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import numpy, nisqlab.qsim, nisqlab.oracles, nisqlab.algorithms, "
        "nisqlab.metrics, nisqlab.codes, nisqlab.harness; "
        "print(time.perf_counter() - t)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def set_up(workloads, name: str, seed: int) -> tuple[float, list, list]:
    """One set-up: fresh-interpreter import, input generation and warm-up.
    Returns its seconds, the workload's ops and the layer suite."""
    seconds = import_seconds()
    t0 = time.perf_counter()
    ops = workloads.WORKLOADS[name](seed)
    suite = workloads.build_suite(seed)
    for op in suite:  # warm-up
        op.call()
    return seconds + time.perf_counter() - t0, ops, suite


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nisqlab").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_counts(stem: str, per_op: list) -> str | None:
    """Exact counts of this code at this seed must equal those of earlier runs."""
    path = OUT / "counts" / f"{stem}-{code_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != per_op:
            return f"exact counts differ from an earlier run recorded in {path.name}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(per_op))
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nisqlab" / "__init__.py").is_file():
        print(f"error: no nisqlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))

    import workloads
    from probes import run_probes
    from tracing import Tracer

    setup_times = []
    for _ in range(SETUP_REPS_BEFORE):
        seconds, ops, suite = set_up(workloads, args.workload, args.seed)
        setup_times.append(seconds)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = Tracer() if args.trace else None
    runner = Runner(ops + suite if tracer else ops, len(ops))
    plain, traced, passes = runner.phase(args.seconds, tracer)
    runner.check_outputs()
    for _ in range(SETUP_REPS - SETUP_REPS_BEFORE):
        setup_times.append(set_up(workloads, args.workload, args.seed)[0])
    per_op_counts = [first[2] if first else None for first in runner.first]
    mismatch = compare_counts(stem, per_op_counts)
    if mismatch:
        runner.problems.append(mismatch)

    metrics = end_to_end(plain)
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_share"] = (runner.attempted - runner.failed) / runner.attempted
    if tracer:
        metrics.update(per_layer(tracer, runner.pass_counts(), passes))
        metrics.update(run_probes(args.seed))
        metrics["trace.wall_ratio"] = end_to_end(traced)["wall_s"] / metrics["wall_s"]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    undeclared = set(metrics) - set(declared)
    missing = {m["name"] for m in reported} - set(metrics)
    not_positive = sorted(m["name"] for m in reported if metrics.get(m["name"], 1) <= 0)
    if undeclared or missing or not_positive:
        print(
            f"error: metrics {sorted(undeclared)} undeclared, {sorted(missing)} not computed, "
            f"{not_positive} not positive",
            file=sys.stderr,
        )
        return 3

    info = machine()
    samples = sum(len(ts) for ts in plain)
    print(f"# machine: {json.dumps(info, sort_keys=True)}")
    print(
        f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
        f"{runner.attempted} ops, {runner.failed} failed, {passes} passes; "
        f"op percentiles over the mean times of {len(plain)} ops, from {samples} untraced op runs"
    )
    for problem in runner.problems:
        print(f"# problem: {problem}")
    for name in declared:
        if name in metrics:
            label = " (computed)" if name in COMPUTED else ""
            print(f"{name:48s} {metrics[name]:.6g} {declared[name]}{label}")

    correct = runner.failed == 0 and not runner.problems
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": info,
        "all_metrics": metrics,
        "counts_per_pass": runner.pass_counts(),
        "op_seconds": plain,
        "problems": runner.problems,
        **result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if tracer:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
