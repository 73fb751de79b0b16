"""Per-seed outputs held byte for byte: the entries `test_golden.py` checks.

`collect_*` compute each entry from the current code.  Run this file to
re-record `golden.json` after a change that moves an entry on purpose:

    PYTHONPATH=src python tests/golden.py

and list every moved entry in CHANGES.md, old -> new.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import tempfile
from pathlib import Path

import numpy as np

from nisqlab import algorithms, cli, qsim, verify
from nisqlab.oracles import lift_to_unitary, make_bv
from nisqlab.qsim import NoisyCircuit, OracleCall

GOLDEN_PATH = Path(__file__).with_name("golden.json")
EXPERIMENT_SEED = 7
SAMPLING_SHOTS = 4096
STREAM_PREFIX = 300


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def collect_experiment(name: str) -> dict:
    """Exit code and hashes of one CLI experiment at its defaults: the CSV
    without its `git=` field, the SVG (None if none is written), and stdout
    with the output directory written as `<out>`."""
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["experiment", name, "--seed", str(EXPERIMENT_SEED), "--out", out])
        csv = re.sub(r"git=\S*", "git=", (Path(out) / f"{name}.csv").read_text())
        svg = Path(out) / f"{name}.svg"
        return {
            "exit": code,
            "csv": _sha(csv.encode()),
            "svg": _sha(svg.read_bytes()) if svg.exists() else None,
            "stdout": _sha(stdout.getvalue().replace(out, "<out>").encode()),
        }


def collect_verify() -> dict:
    """lhs, rhs and holds of every `verify` check, by check name."""
    return {c["name"]: {k: c[k] for k in ("lhs", "rhs", "holds")} for c in verify.run_checks()["checks"]}


def _bench_rng(seed: int, tag: int, *key: int) -> np.random.Generator:
    # the benchmark's workload generator, so the circuits below are its circuits
    return np.random.default_rng([seed, tag, *key])


def sampling_cases() -> dict:
    """name -> (circuit, bindings, sample seed): the five `sampling` workload
    circuits of seed 1, a BV circuit and a noisy-parity query circuit."""
    cases = {}
    for i, n in enumerate(range(5, 10)):
        rng = _bench_rng(1, 0x73616D70, i)
        circuit = qsim.random_circuit(n, 4 + i % 3, (0.1, 0.3)[i % 2], rng, p_two=1.0)
        cases[f"sampling-n{n}"] = (circuit, None, int(rng.integers(0, 2**62)))
    cases["bv-n8"] = (algorithms.bv_circuit(8, 0.05), {"O": lift_to_unitary(make_bv("10110011"))}, 11)
    secret = "010010000000"
    query = NoisyCircuit(13, [qsim.layer(*[qsim.H(i) for i in range(12)]), OracleCall("O", tuple(range(13)))], 0.1)
    cases["parity-n12"] = (query, {"O": lift_to_unitary(make_bv(secret))}, 12)
    return cases


def collect_sampling(name: str) -> dict:
    """`sample_outcomes` counts and the `sample_stream` prefix of one case."""
    circuit, bindings, seed = sampling_cases()[name]
    counts = qsim.sample_outcomes(circuit, bindings, seed=seed, shots=SAMPLING_SHOTS)
    stream = list(itertools.islice(qsim.sample_stream(circuit, bindings, seed=seed), STREAM_PREFIX))
    return {"counts": dict(sorted(counts.items())), "stream": stream}


def density_cases() -> dict:
    """name -> circuit: the three `density` workload circuits of seed 1."""
    return {
        f"density-{i}-n{n}": qsim.random_circuit(n, 6, lam, _bench_rng(1, 0x64656E73, i), p_two=1.0)
        for i, (n, lam) in enumerate(((10, 0.1), (9, 0.1), (9, 0.3)))
    }


def collect_density(name: str) -> list[float]:
    """The exact outcome distribution of one case, as a dense list."""
    return qsim.exact_output_distribution(density_cases()[name]).as_array().tolist()


def collect_all() -> dict:
    return {
        "experiments": {name: collect_experiment(name) for name in cli.EXPERIMENT_NAMES},
        "verify": collect_verify(),
        "sampling": {name: collect_sampling(name) for name in sampling_cases()},
        "density": {name: collect_density(name) for name in density_cases()},
    }


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(collect_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
