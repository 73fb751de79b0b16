#!/usr/bin/env python3
"""Mutants that the Tier-1 tests must kill, and equivalent ones they must not.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones

Run from the repository root; pytest does not collect this file.  Each
mutant names a file under `src/nisqlab/`, an exact old text that must occur
there once, its new text, and test ids.  For each mutant the script copies
`src/` and `tests/` to a temporary directory, applies the mutant there and
runs the named tests with pytest.  A mutant is killed when every named id
fails (an id without a parameter counts as failed when any of its
parametrizations fails); an equivalent mutant must leave every named test
passing.  The script prints one row per mutant and exits 1 if a mutant that
should be killed survives, an equivalent one is killed, or an old text no
longer matches the source.

A change that claims "mutation X fails test Y" adds X here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: bool = False


GOLDEN_SAMPLING = "tests/test_golden.py::test_sampling_counts_and_stream"
DIFFERENTIAL_EXACT = "tests/test_differential.py::test_exact_backend_matches_dense_reference"
FACTOR_WALK = "tests/test_qsim.py::TestFactorWalk::test_factors_never_cross_unjoined_groups"
WALK_GROUPS = "tests/test_qsim.py::TestWalkGroups::test_walks_of_chunks_draw_the_per_chunk_outcomes"
PARITY_REFERENCE = "tests/test_algorithms.py::TestParitySolver::test_matches_the_per_candidate_loop"

MUTANTS = (
    Mutant(
        "chunk-stream-tag",
        "qsim.py",
        "_CHUNK_STREAM_TAG = 0x6368756E",
        "_CHUNK_STREAM_TAG = 0x6368756F",
        (GOLDEN_SAMPLING,),
    ),
    Mutant(
        "pauli-kind-order",
        "qsim.py",
        "choice = np.minimum((4.0 * np.minimum(u, 0.75 * lam) / lam).astype(np.uint8), 2)",
        "choice = 2 - np.minimum((4.0 * np.minimum(u, 0.75 * lam) / lam).astype(np.uint8), 2)",
        (GOLDEN_SAMPLING,),
    ),
    Mutant(
        "tile-is-chunk",
        "qsim.py",
        "_TILE_AMPLITUDES = 2**16",
        "_TILE_AMPLITUDES = _CHUNK_AMPLITUDES",
        (GOLDEN_SAMPLING,),
        equivalent=True,
    ),
    Mutant(
        "block-untransposed",
        "qsim.py",
        "out = (moved.reshape(-1, len(m)) @ m.T).reshape(moved.shape)",
        "out = (moved.reshape(-1, len(m)) @ m).reshape(moved.shape)",
        (DIFFERENTIAL_EXACT,),
    ),
    Mutant(
        "split-parent-off-by-one",
        "qsim.py",
        "tensor = tensor[np.cumsum(head)[split] - 1]",
        "tensor = tensor[np.cumsum(head)[split] - 2]",
        ("tests/test_differential.py::test_trajectory_batches_match_single_rows",),
    ),
    Mutant(
        "oracle-order-not-restored",
        "qsim.py",
        "            tensor = tensor.transpose(0, *(1 + np.argsort(order)))\n",
        "",
        ("tests/test_qsim.py::TestFusedLayers::test_oracle_between_fused_layers_matches_exact[7]",),
    ),
    Mutant(
        "basis-map-rows",
        "qsim.py",
        "return nonzero.argmax(axis=0)",
        "return nonzero.argmax(axis=1)",
        ("tests/test_qsim.py::TestMonomialTail::test_detector_reads_monomial_matrices",),
    ),
    Mutant(
        "factor-join-reversed",
        "qsim.py",
        "sum((q for _, q in factors), ())",
        "sum((q for _, q in factors[::-1]), ())",
        (FACTOR_WALK, DIFFERENTIAL_EXACT),
    ),
    Mutant(
        "factor-noise-first-width",
        "qsim.py",
        "out = c * table(min(c.ndim, 5))",
        "out = c * table(min(factors[0][0].ndim, 5))",
        (FACTOR_WALK, DIFFERENTIAL_EXACT),
    ),
    Mutant(
        "walk-chunks-first-stream",
        "qsim.py",
        "_chunk_draws(circuit, seed, ci, 0, min(chunk, shots - ci * chunk))",
        "_chunk_draws(circuit, seed, first, 0, min(chunk, shots - ci * chunk))",
        (WALK_GROUPS, "tests/test_golden.py::test_sampling_counts_and_stream[parity-n12]"),
    ),
    Mutant(
        "parity-tie-smaller-candidate",
        "algorithms.py",
        "best = np.lexsort((masks, agree))[-1]",
        "best = np.lexsort((-masks, agree))[-1]",
        # a tie at the top is a zero gap, below 3 sqrt(m) for every m > 0, so the answer is None either way
        (PARITY_REFERENCE, "tests/test_algorithms.py::TestParitySolver::test_contradictory_data_fails"),
        equivalent=True,
    ),
    Mutant(
        "simon-x-shift-one",
        "algorithms.py",
        "xs, ys = words >> oracle.m_out,",
        "xs, ys = words >> 1,",
        (
            "tests/test_algorithms.py::TestNoisyParityGeneration::test_noiseless_simon_samples",
            "tests/test_algorithms.py::TestNoisyParityGeneration::test_samples_expand_the_sampler_counts[simon]",
        ),
    ),
    Mutant(
        "code-table-digits-reversed",
        "codes.py",
        "sym.reshape(-1, base.m) @ base._powers]",
        "sym.reshape(-1, base.m) @ base._powers[::-1]]",
        ("tests/test_codes.py::TestFoldAgainstRecursion::test_every_symbol_word_at_r1",),
    ),
    Mutant(
        "code-tables-swapped",
        "codes.py",
        'object.__setattr__(self, "_tables", tables)',
        'object.__setattr__(self, "_tables", {_exact: tables[_neighbourhood], '
        "_neighbourhood: tables[_exact], _majority: tables[_majority]})",
        ("tests/test_codes.py::TestFoldAgainstRecursion::test_every_symbol_word_at_r1",),
    ),
)


def _failed_ids(stdout: str) -> set[str]:
    # the -rfE summary: "FAILED <node id> - <message>" and "ERROR <node id> ..."
    return {line.split()[1] for line in stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))}


def _failed(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def run_mutant(mutant: Mutant) -> tuple[str, bool]:
    """(verdict, as expected) for one mutant, run in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="nisqlab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        target = work / "src" / "nisqlab" / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return f"stale: old text found {text.count(mutant.old)} times", False
        target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=work,
            env={**os.environ, "PYTHONPATH": str(work / "src"), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
        )
    failed = _failed_ids(proc.stdout)
    if mutant.equivalent:
        alive = proc.returncode == 0
        return ("alive" if alive else f"killed (exit {proc.returncode})"), alive
    survivors = [t for t in mutant.tests if not _failed(t, failed)]
    return ("killed" if not survivors else f"survived {', '.join(survivors)}"), not survivors


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: unknown mutants {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    print(f"{'mutant':28s} {'kind':10s} {'seconds':>7s}  verdict")
    for mutant in chosen:
        start = time.perf_counter()
        verdict, expected = run_mutant(mutant)
        kind = "equivalent" if mutant.equivalent else "kill"
        print(f"{mutant.name:28s} {kind:10s} {time.perf_counter() - start:7.1f}  {verdict}{'' if expected else '  <-- FAIL'}")
        bad += not expected
    print(f"{len(chosen) - bad} of {len(chosen)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
