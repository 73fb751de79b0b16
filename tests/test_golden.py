"""The per-seed contract: outputs recorded in golden.json stay as they were.

Files, counts, streams and exit codes compare byte for byte; `verify`
numbers and exact probabilities within 1e-12, so a last-bit move does not
trip them.  A change that moves an entry re-records the file with
`tests/golden.py` and lists each moved entry in CHANGES.md.
"""

import numpy as np
import pytest

import golden

RECORDED = golden.load()
TOL = 1e-12


@pytest.mark.parametrize("name", sorted(RECORDED["experiments"]))
def test_experiment_outputs(name):
    assert golden.collect_experiment(name) == RECORDED["experiments"][name]


def test_every_experiment_is_recorded():
    assert sorted(RECORDED["experiments"]) == sorted(golden.cli.EXPERIMENT_NAMES)


def test_verify_report():
    got, want = golden.collect_verify(), RECORDED["verify"]
    assert sorted(got) == sorted(want)
    for name, entry in want.items():
        assert got[name]["holds"] == entry["holds"], name
        for side in ("lhs", "rhs"):
            if isinstance(entry[side], float):
                assert got[name][side] == pytest.approx(entry[side], rel=0, abs=TOL), (name, side)
            else:
                assert got[name][side] == entry[side], (name, side)


@pytest.mark.parametrize("name", sorted(RECORDED["sampling"]))
def test_sampling_counts_and_stream(name):
    assert golden.collect_sampling(name) == RECORDED["sampling"][name]


@pytest.mark.parametrize("name", sorted(RECORDED["density"]))
def test_exact_distribution(name):
    np.testing.assert_allclose(golden.collect_density(name), RECORDED["density"][name], rtol=0, atol=TOL)
