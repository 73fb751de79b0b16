"""Command-line behavior: simulate outputs, experiment runs, verify,
config precedence, reproducible CSVs, and exit codes."""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nisqlab import algorithms, cli, harness
from nisqlab.errors import UsageError
from nisqlab.qsim import CNOT, H, NoisyCircuit, circuit_to_json, layer

from conftest import tv_dicts


def bell_json(lam: float = 0.0) -> str:
    return circuit_to_json(NoisyCircuit(2, [layer(H(0)), layer(CNOT(0, 1))], lam))


def read_csv(path):
    """Header, data rows, metadata line of one output CSV."""
    lines = path.read_text().splitlines()
    assert lines[-1].startswith("# version=")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:-1]]
    return header, rows, lines[-1]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_exact_bell(tmp_path, capsys):
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json())
    code = cli.main(
        ["simulate", "--circuit", str(circ), "--out", str(tmp_path), "--seed", "1"]
    )
    assert code == 0
    header, rows, _ = read_csv(tmp_path / "distribution.csv")
    assert header == ["outcome", "probability"]
    dist = {outcome: float(prob) for outcome, prob in rows}
    assert dist["00"] == pytest.approx(0.5, abs=1e-12)
    assert dist["11"] == pytest.approx(0.5, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert dist.get("01", 0.0) == pytest.approx(0.0, abs=1e-12)
    assert "wrote" in capsys.readouterr().out


def test_simulate_lambda_override_full_noise(tmp_path):
    # lambda = 1 fully mixes every layer, so the output is exactly uniform
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json())
    code = cli.main(
        ["simulate", "--circuit", str(circ), "--lambda", "1.0", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows, _ = read_csv(tmp_path / "distribution.csv")
    dist = {outcome: float(prob) for outcome, prob in rows}
    assert len(dist) == 4
    for prob in dist.values():
        assert prob == pytest.approx(0.25, abs=1e-12)


def test_simulate_backend_agreement(tmp_path):
    circ = tmp_path / "noisy_bell.json"
    circ.write_text(bell_json(lam=0.15))
    exact_dir = tmp_path / "exact"
    traj_dir = tmp_path / "traj"
    assert cli.main(["simulate", "--circuit", str(circ), "--out", str(exact_dir)]) == 0
    assert (
        cli.main(
            [
                "simulate",
                "--circuit",
                str(circ),
                "--backend",
                "trajectory",
                "--shots",
                "6000",
                "--seed",
                "7",
                "--out",
                str(traj_dir),
            ]
        )
        == 0
    )
    _, exact_rows, _ = read_csv(exact_dir / "distribution.csv")
    header, traj_rows, _ = read_csv(traj_dir / "distribution.csv")
    assert header == ["outcome", "count", "probability"]
    exact = {outcome: float(p) for outcome, p in exact_rows}
    sampled = {outcome: float(p) for outcome, _, p in traj_rows}
    assert sum(int(c) for _, c, _ in traj_rows) == 6000
    assert tv_dicts(exact, sampled) < 0.03


def test_simulate_rejects_oracle_circuits(tmp_path):
    doc = {
        "n_qubits": 2,
        "lambda": 0.0,
        "steps": [{"type": "oracle", "id": "O", "wires": [0, 1]}],
    }
    circ = tmp_path / "oracle.json"
    circ.write_text(json.dumps(doc))
    assert cli.main(["simulate", "--circuit", str(circ), "--out", str(tmp_path)]) == 2


def test_simulate_capacity_exit_code(tmp_path):
    # 11 qubits exceed the density backend cap, so exact simulation refuses
    circ = tmp_path / "wide.json"
    circ.write_text(circuit_to_json(NoisyCircuit(11, [], 0.1)))
    assert cli.main(["simulate", "--circuit", str(circ), "--out", str(tmp_path)]) == 3


@pytest.mark.parametrize("name", ["lifted-simon-tv", "lecam"])
@pytest.mark.parametrize("n", ["4", "64"])
def test_lifted_simon_width_capacity_exit(tmp_path, capsys, name, n):
    # refused by the density backend (3n > 10) or by the Simon construction (n > 63)
    assert cli.main(["experiment", name, "--n", n, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("capacity error: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_simulate_missing_circuit_usage(tmp_path):
    assert cli.main(["simulate", "--out", str(tmp_path)]) == 2
    assert cli.main(["simulate", "--circuit", str(tmp_path / "nope.json")]) == 2


def assert_usage_exit(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_bad_thread_count_is_usage_error(tmp_path, capsys, threads):
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json(lam=0.2))
    argv = ["simulate", "--circuit", str(circ), "--backend", "trajectory", "--threads", threads]
    assert_usage_exit(argv + ["--out", str(tmp_path)], capsys)
    assert not (tmp_path / "distribution.csv").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"n_qubits": 1, "lambda": 0.1, "steps": [{"type": "layer"}]},
        {"n_qubits": 1, "lambda": 0.1, "steps": [{"type": "layer", "gates": [{"name": "X"}]}]},
        {"n_qubits": 1, "lambda": "abc", "steps": []},
        {"n_qubits": 1, "lambda": 0.1, "steps": [5]},
        {"n_qubits": 1, "lambda": 0.1, "steps": [{"type": "layer", "gates": [{"matrix": 5, "targets": [0]}]}]},
        {"n_qubits": 1, "lambda": 0.1, "steps": [{"type": "layer", "gates": [{"name": "H", "targets": [float("inf")]}]}]},
    ],
    ids=[
        "layer-without-gates",
        "gate-without-targets",
        "non-numeric-lambda",
        "non-object-step",
        "scalar-matrix",
        "infinite-target",
    ],
)
def test_simulate_malformed_circuit_usage(tmp_path, capsys, doc):
    circ = tmp_path / "bad.json"
    circ.write_text(json.dumps(doc))
    assert_usage_exit(["simulate", "--circuit", str(circ), "--out", str(tmp_path)], capsys)


# ---------------------------------------------------------------------------
# reproducibility and metadata
# ---------------------------------------------------------------------------


def test_csv_byte_identical_for_same_seed(tmp_path):
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json(lam=0.2))
    args = ["simulate", "--circuit", str(circ), "--backend", "trajectory",
            "--shots", "500", "--seed", "42"]
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    assert cli.main(args[:-1] + ["43", "--out", str(out_c)]) == 0
    bytes_a = (out_a / "distribution.csv").read_bytes()
    assert bytes_a == (out_b / "distribution.csv").read_bytes()
    assert bytes_a != (out_c / "distribution.csv").read_bytes()


def test_csv_metadata_line(tmp_path):
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json())
    assert (
        cli.main(["simulate", "--circuit", str(circ), "--seed", "9", "--out", str(tmp_path)])
        == 0
    )
    _, _, meta = read_csv(tmp_path / "distribution.csv")
    assert "seed=9" in meta and "version=" in meta and "git=" in meta


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

QUICK_EXPERIMENTS = [
    ("bv-scaling", ["--n", "8", "--trials", "5"]),
    ("grover-degradation", ["--trials", "3"]),
    ("shadow-decay", ["--n", "1..4"]),
    ("lifted-simon-tv", ["--n", "2"]),
    ("info-decay", ["--trials", "3"]),
    ("noisy-parity", ["--trials", "2", "--shots", "800"]),
    ("codes-verify", []),
    ("lecam", ["--lambda", "0.6"]),
    ("zalka", ["--trials", "2"]),
    ("subset-separation", ["--trials", "60"]),
]

assert [name for name, _ in QUICK_EXPERIMENTS] == list(cli.EXPERIMENT_NAMES)


@pytest.mark.parametrize("name,extra", QUICK_EXPERIMENTS, ids=[n for n, _ in QUICK_EXPERIMENTS])
def test_every_experiment_runs(tmp_path, name, extra):
    code = cli.main(
        ["experiment", name, "--seed", "5", "--out", str(tmp_path)] + extra
    )
    assert code == 0
    header, rows, _ = read_csv(tmp_path / f"{name}.csv")
    assert rows, "experiment wrote no data rows"
    assert len(header) >= 2
    svg = tmp_path / f"{name}.svg"
    if svg.exists():
        assert svg.read_text().startswith("<svg")


def test_bv_scaling_repetitions_grow_logarithmically(tmp_path):
    code = cli.main(
        [
            "experiment",
            "bv-scaling",
            "--n",
            "8,16,32",
            "--trials",
            "8",
            "--seed",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, rows, _ = read_csv(tmp_path / "bv-scaling.csv")
    assert header[:3] == ["n", "M", "guaranteed"]
    ms = [int(r[1]) for r in rows]
    # each doubling of n adds the same ln 2 increment up to rounding
    assert ms[0] < ms[1] < ms[2]
    assert abs((ms[2] - ms[1]) - (ms[1] - ms[0])) <= 1
    for r in rows:
        assert float(r[5]) >= 0.75  # majority vote recovers almost always
    assert (tmp_path / "bv-scaling.svg").exists()


def test_shadow_decay_matches_power_law(tmp_path):
    code = cli.main(
        ["experiment", "shadow-decay", "--n", "1..6", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows, _ = read_csv(tmp_path / "shadow-decay.csv")
    for r in rows:
        n = int(r[0])
        assert float(r[1]) == pytest.approx(0.9**n, abs=1e-10)


def test_grover_degradation_columns(tmp_path):
    code = cli.main(
        ["experiment", "grover-degradation", "--trials", "3", "--out", str(tmp_path)]
    )
    assert code == 0
    _, rows, _ = read_csv(tmp_path / "grover-degradation.csv")
    for r in rows:
        t, closed, clean, noisy = int(r[0]), float(r[1]), float(r[2]), float(r[3])
        assert clean == pytest.approx(closed, abs=1e-9)
        if t >= 1:
            assert noisy < clean  # all three depths sit above the 1/N floor


@pytest.mark.parametrize("name,lam", [("lecam", "0.01"), ("grover-degradation", "1e-17")])
def test_claim_outside_its_regime_is_not_judged(tmp_path, capsys, name, lam):
    # lecam's advantage is 0.409 here; Grover's noisy and clean success are equal in double precision
    assert cli.main(["experiment", name, "--lambda", lam, "--out", str(tmp_path)]) == 0
    assert f"PASS {name}: no row in the claim's regime" in capsys.readouterr().out
    header, rows, _ = read_csv(tmp_path / f"{name}.csv")
    assert "holds" not in header or all(r[header.index("holds")] == "n/a" for r in rows)


def test_grover_rows_past_the_first_peak_are_not_judged(tmp_path, capsys):
    # at 5 iterations (t* = 3) the rotation overshoots and noise raises success
    argv = ["experiment", "grover-degradation", "--n", "4", "--trials", "5", "--lambda", "0.001"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert "(3 of 6 rows outside the claim's regime)" in capsys.readouterr().out
    _, rows, _ = read_csv(tmp_path / "grover-degradation.csv")
    assert float(rows[5][3]) > float(rows[5][2])


def test_claim_failing_in_its_regime_exits_one(tmp_path, monkeypatch, capsys):
    real_advantage, real_grover = harness.lecam_advantage, algorithms.run_noisy_grover
    monkeypatch.setattr(harness, "lecam_advantage", lambda *a, **k: {**real_advantage(*a, **k), "holds": False})
    monkeypatch.setattr(algorithms, "run_noisy_grover", lambda oracle, lam, t: real_grover(oracle, 0.0, t))
    assert cli.main(["experiment", "lecam", "--lambda", "0.01", "--out", str(tmp_path)]) == 0
    assert cli.main(["experiment", "lecam", "--lambda", "0.6", "--out", str(tmp_path)]) == 1
    assert cli.main(["experiment", "grover-degradation", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL lecam" in out and "FAIL grover-degradation" in out


def test_codes_verify_all_pass(tmp_path, capsys):
    assert cli.main(["experiment", "codes-verify", "--out", str(tmp_path)]) == 0
    header, rows, _ = read_csv(tmp_path / "codes-verify.csv")
    assert header == ["check", "status", "lhs", "rhs"]
    assert rows and all(r[1] == "PASS" for r in rows)
    assert "PASS" in capsys.readouterr().out


def test_noisy_parity_reports_eta(tmp_path):
    code = cli.main(
        [
            "experiment",
            "noisy-parity",
            "--trials",
            "2",
            "--shots",
            "1000",
            "--seed",
            "11",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    header, rows, _ = read_csv(tmp_path / "noisy-parity.csv")
    assert header == ["instance", "secret", "recovered", "success", "eta"]
    for r in rows:
        assert r[3] == "true"
        assert r[1] == r[2]
        # secrets here have weight 1 or 2: eta in [(1-(1-lam)^4)/2, (1-(1-lam)^5)/2]
        assert 0.10 < float(r[4]) < 0.28


@pytest.mark.parametrize(
    "argv",
    [
        ["bv-scaling", "--n", "8", "--trials", "0"],
        ["subset-separation", "--trials", "0"],
        ["noisy-parity", "--n", "0", "--trials", "1"],
        ["grover-degradation", "--trials", "-1"],
        ["zalka", "--trials", "-1"],
        ["zalka", "--n", "-1"],
        ["bv-scaling", "--n", "8", "--threads", "0"],
        ["noisy-parity", "--threads", "-2"],
        ["noisy-parity", "--shots", "0"],
    ],
    ids=" ".join,
)
def test_bad_count_is_usage_error_before_any_file(tmp_path, capsys, argv):
    assert_usage_exit(["experiment", *argv, "--out", str(tmp_path / "out")], capsys)
    assert list(tmp_path.iterdir()) == []


def test_unknown_experiment_is_usage_error(tmp_path):
    assert cli.main(["experiment", "warp-drive", "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_command_all_green(capsys):
    assert cli.main(["verify"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["passed"] is True
    assert summary["failures"] == []
    assert summary["total"] == len(summary["checks"]) > 25


def test_verify_only_group(capsys):
    assert cli.main(["verify", "--only", "oracles"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["group"] == "oracles"
    assert all(c["name"].startswith("oracles.") for c in summary["checks"])
    assert cli.main(["verify", "--only", "nonsense"]) == 2


def test_verify_catches_injected_noise_bug(monkeypatch, capsys):
    # verify must fail when the exposed channel silently miscalibrates
    import nisqlab.qsim as qsim_mod

    real = qsim_mod.depolarize_all

    def miscalibrated(rho, lam):
        value = lam.value if hasattr(lam, "value") else float(lam)
        return real(rho, 0.5 * value)

    with monkeypatch.context() as m:
        m.setattr(qsim_mod, "depolarize_all", miscalibrated)
        code = cli.main(["verify", "--only", "qsim"])
    assert code != 0
    summary = json.loads(capsys.readouterr().out)
    assert "qsim.depolarizing-action" in summary["failures"]
    assert cli.main(["verify", "--only", "qsim"]) == 0  # restored


# ---------------------------------------------------------------------------
# config files and argument plumbing
# ---------------------------------------------------------------------------


def test_config_selects_experiment(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "shadow-decay", "n": "1..3", "out": str(out)})
    )
    assert cli.main(["--config", str(cfg)]) == 0
    _, rows, _ = read_csv(out / "shadow-decay.csv")
    assert [int(r[0]) for r in rows] == [1, 2, 3]


def test_cli_flag_beats_config(tmp_path):
    out = tmp_path / "run"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "shadow-decay", "n": "1..5", "out": str(out)})
    )
    assert cli.main(["--config", str(cfg), "--n", "1..2"]) == 0
    _, rows, _ = read_csv(out / "shadow-decay.csv")
    assert [int(r[0]) for r in rows] == [1, 2]


def test_config_seed_feeds_metadata(tmp_path):
    out = tmp_path / "run"
    circ = tmp_path / "bell.json"
    circ.write_text(bell_json())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"circuit": str(circ), "seed": 123, "out": str(out)}))
    assert cli.main(["--config", str(cfg)]) == 0
    _, _, meta = read_csv(out / "distribution.csv")
    assert "seed=123" in meta


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "zalka", "warp": 9}))
    assert cli.main(["--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"circuit": "bell.json", "backend": "trajectory", "shots": "many"},
        {"experiment": "shadow-decay", "n": [1, "a"]},
        {"experiment": "shadow-decay", "n": [1, 2.7]},
        {"circuit": 5},
        {"experiment": "shadow-decay", "out": 7},
        {"experiment": "shadow-decay", "seed": -1},
        {"experiment": "shadow-decay", "seed": float("inf")},
        {"circuit": "bell.json", "backend": "trajectory", "shots": 2.7},
        {"circuit": "bell.json", "backend": "trajectory", "shots": True},
        {"experiment": "shadow-decay", "n": True},
        {"experiment": "shadow-decay", "seed": True},
    ],
    ids=[
        "shots-string",
        "n-list-string",
        "n-list-float",
        "circuit-number",
        "out-number",
        "negative-seed",
        "infinite-seed",
        "shots-fraction",
        "shots-boolean",
        "n-boolean",
        "seed-boolean",
    ],
)
def test_config_value_of_wrong_type_usage(tmp_path, capsys, monkeypatch, doc):
    monkeypatch.chdir(tmp_path)
    Path("bell.json").write_text(bell_json())
    Path("cfg.json").write_text(json.dumps(doc))
    assert_usage_exit(["--config", "cfg.json"], capsys)


def test_config_must_be_json_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]")
    assert cli.main(["--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert cli.main(["--config", str(cfg)]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.json")]) == 2


def test_no_command_is_usage_error():
    assert cli.main([]) == 2


def test_experiment_alias_and_disagreement(tmp_path):
    assert (
        cli.main(
            ["--experiment", "zalka", "--trials", "1", "--out", str(tmp_path)]
        )
        == 0
    )
    assert (
        cli.main(
            [
                "experiment",
                "zalka",
                "--experiment",
                "lecam",
                "--out",
                str(tmp_path),
            ]
        )
        == 2
    )


def test_parse_n_spec_forms():
    assert cli.parse_n_spec("5") == [5]
    assert cli.parse_n_spec("8,16,32") == [8, 16, 32]
    assert cli.parse_n_spec("1..6") == [1, 2, 3, 4, 5, 6]
    assert cli.parse_n_spec(7) == [7]
    assert cli.parse_n_spec([2, 3]) == [2, 3]
    for bad in ("abc", "6..2", "1..x", "", [1, "a"]):
        with pytest.raises(UsageError):
            cli.parse_n_spec(bad)


def test_single_n_rejects_sweeps(tmp_path):
    assert (
        cli.main(
            ["experiment", "zalka", "--n", "2,3", "--out", str(tmp_path)]
        )
        == 2
    )


# ---------------------------------------------------------------------------
# fuzzed input boundary
# ---------------------------------------------------------------------------

JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.sampled_from([0.5, -1.0, 2.7, float("nan"), float("inf")])
    | st.text("ab01.,H", max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=5,
)


def slots(node) -> list:
    """Every (container, key) pair inside a JSON document."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    return [slot for key in keys for slot in [(node, key), *slots(node[key])]]


@st.composite
def damaged(draw, valid, fewest: int):
    """A valid document with `fewest` to three fields, top-level ones half
    the time, dropped or replaced by junk; or, rarely, junk instead of it."""
    doc = copy.deepcopy(draw(valid))  # a drawn value may be shared with later draws
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK)
    for _ in range(draw(st.integers(fewest, 3))):
        spots = slots(doc)
        if not spots:
            break
        parent, key = draw(st.sampled_from([(doc, k) for k in doc]) | st.sampled_from(spots))
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JUNK)
    return doc


@st.composite
def circuit_doc(draw):
    n = draw(st.integers(1, 3))

    def gate() -> dict:
        name = draw(st.sampled_from(["H", "X", "CNOT", "matrix"] if n > 1 else ["H", "X", "matrix"]))
        targets = draw(st.permutations(range(n)))[: 2 if name == "CNOT" else 1]
        if name == "matrix":
            return {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "targets": targets}
        return {"name": name, "targets": targets}

    steps = [{"type": "layer", "gates": [gate()]} for _ in range(draw(st.integers(0, 2)))]
    return {"n_qubits": n, "lambda": draw(st.floats(0, 1)), "steps": steps}


# a valid config whose every value, and every default it falls back on, is cheap
CONFIG_DOC = st.fixed_dictionaries(
    {
        "circuit": st.just("bell.json"),
        "seed": st.integers(0, 9),
        "shots": st.integers(1, 20),
        "lambda": st.floats(0, 0.5),
        "n": st.sampled_from(["2", "1..2", [2]]),
        "trials": st.integers(1, 2),
        "out": st.just("out"),
        "threads": st.integers(1, 2),
    },
    optional={
        "experiment": st.sampled_from(
            ["shadow-decay", "zalka", "info-decay", "grover-degradation", "lecam", "subset-separation"]
        ),
        "delta": st.floats(0.01, 0.5),
        "backend": st.sampled_from(["exact", "trajectory"]),
        "only": st.just("codes"),
    },
)


def run_in(directory: Path, files: dict, argv: list[str]) -> None:
    """Write `files` (name -> JSON document) under `directory` and run the
    CLI there; it must exit 0, 2 or 3 and print no traceback."""
    for name, doc in files.items():
        (directory / name).write_text(json.dumps(doc))
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3) and "Traceback" not in err.getvalue(), (code, err.getvalue())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=damaged(circuit_doc(), fewest=0), trajectory=st.booleans())
def test_fuzzed_circuit_documents_exit_cleanly(doc, trajectory):
    backend = ["--backend", "trajectory"] if trajectory else []
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["simulate", "--circuit", "c.json", "--out", "out", "--shots", "20", "--threads", "1", *backend]
        run_in(Path(tmp), {"c.json": doc}, argv)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=damaged(CONFIG_DOC, fewest=1))
def test_fuzzed_config_documents_exit_cleanly(doc):
    files = {"cfg.json": doc, "bell.json": json.loads(bell_json(0.1))}
    with tempfile.TemporaryDirectory() as tmp:
        run_in(Path(tmp), files, ["--config", "cfg.json"])
