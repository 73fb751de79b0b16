"""Rules the package source keeps, checked by parsing it."""

import ast
from pathlib import Path

import nisqlab


def test_no_assert_in_package():
    # python -O strips assert statements; invariants raise InvariantViolation
    sources = sorted(Path(nisqlab.__file__).resolve().parent.glob("*.py"))
    assert any(p.name == "qsim.py" for p in sources)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


PACKAGE = Path(nisqlab.__file__).resolve().parent


def test_no_import_inside_a_function():
    # each module states its dependencies once, at the top
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_generators_come_from_seeding():
    # every random stream is seeding.rng_for(seed, *key); no module builds its own
    found = [p.name for p in sorted(PACKAGE.glob("*.py")) if "default_rng" in p.read_text()]
    assert found == ["seeding.py"]
