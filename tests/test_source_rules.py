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
