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


def _called_name(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_every_default_is_set_by_some_call():
    # an option no call sets is a constant; `__init__` is called by its class name
    root = PACKAGE.parent.parent
    callers = [*PACKAGE.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "benchmarks").glob("*.py")]
    calls: dict[str, list[ast.Call]] = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _called_name(node.func):
                calls.setdefault(_called_name(node.func), []).append(node)

    def sets(call: ast.Call, name: str, position: int | None) -> bool:
        if any(k.arg in (name, None) for k in call.keywords):
            return True
        if position is None:
            return False
        return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                method = isinstance(scope, ast.ClassDef)
                callee = scope.name if method and fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                skip = int(method and bool(positional) and positional[0].arg in ("self", "cls"))
                first = len(positional) - len(fn.args.defaults)
                options = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
                options += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
                found += [
                    f"{path.stem}.{callee}({name})"
                    for name, position in options
                    if not any(sets(call, name, position) for call in calls.get(callee, []))
                ]
    assert found == []
