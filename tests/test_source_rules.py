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


# library API no src/ or benchmarks/ caller reaches, each kept for a reason
UNREFERENCED_ALLOWED = {
    "recursive_majority_decode": "the README describes it as library API",
    "encode_bit": "the README describes it as library API",
    "random_zalka_template": "the acceptance gate draws its Zalka templates from it",
    "enumerate_codewords": "the reference test_sampled_codeword_is_enumerated holds sample_codeword against",
    "evolve_density": "the full-walk reference assert_readout_paths_agree holds exact_output_distribution against",
}


def _definitions(tree: ast.Module, exported: set[str]):
    """(qualified name, name, node) for each module-level def, class and
    constant, and each non-dunder method of a class not in `exported`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, node
        if isinstance(node, ast.ClassDef) and node.name not in exported:
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                    yield f"{node.name}.{method.name}", method.name, method


def _registered(fn, local: set[str]) -> bool:
    # a decorator call to a function of the same module, such as verify's `_check`
    return any(isinstance(d, ast.Call) and _called_name(d.func) in local for d in getattr(fn, "decorator_list", []))


def test_every_definition_is_referenced():
    # only Name, Attribute and import-alias nodes count, so comments and docstrings do not
    root = PACKAGE.parent.parent
    refs: list[tuple[Path, int, str]] = []
    for path in [*PACKAGE.glob("*.py"), *(root / "benchmarks").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.append((path, node.lineno, node.attr))
            elif isinstance(node, ast.alias):
                refs.append((path, node.lineno, node.name))
    exported = set(nisqlab.__all__)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        local = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for qualname, name, node in _definitions(tree, exported):
            if name.startswith("__") or qualname in exported | UNREFERENCED_ALLOWED.keys() or _registered(node, local):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(n == name and not (p == path and line in own) for p, line, n in refs):
                found.append(f"{path.stem}.{qualname}")
    assert found == []


PAULI_BASIS = {
    "_to_pauli", "_from_pauli", "_readout", "_walk_density", "_on_every_axis", "_product_table", "_transfers",
    "_transfer_blocks", "_layer_on_factors", "_join", "_in_qubit_order",
}


def test_pauli_basis_stays_in_qsim():
    # the exact walk's coefficient format is qsim's alone; other modules read DensityMatrix states
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "qsim.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if isinstance(node, ast.alias):
                name = node.name
            if name in PAULI_BASIS:
                found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []
