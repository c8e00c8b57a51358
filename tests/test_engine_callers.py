"""Every engine definition has a caller outside the tests.

A top-level function or class of ``src/symflow``, or a method that is not
a dunder, must be referenced by name (an ``ast.Name`` or an
``ast.Attribute``) somewhere in ``src/symflow`` or in ``perfbench/*.py``.
Code that only tests reach belongs in the tests, or nowhere.

A bare name proves nothing when two engine definitions share it (a call
of ``Expr.is_zero`` would count for every ``is_zero``), so each shared
definition names, in ``SHARED_CALLERS``, the engine function that calls
it, and that function must reference the name.  An override counts as
the method it overrides.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = sorted((ROOT / "src" / "symflow").glob("*.py"))
CALLERS = ENGINE + sorted((ROOT / "perfbench").glob("*.py"))

# name -> why it may lack a caller in the engine and the benchmark
ALLOWED = {
    "adjoint": "symbolic reference the exact classification is tested against; "
    "perfbench traces it by name",
    "consistent_point": "the fresh-interpreter determinism scripts of the tests import it",
    "make_vacuum_grid": "the whole vacuum grid, written to grid files by users and CI; the "
    "refinement study evaluates the same forms one block of t-rows at a time",
}

# "module.Qualified" of a definition whose bare name another one has too
# -> "module.Qualified" of an engine function that calls it
SHARED_CALLERS = {
    "expr.ComplexRational.is_zero": "liealg.StructureTable.__post_init__",
    "expr.Expr.is_zero": "jetsys.PdeSystem._check_well_formed",
    "expr.Atom.sort_key": "jetsys.consistent_assignment",
    "expr.Expr.sort_key": "expr.ExpFactor.__new__",
    "expr._Parser.parse": "expr.parse",
    "expr.parse": "jetsys.lax_pair",
    "jetsys.SolvedFormClosure.reduce": "jetsys.PdeSystem.reduce",
    "jetsys.PdeSystem.reduce": "jetsys.cross_derivative_residuals",
    "liealg.VectorField.characteristic": "conslaw.conserved_vector",
    "linsym.PointFamily.characteristic": "linsym.PointFamily.verify",
    "cli.Session.flux_pair": "cli._divergence",
    "conslaw.flux_pair": "cli.Session.flux_pair",
}


def _definitions():
    for path in ENGINE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    name = item.name if isinstance(item, ast.FunctionDef) else ""
                    if name and not (name.startswith("__") and name.endswith("__")):
                        yield path.name, f"{node.name}.{name}", name


def _references() -> set[str]:
    names = set()
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_engine_definition_has_an_engine_caller():
    referenced = _references()
    definitions = list(_definitions())
    orphans = [
        f"{module}: {qualified}"
        for module, qualified, name in definitions
        if name not in referenced and name not in ALLOWED
    ]
    assert not orphans, "only tests reach: " + ", ".join(orphans)
    assert set(ALLOWED) <= {name for _, _, name in definitions}, "stale allowlist entry"


def _functions() -> dict[str, ast.AST]:
    """Every top-level function and class of the engine, and every method,
    dunders included, by "module.Qualified"."""
    found = {}
    for path in ENGINE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        found[f"{path.stem}.{node.name}.{item.name}"] = item
    return found


def _shared() -> set[str]:
    """The definitions whose bare name another definition has, an override
    of a method counted as that method."""
    functions = _functions()
    qualified_names = {qualified for _, qualified, _ in _definitions()}
    by_name: dict[str, list[str]] = {}
    for module, qualified, name in _definitions():
        stem = module.removesuffix(".py")
        owner = functions[f"{stem}.{qualified.split('.')[0]}"]
        bases = [b.id for b in getattr(owner, "bases", ()) if isinstance(b, ast.Name)]
        if not any(f"{base}.{name}" in qualified_names for base in bases):
            by_name.setdefault(name, []).append(f"{stem}.{qualified}")
    return {key for keys in by_name.values() if len(keys) > 1 for key in keys}


def test_each_shared_name_names_a_caller_that_references_it():
    assert set(SHARED_CALLERS) == _shared()
    functions = _functions()
    for definition, caller in SHARED_CALLERS.items():
        name = definition.rsplit(".", 1)[-1]
        assert caller in functions, f"{definition}: no engine function {caller}"
        referenced = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(functions[caller])
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        assert name in referenced, f"{caller} does not reference {name}"
