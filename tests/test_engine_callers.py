"""Every engine definition has a caller outside the tests.

A top-level function or class of ``src/symflow``, or a method that is not
a dunder, must be referenced by name (an ``ast.Name`` or an
``ast.Attribute``) somewhere in ``src/symflow`` or in ``perfbench/*.py``.
Code that only tests reach belongs in the tests, or nowhere.
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
    "coupled_ansatz": "its determining digest is pinned; the completeness check will use it",
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
