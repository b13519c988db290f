"""Source hygiene: every name a module imports is used in it, and the
library builds network shapes in one place.

A name counts as used if the module's code references it or lists it in
`__all__` (a re-export). Only the standard library's `ast` is needed, so
this runs wherever the tests do.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/divgan", "tests", "demos") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\n" \
             "__all__ = ['loads']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "system"), (3, "dumps")]


def spec_builders(source: str) -> list:
    """The innermost function around each `NetworkSpec(...)` call, in source
    order ("<module>" for a call outside any function)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "NetworkSpec":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_network_specs_come_only_from_task_specs():
    # NetworkSpec checks nothing itself: every spec the library builds comes
    # from a checked config through training.task_specs
    builders = {(path.stem, where)
                for path in (ROOT / "src/divgan").glob("*.py")
                for where in spec_builders(path.read_text(encoding="utf-8"))}
    assert builders == {("training", "task_specs")}


def test_the_check_finds_spec_builders():
    source = "S = nets.NetworkSpec(1, (), 1)\ndef f():\n    def g():\n" \
             "        return NetworkSpec(2, (), 2)\n    return g\n"
    assert spec_builders(source) == ["<module>", "g"]
