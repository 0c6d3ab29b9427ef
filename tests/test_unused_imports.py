"""Every top-level import of a cupone module or test module is used by
that module.

A stdlib-ast scan: a name bound by a module-level ``import`` or
``from ... import`` must occur as a name somewhere else in the module.
``__future__`` imports and the names a module lists in ``__all__`` are
exempt.
"""
import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "cupone"


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    exempt = _exported(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exempt:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_src_has_no_unused_top_level_imports():
    found = [u for path in sorted(SRC.glob("*.py"))
             for u in unused_imports(path)]
    assert found == []


def test_tests_have_no_unused_top_level_imports():
    found = [u for path in sorted(TESTS.glob("*.py"))
             for u in unused_imports(path)]
    assert found == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os\nfrom math import gcd, lcm\n"
                   "__all__ = ['lcm']\n\n"
                   "def f(x):\n    return gcd(x, 4)\n")
    assert unused_imports(mod) == ["m.py:2: os"]
