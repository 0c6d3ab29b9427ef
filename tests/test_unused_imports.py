"""Every import of a cupone module or test module is used: a top-level
import by its module, an import inside a function by that function.

A stdlib-ast scan: a name bound by a module-level ``import`` or
``from ... import`` must occur as a name somewhere else in the module.
``__future__`` imports and the names a module lists in ``__all__`` are
exempt.  An ``import`` inside a function binds names that must occur in
that function (nested functions included).
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


def _names(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _local_imports(node, func=None):
    """(function, import) for each import whose innermost enclosing
    function is ``func`` or a function nested in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _local_imports(child, child)
        elif func is not None and isinstance(child,
                                             (ast.Import, ast.ImportFrom)):
            yield func, child
        else:
            yield from _local_imports(child, func)


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    exempt = _exported(tree)
    used = _names(tree)
    scopes = [(node, used) for node in tree.body
              if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"]
    scopes += [(node, _names(func)) for func, node in _local_imports(tree)]
    out = []
    for node, names in sorted(scopes, key=lambda s: s[0].lineno):
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in names and name not in exempt:
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
                   "def f(x):\n    return gcd(x, 4)\n\n"
                   "def g(x):\n    import json, re\n"
                   "    def h():\n        return re.escape(x)\n"
                   "    return h\n")
    assert unused_imports(mod) == ["m.py:2: os", "m.py:10: json"]
