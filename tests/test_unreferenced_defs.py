"""Every function, class and method that a cupone module defines is used.

A stdlib-ast scan: each non-dunder function and class at the top level of
a module in src/cupone, and each method of such a class, must be
referenced in src/, tests/ or perfbench/ outside its own definition.  A
reference is a name, an attribute, an imported name or a word of a string
constant (perfbench hooks name functions in strings); docstrings do not
count.  A helper left behind by a refactor fails this scan.
"""
import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cupone"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")
WORD = re.compile(r"[A-Za-z_]\w*")


def references(tree) -> Counter:
    """Names a syntax tree refers to, docstrings left out."""
    docs = {id(n.value) for n in ast.walk(tree)
            if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    out = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docs):
            out.update(WORD.findall(n.value))
    return out


def definitions(tree):
    """Top-level functions and classes, and the methods of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body if isinstance(m, kinds))


def unreferenced(defined: list[pathlib.Path],
                 scanned: list[pathlib.Path]) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in set(defined) | set(scanned)}
    total = Counter()
    for path in scanned:
        total.update(references(trees[path]))
    out = []
    for path in defined:
        for node in definitions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] - references(node)[name] <= 0:
                out.append(f"{path.name}:{node.lineno}: {name}")
    return out


def test_src_defines_nothing_unreferenced():
    scanned = sorted(p for d in SCANNED for p in d.rglob("*.py"))
    assert unreferenced(sorted(SRC.glob("*.py")), scanned) == []


def test_scan_flags_an_unreferenced_helper(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        '"""Module; its docstring names orphan."""\n\n'
        "def orphan(n):\n"
        '    """Calls itself, which does not count."""\n'
        "    return orphan(n - 1) if n else 0\n\n"
        "def used():\n    return 1\n\n"
        "def hooked():\n    return 2\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = used()\n\n"
        "    def stale(self):\n        return self.v\n\n"
        "HOOK = ('m', 'Box.hooked')\n")
    user = tmp_path / "u.py"
    user.write_text("from m import Box\n")
    assert unreferenced([mod], [mod, user]) == [
        "m.py:3: orphan", "m.py:17: stale"]
