"""The CLI starts without generating code and without modules it rarely
needs.

Every CLI run is a fresh process, so start-up is most of what a short
run waits for.  ``@dataclass`` runs generated code for each record at
import time, so no module of src/cupone imports ``dataclasses``; the
records write out their ``__init__``.  ``cupone.interval`` and
``cupone.magma`` are imported by the functions that use them, and
``cupone.verify`` by the ``verify-axioms`` verb.
"""
import ast
import os
import subprocess
import sys

from test_unreferenced_defs import SRC

LAZY = ("dataclasses", "cupone.interval", "cupone.magma", "cupone.verify")


def dataclass_imports(text: str, name: str) -> list[str]:
    """Lines of ``name`` that import dataclasses, in any scope."""
    lines = []
    for node in ast.walk(ast.parse(text, name)):
        if isinstance(node, ast.Import):
            mods = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            mods = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "dataclasses" for m in mods):
            lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_no_module_imports_dataclasses():
    found = [line for path in sorted(SRC.glob("*.py"))
             for line in dataclass_imports(path.read_text(), path.name)]
    assert found == []


def test_the_scan_finds_every_spelling():
    text = ("import dataclasses\n"
            "def f():\n    from dataclasses import field\n    return field\n"
            "import os, dataclasses as dc\n")
    assert dataclass_imports(text, "m.py") == ["m.py:1", "m.py:3", "m.py:5"]


def test_cli_import_leaves_rarely_used_modules_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = ("import sys, cupone.cli\n"
            f"print(sorted(m for m in {LAZY!r} if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (0, "[]\n", "")
