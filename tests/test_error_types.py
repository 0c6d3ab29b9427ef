"""No cupone module raises a bare ``ValueError`` unless it is still on the
list of modules to classify.

``cli.main`` maps every ``ValueError`` to exit 1, "precondition failure",
so a bare one raised by a defect inside cupone reads as a user error.
Each site raises ``ParseError``, ``PreconditionError`` (both
``ValueError`` subclasses) or ``InternalError`` instead.  A stdlib-ast
scan finds ``raise ValueError`` and ``raise ValueError(...)``; the
modules in ``TO_CLASSIFY`` may keep at most their count of them, and
every other module, a new one included, none.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cupone"

TO_CLASSIFY = {"delta": 7, "tensor": 15, "rings": 13}


def bare_value_errors(text: str, name: str) -> list[str]:
    tree = ast.parse(text, name)
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "ValueError":
            lines.append(node.lineno)
    return [f"{name}:{n}" for n in sorted(lines)]


def test_no_new_bare_value_error():
    over = []
    for path in sorted(SRC.glob("*.py")):
        sites = bare_value_errors(path.read_text(), path.name)
        if len(sites) > TO_CLASSIFY.get(path.stem, 0):
            over += sites
    assert not over, f"bare raise ValueError at {', '.join(over)}"


def test_the_scan_finds_both_spellings():
    text = ("def f(x):\n    if x:\n        raise ValueError\n"
            "    raise ValueError('bad')\n")
    assert bare_value_errors(text, "m.py") == ["m.py:3", "m.py:4"]
