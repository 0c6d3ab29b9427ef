"""The README's library quick tour runs verbatim, and the names it imports
from ``cupone`` are exactly the package's top-level surface."""
import ast
import contextlib
import io
import pathlib
import re

import cupone

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_tour_runs_verbatim():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_tour(), "README.md", "exec"), {})
    assert out.getvalue() == "Z/2 + Z/2\n"


def test_top_level_surface_is_the_quick_tour():
    imported = set()
    for node in ast.walk(ast.parse(quick_tour())):
        if isinstance(node, ast.ImportFrom) and node.module == "cupone":
            imported.update(a.name for a in node.names)
    assert set(cupone.__all__) == imported | {"__version__"}
    for name in cupone.__all__:
        assert hasattr(cupone, name)
