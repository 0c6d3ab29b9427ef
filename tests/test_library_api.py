"""The README's "Library API" table lists exactly the definitions that no
code in src/ reads.

It reuses the AST scan of ``test_unreferenced_defs``, with src/ as both
the defining and the scanned tree: a name is listed as
``module.Class.method`` or ``module.function``.  A definition that src/
stops reading must be listed, or deleted; a listed name that src/ reads
again, or that is gone, must leave the table.
"""
import ast
import re

from test_unreferenced_defs import ROOT, SRC, unreferenced

README = ROOT / "README.md"
ENTRY = re.compile(r"(\w+)\.py:(\d+): (\w+)")


def unread_in_src() -> set[str]:
    files = sorted(SRC.glob("*.py"))
    owner = {}  # (module, line of a method) -> its class
    for path in files:
        for cls in ast.parse(path.read_text(), str(path)).body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    owner[(path.stem, node.lineno)] = cls.name + "."
    out = set()
    for entry in unreferenced(files, files):
        module, line, name = ENTRY.fullmatch(entry).groups()
        out.add(f"{module}.{owner.get((module, int(line)), '')}{name}")
    return out


def api_table() -> set[str]:
    section = README.read_text().split("\n## Library API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([\w.]+)` \|", section, re.M))


def test_readme_api_table_is_what_src_never_reads():
    table, scan = api_table(), unread_in_src()
    assert sorted(scan - table) == []
    assert sorted(table - scan) == []
