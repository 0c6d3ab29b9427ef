"""No cupone module but ``linalg`` reads a dense Smith transform.

A Smith factor keeps U, V, Uinv and Vinv only as operation logs; the
dense matrices, one replay per column, are built in tests/snf_dense.py
for tests alone.  Queries replay a log on one vector instead (``solve``,
``u_times``, ``u_row``, ``kernel``, ``kernel_coords``,
``uinv_column``).  A stdlib-ast scan: any load of an attribute named
``U``, ``V``, ``Uinv`` or ``Vinv`` outside ``linalg.py`` fails.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cupone"
DENSE = {"U", "V", "Uinv", "Vinv"}


def dense_transform_reads(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{n.lineno}: .{n.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr in DENSE
            and isinstance(n.ctx, ast.Load)]


def test_no_dense_transform_reads_outside_linalg():
    found = [hit for path in sorted(SRC.glob("*.py"))
             if path.name != "linalg.py"
             for hit in dense_transform_reads(path)]
    assert found == []


def test_scan_flags_a_dense_read(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text("def f(snf, r, i):\n"
                   "    snf.U = None\n"
                   "    return snf.Uinv[r][i] + snf.kernel()[0][0]\n")
    assert dense_transform_reads(mod) == ["m.py:3: .Uinv"]
