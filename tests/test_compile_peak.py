"""No module of src/cupone needs more than 2.75 MiB to compile.

Where bytecode is not cached (PYTHONDONTWRITEBYTECODE), every process
compiles src/ when it imports cupone, and the largest module's compile
peak sets the peak RSS of a short run, such as the benchmark's
z_invariants workload.  CPython 3.11 grows that peak in steps: linalg.py,
at 2.59 MiB, jumps to 3.17 MiB about 28 lines of code later.  The peak
is what tracemalloc sees around ``compile``; other versions allocate
differently, so the test runs on CPython 3.11 only.
"""
import platform
import sys
import tracemalloc

import pytest

from test_unreferenced_defs import SRC

LIMIT = 2.75 * 2 ** 20


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason=f"peaks measured on CPython 3.11, not "
                    f"{platform.python_implementation()} "
                    f"{platform.python_version()}")
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_compile_peak(path):
    text = path.read_text()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        compile(text, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= LIMIT, f"{path.name}: {peak / 2 ** 20:.3f} MiB"
