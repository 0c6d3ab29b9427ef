"""Every function the benchmark's tracer hooks still exists under its name.

The tracer (perfbench/tracer.py) wraps cupone functions by module and
qualified name; renaming or deleting one breaks traced benchmark runs, so
this test makes it fail the test suite as well.  It only reads the hook
table and installs nothing.
"""
import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod.HOOKS


def test_every_hook_target_resolves():
    hooks = load_hooks()
    assert hooks
    for h in hooks:
        owner = importlib.import_module(f"cupone.{h.module}")
        cls_name, _, attr = h.qualname.rpartition(".")
        if cls_name:
            # The tracer replaces the method in the class's own namespace.
            target = vars(getattr(owner, cls_name)).get(attr)
        else:
            target = getattr(owner, attr, None)
        assert callable(target), f"cupone.{h.name} does not resolve"
