"""The benchmark's tracer hooks stay on the code path they measure.

The tracer (perfbench/tracer.py) wraps cupone functions by module and
qualified name; renaming or deleting one breaks traced benchmark runs,
and so does a change that routes a workload around a hooked function (a
traced run fails when a hook its layer map expects records no calls).
These tests make both fail the test suite as well.  They only read
perfbench/ and change nothing there.
"""
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = ("z_invariants", "zp_bar", "models")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up here
    try:
        spec.loader.exec_module(mod)
    finally:
        del sys.modules[spec.name]
    return mod


def test_every_hook_target_resolves():
    hooks = load_perfbench("tracer").HOOKS
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


def traced_round(workload, tmp_path):
    """As in a traced benchmark run: one untraced round fills the memo
    caches, then a traced round runs and checks every job.  Returns the
    tracer and the check errors per job."""
    tracer = load_perfbench("tracer").Tracer()
    jobs = load_perfbench("workloads").build(workload, 7, str(tmp_path),
                                             small=True)
    for job in jobs:
        job.run()
    tracer.install()
    try:
        checked = [(job.name, job.check(job.run())[1]) for job in jobs]
    finally:
        tracer.uninstall()
    return tracer, checked


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_hook_is_silent_on_its_workload(workload, tmp_path):
    tracer, checked = traced_round(workload, tmp_path)
    assert all(not errors for _, errors in checked), checked
    assert tracer.silent_hooks(workload) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_hook_is_busy_where_the_map_says_idle(workload, tmp_path):
    # A traced run reports a call to a hook that the layer map calls idle
    # on the workload as a map error.
    tracer, _ = traced_round(workload, tmp_path)
    assert tracer.busy_idle_hooks(workload) == []
