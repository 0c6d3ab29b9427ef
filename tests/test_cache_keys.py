"""No module-level cache of cupone can memoize an input.

``rings._ZETA_CACHE``, ``rings._MONO_CACHE`` and ``model._D0_TABLE`` hold
structure constants: values fixed by a few integers, generator names, a
ring and basis monomials.  A key built from a Delta-set, a cochain or a
model element would keep that input alive for the life of the process
and hand its value to a later, different input.  After the small
benchmark jobs of the Z route and of the minimal-model verb have run,
every key of the three caches must be built from ints, None, strings,
``RingSpec`` and ``MultiIndex`` alone, through tuples.
"""
from cupone import model, rings
from cupone.rings import MultiIndex, RingSpec
from test_bench_hooks import load_perfbench

ATOMS = (int, str, RingSpec, MultiIndex, type(None))


def foreign_parts(key) -> list:
    """The parts of a key that are neither an atom nor a tuple."""
    if isinstance(key, tuple):
        return [p for part in key for p in foreign_parts(part)]
    return [] if isinstance(key, ATOMS) else [key]


def test_foreign_parts_flags_an_input():
    from cupone.delta import Cochain
    c = Cochain(1, RingSpec.Z(), {})
    assert foreign_parts((("x1", "x2"), RingSpec.Z())) == []
    assert foreign_parts((3, None, MultiIndex.single("x1"))) == []
    assert foreign_parts((("x1", c), 2)) == [c]


def test_cache_keys_are_structure_constants(tmp_path):
    workloads = load_perfbench("workloads")
    for workload in ("z_invariants", "models"):
        for job in workloads.build(workload, 7, str(tmp_path), small=True):
            job.run()
    caches = {"rings._ZETA_CACHE": rings._ZETA_CACHE,
              "rings._MONO_CACHE": rings._MONO_CACHE,
              "model._D0_TABLE": model._D0_TABLE}
    for name, cache in caches.items():
        assert cache, f"{name} stayed empty"
        bad = [key for key in cache if foreign_parts(key)]
        assert not bad, f"{name} keys hold inputs: {bad[:3]}"
