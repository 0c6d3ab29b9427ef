"""Light's associativity test and the per-point tables of a magma law,
against the cubic scan and the apply-built table they replaced
(``magma_oracle``).

``associativity_counterexample`` must return None exactly when the scan
does, and the scan's first triple otherwise: on every magma with two or
three elements, random ones with four or five, perturbed group tables,
extensions along 2-cochains that are not cocycles, and magma laws, from
the fixtures' stage models and from random tau.
"""
import pathlib
import random
from itertools import product

import pytest

from cupone.cli import LoadedInput
from cupone.delta import FiniteMagma, cyclic_group_magma
from cupone.magma import MagmaLaw, extension_magma
from cupone.rings import MultiIndex, RingSpec
from cupone.tensor import TensorElem
from magma_oracle import apply_table, associativity_counterexample

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def assert_agrees(m: FiniteMagma):
    assert m.associativity_counterexample() == \
        associativity_counterexample(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_light_matches_the_scan_on_every_small_magma(n):
    elements = range(n)
    pairs = list(product(elements, repeat=2))
    associative = 0
    for values in product(elements, repeat=len(pairs)):
        m = FiniteMagma(elements, dict(zip(pairs, values)))
        assert_agrees(m)
        associative += m.associativity_counterexample() is None
    # Semigroups on 1, 2 and 3 labeled elements.
    assert associative == {1: 1, 2: 8, 3: 113}[n]


def test_light_matches_the_scan_on_random_magmas():
    rng = random.Random(27)
    for _ in range(3000):
        n = rng.randint(4, 5)
        assert_agrees(FiniteMagma(range(n), {
            (a, b): rng.randrange(n) for a in range(n) for b in range(n)}))


@pytest.mark.parametrize("moduli", [(2,), (3,), (4,), (5,), (2, 2)])
def test_light_matches_the_scan_on_perturbed_groups(moduli):
    rng = random.Random(sum(moduli))
    g = cyclic_group_magma(moduli)
    assert g.associativity_counterexample() is None
    table = {(a, b): g.op(a, b) for a in g.elements for b in g.elements}
    for _ in range(200):
        bent = dict(table)
        for _ in range(rng.randint(1, 2)):
            bent[rng.choice(list(bent))] = rng.choice(g.elements)
        assert_agrees(FiniteMagma(g.elements, bent, unit=g.unit))


@pytest.mark.parametrize("moduli, b", [((2,), (2,)), ((3,), (2,)),
                                       ((2, 2), (2,)), ((2,), (3,))])
def test_light_matches_the_scan_on_extensions(moduli, b):
    rng = random.Random(len(moduli) + b[0])
    m = cyclic_group_magma(moduli)
    found = 0
    for _ in range(50):
        nu = {(x, y): tuple(rng.randrange(q) for q in b)
              for x in m.elements for y in m.elements if rng.random() < 0.3}
        ext, witness = extension_magma(m, b, nu)
        assert witness == associativity_counterexample(ext)
        found += witness is not None
    assert found  # some nu are not cocycles


# Every fixture at Z_2 and Z_3 but borromean_n1..n4 (|G| = 512 at Z_2,
# 134M triples for the scan; the stage is refused at Z_3) and
# heisenberg_k3 and k6 at Z_3 (|G| = 729, refused by group-realize).
FIXTURE_RUNS = [(name, ring) for name in ("bar_z2.delta", "cyclic4.pres",
                                          "heisenberg_k1.pres",
                                          "heisenberg_k2.pres",
                                          "heisenberg_k3.pres",
                                          "heisenberg_k6.pres",
                                          "interval.delta", "torus.pres",
                                          "wedge2.pres")
                for ring in ("Zp:2", "Zp:3")
                if ring == "Zp:2" or name not in ("heisenberg_k3.pres",
                                                  "heisenberg_k6.pres")]


def test_per_point_table_and_light_on_fixture_laws():
    # Each distinct stage-2 law once: at Z_3, heisenberg_k2 and wedge2
    # have heisenberg_k1's law (|G| = 243).
    seen = set()
    for name, ring in FIXTURE_RUNS:
        stage = LoadedInput(str(FIXTURES / name), ring).build_model(2)[-1]
        law = MagmaLaw(stage.gens.names, stage.diff.tau, stage.ring)
        key = (ring, tuple(law.gens),
               tuple(str(t.terms) if t else "" for t in law.tau.values()))
        if key not in seen:
            seen.add(key)
            check_law(law)
    assert len(seen) == 9


def random_laws():
    """mu_tau with random degree-2 tau over Z_2 and Z_3; most are not
    associative, because f_tau is not a 2-cocycle."""
    rng = random.Random(2)
    gens = ["x1", "x2", "y"]
    out = []
    for i in range(12):
        ring = RingSpec.Zp(2 + i % 2)
        index = lambda: MultiIndex(
            [(x, rng.randint(1, ring.p - 1)) for x in rng.sample(gens[:2], 2)
             if rng.random() < 0.7] or [("x1", 1)])
        tau = {g: TensorElem(ring, {(index(), index()): rng.randint(1, 2)
                                    for _ in range(rng.randint(1, 3))})
               for g in gens[1:] if rng.random() < 0.8}
        out.append(MagmaLaw(gens, tau, ring))
    return out


def check_law(law):
    m = law.to_finite_magma()
    assert m.prod == apply_table(law)
    assert m.unit == m.elements[0] == (0,) * len(law.gens)
    assert_agrees(m)


@pytest.mark.parametrize("i", range(12))
def test_per_point_table_and_light_on_random_laws(i):
    check_law(random_laws()[i])


def test_laws_cover_both_verdicts():
    verdicts = {associativity_counterexample(law.to_finite_magma()) is None
                for law in random_laws()}
    assert verdicts == {True, False}


def test_law_without_generators():
    m = MagmaLaw([], {}, RingSpec.Zp(3)).to_finite_magma()
    assert (m.elements, m.prod, m.unit) == ([()], [[0]], ())


def test_from_table_checks_the_table():
    FiniteMagma.from_table("ab", [[0, 1], [1, 0]])
    for bad in ([[0, 1]], [[0, 1], [1]], [[0, 1], [1, 2]], [[0, 1], [1, -1]]):
        with pytest.raises(ValueError, match="needs 2 rows of 2 positions"):
            FiniteMagma.from_table("ab", bad)
