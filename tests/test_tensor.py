import random

import pytest

from cupone.rings import MultiIndex, RingSpec
from cupone.tensor import (
    TensorElem,
    circ_22,
    circ_23_words,
    circ_32_words,
    cup,
    cup1_22_words,
    cup1_31,
    cup1_deg1,
    cup1_hirsch,
    zeta_apply,
)

Z = RingSpec.Z()
Z2 = RingSpec.Zp(2)

GENS = ["x", "y", "z", "w"]


def g(name, ring=Z):
    return TensorElem.gen(ring, name)


def zmono(name, k, ring=Z, c=1):
    return TensorElem(ring, {(MultiIndex.single(name, k),): c})


def word(*factors, ring=Z, c=1):
    return TensorElem(ring, {tuple(MultiIndex(f) for f in factors): c})


def random_deg1(rng, ring=Z, nterms=3, weight=3, names=("x", "y", "z")):
    t = TensorElem.zero(ring)
    for _ in range(rng.randint(1, nterms)):
        entries = []
        budget = rng.randint(1, weight)
        for n in names:
            e = rng.randint(0, budget)
            budget -= e
            if e:
                entries.append((n, e))
        if not entries:
            entries = [(rng.choice(names), 1)]
        t = t + TensorElem(ring, {(MultiIndex(entries),): rng.randint(-2, 2)})
    return t


def test_cup_basic():
    xy = cup(g("x"), g("y"))
    assert xy == word([("x", 1)], [("y", 1)])
    assert xy.degree() == 2
    one = TensorElem.scalar(Z, 1)
    u = word([("x", 2)], [("y", 1)])
    assert cup(one, u) == u
    assert cup(u, one) == u


def test_cup_bilinear():
    u = g("x") + zmono("x", 2)
    got = cup(u, g("y"))
    expect = word([("x", 1)], [("y", 1)]) + word([("x", 2)], [("y", 1)])
    assert got == expect


def test_cup1_deg1_frozen():
    assert cup1_deg1(g("x"), g("y")) == word([("x", 1), ("y", 1)])
    # x cup1 x = x + 2 zeta_2(x) by the product oracle.
    assert cup1_deg1(g("x"), g("x")) == g("x") + zmono("x", 2, c=2)
    # over Z_2 the square collapses: x cup1 x = x.
    assert cup1_deg1(g("x", Z2), g("x", Z2)) == g("x", Z2)


def test_cup1_deg1_commutative_associative():
    rng = random.Random(0)
    for _ in range(25):
        a, b, c = (random_deg1(rng) for _ in range(3))
        assert cup1_deg1(a, b) == cup1_deg1(b, a)
        assert cup1_deg1(cup1_deg1(a, b), c) == cup1_deg1(a, cup1_deg1(b, c))


def test_zeta_apply():
    # zeta_2(x+y) = zeta_2(x) + zeta_1(x) zeta_1(y) + zeta_2(y)
    s = zeta_apply(g("x") + g("y"), 2)
    expect = zmono("x", 2) + word([("x", 1), ("y", 1)]) + zmono("y", 2)
    assert s == expect
    assert zeta_apply(g("x"), 1) == g("x")
    # zeta_2(2x) = C(2x,2) = x + 4 zeta_2(x)
    assert zeta_apply(g("x").scale(2), 2) == g("x") + zmono("x", 2, c=4)


def test_cup1_hirsch_frozen():
    # (x T y) cup1 z = xz T y + x T yz
    got = cup1_hirsch(cup(g("x"), g("y")), g("z"))
    expect = (word([("x", 1), ("z", 1)], [("y", 1)])
              + word([("x", 1)], [("y", 1), ("z", 1)]))
    assert got == expect
    # (x T y) cup1 x = (x + 2 z2(x)) T y + x T z_{(1,1)}(y,x)
    got = cup1_hirsch(cup(g("x"), g("y")), g("x"))
    expect = (word([("x", 1)], [("y", 1)]) + word([("x", 2)], [("y", 1)], c=2)
              + word([("x", 1)], [("x", 1), ("y", 1)]))
    assert got == expect


def test_cup1_hirsch_linear():
    u = cup(g("x"), g("y")) + cup(g("y"), g("x"))
    got = cup1_hirsch(u, g("z"))
    expect = (cup1_hirsch(cup(g("x"), g("y")), g("z"))
              + cup1_hirsch(cup(g("y"), g("x")), g("z")))
    assert got == expect


def test_hirsch_identity_random():
    # (a cup b) cup1 c = a cup (b cup1 c) + (a cup1 c) cup b
    rng = random.Random(1)
    for _ in range(50):
        a, b, c = (random_deg1(rng) for _ in range(3))
        lhs = cup1_hirsch(cup(a, b), c)
        rhs = cup(a, cup1_deg1(b, c)) + cup(cup1_deg1(a, c), b)
        assert lhs == rhs


def test_cup1_31_frozen():
    got = cup1_31(cup(cup(g("x"), g("y")), g("z")), g("w"))
    expect = (word([("w", 1), ("x", 1)], [("y", 1)], [("z", 1)])
              + word([("x", 1)], [("w", 1), ("y", 1)], [("z", 1)])
              + word([("x", 1)], [("y", 1)], [("w", 1), ("z", 1)]))
    assert got == expect


def test_circ_22_frozen():
    # (x T y) circ (z T w) = z_{(1,1)}(x,z) T z_{(1,1)}(y,w)
    got = circ_22(cup(g("x"), g("y")), cup(g("z"), g("w")))
    assert got == word([("x", 1), ("z", 1)], [("y", 1), ("w", 1)])
    # (x T y) circ (x T y) = (x + 2 z2 x) T (y + 2 z2 y)
    got = circ_22(cup(g("x"), g("y")), cup(g("x"), g("y")))
    expect = cup(g("x") + zmono("x", 2, c=2), g("y") + zmono("y", 2, c=2))
    assert got == expect


def test_circ_compatibility_random():
    # (u cup v) circ (w cup z) = (u cup1 w) cup (v cup1 z)
    rng = random.Random(2)
    for _ in range(50):
        u, v, w, z = (random_deg1(rng) for _ in range(4))
        lhs = circ_22(cup(u, v), cup(w, z))
        rhs = cup(cup1_deg1(u, w), cup1_deg1(v, z))
        assert lhs == rhs


def test_circ_22_bilinear():
    u = cup(g("x"), g("y")) + cup(g("y"), g("x"))
    v = cup(g("z"), g("w"))
    assert circ_22(u, v) == (circ_22(cup(g("x"), g("y")), v)
                             + circ_22(cup(g("y"), g("x")), v))


def test_cup1_22_with_zero_differentials():
    # With d = 0 on generators the two correction sums vanish:
    # (x T y) cup1 (z T w) = -x T (z.y) T w - x T z T (w.y)
    #                        + (z.x) T w T y + z T (w.x) T y
    dzero = lambda p: TensorElem.zero(Z)
    got = cup1_22_words(cup(g("x"), g("y")), cup(g("z"), g("w")), dzero)
    expect = (word([("x", 1)], [("y", 1), ("z", 1)], [("w", 1)], c=-1)
              + word([("x", 1)], [("z", 1)], [("w", 1), ("y", 1)], c=-1)
              + word([("x", 1), ("z", 1)], [("w", 1)], [("y", 1)])
              + word([("z", 1)], [("w", 1), ("x", 1)], [("y", 1)]))
    assert got == expect


def test_weight_of():
    assert word([("x", 2)], [("y", 1)]).weight_of() == (3, 3)
    mixed = word([("x", 1)], [("y", 1)]) + word([("x", 2)], [("y", 2)])
    assert mixed.weight_of() == (2, 4)


def test_degree_errors():
    with pytest.raises(ValueError):
        cup1_deg1(cup(g("x"), g("y")), g("z"))
    with pytest.raises(ValueError):
        cup1_hirsch(g("x"), g("y"))
    with pytest.raises(ValueError):
        circ_22(g("x"), cup(g("y"), g("z")))
    with pytest.raises(ValueError, match="degree cap"):
        cup(cup(g("x"), g("y")), cup(g("x"), cup(g("y"), g("z"))))


def test_unit_factor_rejected():
    with pytest.raises(ValueError, match="unit factor"):
        TensorElem(Z, {(MultiIndex.unit(),): 1})


def test_render_deterministic():
    u = word([("x", 1)], [("y", 1)]) + word([("x", 2)], [("y", 1)], c=-3)
    assert u.render() == "1 * z(x,1) T z(y,1) + -3 * z(x,2) T z(y,1)"


def test_circ_23_and_32_zero_differential():
    # With vanishing correction sums the mixed circle maps reduce to the
    # three slotwise-product terms.
    dzero = lambda p: TensorElem.zero(Z)
    a = cup(g("x"), g("y"))
    v = cup(cup(g("z"), g("w")), g("x"))
    got = circ_23_words(a, v, dzero)
    expect = (word([("x", 1), ("z", 1)], [("w", 1), ("y", 1)], [("x", 1)])
              + word([("x", 1), ("z", 1)], [("w", 1)], [("x", 1), ("y", 1)])
              + word([("z", 1)], [("w", 1), ("x", 1)], [("x", 1), ("y", 1)]))
    assert got == expect
    u = cup(cup(g("x"), g("y")), g("z"))
    b = cup(g("w"), g("x"))
    got = circ_32_words(u, b, dzero)
    expect = (word([("x", 1)], [("w", 1), ("y", 1)], [("x", 1), ("z", 1)])
              + word([("w", 1), ("x", 1)], [("x", 1), ("y", 1)], [("z", 1)])
              + word([("w", 1), ("x", 1)], [("y", 1)], [("x", 1), ("z", 1)]))
    assert got == expect


def test_circ_23_correction_term():
    # a1 = zeta_2(x) under d_0 decomposes as -x cup x; the correction
    # subtracts (p v1)(q v2)(a2 v3) for each decomposition pair.
    from cupone.differential import GeneratorSet, zero_differential
    d0 = zero_differential(GeneratorSet(["x", "y", "z", "w"]), Z)
    dp = d0.d_poly
    a = cup(zmono("x", 2), g("y"))
    v = cup(cup(g("z"), g("w")), g("z"))
    got = circ_23_words(a, v, dp)
    base = circ_23_words(a, v, lambda p: TensorElem.zero(Z))
    diff = got - base
    # minus the single correction (-x, x): -(-1) (xz) T (xw) T (yz)
    expect = word([("x", 1), ("z", 1)], [("w", 1), ("x", 1)],
                  [("y", 1), ("z", 1)])
    assert diff == expect
