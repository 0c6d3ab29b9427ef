import copy
import pickle
import random
import sys
import threading

import pytest

from cupone import rings
from cupone.delta import Cochain
from cupone.rings import (
    BinomialPoly,
    MultiIndex,
    RingSpec,
    binom_of,
    mono_product,
    zeta_add_expand,
    zeta_structure_constants,
)
from cupone.tensor import TensorElem

Z = RingSpec.Z()
Z2 = RingSpec.Zp(2)
Z3 = RingSpec.Zp(3)
Z5 = RingSpec.Zp(5)


def zeta(ring, name, k, c=1):
    return BinomialPoly.zeta_monomial(ring, MultiIndex.single(name, k), c)


def reduce_mod_p(u: BinomialPoly, p: int) -> BinomialPoly:
    """The quotient map Int(Z^X) -> Int(Z_p^X): keep the indices with every
    exponent below p."""
    assert not u.ring.is_modular
    return BinomialPoly._tidy(RingSpec.Zp(p), [
        (idx, c) for idx, c in u.terms.items() if idx.max_exponent() < p])


def parse_poly(text: str, ring: RingSpec) -> BinomialPoly:
    """Parse the canonical rendering of :meth:`BinomialPoly.render`."""
    text = text.strip()
    if text == "0":
        return BinomialPoly.zero(ring)
    terms = []
    for chunk in text.split(" + "):
        coeff, _, mono = chunk.strip().partition(" * ")
        entries = []
        for factor in filter(None, mono.split("*")):
            assert factor.startswith("z(") and factor.endswith(")"), factor
            name, _, exp = factor[2:-1].partition(",")
            entries.append((name.strip(), int(exp)))
        terms.append((MultiIndex(entries), int(coeff)))
    return BinomialPoly(ring, terms)


def test_binom_of_small():
    assert binom_of(5, 2) == 10


def test_binom_of_negative_argument():
    # (-1)(-2)/2! evaluated exactly
    assert binom_of(-1, 2) == 1
    assert binom_of(-3, 3) == -10


def test_binom_of_zero_index_convention():
    for a in (-7, 0, 3, 12345):
        assert binom_of(a, 0) == 1
    assert binom_of(4, 0, Z5) == 1


def test_binom_of_zp_rejects_large_index():
    with pytest.raises(ValueError):
        binom_of(2, 3, Z3)


def test_binom_of_zp_matches_lifted_binomial():
    for a in range(5):
        for n in range(5):
            assert binom_of(a, n, Z5) == binom_of(a, n) % 5


def interp_product_oracle(m, n, top):
    """Independent oracle: expand zeta_m * zeta_n by direct evaluation."""
    from math import comb
    values = [comb(t, m) * comb(t, n) for t in range(top + 1)]
    coeffs = {}
    for t in range(top + 1):
        c = values[t] - sum(ck * comb(t, k) for k, ck in coeffs.items())
        if c:
            coeffs[t] = c
    return coeffs


def test_zeta_product_single_variable_frozen():
    # Interpolation oracle: values 0,1,4 at x=0,1,2 force z1*z1 = z1 + 2 z2.
    assert zeta_structure_constants(1, 1) == {1: 1, 2: 2}
    # Values at x=0..3 force z1*z2 = 2 z2 + 3 z3.
    assert zeta_structure_constants(1, 2) == {2: 2, 3: 3}
    p = zeta(Z, "x", 1) * zeta(Z, "x", 1)
    assert p == zeta(Z, "x", 1) + zeta(Z, "x", 2, 2)


def test_zeta_product_disjoint_merge():
    p = zeta(Z, "x", 1) * zeta(Z, "y", 1)
    assert p == BinomialPoly(Z, {MultiIndex((("x", 1), ("y", 1))): 1})


def test_zeta_product_ring_mismatch():
    with pytest.raises(ValueError):
        zeta(Z, "x", 1) * zeta(Z3, "x", 1)


def test_product_matches_evaluation_oracle():
    rng = random.Random(7)
    names = ["x", "y", "w"]
    for _ in range(40):
        u = BinomialPoly.zero(Z)
        v = BinomialPoly.zero(Z)
        for _ in range(rng.randint(1, 4)):
            idx = MultiIndex((n, rng.randint(0, 4)) for n in names)
            u = u + BinomialPoly.zeta_monomial(Z, idx, rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4)):
            idx = MultiIndex((n, rng.randint(0, 4)) for n in names)
            v = v + BinomialPoly.zeta_monomial(Z, idx, rng.randint(-3, 3))
        prod = u * v
        for _ in range(20):
            pt = {n: rng.randint(-6, 6) for n in names}
            assert prod.evaluate(pt) == u.evaluate(pt) * v.evaluate(pt)


def test_evaluate_frozen_cases():
    assert zeta(Z, "x", 2).evaluate({"x": 4}) == 6
    assert BinomialPoly.const(Z, 1).evaluate({"x": 99}) == 1
    # z1 + 2 z2 equals x^2 by the product oracle: at x=3 this is 9.
    sq = zeta(Z, "x", 1) + zeta(Z, "x", 2, 2)
    assert sq.evaluate({"x": 3}) == 9


def test_evaluate_defaults_unset_to_zero():
    p = zeta(Z, "x", 1) * zeta(Z, "y", 2)
    assert p.evaluate({"y": 5}) == 0


def test_zeta_add_expand_frozen():
    one = zeta_add_expand(1)
    assert one == BinomialPoly.gen(Z, "a") + BinomialPoly.gen(Z, "b")
    two = zeta_add_expand(2)
    expect = (zeta(Z, "a", 2) + zeta(Z, "b", 2)
              + BinomialPoly(Z, {MultiIndex((("a", 1), ("b", 1))): 1}))
    assert two == expect
    # Numeric check at a=2, b=3: C(5,2) = 10 = 1 + 6 + 3.
    assert two.evaluate({"a": 2, "b": 3}) == 10
    assert binom_of(2 + 3, 2) == 10


def test_zeta_add_expand_law_numeric():
    rng = random.Random(3)
    for k in range(1, 7):
        law = zeta_add_expand(k)
        for _ in range(20):
            a, b = rng.randint(-8, 8), rng.randint(-8, 8)
            assert law.evaluate({"a": a, "b": b}) == binom_of(a + b, k)


def test_zeta_add_expand_zp_range():
    with pytest.raises(ValueError):
        zeta_add_expand(3, Z3)


def test_reduce_mod_p_kills_high_zeta():
    assert reduce_mod_p(zeta(Z, "x", 5), 5).is_zero()
    assert reduce_mod_p(zeta(Z, "x", 3), 2).is_zero()


def test_reduce_mod_p_square_over_z2():
    # x*x = z1 + 2 z2 reduces to z1, i.e. x^2 = x over Z_2.
    x = BinomialPoly.gen(Z, "x")
    assert reduce_mod_p(x * x, 2) == BinomialPoly.gen(Z2, "x")


def test_reduce_mod_p_product_over_z3():
    # z1*z2 = 2 z2 + 3 z3 reduces to 2 z2 over Z_3.
    p = reduce_mod_p(zeta(Z, "x", 1) * zeta(Z, "x", 2), 3)
    assert p == zeta(Z3, "x", 2, 2)


def test_reduce_mod_p_is_ring_map():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(15):
            u = BinomialPoly.zero(Z)
            v = BinomialPoly.zero(Z)
            for _ in range(3):
                iu = MultiIndex((n, rng.randint(0, 4)) for n in ("x", "y"))
                iv = MultiIndex((n, rng.randint(0, 4)) for n in ("x", "y"))
                u = u + BinomialPoly.zeta_monomial(Z, iu, rng.randint(-4, 4))
                v = v + BinomialPoly.zeta_monomial(Z, iv, rng.randint(-4, 4))
            assert (reduce_mod_p(u * v, p)
                    == reduce_mod_p(u, p) * reduce_mod_p(v, p))


def test_zeta_of_poly_addition_law():
    ab = BinomialPoly.gen(Z, "a") + BinomialPoly.gen(Z, "b")
    assert ab.zeta(2) == zeta_add_expand(2)


def test_zeta_of_scaled_generator():
    # C(2x, 2) = x(2x-1) = x + 4 z2(x) by the product oracle.
    two_x = BinomialPoly.gen(Z, "x").scale(2)
    assert two_x.zeta(2) == zeta(Z, "x", 1) + zeta(Z, "x", 2, 4)


def test_render_parse_round_trip():
    rng = random.Random(5)
    for ring in (Z, Z5):
        for _ in range(25):
            u = BinomialPoly.const(ring, rng.randint(-3, 3))
            for _ in range(4):
                idx = MultiIndex((n, rng.randint(0, 3)) for n in ("x", "y", "w"))
                u = u + BinomialPoly.zeta_monomial(ring, idx, rng.randint(-5, 5))
            text = u.render()
            back = parse_poly(text, ring)
            assert back.terms == u.terms
            assert back.render() == text


def test_render_canonical_form():
    u = zeta(Z, "y", 1) + BinomialPoly(Z, {MultiIndex((("x", 2), ("y", 1))): 3})
    assert u.render() == "1 * z(y,1) + 3 * z(x,2)*z(y,1)"


def test_zp_constructor_rejects_large_exponent():
    with pytest.raises(ValueError):
        BinomialPoly.zeta_monomial(Z3, MultiIndex.single("x", 3))


# -- one MultiIndex object per multi-index -----------------------------

def test_equal_indices_are_one_object():
    a = MultiIndex((("y", 2), ("x", 1)))
    assert MultiIndex((("x", 1), ("y", 2))) is a
    assert MultiIndex([("x", 1), ("z", 0), ("y", 2)]) is a
    assert MultiIndex({"y": 2, "x": 1}.items()) is a
    assert MultiIndex.single("x").merge(MultiIndex.single("y", 2)) is a
    assert MultiIndex(MultiIndex((("x", 1), ("y", 2), ("w", 3))).entries[1:]) \
        is a
    assert MultiIndex(()) is MultiIndex.unit()
    # The head and rest of a's entries find their indices in the table.
    assert rings._INTERNED[a.entries[:1]] is MultiIndex.single("x")
    assert rings._INTERNED[a.entries[1:]] is MultiIndex.single("y", 2)


def test_copies_and_pickles_return_the_interned_index():
    a = MultiIndex((("x", 3), ("y", 1)))
    assert copy.copy(a) is a
    assert copy.deepcopy(a) is a
    assert copy.deepcopy({(a, a): 1}) == {(a, a): 1}
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(a, proto)) is a
        assert pickle.loads(pickle.dumps((a, MultiIndex.unit()), proto)) \
            == (a, MultiIndex.unit())


def test_threads_building_one_new_index_get_one_object():
    names = [f"thread_gen_{i}" for i in range(2000)]
    barrier = threading.Barrier(4)
    built = [None] * 4

    def build(slot):
        barrier.wait()
        built[slot] = [MultiIndex(((n, 2), ("x", 1))) for n in names]

    threads = [threading.Thread(target=build, args=(s,)) for s in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for other in built[1:]:
        assert all(u is v for u, v in zip(built[0], other))
    assert all(MultiIndex((("x", 1), (n, 2))) is u
               for n, u in zip(names, built[0]))


def test_invalid_indices_keep_their_messages():
    with pytest.raises(ValueError, match="^exponents must be positive$"):
        MultiIndex((("x", -1),))
    with pytest.raises(ValueError,
                       match="^repeated generator in multi-index$"):
        MultiIndex((("x", 1), ("x", 2)))
    # A refused index is not left behind for a later lookup to find.
    with pytest.raises(ValueError, match="repeated generator"):
        MultiIndex((("x", 2), ("x", 1)))


def test_multi_index_hashes_and_compares_in_c():
    # A Python-level __eq__ or __hash__ would be called once per factor
    # on every dict lookup of a tensor word; equal indices are one
    # object, so object identity is the whole comparison.
    assert MultiIndex.__hash__ is object.__hash__
    assert MultiIndex.__eq__ is object.__eq__
    assert MultiIndex.__ne__ is object.__ne__


# -- products without re-validation -----------------------------------------

def random_index(rng, ring, names=("x", "y", "w")):
    top = ring.max_zeta or 3
    return MultiIndex((n, rng.randint(0, top)) for n in names)


def random_poly(rng, ring):
    return BinomialPoly(ring, [(random_index(rng, ring), rng.randint(-4, 4))
                               for _ in range(rng.randint(1, 5))])


@pytest.mark.parametrize("ring", [Z, Z2, Z3, Z5], ids=repr)
def test_mono_product_is_the_sort_order_expansion(monkeypatch, ring):
    rng = random.Random(f"mono/{ring!r}")
    for _ in range(60):
        a, b = random_index(rng, ring), random_index(rng, ring)
        lo, hi = sorted((a, b), key=MultiIndex.sort_key)
        want = rings._expand_product(ring, lo, hi)
        for first, second in ((hi, lo), (lo, hi)):
            # A cold cache: the first call misses, the second one hits
            # the entry the first stored under the swapped key.
            monkeypatch.setattr(rings, "_MONO_CACHE", {})
            assert mono_product(ring, first, second) == want
            assert (ring.p, second, first) in rings._MONO_CACHE
            assert mono_product(ring, second, first) == want


def test_equal_but_distinct_rings_multiply():
    r1, r2 = RingSpec.Zp(3), RingSpec.Zp(3)
    assert r1 is not r2
    prod = zeta(r1, "x", 1) * zeta(r2, "x", 1)
    assert prod == zeta(Z3, "x", 1) * zeta(Z3, "x", 1)
    assert zeta(RingSpec.Z(), "x", 2) * zeta(Z, "y", 1) \
        == zeta(Z, "x", 2) * zeta(Z, "y", 1)


@pytest.mark.parametrize("left,right", [(Z, Z3), (Z3, Z5)], ids=repr)
def test_mismatched_rings_still_raise(left, right):
    for u, v in ((zeta(left, "x", 1), zeta(right, "x", 1)),
                 (zeta(right, "x", 1), zeta(left, "x", 1))):
        with pytest.raises(ValueError, match="ring mismatch"):
            u * v
        with pytest.raises(ValueError, match="ring mismatch"):
            u + v


@pytest.mark.parametrize("ring", [Z, Z2, Z3, Z5], ids=repr)
def test_product_equals_validated_raw_sums(ring):
    rng = random.Random(f"mul/{ring!r}")
    for _ in range(60):
        u, v = random_poly(rng, ring), random_poly(rng, ring)
        raw = {}
        for i1, c1 in u.terms.items():
            for i2, c2 in v.terms.items():
                for idx, cc in mono_product(ring, i1, i2):
                    raw[idx] = raw.get(idx, 0) + c1 * c2 * cc
        got = u * v
        # Same terms in the same order, none of them zero.
        assert list(got.terms.items()) \
            == list(BinomialPoly(ring, raw).terms.items())
        assert all(got.terms.values())
        if ring.p:
            assert all(0 < c < ring.p for c in got.terms.values())


# -- the shared R-linear arithmetic (rings.Combination) -----------------

CLASSES = [BinomialPoly, TensorElem, Cochain]


def _make(cls, ring, coeffs, dim=1):
    """An element of cls with coefficients coeffs on up to three keys of
    its kind: monomials, one-factor words or 1-cells."""
    keys = [MultiIndex.single(n) for n in "xyz"]
    if cls is TensorElem:
        keys = [(i,) for i in keys]
    if cls is Cochain:
        return Cochain(dim, ring, dict(zip("efg", coeffs)))
    return cls(ring, dict(zip(keys, coeffs)))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_divide_over_z_is_exact(cls):
    u = _make(cls, Z, [6, -4, 10])
    assert u.divide(2) == _make(cls, Z, [3, -2, 5])
    assert u.divide(-2) == _make(cls, Z, [-3, 2, -5])
    assert u.divide(1) == u
    assert _make(cls, Z, []).divide(7).is_zero()
    for m in (4, 3, -4):
        with pytest.raises(ArithmeticError, match=f"inexact division by {m}"):
            u.divide(m)


@pytest.mark.parametrize("ring", [Z2, Z3, Z5], ids=repr)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_divide_over_zp_scales_by_the_inverse(cls, ring):
    rng = random.Random(f"divide/{cls.__name__}/{ring!r}")
    for _ in range(20):
        u = _make(cls, ring, [rng.randint(-9, 9) for _ in range(3)])
        for m in range(1, 3 * ring.p):
            if m % ring.p:
                assert u.divide(m) == u.scale(pow(m, -1, ring.p))
                assert u.divide(m).scale(m) == u
        with pytest.raises(ZeroDivisionError):
            u.divide(ring.p)


def test_equality_needs_the_same_class_and_dimension():
    items = [("k", 1), ("l", -2)]
    for group in ([_make(cls, Z, []) for cls in CLASSES],
                  [cls._tidy(Z, items) for cls in (BinomialPoly, TensorElem)]):
        for i, u in enumerate(group):
            for j, v in enumerate(group):
                assert u.terms == v.terms
                assert (u == v) == (i == j)
    assert Cochain(1, Z, {"e": 1}) != Cochain(2, Z, {"e": 1})
    assert Cochain(0, Z) != Cochain(3, Z)
    assert _make(BinomialPoly, Z3, [1]) != _make(BinomialPoly, Z, [1])


@pytest.mark.parametrize("ring", [Z, Z3], ids=repr)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_elements_hash_equal(cls, ring):
    u = _make(cls, ring, [2, -1, 5])
    v = _make(cls, ring, [1, 0, 5]) + _make(cls, ring, [1, -1, 0])
    assert list(u.terms) != list(v.terms)  # built in another order
    assert u == v and hash(u) == hash(v)
    assert u - u == -u + u == _make(cls, ring, [])
    assert hash(u - u) == hash(_make(cls, ring, []))


@pytest.mark.parametrize("ring", [Z, Z3], ids=repr)
@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructors_sum_repeated_keys(cls, ring):
    # A key listed twice gets the sum of its coefficients, normalized in
    # the ring, and a sum that vanishes drops the key.
    key = next(iter(_make(cls, ring, [1]).terms))

    def make(pairs):
        return Cochain(1, ring, pairs) if cls is Cochain else cls(ring, pairs)

    assert make([(key, 1), (key, 2)]) == _make(cls, ring, [3])
    assert make([(key, 2), (key, 2)]) == _make(cls, ring, [4])
    assert make([(key, 2), (key, 2)]).terms == {key: ring.normalize(4)}
    assert make([(key, 1), (key, -1), (key, 5)]).terms == \
        {key: ring.normalize(5)}
    assert make([(key, 3), (key, -3)]).is_zero()
