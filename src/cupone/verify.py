"""Randomized identity suites shared by the CLI and the acceptance tests.

Each suite draws its stated number of random cases (seeded, hence
reproducible), checks one family of exact identities, and reports the
first failure if any.  Random degree-1 elements are kept small: at
most 3 terms of weight at most 3 each.
"""
from __future__ import annotations

import random

from .delta import (
    Cochain,
    coboundary,
    cup1_21_from_decomposition,
    cup1_cochain,
    cup2_cochain,
    cup_cochain,
    zeta_cochain,
)
from .differential import Differential, GeneratorSet, apply_d
from .interval import Cylinder, CylEl
from .presentation import borromean_presentation, presentation_complex
from .rings import BinomialPoly, MultiIndex, RingSpec, binom_of, zeta_add_expand
from .tensor import (
    TensorElem,
    circ_22,
    cup,
    cup1_22_words,
    cup1_deg1,
    cup1_hirsch,
)

Z = RingSpec.Z()


class SuiteResult:
    def __init__(self, name: str, cases: int, failures: list | None = None):
        self.name, self.cases = name, cases
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "pass" if self.passed else f"FAIL ({self.failures[0]})"
        return f"{self.name}: {self.cases} cases: {status}"


def _random_deg1(rng, names, ring):
    t = TensorElem.zero(ring)
    for _ in range(rng.randint(1, 3)):
        budget = rng.randint(1, 3)
        entries = []
        for n in names:
            cap = budget if ring.max_zeta is None \
                else min(budget, ring.max_zeta)
            e = rng.randint(0, cap)
            budget -= e
            if e:
                entries.append((n, e))
        if not entries:
            entries = [(rng.choice(names), 1)]
        c = rng.choice([-2, -1, 1, 2])
        t = t + TensorElem(ring, {(MultiIndex(entries),): c})
    return t


def _heisenberg_diff(ring, k=2):
    gens = GeneratorSet(["x1", "x2", "y"], {"x1": 1, "x2": 1, "y": 2})
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-k)}
    return Differential(ring, gens, tau)


def suite_hirsch(cases: int = 200, seed: int = 0,
                 ring: RingSpec = Z) -> SuiteResult:
    """(a cup b) cup1 c = a cup (b cup1 c) + (a cup1 c) cup b."""
    rng = random.Random(seed)
    names = ("x", "y", "z")
    res = SuiteResult("hirsch-identity", cases)
    for i in range(cases):
        a, b, c = (_random_deg1(rng, names, ring) for _ in range(3))
        lhs = cup1_hirsch(cup(a, b), c)
        rhs = cup(a, cup1_deg1(b, c)) + cup(cup1_deg1(a, c), b)
        if lhs != rhs:
            res.failures.append(f"case {i}")
    return res


def suite_circ_op(cases: int = 200, seed: int = 0,
                  ring: RingSpec = Z) -> SuiteResult:
    """(u cup v) circ (w cup z) = (u cup1 w) cup (v cup1 z)."""
    rng = random.Random(seed)
    names = ("x", "y", "z")
    res = SuiteResult("circ-op", cases)
    for i in range(cases):
        u, v, w, z = (_random_deg1(rng, names, ring) for _ in range(4))
        if circ_22(cup(u, v), cup(w, z)) != cup(cup1_deg1(u, w),
                                                cup1_deg1(v, z)):
            res.failures.append(f"case {i}")
    return res


def suite_c0d(cases: int = 200, seed: int = 0,
              ring: RingSpec = Z) -> SuiteResult:
    """a cup1 delta(c) = a cup c - c cup a on a presentation complex."""
    rng = random.Random(seed)
    X = presentation_complex(borromean_presentation(1)).delta
    res = SuiteResult("c0d", cases)
    for i in range(cases):
        a = Cochain(1, ring, {c: rng.randint(-3, 3) for c in X.cells[1]})
        c = Cochain(0, ring, {v: rng.randint(-3, 3) for v in X.cells[0]})
        lhs = cup1_cochain(X, a, coboundary(X, c))
        rhs = cup_cochain(X, a, c) - cup_cochain(X, c, a)
        if lhs != rhs:
            res.failures.append(f"case {i}")
    return res


def suite_cup1_d(cases: int = 200, seed: int = 0,
                 ring: RingSpec = Z) -> SuiteResult:
    """The cup1-d formula under a stage differential (all differentials
    of degree-1 elements are canonically decomposable in T)."""
    rng = random.Random(seed)
    d = _heisenberg_diff(ring)
    names = ("x1", "x2", "y")
    res = SuiteResult("cup1-d-formula", cases)
    for i in range(cases):
        a = _random_deg1(rng, names, ring)
        b = _random_deg1(rng, names, ring)
        lhs = apply_d(d, cup1_deg1(a, b))
        da, db = apply_d(d, a), apply_d(d, b)
        rhs = -cup(a, b) - cup(b, a) + cup1_hirsch(da, b) \
            + cup1_hirsch(db, a) - circ_22(da, db)
        if lhs != rhs:
            res.failures.append(f"case {i}")
    return res


def suite_da1b_dadb(cases: int = 200, seed: int = 0,
                    ring: RingSpec = Z) -> SuiteResult:
    """d(da cup1 b) = da cup b - b cup da + da cup1 db and
    d(da circ db) = da cup1 db + db cup1 da, for d^2 a = d^2 b = 0."""
    rng = random.Random(seed)
    d = _heisenberg_diff(ring, k=3)
    names = ("x1", "x2", "y")
    dp = d.d_poly
    res = SuiteResult("da1b-dadb", cases)
    for i in range(cases):
        a = _random_deg1(rng, names, ring)
        b = _random_deg1(rng, names, ring)
        da, db = apply_d(d, a), apply_d(d, b)
        if not da.is_zero():
            lhs = apply_d(d, cup1_hirsch(da, b))
            rhs = cup(da, b) - cup(b, da) + cup1_22_words(da, db, dp)
            if lhs != rhs:
                res.failures.append(f"case {i} (da1b)")
                continue
        if not (da.is_zero() or db.is_zero()):
            lhs = apply_d(d, circ_22(da, db))
            rhs = cup1_22_words(da, db, dp) + cup1_22_words(db, da, dp)
            if lhs != rhs:
                res.failures.append(f"case {i} (dadb)")
    return res


def suite_simplicial_steenrod(cases: int = 200, seed: int = 0,
                              ring: RingSpec = Z) -> SuiteResult:
    """delta(a cup1 b) = -ab - ba + da cup1 b + db cup1 a - da circ db on
    presentation complexes, for a, b with decomposable coboundaries
    (generated from H^1 cocycles via zeta and cup1)."""
    rng = random.Random(seed)
    pc = presentation_complex(borromean_presentation(1))
    X = pc.delta
    duals = [pc.dual_cochain(g, ring) for g in pc.group.generators]
    res = SuiteResult("simplicial-steenrod", cases)

    def random_cocycle():
        c = Cochain(1, ring, {})
        for u in duals:
            c = c + u.scale(rng.randint(-2, 2))
        return c

    def decomposable(seed_c):
        kind = rng.choice(("zeta2", "zeta3", "cup1"))
        if kind == "cup1":
            other = random_cocycle()
            a = cup1_cochain(X, seed_c, other)
            dec = [(seed_c, other, -1), (other, seed_c, -1)]
            return a, dec
        k = 2 if kind == "zeta2" else 3
        if ring.is_modular and k > ring.max_zeta:
            k = ring.max_zeta
        a = zeta_cochain(X, seed_c, k)
        dec = [(zeta_cochain(X, seed_c, l), zeta_cochain(X, seed_c, k - l),
                -1) for l in range(1, k)]
        return a, dec

    for i in range(cases):
        a, dec_a = decomposable(random_cocycle())
        b, dec_b = decomposable(random_cocycle())
        lhs = coboundary(X, cup1_cochain(X, a, b))
        rhs = (-cup_cochain(X, a, b) - cup_cochain(X, b, a)
               + cup1_21_from_decomposition(X, dec_a, b)
               + cup1_21_from_decomposition(X, dec_b, a)
               - cup2_cochain(X, coboundary(X, a), coboundary(X, b)))
        if lhs != rhs:
            res.failures.append(f"case {i}")
    return res


def suite_tensor_interval(cases: int = 200, seed: int = 0,
                          ring: RingSpec = Z) -> SuiteResult:
    """Cup-one rules of C*(X;R) (x) C*(I;R): slotwise products, vanishing
    mixed terms, d^2 = 0."""
    rng = random.Random(seed)
    pc = presentation_complex(borromean_presentation(1))
    X = pc.delta
    cyl = Cylinder(X, ring)
    res = SuiteResult("tensor-with-interval", cases)
    zero1 = Cochain(1, ring, {})
    zero0 = Cochain(0, ring, {})
    for i in range(cases):
        a = Cochain(1, ring, {c: rng.randint(-2, 2) for c in X.cells[1]})
        b = Cochain(1, ring, {c: rng.randint(-2, 2) for c in X.cells[1]})
        g = Cochain(0, ring, {v: rng.randint(-2, 2) for v in X.cells[0]})
        h = Cochain(0, ring, {v: rng.randint(-2, 2) for v in X.cells[0]})
        at0 = CylEl(1, a, zero1, zero0)
        bt0 = CylEl(1, b, zero1, zero0)
        at1 = CylEl(1, zero1, a, zero0)
        bt1 = CylEl(1, zero1, b, zero0)
        gu = CylEl(1, zero1, zero1, g)
        hu = CylEl(1, zero1, zero1, h)
        ok = True
        got = cyl.cup1(at0, bt0)
        ok &= got.f0 == cup1_cochain(X, a, b) and got.f1.is_zero() \
            and got.g.is_zero()
        got = cyl.cup1(at1, bt1)
        ok &= got.f1 == cup1_cochain(X, a, b) and got.f0.is_zero()
        ok &= cyl.is_zero(cyl.cup1(at0, bt1))
        ok &= cyl.is_zero(cyl.cup1(at0, hu))
        ok &= cyl.is_zero(cyl.cup1(gu, bt1))
        ok &= cyl.cup1(gu, hu).g == cup_cochain(X, g, h)
        x = CylEl(1, a, b, g)
        ok &= cyl.is_zero(cyl.d(cyl.d(x)))
        if not ok:
            res.failures.append(f"case {i}")
    return res


def suite_binomial_laws(cases: int = 200, seed: int = 0,
                        ring: RingSpec = Z) -> SuiteResult:
    """Product law via evaluation and the zeta addition law; over Z_p
    exponents and k stay at most p - 1 and evaluations compare mod p."""
    rng = random.Random(seed)
    names = ("x", "y", "w")
    res = SuiteResult("binomial-laws", cases)
    top = ring.max_zeta
    e_cap, k_cap = (4, 6) if top is None else (min(4, top), min(6, top))
    for i in range(cases):
        u = BinomialPoly.zero(ring)
        v = BinomialPoly.zero(ring)
        for _ in range(rng.randint(1, 4)):
            iu = MultiIndex((n, rng.randint(0, e_cap)) for n in names)
            iv = MultiIndex((n, rng.randint(0, e_cap)) for n in names)
            u = u + BinomialPoly.zeta_monomial(ring, iu, rng.randint(-3, 3))
            v = v + BinomialPoly.zeta_monomial(ring, iv, rng.randint(-3, 3))
        prod = u * v
        pt = {n: rng.randint(-6, 6) for n in names}
        if prod.evaluate(pt) != ring.normalize(u.evaluate(pt)
                                               * v.evaluate(pt)):
            res.failures.append(f"case {i} (product)")
            continue
        k = rng.randint(1, k_cap)
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
        law = zeta_add_expand(k, ring)
        if law.evaluate({"a": a, "b": b}) != binom_of(a + b, k, ring):
            res.failures.append(f"case {i} (addition)")
    return res


ALL_SUITES = [
    suite_hirsch,
    suite_circ_op,
    suite_c0d,
    suite_cup1_d,
    suite_da1b_dadb,
    suite_simplicial_steenrod,
    suite_tensor_interval,
    suite_binomial_laws,
]


def run_all_suites(cases: int = 200, seed: int = 0,
                   ring: RingSpec = Z) -> list[SuiteResult]:
    return [fn(cases, seed, ring) for fn in ALL_SUITES]
