"""The free binomial cup-one graded algebra T_R(X) in degrees <= 3.

Elements are sparse combinations of tensor words whose factors are
zeta-basis monomials of Int(R^X) with zero constant term.  Degree-0
terms are scalars (the empty word).  The cup product is word
concatenation; the cup-one product on degree 1 is the polynomial
product; the remaining cup-one and circle maps follow the Hirsch-style
slot formulas, with the mixed-degree variants taking the canonical
decompositions of differentials supplied by the caller.

The products behind d-values build no polynomial per term: circ_22
multiplies two basis monomials by reading their cached ``mono_product``
tuple (cached under the factors in call order, so a hit is one lookup),
and cup1_hirsch / cup1_31 multiply each distinct slot factor by v once
per call (through ``BinomialPoly.__mul__``), reusing the product for
every word and slot that holds the factor.  The results of this module's
own arithmetic already have distinct, valid words, so ``_tidy``, which
both classes take from ``rings.Combination``, builds them, only
normalizing coefficients; the constructors validate outside input.
"""
from __future__ import annotations

from .rings import (UNIT_INDEX, BinomialPoly, Combination, InternalError,
                    MultiIndex, RingSpec, mono_product)

Word = tuple  # tuple of MultiIndex, none of them the unit

DEGREE_CAP = 4  # degree 4 arises only transiently inside d^2 checks


class TensorElem(Combination):
    """Sparse element of T_R(X); may mix degrees (words of any length)."""

    __slots__ = ()

    def __init__(self, ring: RingSpec, terms=None):
        self.ring = ring
        self.terms = self._summed(ring, terms)
        for word in self.terms:
            if len(word) > DEGREE_CAP:
                raise ValueError(f"degree cap {DEGREE_CAP} exceeded")
            for f in word:
                if f.is_unit:
                    raise ValueError("unit factor in tensor word")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "TensorElem":
        return cls(ring, {})

    @classmethod
    def scalar(cls, ring: RingSpec, c: int) -> "TensorElem":
        return cls(ring, {(): c})

    @classmethod
    def gen(cls, ring: RingSpec, name: str) -> "TensorElem":
        return cls(ring, {(MultiIndex.single(name),): 1})

    @classmethod
    def from_poly(cls, p: BinomialPoly) -> "TensorElem":
        if not p.is_constant_free():
            raise ValueError("degree-1 elements must have zero constant term")
        return cls(p.ring, {(idx,): c for idx, c in p.terms.items()})

    @classmethod
    def word(cls, ring: RingSpec, factors, c: int = 1) -> "TensorElem":
        return cls(ring, {tuple(factors): c})

    # -- basics --------------------------------------------------------

    def degree(self) -> int:
        degs = {len(w) for w in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"inhomogeneous element, degrees {sorted(degs)}")
        return degs.pop()

    def to_poly(self) -> BinomialPoly:
        if any(len(w) != 1 for w in self.terms):
            raise ValueError("only degree-1 elements convert to polynomials")
        return BinomialPoly._tidy(self.ring, [(w[0], c) for w, c
                                              in self.terms.items()])

    def weight_of(self) -> tuple[int, int]:
        """(min, max) total zeta-weight over the words."""
        if not self.terms:
            return (0, 0)
        weights = [sum(f.weight for f in w) for w in self.terms]
        return (min(weights), max(weights))

    def support_names(self) -> tuple:
        names = set()
        for w in self.terms:
            for f in w:
                names.update(f.support)
        return tuple(sorted(names))

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (len(kv[0]),
                                      [f.sort_key() for f in kv[0]]))

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            if not w:
                parts.append(str(c))
                continue
            body = " T ".join(
                "*".join(f"z({n},{e})" for n, e in f.entries) for f in w)
            parts.append(f"{c} * {body}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.render()}>"


# ---------------------------------------------------------------------------
# products

def cup(u: TensorElem, v: TensorElem) -> TensorElem:
    """Concatenation product; the empty word is the unit."""
    u._check(v)
    out: dict[Word, int] = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
    prod = TensorElem._tidy(u.ring, out.items())
    if any(len(w) > DEGREE_CAP for w in prod.terms):
        raise ValueError(f"degree cap {DEGREE_CAP} exceeded")
    return prod


def cup1_deg1(u: TensorElem, v: TensorElem) -> TensorElem:
    """a cup1 b = ab on degree-1 elements (commutative, associative)."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 1 or v.degree() != 1:
        raise ValueError("cup1_deg1 requires two degree-1 elements")
    return TensorElem.from_poly(u.to_poly() * v.to_poly())


def zeta_apply(u: TensorElem, k: int) -> TensorElem:
    """zeta_k computed in the binomial ring R + T^1."""
    if k == 0:
        return TensorElem.scalar(u.ring, 1)
    if not u.is_zero() and u.degree() != 1:
        raise ValueError("zeta applies to degree-1 elements")
    p = u.to_poly() if not u.is_zero() else BinomialPoly.zero(u.ring)
    return TensorElem.from_poly(p.zeta(k))


def _word_poly(ring: RingSpec, idx: MultiIndex) -> BinomialPoly:
    """The basis monomial zeta_idx, for an index valid over ring."""
    return BinomialPoly._tidy(ring, ((idx, 1),))


def _slot_products(u: TensorElem, vp: BinomialPoly, slots: int) -> TensorElem:
    """Sum over words w of u and slots s < ``slots`` of w with w[s]
    multiplied by vp (expanded); each distinct factor is multiplied once."""
    ring = u.ring
    prods: dict[MultiIndex, tuple] = {}
    out: dict[Word, int] = {}
    get = out.get
    for w, c in u.terms.items():
        for slot in range(slots):
            f = w[slot]
            prod = prods.get(f)
            if prod is None:
                terms = (_word_poly(ring, f) * vp).terms
                if UNIT_INDEX in terms:
                    raise InternalError(
                        "constant-free product grew a constant")
                prod = prods[f] = tuple(terms.items())
            if slots == 2:  # each word in one tuple display
                a, b = w
                for idx, cc in prod:
                    nw = (a, idx) if slot else (idx, b)
                    out[nw] = get(nw, 0) + c * cc
                continue
            pre, post = w[:slot], w[slot + 1:]
            for idx, cc in prod:
                nw = pre + (idx,) + post
                out[nw] = get(nw, 0) + c * cc
    return TensorElem._tidy(ring, out.items())


def cup1_hirsch(u: TensorElem, v: TensorElem) -> TensorElem:
    """(a x b) cup1 c = ac x b + a x bc, extended bilinearly; (2,1)."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 2 or v.degree() != 1:
        raise ValueError("cup1_hirsch requires degrees (2, 1)")
    return _slot_products(u, v.to_poly(), 2)


def cup1_31(u: TensorElem, v: TensorElem) -> TensorElem:
    """(u1 x u2 x u3) cup1 v distributes over the three slots; (3,1)."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 3 or v.degree() != 1:
        raise ValueError("cup1_31 requires degrees (3, 1)")
    return _slot_products(u, v.to_poly(), 3)


def _decompose(t: TensorElem) -> list[tuple[BinomialPoly, BinomialPoly, int]]:
    """Canonical decomposition of a degree-2 element as sum of cup pairs.

    Each word zeta_I x zeta_J with coefficient c is read as the cup
    product (c * zeta_I) cup (zeta_J); the coefficient rides along so the
    correction sums in the mixed-degree formulas stay exact.
    """
    ring = t.ring
    out = []
    for w, c in t.sorted_terms():
        if len(w) != 2:
            raise ValueError("decomposition requires a degree-2 element")
        out.append((_word_poly(ring, w[0]), _word_poly(ring, w[1]), c))
    return out


def _add_products(out: dict, c: int, parts) -> None:
    """Add c * (p0 cup p1 cup p2) to out, for a triple of BinomialPolys."""
    p0, p1, p2 = parts
    for i0, c0 in p0.terms.items():
        for i1, c1 in p1.terms.items():
            for i2, c2 in p2.terms.items():
                cc = c * c0 * c1 * c2
                if cc:
                    w = (i0, i1, i2)
                    out[w] = out.get(w, 0) + cc


def cup1_22_words(a: TensorElem, b: TensorElem, d_of_poly) -> TensorElem:
    """(a1 cup a2) cup1 (b1 cup b2), bilinear over basis words.

    ``d_of_poly`` maps a degree-1 BinomialPoly to its differential as a
    TensorElem of degree 2 (the canonical decompositions of d a1, d a2
    are read from it).
    """
    a._check(b)
    if a.is_zero() or b.is_zero():
        return TensorElem.zero(a.ring)
    if a.degree() != 2 or b.degree() != 2:
        raise ValueError("cup1_22 requires degrees (2, 2)")
    ring = a.ring
    out: dict[Word, int] = {}

    for wa, ca in a.terms.items():
        a1p, a2p = _word_poly(ring, wa[0]), _word_poly(ring, wa[1])
        da1 = _decompose(d_of_poly(a1p))
        da2 = _decompose(d_of_poly(a2p))
        for wb, cb in b.terms.items():
            c = ca * cb
            b1p, b2p = _word_poly(ring, wb[0]), _word_poly(ring, wb[1])
            _add_products(out, -c, (a1p, b1p * a2p, b2p))
            _add_products(out, -c, (a1p, b1p, b2p * a2p))
            for p, q, cc in da2:
                _add_products(out, c * cc, (a1p, p * b1p, q * b2p))
            _add_products(out, c, (b1p * a1p, b2p, a2p))
            _add_products(out, c, (b1p, b2p * a1p, a2p))
            for p, q, cc in da1:
                _add_products(out, -c * cc, (p * b1p, q * b2p, a2p))
    return TensorElem(ring, out)


def circ_22(u: TensorElem, v: TensorElem) -> TensorElem:
    """(a1 x a2) circ (b1 x b2) = a1 b1 x a2 b2; (2,2) -> 2."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 2 or v.degree() != 2:
        raise ValueError("circ_22 requires degrees (2, 2)")
    ring = u.ring
    out: dict[Word, int] = {}
    get = out.get
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            c = c1 * c2
            p = mono_product(ring, w1[0], w2[0])
            q = mono_product(ring, w1[1], w2[1])
            for i0, a in p:
                for i1, b in q:
                    if i0 is UNIT_INDEX or i1 is UNIT_INDEX:
                        raise InternalError(
                            "constant-free product grew a constant")
                    w = (i0, i1)
                    out[w] = get(w, 0) + c * a * b
    return TensorElem._tidy(ring, out.items())


def circ_23_words(a: TensorElem, v: TensorElem, d_of_poly) -> TensorElem:
    """(a1 cup a2) circ (v1 cup v2 cup v3); needs the decomposition of d a1."""
    a._check(v)
    if a.is_zero() or v.is_zero():
        return TensorElem.zero(a.ring)
    if a.degree() != 2 or v.degree() != 3:
        raise ValueError("circ_23 requires degrees (2, 3)")
    ring = a.ring
    out: dict[Word, int] = {}

    for wa, ca in a.terms.items():
        a1p, a2p = _word_poly(ring, wa[0]), _word_poly(ring, wa[1])
        da1 = _decompose(d_of_poly(a1p))
        for wv, cv in v.terms.items():
            c = ca * cv
            v1p, v2p, v3p = (_word_poly(ring, wv[i]) for i in range(3))
            _add_products(out, c, (a1p * v1p, a2p * v2p, v3p))
            _add_products(out, c, (a1p * v1p, v2p, a2p * v3p))
            _add_products(out, c, (v1p, a1p * v2p, a2p * v3p))
            for p, q, cc in da1:
                _add_products(out, -c * cc, (p * v1p, q * v2p, a2p * v3p))
    return TensorElem(ring, out)


def circ_32_words(u: TensorElem, b: TensorElem, d_of_poly) -> TensorElem:
    """(u1 cup u2 cup u3) circ (b1 cup b2); needs the decomposition of d b2."""
    u._check(b)
    if u.is_zero() or b.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 3 or b.degree() != 2:
        raise ValueError("circ_32 requires degrees (3, 2)")
    ring = u.ring
    out: dict[Word, int] = {}

    for wb, cb in b.terms.items():
        b1p, b2p = _word_poly(ring, wb[0]), _word_poly(ring, wb[1])
        db2 = _decompose(d_of_poly(b2p))
        for wu, cu in u.terms.items():
            c = cu * cb
            u1p, u2p, u3p = (_word_poly(ring, wu[i]) for i in range(3))
            _add_products(out, c, (u1p, u2p * b1p, u3p * b2p))
            _add_products(out, c, (u1p * b1p, u2p * b2p, u3p))
            _add_products(out, c, (u1p * b1p, u2p, u3p * b2p))
            for p, q, cc in db2:
                _add_products(out, -c * cc, (u1p * b1p, u2p * p, u3p * q))
    return TensorElem(ring, out)
