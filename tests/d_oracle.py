"""Direct computations that the library replaced, kept as test oracles.

``apply_d`` is the Leibniz rule as first written: one slot loop for
every word length, with signed coefficients, and the result through the
validating ``TensorElem`` constructor.  The library's
``cupone.differential.apply_d`` builds the 3-words of two-factor words
directly and skips the validation; its terms (and their order) must be
the same.

``cup1_hirsch`` and ``circ_22`` are the products behind d-values as
they were first written: every slot product and every product of two
basis monomials goes through one-term ``BinomialPoly`` objects and
``BinomialPoly.__mul__``, and every result through the validating
``TensorElem`` constructor.  The library's versions must give the same
terms in the same order.

``d_cup1`` is the cup1-d formula as chained ``TensorElem`` additions;
the library's ``Differential._d_cup1`` adds the parts into one dict.

``check_d_squared`` is the d^2 audit as first written: a generator loop
and an index loop, each taking ``apply_d`` afresh.  The library's audit
reuses d^2(x) for the index zeta_1(x), whose d-value is tau(x); its
report must be the same.
"""
from __future__ import annotations

from cupone import differential, tensor
from cupone.differential import Differential, DSquaredReport, iter_indices
from cupone.rings import BinomialPoly, InternalError
from cupone.tensor import TensorElem


def apply_d(d: Differential, u: TensorElem) -> TensorElem:
    """Extend d over words by the graded Leibniz rule
    d(a cup b) = da cup b + (-1)^{|a|} a cup db."""
    ring = d.ring
    acc: dict = {}
    for word, c in u.terms.items():
        if len(word) > 3:
            raise ValueError("degree cap exceeded in apply_d")
        for slot in range(len(word)):
            dv = d.d_index(word[slot])
            if dv.is_zero():
                continue
            sign = -1 if slot % 2 else 1
            pre = word[:slot]
            post = word[slot + 1:]
            for wmid, cm in dv.terms.items():
                w = pre + wmid + post
                acc[w] = acc.get(w, 0) + c * cm * sign
    return TensorElem(ring, acc)


def _monomial(ring, idx) -> BinomialPoly:
    return BinomialPoly.zeta_monomial(ring, idx)


def _slot_mul(ring, word, coeff, slot, p, out):
    """Accumulate word with word[slot] multiplied by p (expanded)."""
    base = _monomial(ring, word[slot]) * p
    for idx, c in base.terms.items():
        if idx.is_unit:
            raise InternalError("constant-free product grew a constant")
        w = word[:slot] + (idx,) + word[slot + 1:]
        out[w] = out.get(w, 0) + coeff * c


def cup1_hirsch(u: TensorElem, v: TensorElem) -> TensorElem:
    """(a x b) cup1 c = ac x b + a x bc, one slot product per word."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 2 or v.degree() != 1:
        raise ValueError("cup1_hirsch requires degrees (2, 1)")
    ring = u.ring
    vp = v.to_poly()
    out: dict = {}
    for w, c in u.terms.items():
        _slot_mul(ring, w, c, 0, vp, out)
        _slot_mul(ring, w, c, 1, vp, out)
    return TensorElem(ring, out)


def circ_22(u: TensorElem, v: TensorElem) -> TensorElem:
    """(a1 x a2) circ (b1 x b2) = a1 b1 x a2 b2 through BinomialPoly."""
    u._check(v)
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    if u.degree() != 2 or v.degree() != 2:
        raise ValueError("circ_22 requires degrees (2, 2)")
    ring = u.ring
    out: dict = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            p = _monomial(ring, w1[0]) * _monomial(ring, w2[0])
            q = _monomial(ring, w1[1]) * _monomial(ring, w2[1])
            for i0, a in p.terms.items():
                for i1, b in q.terms.items():
                    w = (i0, i1)
                    out[w] = out.get(w, 0) + c1 * c2 * a * b
    return TensorElem(ring, out)


def d_cup1(self: Differential, a: TensorElem, b: TensorElem,
           da: TensorElem, db: TensorElem) -> TensorElem:
    """The cup1-d formula by chained ``TensorElem`` additions, as
    ``Differential._d_cup1`` was first written; patch it in over the
    method.  The parts are the library's products."""
    out = (-tensor.cup(a, b)) + (-tensor.cup(b, a))
    if not da.is_zero():
        out = out + tensor.cup1_hirsch(da, b)
    if not db.is_zero():
        out = out + tensor.cup1_hirsch(db, a)
    if not (da.is_zero() or db.is_zero()):
        out = out - tensor.circ_22(da, db)
    return out


def check_d_squared(d: Differential, weight_cap: int = 6) -> DSquaredReport:
    """d^2 = 0 on generators and on the zeta basis up to weight_cap, one
    ``apply_d`` per generator and per index."""
    names = list(d.gens.names)
    failures = []
    checked = 0
    for name in names:
        val = differential.apply_d(d, d.tau[name])
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2({name})", val))
    for idx in iter_indices(names, weight_cap, d.ring.max_zeta):
        val = differential.apply_d(d, d.d_index(idx))
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2(zeta_{idx!r})", val))
    return DSquaredReport(passed=not failures, checked=checked,
                          failures=failures)
