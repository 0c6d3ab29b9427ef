"""Magma laws mu_tau on M(X, R) from 2-tensor assignments, their group
axioms, and extensions of finite magmas by abelian groups along
2-cochains.  Over Z_p a law is a finite magma (``delta.FiniteMagma``);
over Z it is checked on a sampled box."""
from __future__ import annotations

import random
from itertools import product as iproduct, repeat
from operator import mul

from .delta import FiniteMagma
from .rings import (BinomialPoly, MultiIndex, PreconditionError, RingSpec,
                    eval_index)
from .tensor import TensorElem


class MagmaLaw:
    """mu_tau(a, a') = a + a' - f_tau(a, a') on M(X, R).

    tau maps each generator to a degree-2 TensorElem over the other
    generators; elements are coordinate tuples aligned with ``gens``.
    """

    def __init__(self, gens: list[str], tau: dict[str, TensorElem],
                 ring: RingSpec):
        self.gens = list(gens)
        self.ring = ring
        self.tau = {g: tau.get(g) for g in gens}
        for g, t in self.tau.items():
            if t is not None and not t.is_zero() and t.degree() != 2:
                raise PreconditionError(f"tau({g}) must have degree 2")

    def f_tau(self, a, b) -> tuple:
        pa, pb = dict(zip(self.gens, a)), dict(zip(self.gens, b))
        ring = self.ring
        out = []
        for g in self.gens:
            t = self.tau.get(g)
            total = 0
            for (i1, i2), c in (t.terms.items() if t is not None else ()):
                v = c * eval_index(i1, pa, ring)
                if v:
                    total += v * eval_index(i2, pb, ring)
            out.append(ring.normalize(total))
        return tuple(out)

    def apply(self, a, b) -> tuple:
        f = self.f_tau(a, b)
        return tuple(self.ring.normalize(x + y - z)
                     for x, y, z in zip(a, b, f))

    def law_polynomials(self) -> dict[str, BinomialPoly]:
        """Symbolic law: mu(a, a')(x) as a polynomial in the generator
        values and their primed copies."""
        out = {}
        for gi, g in enumerate(self.gens):
            p = (BinomialPoly.gen(self.ring, g)
                 + BinomialPoly.gen(self.ring, g + "'"))
            t = self.tau.get(g)
            if t is not None and not t.is_zero():
                for word, c in t.terms.items():
                    i1, i2 = word
                    left = BinomialPoly._tidy(self.ring, [(i1, 1)])
                    primed = MultiIndex((n + "'", e) for n, e in i2.entries)
                    right = BinomialPoly._tidy(self.ring, [(primed, 1)])
                    p = p - (left * right).scale(c)
            out[g] = p
        return out

    def to_finite_magma(self) -> FiniteMagma:
        """Z_p^n under mu_tau, its elements in ``iproduct`` order, so that
        (a_0, ..., a_{n-1}) sits at position sum_g a_g p^(n-1-g).  The
        table is written from per-point tables, a row at a time: each index
        of tau is evaluated once per element, and coordinate g of ab is
        (a_g + b_g - sum_t c_t I_t(a) J_t(b)) mod p over the terms
        c_t [I_t|J_t] of tau(g)."""
        if not self.ring.is_modular:
            raise PreconditionError("finite carrier requires Z_p")
        ring, p, n = self.ring, self.ring.p, len(self.gens)
        elements = [tuple(t) for t in iproduct(range(p), repeat=n)]
        points = [dict(zip(self.gens, e)) for e in elements]
        taus = [t.terms if t is not None else {} for t in self.tau.values()]
        at = {idx: [eval_index(idx, x, ring) for x in points]
              for idx in {i for words in taus for word in words for i in word}}
        # per g: (c, I at each a, J at each b) over the terms c [I|J]
        terms = [[(c, at[i1], at[i2]) for (i1, i2), c in words.items()]
                 for words in taus]
        # sums[g][s]: coordinate g of s + b over the elements b; plain[g][s]
        # the same times p^(n-1-g), its share of the position of s + b.
        weights = [p ** (n - 1 - g) for g in range(n)]
        sums = [[[(s + b[g]) % p for b in elements] for s in range(p)]
                for g in range(n)]
        plain = [[[w * v for v in col] for col in cols]
                 for w, cols in zip(weights, sums)]
        zero = [0] * len(elements)  # a row even when n = 0
        prod = []
        for x, a in enumerate(elements):
            cols = [zero]
            for g, ts in enumerate(terms):
                fs = [map(mul, right, repeat(c * left[x]))
                      for c, left, right in ts if left[x]]
                if not fs:
                    cols.append(plain[g][a[g]])
                    continue
                f = fs[0] if len(fs) == 1 else map(sum, zip(*fs))
                w = weights[g]
                cols.append([w * ((u - v) % p)
                             for u, v in zip(sums[g][a[g]], f)])
            prod.append(list(map(sum, zip(*cols))))
        name = lambda e: ",".join(str(x) for x in e)
        return FiniteMagma.from_table(elements, prod, unit=elements[0],
                                      name_fn=name)


class AdmissibilityVerdict:
    def __init__(self, status: str, counterexample: tuple | None = None):
        # "admissible" | "not-associative" | "no-counterexample-found"
        self.status = status
        self.counterexample = counterexample

    @property
    def ok(self) -> bool:
        return self.status in ("admissible", "no-counterexample-found")


def check_admissible(m, box: int = 4, samples: int = 200,
                     seed: int = 0) -> AdmissibilityVerdict:
    """Exhaustive associativity check on finite carriers; sampled integer
    box over Z (which can only ever report 'no counterexample found')."""
    if isinstance(m, FiniteMagma):
        witness = m.associativity_counterexample()
        if witness is None:
            return AdmissibilityVerdict("admissible")
        return AdmissibilityVerdict("not-associative", witness)
    if not isinstance(m, MagmaLaw):
        raise TypeError("expected FiniteMagma or MagmaLaw")
    if m.ring.is_modular:
        return check_admissible(m.to_finite_magma())
    rng = random.Random(seed)
    n = len(m.gens)
    for _ in range(samples):
        a, b, c = (tuple(rng.randint(-box, box) for _ in range(n))
                   for _ in range(3))
        if m.apply(m.apply(a, b), c) != m.apply(a, m.apply(b, c)):
            return AdmissibilityVerdict("not-associative", (a, b, c))
    return AdmissibilityVerdict("no-counterexample-found")


def extension_magma(m: FiniteMagma, moduli: tuple[int, ...],
                    nu: dict) -> tuple[FiniteMagma, tuple | None]:
    """Extension of (M, mu) by the abelian group prod Z_{m_i} along nu.

    ``nu`` maps ordered pairs of M-elements to B-tuples.  Returns the
    extension magma and an associativity counterexample (None when nu is
    a cocycle, by the coboundary formula on Delta(M))."""

    def nu_val(a, b):
        v = nu.get((a, b))
        return tuple(v) if v is not None else tuple(0 for _ in moduli)

    def badd(x, y):
        return tuple((p + q) % mm for p, q, mm in zip(x, y, moduli))

    elements = [(a, t) for a in m.elements
                for t in iproduct(*(range(mm) for mm in moduli))]

    def op(x, y):
        (a1, b1), (a2, b2) = x, y
        return (m.op(a1, a2), badd(badd(b1, b2), nu_val(a1, a2)))

    unit = None
    if m.unit is not None:
        unit = (m.unit, tuple(0 for _ in moduli))
    name = lambda e: f"{m.name_fn(e[0])};{','.join(str(x) for x in e[1])}"
    ext = FiniteMagma(elements, op, unit=unit, name_fn=name)
    return ext, ext.associativity_counterexample()
