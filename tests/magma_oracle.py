"""The cubic associativity scan and the apply-built product table of a
magma law, which Light's test (``FiniteMagma.associativity_counterexample``)
and the per-point tables of ``MagmaLaw.to_finite_magma`` replaced, kept
as their test oracles.

The scan is the library's as it was: every triple of positions, one at a
time, in element order.
"""
from itertools import product as iproduct

from cupone.delta import FiniteMagma


def associativity_counterexample(m: FiniteMagma):
    """The first (a, b, c) in element order with (ab)c != a(bc), or None."""
    prod, e = m.prod, m.elements
    for a, row_a in enumerate(prod):
        for b, row_b in enumerate(prod):
            row_ab = prod[row_a[b]]
            for c, bc in enumerate(row_b):
                if row_ab[c] != row_a[bc]:
                    return (e[a], e[b], e[c])
    return None


def apply_table(law) -> list[list[int]]:
    """The product table of mu_tau on Z_p^n, one ``law.apply`` per pair of
    elements, in ``iproduct`` order."""
    elements = [tuple(t) for t in iproduct(range(law.ring.p),
                                           repeat=len(law.gens))]
    return FiniteMagma(elements, law.apply).prod
