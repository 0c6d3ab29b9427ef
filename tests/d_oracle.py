"""The Leibniz rule on MultiIndex keys, kept as the test oracle.

The library's ``cupone.differential.apply_d`` accumulates on the integer
codes of the Differential's interner.  This is the direct computation it
replaced: it hashes tuples of MultiIndex words, so it is slow on large
audits, but its terms (and their order) are the reference.
"""
from __future__ import annotations

from cupone.differential import Differential
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
