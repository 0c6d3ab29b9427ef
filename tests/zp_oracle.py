"""Brute-force Z_p cohomology of the truncation T^1 -> T^2 -> T^3.

The library computes the H^1 and H^2 of Z_p stage models from a minimal
resolution of the dual algebra (``cupone.model.resolution_cohomology_Zp``).
This is the direct computation it replaced, kept as the test oracle:
its T^2 has (p^n - 1)^2 words for n generators, so it is practical only
for small stages.
"""
from __future__ import annotations

from cupone.differential import GeneratorSet, iter_indices, zero_differential
from cupone.linalg import cohomology_sparse_zp
from cupone.rings import RingSpec
from cupone.tensor import TensorElem


def _t_basis_all(names, ring, degree: int) -> list[tuple]:
    """Full basis of T^degree over Z_p (every exponent <= p-1)."""
    cap = ring.max_zeta
    singles = list(iter_indices(names, cap * len(names), cap))

    def words(d):
        if d == 0:
            return [()]
        return [(i,) + rest for i in singles for rest in words(d - 1)]

    return words(degree)


def t_cohomology_Zp(names, ring: RingSpec, degree: int, diff=None):
    """H^degree of (T_{Z_p}(X), d) for degree 1 or 2, brute force.

    Words are integer-coded: with n1 degree-1 basis elements, the word
    (f_1, ..., f_k) is the base-n1 number of their positions, so a
    degree-2 code is its index in the T^2 basis.  All matrices stay
    sparse; degree-3 words are numbered lazily so only the image of the
    differential is ever materialized.  Returns the cohomology data, the
    T^degree basis and the generator representatives.
    """
    if degree not in (1, 2):
        raise ValueError("degrees 1 and 2 only")
    p = ring.p
    diff = diff or zero_differential(GeneratorSet(names), ring)
    b1 = _t_basis_all(names, ring, 1)
    n1 = len(b1)
    pos = {w[0]: i for i, w in enumerate(b1)}
    # Every degree-2 word differential is assembled from the single-index
    # values by the Leibniz rule.
    d1 = [[(pos[a] * n1 + pos[b], c)
           for (a, b), c in diff.d_index(w[0]).terms.items()] for w in b1]
    if degree == 1:
        i2: dict = {}
        b_cols = [{i2.setdefault(code, len(i2)): c for code, c in dv}
                  for dv in d1]
        basis, a_cols = b1, []
    else:
        basis = _t_basis_all(names, ring, 2)
        a_cols = [dict(dv) for dv in d1]
        i3: dict = {}
        number = i3.setdefault
        b_cols = []
        # d(a (x) b) = d(a) (x) b - a (x) d(b); within one half the
        # degree-3 codes are distinct, so only the second half can collide.
        for a, da in enumerate(d1):
            head = a * n1 * n1
            left = [(code * n1, c) for code, c in da]
            for b, db in enumerate(d1):
                col = {number(code + b, len(i3)): c for code, c in left}
                for code, c in db:
                    row = number(head + code, len(i3))
                    col[row] = (col.get(row, 0) - c) % p
                if len(col) < len(da) + len(db):  # the halves met
                    col = {k: v for k, v in col.items() if v}
                b_cols.append(col)
    data = cohomology_sparse_zp(ring, len(basis), a_cols, b_cols)
    reps = [TensorElem(ring, {w: c for w, c in zip(basis, vec) if c})
            for _, vec in data.generators]
    return data, basis, reps
