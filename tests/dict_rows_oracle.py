"""GF(p) cohomology of a Delta-set on dict columns and dict relations.

For p <= 13 ``segment_cohomology`` writes the columns of delta^k packed,
on the generator rows when the complex records them, and its kernel
relations stay packed on their way into the quotient.  This is the path
that it replaced, kept as the oracle: sparse dict columns of delta^k on
every (k+1)-cell, kernel relations as dicts from
``ZpEliminator.insert_relation``, and a quotient fed those dicts.

``kernel_mod_p`` reads the kernel relations of the library's path as
dicts, for tests.
"""
from cupone import linalg
from cupone.delta import coboundary_cols_sparse
from cupone.linalg import AbelianInvariants, CohomologyData, ZpEliminator
from cupone.rings import PreconditionError


def kernel_mod_p(p: int, cols: list, width: int) -> list[dict[int, int]]:
    """The relations of ``linalg._kernel_rows`` as sparse dicts column ->
    coefficient: one per column that depends on the earlier ones, with
    coefficient 1 at that column."""
    ker = linalg._kernel_rows(p, cols, width)
    if p > linalg.PACKED_MAX_P:
        return ker
    return [dict(linalg._entries(p, rel)) for rel in ker]


def dict_cohomology(X, ring, k: int) -> CohomologyData:
    p, n_mid = ring.p, len(X.cells[k])
    a_cols = coboundary_cols_sparse(X, k - 1, p) if k >= 1 else []
    if k < 3 and X.cells[k + 1]:
        kernel = ZpEliminator(p, len(X.cells[k + 1]))
        rels = [kernel.insert_relation(col, tag=j)
                for j, col in enumerate(coboundary_cols_sparse(X, k, p))]
        ker = [rel for rel in rels if rel is not None]
    else:
        ker = [{i: 1} for i in range(n_mid)]
    quotient = ZpEliminator(p, n_mid)
    for j, col in enumerate(a_cols):
        quotient.insert(col, tag=-1 - j)
    gens = []
    for rel in ker:
        if quotient.insert(rel, tag=len(gens)):
            vec = [0] * n_mid
            for i, x in rel.items():
                vec[i] = x
            gens.append((p, vec))

    def express(vec):
        return quotient.express({i: x for i, x in enumerate(vec) if x % p})

    def coord_fn(vec):
        combo = express(vec)
        if combo is None:
            raise PreconditionError("vector is not a cocycle")
        return [combo.get(i, 0) for i in range(len(gens))]

    def preimage_fn(vec):
        combo = express(vec)
        if combo is None or any(t >= 0 for t in combo):
            return None
        return [combo.get(-1 - j, 0) for j in range(len(a_cols))]

    return CohomologyData(ring, AbelianInvariants(0, (p,) * len(gens)), gens,
                          coord_fn, preimage_fn)
