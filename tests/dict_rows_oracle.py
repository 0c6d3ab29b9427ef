"""GF(p) cohomology of a Delta-set on dict columns and dict relations.

For p <= 13 ``segment_cohomology`` writes the columns of delta^k packed,
on the generator rows when the complex records them, and its kernel
relations stay packed on their way into the quotient.  This is the path
that it replaced, kept as the oracle: sparse dict columns of delta^k on
every (k+1)-cell, kernel relations as dicts from
``ZpEliminator.insert_relation``, and a quotient fed those dicts.

``kernel_mod_p`` reads the kernel relations of the library's path as
dicts, for tests.

``DictRowsOracle`` is the dict-row ``ZpEliminator`` as it was before dict
rows took the packed design: each pivot row a pair of dicts, column ->
value and tag -> coefficient, reduced side by side.  The library's
eliminator, whose dict rows keep their tags in slots above ``width``, is
held to it operation by operation.
"""
from cupone import linalg
from cupone.delta import coboundary_cols_sparse
from cupone.linalg import AbelianInvariants, CohomologyData, ZpEliminator
from cupone.rings import InternalError, PreconditionError


def kernel_mod_p(p: int, cols: list, width: int) -> list[dict[int, int]]:
    """The relations of ``linalg._kernel_rows`` as sparse dicts column ->
    coefficient: one per column that depends on the earlier ones, with
    coefficient 1 at that column."""
    ker = linalg._kernel_rows(p, cols, width)
    return [dict(linalg._entries(p, rel)) for rel in ker]


class DictRowsOracle:
    """Row space over GF(p) on dict rows, each stored beside the dict of
    its combination over the tagged rows."""

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.pivots: dict[int, object] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec, tag=None) -> bool:
        """Insert a row; returns True when it enlarged the space."""
        return self.insert_relation(vec, tag) is None

    def insert_relation(self, vec: dict[int, int], tag=None) -> dict | None:
        """Insert a row, or return the relation that makes it redundant.

        None means the row enlarged the space.  Otherwise nothing is
        stored and the result maps tag -> c such that the new row plus
        sum c_t row_t over the earlier tagged rows is 0 modulo the untagged
        rows; a tagged new row is listed too, under ``tag`` with c = 1.  So
        one reduction both tests a row and yields its relation.
        """
        p = self.p
        vec, expr = self._reduce(vec, {} if tag is None else {tag: 1})
        if not vec:
            return expr
        lead = min(vec)
        if vec[lead] != 1:
            inv = pow(vec[lead], p - 2, p)
            vec = {j: (v * inv) % p for j, v in vec.items()}
            expr = {t: (c * inv) % p for t, c in expr.items()}
        self.pivots[lead] = (vec, expr)
        return None

    def express(self, vec: dict[int, int]) -> dict | None:
        """Write vec as a combination of tagged rows modulo untagged ones.

        Returns tag -> coefficient, negated to solve  vec = sum c_t row_t,
        or None when vec is not in the row space.
        """
        p = self.p
        out, expr = self._reduce(vec, {})
        if out:
            return None
        return {t: (-c) % p for t, c in expr.items()}

    def annihilator(self, width: int) -> list[dict[int, int]]:
        """Basis of the functionals on GF(p)^width that vanish on the row
        space: one per non-pivot column f, equal to 1 at f and 0 at the
        other non-pivot columns.  Back-substitution through the pivot rows
        in descending lead order fixes the value at each pivot column."""
        p = self.p
        free = [f for f in range(width) if f not in self.pivots]
        # at[c]: functional index -> value at column c
        at: dict[int, dict[int, int]] = {f: {j: 1} for j, f in enumerate(free)}
        for lead in sorted(self.pivots, reverse=True):
            row = self.pivots[lead]
            acc: dict[int, int] = {}
            for c, v in row[0].items():
                if c == lead:
                    continue
                for j, y in at.get(c, {}).items():
                    acc[j] = (acc.get(j, 0) - v * y) % p
            at[lead] = {j: y for j, y in acc.items() if y}
        out: list[dict[int, int]] = [{} for _ in free]
        for c in sorted(at):
            for j, y in at[c].items():
                out[j][c] = y
        return out

    def _top_column(self, vec: dict[int, int]) -> int:
        """The greatest column of a nonempty vec.  A column outside
        0..width-1 would be stored or dropped silently, so it raises."""
        lo, hi = min(vec), max(vec)
        if lo < 0 or hi >= self.width:
            raise InternalError(f"column index {lo if lo < 0 else hi} "
                                f"outside 0..{self.width - 1}")
        return hi

    def _reduce(self, vec: dict[int, int], expr: dict) -> tuple[dict, dict]:
        p = self.p
        if vec:
            self._top_column(vec)
        vec = {j: v % p for j, v in vec.items() if v % p}
        while vec:
            lead = min(vec)
            hit = self.pivots.get(lead)
            if hit is None:
                break
            prow, pexpr = hit
            f = vec[lead]
            for j, v in prow.items():
                nv = (vec.get(j, 0) - f * v) % p
                if nv:
                    vec[j] = nv
                else:
                    vec.pop(j, None)
            for tag, c in pexpr.items():
                nc = (expr.get(tag, 0) - f * c) % p
                if nc:
                    expr[tag] = nc
                else:
                    expr.pop(tag, None)
        return vec, expr


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
