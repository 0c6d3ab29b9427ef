"""Exact linear algebra over Z and Z_p.

Factor once, query many.  Over Z one ``smith_normal_form`` call returns
the factor U M V = D of a matrix M (an ``SNFResult``).  It keeps no
transform matrix: the elimination logs its row operations (whose
product is U) and its column operations (whose product gives V) as
pivot blocks, one per pass that clears a pivot column or row, and each
query replays a log on one vector; unless it transposes, a replay skips
every block whose pivot coordinate is 0.  The dense U, V, Uinv and Vinv
are built only in tests/snf_dense.py.  The same factor then serves every
``solve`` (through ``solve_Z``, with the SNF-residue certificate of
``solve_in_image``), ``kernel`` (basis vectors of ker M),
``kernel_coords`` and the ``class_coords`` of the cohomology of
three-term complexes.  The cohomology of C^{k-1} --A--> C^k --B-->
C^{k+1}, given by its matrices, factors im A once per ring and answers
both ``class_coords`` and ``preimage`` (x with A x = vec) from that
factor: over Z its Smith normal form (``cohomology_Z``), over GF(p) one
``ZpEliminator`` with the columns of A tagged (``cohomology_sparse_zp``).
``cohomology_Z`` takes its Smith factors as arguments, so that a
Delta-set can share the factor of delta^k between H^k and H^{k+1}
(``segment_cohomology``); ``cohomology_at`` is the entry for any other
pair of matrices, over either ring.  ``ClassSpan`` is the one span of
classes per ring: the submodule of a presented module R^m / (o_i e_i)
spanned by columns of class coordinates, factored once (a Smith factor
of the columns beside the relation columns o_i e_i over Z, one tagged
``ZpEliminator`` over GF(p)), whose relations, cokernel, basis test and
membership test serve the kernel and cokernel of H^2(rho_n), the H^1
and psi basis checks and the Massey indeterminacy.

``ZpEliminator`` is Gaussian elimination with combination tracking, one
algorithm for every row format: a row keeps its combination over the
tagged rows in tag slots above its columns, so one row operation updates
both.  The format follows p alone: for p <= 13 one-hot bit masks, one
Python int per nonzero value c holding the indices whose value is c (a
single mask for p = 2), so a row operation is a few AND/OR/XOR passes;
for p >= 17 dicts index -> value.  The odd-p row operation
(``rings.onehot_sub``) is written out for p = 3 and p = 5, and a loop
over the values serves p = 7 to 13.

The SNF pivot rule is smallest nonzero magnitude with ties broken by
(row, col), which keeps entry growth tame on the matrix sizes produced
by the rest of the package and makes every output deterministic.  A
pivot step searches the rows upward from its index t and stops at the
first unit, then clears the pivot column in one pass over its rows: the
pivot row is read once, each row gets its multiple in place, and the
column index changes only where an entry appears or cancels.  The logs
hold the operations that the elimination one row operation at a time
gave, which tests/snf_oracle.py keeps as the oracle, grouped by pass.
"""
from __future__ import annotations

from functools import reduce
from operator import mul, or_

from .rings import InternalError, PreconditionError, RingSpec, onehot_sub


# ---------------------------------------------------------------------------
# dense helpers

def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(m: list[list[int]], v: list[int]) -> list[int]:
    """m v, touching only the nonzero entries of v."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum(r[j] * x for j, x in nz) for r in m]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [[sum(ra[k] * b[k][j] for k in range(len(ra))) for j in range(cols)]
            for ra in a]


# ---------------------------------------------------------------------------
# Smith normal form

class SolveResult:
    def __init__(self, solution: list[int] | None,
                 certificate: dict | None):
        self.solution = solution
        self.certificate = certificate  # SNF residue witnessing unsolvability

    @property
    def ok(self) -> bool:
        return self.solution is not None


# A log entry: (t, [(i, q), ...]) adds q x_t to each x_i, i != t; (i, t)
# swaps x_i and x_t, and (i, i) negates x_i.
Op = tuple[int, "int | list[tuple[int, int]]"]


def _replay(log: list[Op], x: list[int], backward: bool = False,
            transpose: bool = False, inverse: bool = False) -> list[int]:
    """Apply the logged elementary matrices to x in place and return it.

    A block (t, [(i, q), ...]) is E = I + sum q e_i e_t^T.  Its additions
    all read x_t and write other coordinates, so they commute, and a block
    whose x_t is 0 is skipped whole.  A log E_1, ..., E_m stands for the
    product E_m ... E_1, so a forward replay multiplies x by it and a
    backward one by E_1 ... E_m.  ``transpose`` and ``inverse`` apply E^T
    or E^-1 in place of each E; a swap and a negation are their own
    transpose and inverse.
    """
    for t, adds in reversed(log) if backward else log:
        if adds.__class__ is int:
            if adds == t:
                x[t] = -x[t]
            else:
                x[t], x[adds] = x[adds], x[t]
        elif transpose:
            s = 0
            for i, q in adds:
                if x[i]:
                    s += q * x[i]
            if s:
                x[t] += -s if inverse else s
        elif x[t]:
            xt = -x[t] if inverse else x[t]
            for i, q in adds:
                x[i] += q * xt
    return x


def _unit(n: int, i: int) -> list[int]:
    x = [0] * n
    x[i] = 1
    return x


class SNFResult:
    """U M V = D, and the factor of M that every later query reuses.

    The elimination logs its operations instead of building U and V, as
    pivot blocks (entries as in ``_replay``).  ``row_ops`` holds one block
    (t, [(i, q), ...]) per pass that clears column t, for row_i += q row_t,
    so U is the forward product of the log.  ``col_ops`` holds one block
    (t, [(j, q), ...]) per pass that clears row t, for col_j += q col_t,
    which takes the transpose of the block from the right, so V is the
    transposed backward product.  A swap or a negation is its own entry
    in either log.  A query replays a log on one vector: ``u_times`` is
    U b (forward), ``u_row`` a row of U (backward, transposed),
    ``uinv_column`` a column of Uinv (backward, inverted), ``kernel``
    columns of V (backward, transposed), ``kernel_coords`` Vinv vec
    (forward, transposed and inverted), and ``solve`` both U b and V y.
    The operations do not depend on a right-hand side, so U b is exactly
    what carrying b through the elimination would give.
    """

    def __init__(self, diag: list[int], rank: int, nrows: int, ncols: int,
                 row_ops: list[Op], col_ops: list[Op]):
        self.diag, self.rank = diag, rank
        self.nrows, self.ncols = nrows, ncols
        self.row_ops, self.col_ops = row_ops, col_ops

    def u_times(self, b: list[int]) -> list[int]:
        """U b."""
        return _replay(self.row_ops, list(b))

    def u_row(self, r: int) -> list[int]:
        """Row r of U."""
        return _replay(self.row_ops, _unit(self.nrows, r), backward=True,
                       transpose=True)

    def kernel(self) -> list[list[int]]:
        """Basis vectors of the integer kernel lattice {v : M v = 0}: the
        columns of V beyond the rank."""
        return [_replay(self.col_ops, _unit(self.ncols, j), backward=True,
                        transpose=True) for j in range(self.rank, self.ncols)]

    def kernel_coords(self, vec: list[int]) -> list[int] | None:
        """Coordinates of vec in the ``kernel`` basis, or None when
        M vec != 0.  M = Uinv D Vinv, so M vec = 0 exactly when Vinv vec
        vanishes up to the rank, and then vec is V (Vinv vec)."""
        w = _replay(self.col_ops, list(vec), transpose=True, inverse=True)
        if any(w[:self.rank]):
            return None
        return w[self.rank:]

    def uinv_column(self, i: int) -> list[int]:
        """Column i of Uinv: the target basis vector whose diag[i]-fold
        spans im M in that direction (i < rank) or a free direction of
        the cokernel (i >= rank)."""
        return _replay(self.row_ops, _unit(self.nrows, i), backward=True,
                       inverse=True)

    def solve(self, b: list[int]) -> SolveResult:
        """Particular solution of M x = b, or a certificate.

        The certificate records the first Smith-normal-form residue:
        either a diagonal entry that fails to divide U b, or a nonzero
        coordinate of U b beyond the rank (divisor 0).
        """
        c = self.u_times(b)
        for i, d in enumerate(self.diag):
            r = c[i] % d
            if r:
                return SolveResult(None, {"index": i, "divisor": d,
                                          "residue": r})
        for i in range(self.rank, len(c)):
            if c[i]:
                return SolveResult(None, {"index": i, "divisor": 0,
                                          "residue": c[i]})
        y = [0] * self.ncols
        for i, d in enumerate(self.diag):
            y[i] = c[i] // d
        return SolveResult(_replay(self.col_ops, y, backward=True,
                                   transpose=True), None)


def smith_normal_form(rows: list[list[int]],
                      ncols: int | None = None) -> SNFResult:
    """U * M * V = D with U, V unimodular and D a divisibility chain.

    The matrix is given as a list of dense rows; internally the
    elimination runs on a sparse dict-of-dicts copy with a column index
    (column -> set of rows) and logs its row and column operations as
    blocks for ``SNFResult`` to replay.  Step t walks the rows upward from
    t for the pivot, stopping at the first unit, then clears column t in
    one pass, the rows of the column index in its order, and row t in
    another.  Remainders are promoted and cleared again; a fix-up makes
    the diagonal a divisibility chain.
    """
    nrows = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work: dict[int, dict[int, int]] = {}
    colidx: dict[int, set[int]] = {}
    for i, r in enumerate(rows):
        for j, v in enumerate(r):
            if v:
                work.setdefault(i, {})[j] = v
                colidx.setdefault(j, set()).add(i)
    row_ops: list[Op] = []
    col_ops: list[Op] = []
    # Equal (index, multiple) pairs of the logs share one tuple: the delta^1
    # of Borromean X(7) logs 3,259 row additions but 225 distinct pairs.
    pairs: dict = {}

    def get(i, j):
        return work.get(i, {}).get(j, 0)

    def setval(i, j, v):
        row = work.setdefault(i, {})
        if v:
            row[j] = v
            colidx.setdefault(j, set()).add(i)
        else:
            if j in row:
                del row[j]
                colidx[j].discard(i)
            if not row:
                del work[i]

    def reduce_rows(targets, t, c):
        # row_i -= (row_i[c] // row_t[c]) * row_t for each i in targets, in
        # order, in one pass logged as one block: row t is read once, and
        # the column index changes only where an entry appears or cancels.
        prow = list(work[t].items())
        piv = work[t][c]
        adds = []
        for i in targets:
            row = work[i]
            q = -(row[c] // piv)
            if not q:
                continue
            for j, v in prow:
                if j in row:
                    nv = row[j] + q * v
                    if nv:
                        row[j] = nv
                    else:
                        del row[j]
                        colidx[j].discard(i)
                else:
                    row[j] = q * v
                    colidx[j].add(i)
            if not row:
                del work[i]
            pair = i, q
            adds.append(pairs.setdefault(pair, pair))
        if adds:
            row_ops.append((t, adds))

    def row_swap(i, t):
        if i == t:
            return
        ri, rt = work.pop(i, {}), work.pop(t, {})
        for j in set(ri) | set(rt):
            colidx[j].discard(i)
            colidx[j].discard(t)
        if rt:
            work[i] = rt
            for j in rt:
                colidx.setdefault(j, set()).add(i)
        if ri:
            work[t] = ri
            for j in ri:
                colidx.setdefault(j, set()).add(t)
        row_ops.append((i, t))

    def row_negate(i):
        for j, v in list(work.get(i, {}).items()):
            work[i][j] = -v
        row_ops.append((i, i))

    def add_cols(t, todo):
        # col_j += q * col_t for each (j, q) with q != 0, logged as one
        # block; column t does not change, so the additions commute.
        adds = []
        for j, q in todo:
            if q:
                for i in list(colidx[t]):
                    setval(i, j, get(i, j) + q * get(i, t))
                pair = j, q
                adds.append(pairs.setdefault(pair, pair))
        if adds:
            col_ops.append((t, adds))

    def col_swap(j, t):
        if j == t:
            return
        rows_j = set(colidx.get(j, ()))
        rows_t = set(colidx.get(t, ()))
        for i in rows_j | rows_t:
            row = work[i]
            vj, vt = row.get(j, 0), row.get(t, 0)
            if vt:
                row[j] = vt
            else:
                row.pop(j, None)
            if vj:
                row[t] = vj
            else:
                row.pop(t, None)
        colidx[j], colidx[t] = rows_t, rows_j
        col_ops.append((j, t))

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        # Deterministic pivot: smallest magnitude, ties by (row, col).
        # Rows are scanned upward from t (rows and columns before t hold
        # only their diagonal entry), so a unit ends the search.
        best = None
        for i in range(t, nrows):
            row = work.get(i)
            if row:
                for j, v in row.items():
                    key = (abs(v), i, j)
                    if best is None or key < best:
                        best = key
                if best[0] == 1:
                    break
        if best is None:
            break
        _, bi, bj = best
        row_swap(t, bi)
        col_swap(t, bj)
        while True:
            piv = work[t][t]
            reduce_rows([i for i in colidx[t] if i != t], t, t)
            add_cols(t, [(j, -(v // piv)) for j, v in work[t].items()
                         if j != t])
            below = [i for i in colidx.get(t, ()) if i != t and get(i, t)]
            beside = [j for j in work.get(t, {}) if j != t and get(t, j)]
            if not below and not beside:
                break
            # Leftover remainders are strictly smaller than the pivot;
            # promote the smallest so the pivot magnitude decreases.
            _, bi, bj = min([(abs(get(i, t)), i, t) for i in below]
                            + [(abs(get(t, j)), t, j) for j in beside])
            row_swap(t, bi)
            col_swap(t, bj)
        t += 1

    ndiag = t
    # Divisibility chain fixup.
    changed = True
    while changed:
        changed = False
        for i in range(ndiag - 1):
            a, b = get(i, i), get(i + 1, i + 1)
            if b % a != 0:
                changed = True
                add_cols(i + 1, [(i, 1)])
                # Euclid on rows i, i+1 in column i, then clear.
                while get(i + 1, i):
                    reduce_rows((i,), i + 1, i)
                    if get(i, i):
                        row_swap(i, i + 1)
                    else:
                        break
                if get(i + 1, i):
                    row_swap(i, i + 1)
                if get(i + 1, i):
                    reduce_rows((i + 1,), i, i)
                if get(i, i + 1):
                    add_cols(i, [(i + 1, -(get(i, i + 1) // get(i, i)))])
    for i in range(ndiag):
        if get(i, i) < 0:
            row_negate(i)
    diag = [get(i, i) for i in range(ndiag)]
    if any(d <= 0 for d in diag) or any(b % a for a, b in zip(diag, diag[1:])):
        raise ArithmeticError(f"Smith normal form diagonal {diag} is not a "
                              f"positive divisibility chain")

    return SNFResult(diag, ndiag, nrows, ncols, row_ops, col_ops)


def solve_Z(factor: SNFResult, b: list[int]) -> list[int] | None:
    """Particular integer solution of M x = b, or None (SNF residue fails).

    ``factor`` is ``smith_normal_form(M, ncols)``, built once and shared
    by every right-hand side; each solve replays its two operation logs.
    """
    return factor.solve(b).solution


def solve_in_image(rows: list[list[int]], b: list[int], ncols: int,
                   ring: RingSpec | None = None) -> SolveResult:
    """Particular solution of M x = b over the ring, or a certificate
    (over Z the Smith-normal-form residue of ``SNFResult.solve``; over
    GF(p) the ``preimage`` of the cohomology with A = M)."""
    if ring is not None and ring.is_modular:
        x = cohomology_at(ring, rows, [], ncols).preimage(b)
        cert = None if x is not None else {"reason": "not in column span"}
        return SolveResult(x, cert)
    return smith_normal_form(rows, ncols).solve(b)


def lattice_basis(vectors: list[list[int]], dim: int) -> list[list[int]]:
    """Basis of the sublattice of Z^dim spanned by the given vectors."""
    if not vectors:
        return []
    rows = [[v[i] for v in vectors] for i in range(dim)]
    snf = smith_normal_form(rows, len(vectors))
    return [[d * x for x in snf.uinv_column(i)]
            for i, d in enumerate(snf.diag)]


# ---------------------------------------------------------------------------
# GF(p) elimination with combination tracking

# ZpEliminator packs its rows for p up to here, and keeps dicts above.
PACKED_MAX_P = 13


def _bits(x: int):
    """Indices of the set bits of x >= 0, ascending."""
    s = format(x, "b")[::-1]
    i = s.find("1")
    while i >= 0:
        yield i
        i = s.find("1", i + 1)


def _entries(p: int, row) -> list[tuple[int, int]]:
    """(index, value) for every nonzero entry of a row in either format,
    ascending."""
    if isinstance(row, dict):
        return sorted(row.items())
    if p == 2:
        return [(i, 1) for i in _bits(row)]
    return sorted((i, c) for c in range(1, p) for i in _bits(row[c]))


class ZpEliminator:
    """Row space over GF(p) with combination tracking.

    Each row is reduced on its leading (lowest) column only and stored
    with leading coefficient 1 under that column.  Tagged insertions track
    how each stored pivot row decomposes over the tagged originals, which
    yields coordinate functionals on quotients.  The combination lives in
    the row itself: the t-th tag seen takes slot t, at index ``width + t``,
    so one row operation updates both, and no pivot ever holds a slot.

    The row format follows p.  For p >= 17 a row is a dict index -> value.
    For p <= 13 it is packed one-hot: bit j of mask c is set when index j
    holds the value c.  For p = 2 the row is its single mask and a row
    operation is XOR.  For odd p a row is a list whose entry c, for
    0 < c < p, is the mask of value c and whose entry 0 is the support,
    the OR of the others.  The step v - f row is AND/OR/XOR mask by mask
    (``rings.onehot_sub``), so no value can spill into a neighbouring
    column: written out for p = 3 and p = 5, a loop over the values for
    p = 7 to 13.  Dict rows stay above p = 13 because a one-hot row costs
    O(p) masks.  Only the per-format helpers ``_pack``, ``_reduce``,
    ``_monic``, ``_high`` and ``_columns`` read the format.  In both
    formats a column outside 0..width-1 is a caller's defect and raises
    InternalError.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width  # columns below, combination slots from here up
        self.pivots: dict[int, object] = {}
        self.packed = p <= PACKED_MAX_P
        self._slots: dict = {}  # tag -> slot
        self._tags: list = []
        if self.packed and p > 2:
            self._sub = onehot_sub(p)  # (v, row, f) -> v - f row

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec, tag=None) -> bool:
        """Insert a row; returns True when it enlarged the space."""
        return self._insert(vec, tag) is None

    def insert_relation(self, vec, tag=None) -> dict | None:
        """Insert a row, or return the relation that makes it redundant.

        None means the row enlarged the space.  Otherwise nothing is
        stored and the result maps tag -> c such that the new row plus
        sum c_t row_t over the earlier tagged rows is 0 modulo the untagged
        rows; a tagged new row is listed too, under ``tag`` with c = 1.  So
        one reduction both tests a row and yields its relation.
        """
        rel = self._insert(vec, tag)
        return None if rel is None else {
            self._tags[t]: c for t, c in _entries(self.p, rel)}

    def express(self, vec: dict[int, int]) -> dict | None:
        """Write vec as a combination of tagged rows modulo untagged ones.

        Returns tag -> coefficient, negated to solve  vec = sum c_t row_t,
        or None when vec is not in the row space.
        """
        p = self.p
        row, lead = self._reduce(self._pack(vec))
        if 0 <= lead < self.width:
            return None
        return {self._tags[t]: p - c for t, c in _entries(p, self._high(row))}

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
            acc: dict[int, int] = {}
            for c, v in self._columns(self.pivots[lead]):
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

    def _insert(self, vec, tag):
        """Reduce vec (as ``_pack`` takes it) and store it with leading
        coefficient 1.  None when it enlarged the space; otherwise nothing
        is stored, and the combination of its relation comes back as a row
        over the tag slots (``_high``)."""
        row, lead = self._reduce(self._pack(vec, tag))
        if not 0 <= lead < self.width:
            return self._high(row)
        self.pivots[lead] = self._monic(row, lead)
        return None

    def _top_column(self, vec: dict[int, int]) -> int:
        """The greatest column of a nonempty vec.  A column outside
        0..width-1 would be stored or dropped silently, so it raises."""
        lo, hi = min(vec), max(vec)
        if lo < 0 or hi >= self.width:
            raise InternalError(f"column index {lo if lo < 0 else hi} "
                                f"outside 0..{self.width - 1}")
        return hi

    # per-format helpers

    def _reduce(self, v):
        """Clear leads of v while a pivot row holds them, and return v with
        its lead (-1 for a zero row).  A lead at or above ``width`` is a
        tag slot, which no pivot holds.  Each step must raise the lead; a
        step that does not is a defect and raises ArithmeticError instead
        of looping."""
        pivots, p = self.pivots, self.p
        if not self.packed:
            lead = min(v) if v else -1
            while True:
                hit = pivots.get(lead)
                if hit is None:
                    return v, lead
                f = v[lead]
                for j, x in hit.items():
                    nx = (v.get(j, 0) - f * x) % p
                    if nx:
                        v[j] = nx
                    else:
                        v.pop(j, None)
                nxt = min(v) if v else -1
                if 0 <= nxt <= lead:
                    raise ArithmeticError(
                        f"GF({p}) reduction did not clear lead {lead}")
                lead = nxt
        if p == 2:
            lead = (v & -v).bit_length() - 1
            while True:
                hit = pivots.get(lead)
                if hit is None:
                    return v, lead
                v ^= hit
                nxt = (v & -v).bit_length() - 1
                if 0 <= nxt <= lead:
                    raise ArithmeticError(
                        f"packed GF(2) reduction did not clear lead {lead}")
                lead = nxt
        sub = self._sub
        s = v[0]
        low = s & -s
        lead = low.bit_length() - 1
        while True:
            hit = pivots.get(lead)
            if hit is None:
                return v, lead
            f = 1
            while not v[f] & low:
                f += 1
            v = sub(v, hit, f)  # clears the lead
            s = v[0]
            low = s & -s
            nxt = low.bit_length() - 1
            if 0 <= nxt <= lead:
                raise ArithmeticError(
                    f"packed GF({p}) reduction did not clear lead {lead}")
            lead = nxt

    def _monic(self, row, lead: int):
        """row divided by its value at lead."""
        p = self.p
        if not self.packed:
            c = row[lead]
            if c == 1:
                return row
            inv = pow(c, p - 2, p)
            return {j: x * inv % p for j, x in row.items()}
        if p == 2:
            return row
        low = 1 << lead
        f = 1
        while not row[f] & low:
            f += 1
        # mask k of row / f
        return row if f == 1 else [row[k * f % p] for k in range(p)]

    def _pack(self, vec, tag=None):
        """The row of vec in this eliminator's format, with the slot of tag
        set to 1.  vec is a dict column -> value, or for one-hot rows a
        packed row already, which is checked to lie below ``width`` and
        copied."""
        given = not isinstance(vec, dict)
        if given:
            s = vec if self.p == 2 else vec[0]
            if s >> self.width:  # also when s < 0
                raise InternalError(f"packed row spans {s.bit_length()} "
                                    f"columns, not 0..{self.width - 1}")
        elif vec:
            self._top_column(vec)
        slot = -1
        if tag is not None:
            slot = self._slots.get(tag)
            if slot is None:
                slot = self._slots[tag] = len(self._tags)
                self._tags.append(tag)
            slot += self.width
        p = self.p
        if not self.packed:
            row = {j: x % p for j, x in vec.items() if x % p}
            if slot >= 0:
                row[slot] = 1
            return row
        bit = 0 if slot < 0 else 1 << slot
        if given:
            if p == 2:
                return vec | bit
            row = list(vec)
            row[0] |= bit
            row[1] |= bit
            return row
        if p == 2:
            row = bit
            for j, x in vec.items():
                if x & 1:
                    row |= 1 << j
            return row
        row = [0] * p
        for j, x in vec.items():
            row[x % p] |= 1 << j
        # entries 0 mod p landed in row[0], which becomes the support
        row[1] |= bit
        row[0] = reduce(or_, row[2:], row[1])
        return row

    def _columns(self, row) -> list[tuple[int, int]]:
        """(column, value) for every nonzero column of a row."""
        w = self.width
        if not self.packed:
            return [(j, x) for j, x in row.items() if j < w]
        keep = (1 << w) - 1
        return _entries(self.p, row & keep if self.p == 2
                        else [m & keep for m in row])

    def _high(self, row):
        """The tag slots of a row shifted down to index 0: a row over the
        slots."""
        w = self.width
        if not self.packed:
            return {j - w: x for j, x in row.items() if j >= w}
        return row >> w if self.p == 2 else [m >> w for m in row]


def _kernel_rows(p: int, cols: list, width: int) -> list:
    """Kernel basis over GF(p) of the matrix with columns ``cols`` (sparse
    dicts, or packed rows for p <= 13; indices below ``width``): one
    relation per column that depends on the earlier ones, with
    coefficient 1 at that column, in the eliminator's row format.  Column
    j carries tag j, which takes slot j, so the slots of a relation
    (``_high``) are its row over the columns."""
    elim = ZpEliminator(p, width)
    rels = [elim._insert(col, j) for j, col in enumerate(cols)]
    return [rel for rel in rels if rel is not None]


# ---------------------------------------------------------------------------
# finitely generated abelian groups

class AbelianInvariants:
    def __init__(self, rank: int, torsion: tuple[int, ...]):
        self.rank = rank
        self.torsion = torsion  # divisibility chain d1 | d2 | ..., each > 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.torsion) == (other.rank, other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return (f"AbelianInvariants(rank={self.rank!r}, "
                f"torsion={self.torsion!r})")

    @classmethod
    def from_coker(cls, diag: list[int], target_dim: int) -> "AbelianInvariants":
        tors = tuple(d for d in diag if d > 1)
        return cls(rank=target_dim - len(diag), torsion=tors)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def render(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self):
        return self.render()


class ClassSpan:
    """The submodule of H = R^m / (o_i e_i) spanned by columns of class
    coordinates, factored once.

    ``orders`` are the o_i, the orders of the generators of H (0 for a
    free one), and ``cols`` the spanning columns, each of length m.  Over
    GF(p) every o_i is p, which vanishes, so H is GF(p)^m: one
    ``ZpEliminator`` takes column j under tag j, and a column that depends
    on the earlier ones yields its relation as it goes in.  Over Z one
    Smith factor of [cols | o_i e_i], over the nonzero o_i, answers every
    query.
    """

    def __init__(self, ring: RingSpec, orders: list[int],
                 cols: list[list[int]]):
        self.ring = ring
        self.cols = cols
        m = self._m = len(orders)
        if ring.is_modular:
            self._elim = ZpEliminator(ring.p, m)
            self._rels = []
            for j, col in enumerate(cols):
                rel = self._elim.insert_relation(
                    {i: v for i, v in enumerate(col) if v}, tag=j)
                if rel is not None:
                    self._rels.append(rel)
            self._rank, self._ncols = self._elim.rank, len(cols)
            return
        # the columns, then o_i e_i for each nonzero order
        full = list(cols) + [[o if i == k else 0 for i in range(m)]
                             for k, o in enumerate(orders) if o]
        self._snf = smith_normal_form([[c[i] for c in full] for i in range(m)],
                                      len(full))
        self._rank, self._ncols = self._snf.rank, len(full)

    @property
    def cokernel(self) -> AbelianInvariants:
        """H / span."""
        if self.ring.is_modular:
            return AbelianInvariants(0, (self.ring.p,)
                                     * (self._m - self._rank))
        return AbelianInvariants.from_coker(self._snf.diag, self._m)

    def relations(self, src_orders: list[int]) -> list[list[int]]:
        """Basis of {v : sum_j v_j col_j = 0 in H}, modulo the vectors that
        vanish in the source, whose generator j has order src_orders[j].
        Over GF(p) those orders are p, and no relation vanishes: each is 1
        at its own column."""
        s = len(self.cols)
        if self.ring.is_modular:
            return [[rel.get(j, 0) for j in range(s)] for rel in self._rels]
        if not s:
            return []
        # The projected kernel basis may be dependent; it still spans the
        # solution lattice, so re-extract a basis.
        sol = lattice_basis([v[:s] for v in self._snf.kernel()], s)
        keep = [v for v in sol
                if not all(x % o == 0 if o else x == 0
                           for x, o in zip(v, src_orders))]
        return lattice_basis(keep, s)

    @property
    def is_basis(self) -> bool:
        """Do the columns map R^len(cols) isomorphically onto H?  So the
        factored columns span H and have no relation among them."""
        return self.cokernel.is_trivial() and self._rank == self._ncols

    def contains(self, vec: list[int]) -> bool:
        """Does the class with coordinates vec lie in the span?"""
        if self.ring.is_modular:
            return self._elim.express(
                {i: x for i, x in enumerate(vec) if x % self.ring.p}) \
                is not None
        return self._snf.solve(list(vec)).ok


# ---------------------------------------------------------------------------
# cohomology of a three-term complex

class CohomologyData:
    """H^k of C^{k-1} --A--> C^k --B--> C^{k+1}: invariants,
    representative cocycles, coordinates.

    ``generators`` is a list of (order, representative) pairs, torsion
    generators first in divisibility order, then free generators; the
    representative is a dense vector over the basis of C^k.
    ``class_coords`` maps any cocycle vector to coordinates aligned with
    the generators (torsion coordinates reduced mod the order).
    ``preimage`` maps a vector to some x over the basis of C^{k-1} with
    A x = vec, or None when vec is not in im A; it reads the same factor
    of im A that the class coordinates do.
    """

    def __init__(self, ring, invariants, generators, coord_fn, preimage_fn):
        self.ring = ring
        self.invariants = invariants
        self.generators = generators
        self._coord_fn = coord_fn
        self._preimage_fn = preimage_fn

    def class_coords(self, vec: list[int]) -> list[int]:
        return self._coord_fn(vec)

    def preimage(self, vec: list[int]) -> list[int] | None:
        return self._preimage_fn(vec)

    @property
    def orders(self) -> list[int]:
        return [o for o, _ in self.generators]


def cohomology_Z(A: list[list[int]] | None, n_lower: int,
                 kernel: SNFResult | None,
                 image: SNFResult | None) -> CohomologyData:
    """H^k = ker B / im A over Z from Smith factors built by the caller.

    With an upper term, ``kernel`` is the factor of B: ker B is read off
    V and coordinates on it off Vinv, and im A is factored here in those
    coordinates, from ``A``, the dense rows of A (``n_lower`` wide).
    Without one, ker B is everything, and ``image`` is the factor of A
    itself, which a Delta-set shares with the H^{k-1} that reads its
    kernel; A is not read then.  Generators are columns of Uinv, and the
    class coordinates are the rows of U at the cokernel slots, each
    replayed once here.
    """
    ring, nl = RingSpec.Z(), n_lower
    nm = image.nrows if kernel is None else kernel.ncols
    K = None if kernel is None else kernel.kernel()
    k = nm if K is None else len(K)
    if k == 0:
        # ker B = 0, so only the zero vector is a coboundary.
        return CohomologyData(ring, AbelianInvariants(0, ()), [],
                              lambda v: [],
                              lambda v: None if any(v) else [0] * nl)
    # Coordinates on ker B in the basis K (None off ker B); without an
    # upper term K is the identity.
    to_kernel = from_kernel = list
    if K is not None:
        Krows = [[v[i] for v in K] for i in range(nm)]
        # The coordinates must invert the basis, which a basis that is
        # not primitive does not allow.
        if [kernel.kernel_coords(v) for v in K] != identity(k):
            diag = smith_normal_form(Krows, k).diag
            raise ArithmeticError(
                f"kernel basis is not primitive: Smith normal form "
                f"diagonal {diag}" if diag != [1] * k else
                "kernel coordinates do not invert the kernel basis")
        to_kernel = kernel.kernel_coords

        def from_kernel(w):
            return mat_vec(Krows, w)

        cols = [to_kernel([row[j] for row in A]) for j in range(nl)]
        image = smith_normal_form([[c[i] for c in cols] for i in range(k)],
                                  nl)
    order_slots = [(i, d) for i, d in enumerate(image.diag) if d > 1]
    order_slots += [(i, 0) for i in range(image.rank, k)]
    gens = [(d, from_kernel(image.uinv_column(i))) for i, d in order_slots]
    inv = AbelianInvariants(rank=k - image.rank,
                            torsion=tuple(d for _, d in order_slots if d))
    slot_rows = [image.u_row(i) for i, _ in order_slots]

    def coord_fn(vec):
        y = to_kernel(vec)
        if y is None:
            raise PreconditionError("vector is not a cocycle")
        c = [sum(map(mul, row, y)) for row in slot_rows]
        return [x % d if d else x for x, (_, d) in zip(c, order_slots)]

    def preimage_fn(vec):
        # K is injective, so A x = vec exactly when C x = K^-1 vec.
        y = to_kernel(vec)
        return None if y is None else image.solve(y).solution

    return CohomologyData(ring, inv, gens, coord_fn, preimage_fn)


def cohomology_sparse_zp(ring: RingSpec, n_mid: int,
                         a_cols: list[dict[int, int]],
                         b_cols: list[dict[int, int]] | None
                         ) -> CohomologyData:
    """H = ker(B)/im(A) over GF(p) with sparse column input.

    ``b_cols[j]`` is the j-th column of B (upper-index -> value), or for
    p <= 13 its packed row over the upper indices; None means B = 0.
    ``a_cols`` are the columns of A in mid-coordinates.  Dict entries may
    be any integers; the eliminators reduce them mod p.  Packed, the
    kernel relations stay packed into the quotient.
    """
    p = ring.p
    if b_cols is None:
        ker = [{i: 1} for i in range(n_mid)]
    else:
        if b_cols and not isinstance(b_cols[0], dict):
            n_upper = reduce(or_, b_cols if p == 2 else
                             (c[0] for c in b_cols)).bit_length()
        else:
            n_upper = 1 + max((max(c) for c in b_cols if c), default=-1)
        ker = _kernel_rows(p, b_cols, n_upper)
    # Column j of A carries the tag -1 - j and the i-th generator the tag
    # i, so one express yields both the class and a preimage under A.
    quotient = ZpEliminator(p, n_mid)
    for j, col in enumerate(a_cols):
        quotient.insert(col, tag=-1 - j)
    gens = []
    for rel in ker:
        if quotient.insert(rel, tag=len(gens)):
            vec = [0] * n_mid
            for i, x in _entries(p, rel):
                vec[i] = x
            gens.append((p, vec))
    inv = AbelianInvariants(rank=0, torsion=tuple(p for _ in gens))

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

    return CohomologyData(ring, inv, gens, coord_fn, preimage_fn)


def cohomology_at(ring: RingSpec, A: list[list[int]], B: list[list[int]],
                  n_lower: int) -> CohomologyData:
    """H^k of C^{k-1} --A--> C^k --B--> C^{k+1} from its dense matrices:
    ``A`` has one row per basis vector of C^k (``n_lower`` wide) and ``B``
    one per basis vector of C^{k+1}, none without an upper term.  B A
    must vanish over the ring.  The factors are its own: over Z
    ``cohomology_Z`` on the Smith factor of B, or of A without an upper
    term; over GF(p) ``cohomology_sparse_zp`` on the sparse columns."""
    if B and n_lower and any(ring.normalize(x)
                             for row in mat_mul(B, A) for x in row):
        raise PreconditionError("B*A != 0: not a complex segment")
    nm = len(A)
    if ring.is_modular:
        p = ring.p
        a_cols = [{i: row[j] for i, row in enumerate(A) if row[j] % p}
                  for j in range(n_lower)]
        b_cols = [{i: row[j] for i, row in enumerate(B) if row[j] % p}
                  for j in range(nm)] if B else None
        return cohomology_sparse_zp(ring, nm, a_cols, b_cols)
    if B:
        return cohomology_Z(A, n_lower, smith_normal_form(B, nm), None)
    return cohomology_Z(A, n_lower, None, smith_normal_form(A, n_lower))
