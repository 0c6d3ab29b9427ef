"""The Smith normal form elimination that ``cupone.linalg.smith_normal_form``
replaced, kept as its test oracle, with the flat operation log and the
flat replay that the library's factors used before they logged blocks.

Each row operation of a pivot step is one ``row_add`` call that walks the
pivot row and updates the column index on every entry it writes, and the
pivot search sorts the rows of the work matrix at every step.  The code
is the library's as it was, and it logs one entry per operation
(``flat_replay``).  ``group`` turns those flat logs into the library's
block logs by the library's rule: the row additions of one clearing
pass of a pivot column are one block, so are the column additions of one
clearing pass of a pivot row, and a swap or a negation is its own entry.
So the oracle's ``diag``, ``row_ops`` and ``col_ops`` are what the
library's must equal, block for block, and ``FlatFactor`` answers every
query of a factor from the flat logs alone.
"""
from cupone.linalg import SNFResult, _unit as unit

FlatOp = tuple[int, int, int]


def flat_replay(ops: list[FlatOp], x: list[int], backward: bool = False,
                transpose: bool = False, inverse: bool = False) -> list[int]:
    """Apply the logged elementary matrices to x in place and return it.

    An entry (i, t, q) with q != 0 is E = I + q e_i e_t^T, which adds q x_t
    to x_i; (i, t, 0) with i != t swaps x_i and x_t, and (i, i, 0) negates
    x_i.  A log E_1, ..., E_m stands for the product E_m ... E_1, so a
    forward replay multiplies x by it and a backward one by E_1 ... E_m.
    ``transpose`` and ``inverse`` apply E^T or E^-1 in place of each E;
    a swap and a negation are their own transpose and inverse.
    """
    for i, t, q in reversed(ops) if backward else ops:
        if q:
            if transpose:
                i, t = t, i
            if x[t]:
                x[i] += -q * x[t] if inverse else q * x[t]
        elif i == t:
            x[i] = -x[i]
        else:
            x[i], x[t] = x[t], x[i]
    return x


def group(ops: list[FlatOp], cuts: set[int], columns: bool = False) -> list:
    """The block log of a flat log: an addition at a position in ``cuts``
    opens a block, and every other addition joins the block before it; a
    swap (i, t, 0) becomes (i, t) and a negation (i, i, 0) becomes (i, i).
    A row addition (i, t, q), row_i += q row_t, goes into a block
    (t, [(i, q), ...]).  A column addition col_j += q col_t, logged
    (t, j, q) as the elementary matrix that V takes from the right, goes
    into a block (t, [(j, q), ...]) too, which stands for the transpose of
    that matrix (see ``SNFResult``)."""
    out: list = []
    for pos, (i, t, q) in enumerate(ops):
        if columns:
            i, t = t, i
        if not q:
            out.append((t, i) if columns else (i, t))
        elif pos in cuts:
            out.append((t, [(i, q)]))
        else:
            out[-1][1].append((i, q))
    return out


class FlatFactor:
    """The queries of ``SNFResult``, each a flat replay of the oracle's
    flat logs, as the library answered them before it logged blocks."""

    def __init__(self, diag, rank, nrows, ncols, row_ops, col_ops):
        self.diag, self.rank = diag, rank
        self.nrows, self.ncols = nrows, ncols
        self.row_ops, self.col_ops = row_ops, col_ops

    def u_times(self, b):
        return flat_replay(self.row_ops, list(b))

    def u_row(self, r):
        return flat_replay(self.row_ops, unit(self.nrows, r), backward=True,
                           transpose=True)

    def uinv_column(self, i):
        return flat_replay(self.row_ops, unit(self.nrows, i), backward=True,
                           inverse=True)

    def kernel(self):
        return [flat_replay(self.col_ops, unit(self.ncols, j), backward=True)
                for j in range(self.rank, self.ncols)]

    def kernel_coords(self, vec):
        w = flat_replay(self.col_ops, list(vec), inverse=True)
        return None if any(w[:self.rank]) else w[self.rank:]

    def solve(self, b):
        c = self.u_times(b)
        if any(c[i] % d for i, d in enumerate(self.diag)) or any(
                c[self.rank:]):
            return None
        y = [c[i] // d for i, d in enumerate(self.diag)]
        y += [0] * (self.ncols - self.rank)
        return flat_replay(self.col_ops, y, backward=True)


def smith_normal_form(rows: list[list[int]],
                      ncols: int | None = None) -> SNFResult:
    """The oracle's factor, its flat logs grouped into blocks as the
    library logs them."""
    f = flat_smith(rows, ncols)
    return SNFResult(f.diag, f.rank, f.nrows, f.ncols,
                     group(f.row_ops, f.cuts),
                     group(f.col_ops, f.col_cuts, columns=True))


def flat_smith(rows: list[list[int]],
               ncols: int | None = None) -> FlatFactor:
    """U * M * V = D with U, V unimodular and D a divisibility chain.

    The matrix is given as a list of dense rows; internally the
    elimination runs on a sparse dict-of-dicts copy and logs each row and
    column operation for ``flat_replay``.  ``cuts`` and ``col_cuts``
    hold the positions in the row and column logs where a clearing pass,
    or an addition of the divisibility fix-up, starts a block.
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
    row_ops: list[FlatOp] = []
    col_ops: list[FlatOp] = []
    cuts: set[int] = set()
    col_cuts: set[int] = set()

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

    def row_add(i, t, q):
        # row_i += q * row_t
        if not q:
            return
        dst = work.setdefault(i, {})
        for j, v in work.get(t, {}).items():
            nv = dst.get(j, 0) + q * v
            if nv:
                dst[j] = nv
                colidx.setdefault(j, set()).add(i)
            else:
                del dst[j]
                colidx[j].discard(i)
        if not dst:
            del work[i]
        row_ops.append((i, t, q))

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
        row_ops.append((i, t, 0))

    def row_negate(i):
        for j, v in list(work.get(i, {}).items()):
            work[i][j] = -v
        row_ops.append((i, i, 0))

    def col_add(j, t, q):
        # col_j += q * col_t: M F with F = I + q e_t e_j^T, logged (t, j, q)
        if not q:
            return
        for i in list(colidx.get(t, ())):
            setval(i, j, get(i, j) + q * get(i, t))
        col_ops.append((t, j, q))

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
        col_ops.append((j, t, 0))

    limit = min(nrows, ncols)
    t = 0
    while t < limit:
        # Deterministic pivot: smallest magnitude, ties by (row, col).
        # Rows are scanned in order, so a unit ends the search.
        best = None
        for i in sorted(work):
            if i < t:
                continue
            for j, v in work[i].items():
                if j < t:
                    continue
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
            if best is not None and best[0][0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        row_swap(t, bi)
        col_swap(t, bj)
        while True:
            piv = get(t, t)
            cuts.add(len(row_ops))
            for i in list(colidx.get(t, ())):
                if i == t:
                    continue
                row_add(i, t, -(get(i, t) // piv))
            col_cuts.add(len(col_ops))
            for j in list(work.get(t, {})):
                if j == t:
                    continue
                col_add(j, t, -(get(t, j) // piv))
            below = [i for i in colidx.get(t, ()) if i != t and get(i, t)]
            beside = [j for j in work.get(t, {}) if j != t and get(t, j)]
            if not below and not beside:
                break
            # Leftover remainders are strictly smaller than the pivot;
            # promote the smallest so the pivot magnitude decreases.
            best = None
            for i in below:
                key = (abs(get(i, t)), i, t)
                if best is None or key < best[0]:
                    best = (key, i, t)
            for j in beside:
                key = (abs(get(t, j)), t, j)
                if best is None or key < best[0]:
                    best = (key, t, j)
            _, bi, bj = best
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
                col_cuts.add(len(col_ops))
                col_add(i, i + 1, 1)
                # Euclid on rows i, i+1 in column i, then clear.
                while get(i + 1, i):
                    q = get(i, i) // get(i + 1, i)
                    cuts.add(len(row_ops))
                    row_add(i, i + 1, -q)
                    if get(i, i):
                        row_swap(i, i + 1)
                    else:
                        break
                if get(i + 1, i):
                    row_swap(i, i + 1)
                piv = get(i, i)
                if get(i + 1, i):
                    cuts.add(len(row_ops))
                    row_add(i + 1, i, -(get(i + 1, i) // piv))
                if get(i, i + 1):
                    col_cuts.add(len(col_ops))
                    col_add(i + 1, i, -(get(i, i + 1) // piv))
    for i in range(ndiag):
        if get(i, i) < 0:
            row_negate(i)
    diag = [get(i, i) for i in range(ndiag)]
    if any(d <= 0 for d in diag) or any(b % a for a, b in zip(diag, diag[1:])):
        raise ArithmeticError(f"Smith normal form diagonal {diag} is not a "
                              f"positive divisibility chain")

    f = FlatFactor(diag, ndiag, nrows, ncols, row_ops, col_ops)
    f.cuts, f.col_cuts = cuts, col_cuts
    return f
