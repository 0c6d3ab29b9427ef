"""The Smith normal form elimination that ``cupone.linalg.smith_normal_form``
replaced, kept as its test oracle.

Each row operation of a pivot step is one ``row_add`` call that walks the
pivot row and updates the column index on every entry it writes, and the
pivot search sorts the rows of the work matrix at every step.  The code
is the library's as it was; its ``diag``, ``row_ops`` and ``col_ops`` are
what the library's must equal, operation for operation.
"""
from cupone.linalg import Op, SNFResult


def smith_normal_form(rows: list[list[int]],
                      ncols: int | None = None) -> SNFResult:
    """U * M * V = D with U, V unimodular and D a divisibility chain.

    The matrix is given as a list of dense rows; internally the
    elimination runs on a sparse dict-of-dicts copy and logs each row and
    column operation for ``SNFResult`` to replay.
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
            for i in list(colidx.get(t, ())):
                if i == t:
                    continue
                row_add(i, t, -(get(i, t) // piv))
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
                col_add(i, i + 1, 1)
                # Euclid on rows i, i+1 in column i, then clear.
                while get(i + 1, i):
                    q = get(i, i) // get(i + 1, i)
                    row_add(i, i + 1, -q)
                    if get(i, i):
                        row_swap(i, i + 1)
                    else:
                        break
                if get(i + 1, i):
                    row_swap(i, i + 1)
                piv = get(i, i)
                if get(i + 1, i):
                    row_add(i + 1, i, -(get(i + 1, i) // piv))
                if get(i, i + 1):
                    col_add(i + 1, i, -(get(i, i + 1) // piv))
    for i in range(ndiag):
        if get(i, i) < 0:
            row_negate(i)
    diag = [get(i, i) for i in range(ndiag)]
    if any(d <= 0 for d in diag) or any(b % a for a, b in zip(diag, diag[1:])):
        raise ArithmeticError(f"Smith normal form diagonal {diag} is not a "
                              f"positive divisibility chain")

    return SNFResult(diag, ndiag, nrows, ncols, row_ops, col_ops)
