"""Exact linear algebra over Z and Z_p.

Factor once, query many.  Over Z one ``smith_normal_form`` call returns
the factor U M V = D of a matrix M (an ``SNFResult``, keeping U, V and
Uinv as asked); the same factor then serves every ``solve`` (through
``solve_Z``, with the SNF-residue certificate of ``solve_in_image``),
``kernel`` and the ``class_coords`` of the cohomology of three-term
complexes with labeled bases.  A query touches only the nonzero entries
of its vector (``mat_vec``) and only the transform rows its answer needs.
``image_solver`` gives each call site one factor per matrix for either
ring; over Z_p that factor is one tagged ``ZpEliminator``.

``ZpEliminator`` is Gaussian elimination with combination tracking.  Its
rows are dicts column -> value, or, for p <= 13, Python ints with one
fixed-width field per column (1 bit for p = 2, one byte for odd p).  Each
eliminator picks its format from the shape its caller announces: packed
while a fully dense echelon, vectors x width fields, fits in 16 MiB
(``PACK_LIMIT_BYTES``), dict rows otherwise.  Both formats store the same
pivot rows, so results do not depend on the choice.

The SNF pivot rule is smallest nonzero magnitude with ties broken by
(row, col), which keeps entry growth tame on the matrix sizes produced
by the rest of the package and makes every output deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rings import RingSpec


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


def rank_over_Q(rows: list[list[int]]) -> int:
    """Independent rank oracle: Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        inv = 1 / prow[col]
        work[rank] = [x * inv for x in prow]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Smith normal form

@dataclass
class SolveResult:
    solution: list[int] | None
    certificate: dict | None  # SNF residue witnessing unsolvability

    @property
    def ok(self) -> bool:
        return self.solution is not None


@dataclass
class SNFResult:
    """U M V = D, and the factor of M that every later query reuses.

    ``kernel`` needs V; ``solve`` needs U and V.  The row and column
    operations do not depend on a right-hand side, so U b is exactly what
    carrying b through the elimination would give.
    """
    diag: list[int]
    rank: int
    nrows: int
    ncols: int
    U: list[list[int]] | None = None
    V: list[list[int]] | None = None
    Uinv: list[list[int]] | None = None
    Vinv: list[list[int]] | None = None
    carry: list[list[int]] | None = None  # U*vec for each input carry vector

    def kernel(self) -> list[list[int]]:
        """Basis of the integer kernel lattice {v : M v = 0} (as columns)."""
        return [[row[j] for row in self.V] for j in range(self.rank, self.ncols)]

    def solve(self, b: list[int]) -> SolveResult:
        """Particular solution of M x = b, or a certificate.

        The certificate records the first Smith-normal-form residue:
        either a diagonal entry that fails to divide U b, or a nonzero
        coordinate of U b beyond the rank (divisor 0).
        """
        c = mat_vec(self.U, b)
        y = [0] * self.ncols
        for i, d in enumerate(self.diag):
            q, r = divmod(c[i], d)
            if r:
                return SolveResult(None, {"index": i, "divisor": d,
                                          "residue": r})
            y[i] = q
        for i in range(self.rank, len(c)):
            if c[i]:
                return SolveResult(None, {"index": i, "divisor": 0,
                                          "residue": c[i]})
        return SolveResult(mat_vec(self.V, y), None)


def smith_normal_form(rows: list[list[int]], ncols: int | None = None,
                      want_u: bool = False, want_v: bool = False,
                      want_uinv: bool = False, want_vinv: bool = False,
                      carry: list[list[int]] | None = None) -> SNFResult:
    """U * M * V = D with U, V unimodular and D a divisibility chain.

    The matrix is given as a list of dense rows; internally the
    elimination runs on a sparse dict-of-dicts copy.
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

    # Transforms are sparse: U and Vinv by rows, Uinv and V by columns,
    # so that every update is one sparse row operation.
    U = [{i: 1} for i in range(nrows)] if want_u else None
    Uinv_cols = [{i: 1} for i in range(nrows)] if want_uinv else None
    V_cols = [{j: 1} for j in range(ncols)] if want_v else None
    Vinv = [{j: 1} for j in range(ncols)] if want_vinv else None
    carried = [list(v) for v in carry] if carry else None

    def axpy(m, i, t, q):
        # m[i] += q * m[t]
        mi = m[i]
        for j, x in m[t].items():
            v = mi.get(j, 0) + q * x
            if v:
                mi[j] = v
            else:
                del mi[j]

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
        if U is not None:
            axpy(U, i, t, q)
        if carried is not None:
            for v in carried:
                v[i] += q * v[t]
        if Uinv_cols is not None:
            axpy(Uinv_cols, t, i, -q)

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
        if U is not None:
            U[i], U[t] = U[t], U[i]
        if carried is not None:
            for v in carried:
                v[i], v[t] = v[t], v[i]
        if Uinv_cols is not None:
            Uinv_cols[i], Uinv_cols[t] = Uinv_cols[t], Uinv_cols[i]

    def row_negate(i):
        for j, v in list(work.get(i, {}).items()):
            work[i][j] = -v
        if U is not None:
            U[i] = {j: -x for j, x in U[i].items()}
        if carried is not None:
            for v in carried:
                v[i] = -v[i]
        if Uinv_cols is not None:
            Uinv_cols[i] = {j: -x for j, x in Uinv_cols[i].items()}

    def col_add(j, t, q):
        # col_j += q * col_t
        if not q:
            return
        for i in list(colidx.get(t, ())):
            setval(i, j, get(i, j) + q * get(i, t))
        if V_cols is not None:
            axpy(V_cols, j, t, q)
        if Vinv is not None:
            axpy(Vinv, t, j, -q)

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
        if V_cols is not None:
            V_cols[j], V_cols[t] = V_cols[t], V_cols[j]
        if Vinv is not None:
            Vinv[j], Vinv[t] = Vinv[t], Vinv[j]

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

    def dense(m, n, by_cols=False):
        if m is None:
            return None
        if by_cols:
            return [[c.get(i, 0) for c in m] for i in range(n)]
        return [[r.get(j, 0) for j in range(n)] for r in m]

    return SNFResult(diag=diag, rank=ndiag, nrows=nrows, ncols=ncols,
                     U=dense(U, nrows), V=dense(V_cols, ncols, True),
                     Uinv=dense(Uinv_cols, nrows, True),
                     Vinv=dense(Vinv, ncols), carry=carried)


def kernel_basis_Z(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Basis of the integer kernel lattice {v : M v = 0} (as columns)."""
    return smith_normal_form(rows, ncols, want_v=True).kernel()


def solve_Z(factor: SNFResult, b: list[int]) -> list[int] | None:
    """Particular integer solution of M x = b, or None (SNF residue fails).

    ``factor`` is ``smith_normal_form(M, ncols, want_u=True, want_v=True)``,
    built once and shared by every right-hand side.
    """
    return factor.solve(b).solution


def image_solver(rows: list[list[int]], ncols: int,
                 ring: RingSpec | None = None):
    """Factor M once over the ring; returns b -> x with M x = b, or None
    when b is not in the image of M.

    Over Z the factor is M's Smith normal form and each solve goes through
    ``solve_Z``; over GF(p) it is one ZpEliminator holding the columns of
    M tagged by index, and each solve is one ``express``.
    """
    if ring is None or not ring.is_modular:
        factor = smith_normal_form(rows, ncols, want_u=True, want_v=True)
        return lambda b: solve_Z(factor, b)
    p = ring.p
    elim = ZpEliminator(p, ncols, len(rows))
    for j in range(ncols):
        elim.insert({i: row[j] % p for i, row in enumerate(rows)
                     if row[j] % p}, tag=j)

    def solve(b: list[int]) -> list[int] | None:
        coeffs = elim.express({i: v % p for i, v in enumerate(b) if v % p})
        if coeffs is None:
            return None
        return [coeffs.get(j, 0) for j in range(ncols)]

    return solve


def solve_in_image(rows: list[list[int]], b: list[int], ncols: int,
                   ring: RingSpec | None = None) -> SolveResult:
    """Particular solution of M x = b over the ring, or a certificate
    (over Z the Smith-normal-form residue of ``SNFResult.solve``)."""
    if ring is not None and ring.is_modular:
        x = image_solver(rows, ncols, ring)(b)
        cert = None if x is not None else {"reason": "not in column span"}
        return SolveResult(x, cert)
    return smith_normal_form(rows, ncols, want_u=True, want_v=True).solve(b)


def lattice_basis(vectors: list[list[int]], dim: int) -> list[list[int]]:
    """Basis of the sublattice of Z^dim spanned by the given vectors."""
    if not vectors:
        return []
    rows = [[v[i] for v in vectors] for i in range(dim)]
    snf = smith_normal_form(rows, len(vectors), want_uinv=True)
    basis = []
    for i, d in enumerate(snf.diag):
        basis.append([d * snf.Uinv[r][i] for r in range(dim)])
    return basis


def kernel_into_presented(img_cols: list[list[int]],
                          rel_cols: list[list[int]],
                          dim: int) -> list[list[int]]:
    """Basis of {v in Z^s : sum_i v_i img_i lies in the lattice of relations}.

    ``img_cols`` and ``rel_cols`` are columns in Z^dim.
    """
    s, r = len(img_cols), len(rel_cols)
    if s == 0:
        return []
    rows = [[col[i] for col in img_cols] + [col[i] for col in rel_cols]
            for i in range(dim)]
    combined = kernel_basis_Z(rows, s + r)
    projected = [v[:s] for v in combined]
    # Relation columns may be dependent; the projection still spans the
    # solution lattice, so re-extract a basis.
    return lattice_basis(projected, s)


# ---------------------------------------------------------------------------
# GF(p) elimination with combination tracking

# A packed eliminator may hold a fully dense echelon of its announced
# shape; this caps that size, so also the memory packed rows can take.
PACK_LIMIT_BYTES = 16 << 20


class ZpEliminator:
    """Row space over GF(p) with combination tracking.

    Each row is reduced on its leading (lowest) column only and stored
    with leading coefficient 1 under that column.  Tagged insertions track
    how each stored pivot row decomposes over the tagged originals, which
    yields coordinate functionals on quotients.

    Dict rows map column -> value.  A packed row and its combination are
    each one int with a field per column (per tag).  For p = 2 a field is
    one bit and a row operation is XOR; for odd p a field is one byte,
    ``v + (p-f) row`` cannot carry between fields since p(p-1) < 256, and
    one ``bytes.translate`` pass reduces every field mod p.  Packing pays
    per column, dict rows per nonzero entry: tall problems whose pivot
    rows stay sparse are faster and far smaller as dicts, which is why the
    format follows the announced ``vectors`` x ``width`` shape.
    """

    def __init__(self, p: int, vectors: int, width: int):
        self.p = p
        self.pivots: dict[int, tuple] = {}
        bits = 1 if p == 2 else 8 if p * (p - 1) < 256 else 0
        self.packed = 0 < bits and \
            vectors * width * bits <= PACK_LIMIT_BYTES * 8
        if self.packed:
            self._shift = bits.bit_length() - 1  # log2 of the field width
            self._slots: dict = {}  # tag -> field of the combination int
            self._tags: list = []
            self._table = bytes(i % p for i in range(256))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: dict[int, int], tag=None) -> bool:
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
        if self.packed:
            v, e = self._reduce_packed(self._pack(vec), self._tag_field(tag))
            if not v:
                return {self._tags[s]: c for s, c in self._fields(e)}
            lead = ((v & -v).bit_length() - 1) >> self._shift
            f = 1 if p == 2 else (v >> (lead << 3)) & 255
            if f != 1:
                inv = pow(f, p - 2, p)
                v, e = self._mod(v * inv), self._mod(e * inv)
            self.pivots[lead] = (v, e)
            return None
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
        if self.packed:
            v, e = self._reduce_packed(self._pack(vec), 0)
            if v:
                return None
            return {self._tags[s]: p - c for s, c in self._fields(e)}
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
            row = self.pivots[lead][0]
            acc: dict[int, int] = {}
            for c, v in self._fields(row) if self.packed else row.items():
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

    # dict rows

    def _reduce(self, vec: dict[int, int], expr: dict) -> tuple[dict, dict]:
        p = self.p
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

    # packed rows

    def _reduce_packed(self, v: int, e: int) -> tuple[int, int]:
        pivots, p = self.pivots, self.p
        if p == 2:
            while v:
                hit = pivots.get((v & -v).bit_length() - 1)
                if hit is None:
                    break
                v ^= hit[0]
                e ^= hit[1]
            return v, e
        cleared = -1
        while v:
            lead = ((v & -v).bit_length() - 1) >> 3
            if lead <= cleared:
                raise ArithmeticError(
                    f"packed row operation mod {p} carried between fields")
            hit = pivots.get(lead)
            if hit is None:
                break
            prow, pexpr = hit
            m = p - ((v >> (lead << 3)) & 255)
            v = self._mod(v + m * prow)
            if pexpr:
                e = self._mod(e + m * pexpr)
            cleared = lead
        return v, e

    def _mod(self, x: int) -> int:
        """Reduce every byte field of x mod p."""
        raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
        return int.from_bytes(raw.translate(self._table), "little")

    def _pack(self, vec: dict[int, int]) -> int:
        if not vec:
            return 0
        if min(vec) < 0:
            raise ValueError(f"negative column index {min(vec)}")
        p = self.p
        if p == 2:
            buf = bytearray((max(vec) >> 3) + 1)
            for j, x in vec.items():
                if x % 2:
                    buf[j >> 3] |= 1 << (j & 7)
        else:
            buf = bytearray(max(vec) + 1)
            for j, x in vec.items():
                buf[j] = x % p
        return int.from_bytes(buf, "little")

    def _fields(self, x: int) -> list[tuple[int, int]]:
        """(field index, value) for every nonzero field of x, ascending."""
        if self.p == 2:
            return [(i, 1) for i, b in enumerate(reversed(format(x, "b")))
                    if b == "1"]
        raw = x.to_bytes((x.bit_length() + 7) >> 3, "little")
        return [(i, c) for i, c in enumerate(raw) if c]

    def _tag_field(self, tag) -> int:
        if tag is None:
            return 0
        slot = self._slots.get(tag)
        if slot is None:
            slot = self._slots[tag] = len(self._tags)
            self._tags.append(tag)
        return 1 << (slot << self._shift)


def kernel_mod_p(p: int, cols: list[dict[int, int]],
                 width: int) -> list[dict[int, int]]:
    """Kernel basis over GF(p) of the matrix with sparse columns ``cols``
    (indices below ``width``): one sparse relation column -> coefficient
    per column that depends on the earlier ones, with coefficient 1 at
    that column."""
    elim = ZpEliminator(p, len(cols), width)
    ker = []
    for j, col in enumerate(cols):
        rel = elim.insert_relation(col, tag=j)
        if rel is not None:
            ker.append(rel)
    return ker


# ---------------------------------------------------------------------------
# finitely generated abelian groups

@dataclass(frozen=True)
class AbelianInvariants:
    rank: int
    torsion: tuple[int, ...]  # divisibility chain d1 | d2 | ..., each > 1

    @classmethod
    def from_coker(cls, diag: list[int], target_dim: int) -> "AbelianInvariants":
        tors = tuple(d for d in diag if d > 1)
        return cls(rank=target_dim - len(diag), torsion=tors)

    def torsion_part(self) -> "AbelianInvariants":
        return AbelianInvariants(0, self.torsion)

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


# ---------------------------------------------------------------------------
# cohomology of a three-term complex

class ComplexSegment:
    """C^{k-1} --A--> C^k --B--> C^{k+1} with labeled bases, B A = 0."""

    def __init__(self, ring: RingSpec, lower: list, mid: list, upper: list,
                 A: list[list[int]], B: list[list[int]]):
        self.ring = ring
        self.lower, self.mid, self.upper = list(lower), list(mid), list(upper)
        self.A = A  # len(mid) rows x len(lower) cols
        self.B = B  # len(upper) rows x len(mid) cols
        prod = mat_mul(B, A) if (upper and lower) else []
        if any(any(ring.normalize(x) for x in row) for row in prod):
            raise ValueError("B*A != 0: not a complex segment")


class CohomologyData:
    """H^k of a segment: invariants, representative cocycles, coordinates.

    ``generators`` is a list of (order, representative) pairs, torsion
    generators first in divisibility order, then free generators; the
    representative is a dense vector over the middle basis.
    ``class_coords`` maps any cocycle vector to coordinates aligned with
    the generators (torsion coordinates reduced mod the order).
    """

    def __init__(self, ring, invariants, generators, coord_fn, mid_labels):
        self.ring = ring
        self.invariants = invariants
        self.generators = generators
        self._coord_fn = coord_fn
        self.mid_labels = mid_labels

    def class_coords(self, vec: list[int]) -> list[int]:
        return self._coord_fn(vec)

    @property
    def orders(self) -> list[int]:
        return [o for o, _ in self.generators]


def _cohomology_Z(seg: ComplexSegment) -> CohomologyData:
    nm, nl = len(seg.mid), len(seg.lower)
    K = kernel_basis_Z(seg.B, nm) if seg.upper else None
    k = nm if K is None else len(K)
    if k == 0:
        return CohomologyData(seg.ring, AbelianInvariants(0, ()), [],
                              lambda v: [], seg.mid)
    # Coordinates on ker B in the basis K; without an upper term K is the
    # identity and needs no factor.
    to_kernel = from_kernel = list
    if K is not None:
        Krows = [[v[i] for v in K] for i in range(nm)]
        kfac = smith_normal_form(Krows, k, want_u=True, want_v=True)
        if kfac.diag != [1] * k:
            raise ArithmeticError(f"kernel basis is not primitive: Smith "
                                  f"normal form diagonal {kfac.diag}")

        def to_kernel(vec):
            y = kfac.solve(vec).solution
            if y is None:
                raise ValueError("vector is not a cocycle")
            return y

        def from_kernel(w):
            return mat_vec(Krows, w)

    cols = [to_kernel([seg.A[i][j] for i in range(nm)]) for j in range(nl)]
    Crows = [[cols[j][i] for j in range(nl)] for i in range(k)]
    csnf = smith_normal_form(Crows, nl, want_u=True, want_uinv=True)
    order_slots = [(i, d) for i, d in enumerate(csnf.diag) if d > 1]
    order_slots += [(i, 0) for i in range(csnf.rank, k)]
    gens = [(d, from_kernel([row[i] for row in csnf.Uinv]))
            for i, d in order_slots]
    inv = AbelianInvariants(rank=k - csnf.rank,
                            torsion=tuple(d for _, d in order_slots if d))
    slot_rows = [csnf.U[i] for i, _ in order_slots]

    def coord_fn(vec):
        c = mat_vec(slot_rows, to_kernel(vec))
        return [x % d if d else x for x, (_, d) in zip(c, order_slots)]

    return CohomologyData(seg.ring, inv, gens, coord_fn, seg.mid)


def cohomology_sparse_zp(ring: RingSpec, n_mid: int,
                         a_cols: list[dict[int, int]],
                         b_cols: list[dict[int, int]] | None,
                         mid_labels=None) -> CohomologyData:
    """H = ker(B)/im(A) over GF(p) with sparse column input.

    ``b_cols[j]`` is the j-th column of B (upper-index -> value); None
    means B = 0.  ``a_cols`` are the columns of A in mid-coordinates.
    """
    p = ring.p
    if b_cols is None:
        ker = [{i: 1} for i in range(n_mid)]
    else:
        n_upper = 1 + max((max(c) for c in b_cols if c), default=-1)
        ker = kernel_mod_p(p, b_cols, n_upper)
    quotient = ZpEliminator(p, len(a_cols) + len(ker), n_mid)
    for col in a_cols:
        quotient.insert({i: v % p for i, v in col.items() if v % p})
    gens = []
    for rel in ker:
        if quotient.insert(rel, tag=len(gens)):
            vec = [0] * n_mid
            for i, x in rel.items():
                vec[i] = x
            gens.append((p, vec))
    inv = AbelianInvariants(rank=0, torsion=tuple(p for _ in gens))

    def coord_fn(vec):
        sparse = {i: x % p for i, x in enumerate(vec) if x % p}
        combo = quotient.express(sparse)
        if combo is None:
            raise ValueError("vector is not a cocycle")
        return [combo.get(i, 0) for i in range(len(gens))]

    labels = mid_labels if mid_labels is not None else list(range(n_mid))
    return CohomologyData(ring, inv, gens, coord_fn, labels)


def _cohomology_Zp(seg: ComplexSegment) -> CohomologyData:
    p = seg.ring.p
    nm = len(seg.mid)
    b_cols = None
    if seg.upper:
        b_cols = [{} for _ in range(nm)]
        for i, row in enumerate(seg.B):
            for j, v in enumerate(row):
                if v % p:
                    b_cols[j][i] = v % p
    a_cols = [{i: seg.A[i][j] % p for i in range(nm) if seg.A[i][j] % p}
              for j in range(len(seg.lower))]
    return cohomology_sparse_zp(seg.ring, nm, a_cols, b_cols, seg.mid)


def cohomology_at(seg: ComplexSegment) -> CohomologyData:
    if seg.ring.is_modular:
        return _cohomology_Zp(seg)
    return _cohomology_Z(seg)
