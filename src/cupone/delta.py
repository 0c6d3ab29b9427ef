"""Finite Delta-sets (dimension <= 3) and their binomial cup-one cochain
algebras, finite magmas and their classifying complexes, and the
pushforward of tensor elements into cochains.

Faces are kept by position, d_0, ..., d_k of a k-cell as positions in
the list of (k-1)-cells; cell names are only labels, for cochains and
reports.  A finite magma keeps one product table on positions, and its
complex writes every face from it; a 3-cell name [x|y|z] is made, and a
3-cell face written and checked, only when read.  Over GF(p), p <= 13,
the columns of delta^k reach the eliminator as packed rows written from
the face positions in one pass (``coboundary_cols_packed``).  Cup
products use the Alexander-Whitney front/back face rule; the cup-one
product of 1-cochains and the circle product of 2-cochains are pointwise.

``push_tensor`` sends T(X) to cochains along given 1-cochains rho(x):
zeta_I to the pointwise binomials of the rho-values, a word to the cup
product of its factors.  psi is this map along the coordinate cochains
[a] -> a_i of a magma; a model stage's ``rho_push`` is it along its rho.
"""
from __future__ import annotations

from collections.abc import Sequence
from functools import partial, reduce
from itertools import product as iproduct
from operator import itemgetter, ne, or_

from .rings import (Combination, InternalError, MultiIndex,
                    PreconditionError, RingSpec, eval_columns)
from .tensor import TensorElem


class DeltaSet:
    """Semi-simplicial set truncated at dimension 3.

    ``cells[d]`` lists the names of the d-cells and ``faces[d][i]`` the
    positions in ``cells[d - 1]`` of the faces of the i-th d-cell; on a
    magma complex ``cells[3]`` and ``faces[3]`` are read-only sequences.

    The complex of a magma M checked associative also records
    ``last_generators``, the indices of a set S that generates M as a
    semigroup.  Then a k-cochain f is a cocycle once delta f vanishes on
    the (k+1)-cells whose last entry lies in S (``generator_rows``): for
    g = delta f, delta g = 0 on [a|b|c|s] reads g(a,b,cs) = g(a,b,c), and
    every c is a product s_1...s_m, so g(a,b,c) = g(a,b,s_1) = 0; one
    degree down the same holds on [a|s].  delta g = 0 is associativity
    there, and without it the rule fails.
    """

    def __init__(self, cells: dict[int, list[str]],
                 faces: dict[str, tuple[str, ...]]):
        """``faces`` maps each name of a cell of dimension >= 1 to the
        names of its faces, the format of the parsers."""
        cells = {d: list(cells.get(d, ())) for d in range(4)}
        self._check_names(cells)
        by_pos = [[()] * len(cells[0])]
        for d in range(1, 4):
            position = {c: i for i, c in enumerate(cells[d - 1])}.__getitem__
            rows = []
            for c in cells[d]:
                fs = faces.get(c)
                if fs is None or len(fs) != d + 1:
                    raise PreconditionError(
                        f"cell {c!r} needs {d + 1} faces")
                try:
                    rows.append(tuple(map(position, fs)))
                except KeyError as e:
                    raise PreconditionError(
                        f"face {e.args[0]!r} of {c!r} is not "
                        f"a {d - 1}-cell") from None
            by_pos.append(rows)
        self._setup(cells, by_pos)

    @classmethod
    def from_positions(cls, cells: dict, faces: list) -> "DeltaSet":
        """A Delta-set cupone builds itself, faces by position; a failed
        check is a defect, not a fault of the input."""
        X = cls.__new__(cls)
        try:
            X._check_names(cells)
            X._setup(cells, faces)
        except ValueError as e:
            raise InternalError(str(e)) from None
        return X

    @staticmethod
    def _check_names(cells):
        names = [c for d in range(3) for c in cells[d]]
        top = cells[3]
        # Lazy names [x|y|z] over distinct element names without "|" are
        # distinct, and differ from every name with fewer than two "|".
        if not (isinstance(top, _TripleNames) and top.split_one_way()
                and not any(c.count("|") > 1 for c in names)):
            names += top
        if len(set(names)) != len(names):
            first: dict[str, int] = {}
            dup = next(c for i, c in enumerate(names)
                       if first.setdefault(c, i) != i)
            raise PreconditionError(f"duplicate cell id {dup!r}")

    def _setup(self, cells, faces):
        self.cells = cells
        self.faces = faces
        self.validate()
        # (ring, k) -> H^k(X; R) and, over Z, j -> the Smith factor of
        # delta^j, filled by segment_cohomology; (p, q) -> the cup
        # product's face table, filled by face_table, and (p, q, "front")
        # -> its front index, filled by front_index.  Nothing changes a
        # Delta-set after validation.
        self._cohomology: dict = {}
        self._factors: dict = {}
        self._face_tables: dict = {}
        self.last_generators: list[int] | None = None

    def validate(self):
        """Every d-cell has d + 1 face positions inside cells[d - 1], and
        d_i d_j = d_{j-1} d_i for i < j on every 2- and 3-cell.  Lazy
        3-cell faces of a magma checked associative, beside the 2-cell
        faces they were written with, are checked when read instead."""
        for d in (1, 2, 3):
            top = self.faces[d]
            if len(top) != len(self.cells[d]):
                raise PreconditionError(
                    f"{len(self.cells[d])} {d}-cells but "
                    f"{len(top)} face tuples")
            if not (isinstance(top, _TripleFaces) and top.associative
                    and top.lower is self.faces[2]):
                _check_faces(d, top, self.faces[d - 1],
                             len(self.cells[d - 1]), partial(self._scan, d))

    def _scan(self, d: int, pairs: list[tuple[int, int]]):
        _scan_cells(d, pairs, self.cells[d], self.faces[d],
                    self.faces[d - 1], len(self.cells[d - 1]))

    def face_table(self, p: int, q: int) -> list[tuple[str, str, str]]:
        """(s, front p-face, back q-face) for every (p+q)-cell s, in
        cells[p + q] order: the Alexander-Whitney faces, built once.  Front
        faces drop the last vertices (d_d), back faces the first (d_0)."""
        table = self._face_tables.get((p, q))
        if table is None:
            d = p + q
            front = back = range(len(self.cells[d]))
            for e in range(d, p, -1):
                front = [self.faces[e][x][e] for x in front]
            for e in range(d, q, -1):
                back = [self.faces[e][x][0] for x in back]
            table = self._face_tables[(p, q)] = [
                (s, self.cells[p][f], self.cells[q][b])
                for s, f, b in zip(self.cells[d], front, back)]
        return table

    def front_index(self, p: int, q: int) -> dict[str, list]:
        """front p-face -> [(s, back q-face)] in cells[p + q] order: the
        ``face_table(p, q)`` by front face, built once and kept beside it."""
        index = self._face_tables.get((p, q, "front"))
        if index is None:
            index = self._face_tables[(p, q, "front")] = {}
            for s, front, back in self.face_table(p, q):
                index.setdefault(front, []).append((s, back))
        return index

    def generator_rows(self, k: int) -> list[int] | None:
        """Indices into cells[k + 1] of the cells whose last entry lies in
        S, ascending, or None when no S is recorded.  A magma complex
        lists its (k+1)-cells with the last entry varying fastest."""
        gens = self.last_generators
        if gens is None:
            return None
        n = len(self.cells[1])
        return [q + s for q in range(0, len(self.cells[k + 1]), n)
                for s in gens]

    def max_dim(self) -> int:
        return max((d for d in range(4) if self.cells[d]), default=0)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(self.cells[d]) for d in range(4))

    def __repr__(self):
        counts = [len(self.cells[d]) for d in range(4)]
        return f"DeltaSet(cells={counts})"


def _check_faces(d: int, top, lower, n: int, scan):
    """Check the faces ``top`` of d-cells against ``lower``, the faces of
    the n (d-1)-cells, over whole face columns, in blocks of 4,096 cells
    to bound memory: at[j] picks face j of every cell in the block, so
    at[j](lower[i]) lists d_i d_j.  A failing block calls ``scan(pairs)``,
    the per-cell scan, which names the first failing cell."""
    if not top:
        return
    inside = frozenset(range(n)).issuperset
    # The faces of a 1-cell have no faces: it has positions only.
    pairs = ([(i, j) for j in range(1, d + 1) for i in range(j)]
             if d > 1 else [])
    lower = ([list(map(itemgetter(i), lower)) for i in range(d)]
             if pairs else [])
    for lo in range(0, len(top), 4096):
        # Not zip(*block): it makes one iterator per cell, enough tracked
        # objects to set off full GC passes on a big complex.
        block = top[lo:lo + 4096]
        cols = ([list(map(itemgetter(j), block)) for j in range(d + 1)]
                if set(map(len, block)) == {d + 1} else [])
        if cols and all(map(inside, cols)):
            at = [itemgetter(*col) for col in cols]
            if all(at[j](lower[i]) == at[i](lower[j - 1]) for i, j in pairs):
                continue
        scan(pairs)
        raise InternalError(f"the face columns of dimension {d} fail a "
                            f"check that no {d}-cell fails")


def _scan_cells(d: int, pairs, names, top, lower, n: int, error=ValueError):
    """Raise ``error`` on the first d-cell, of ``names``, whose faces in
    ``top`` are not d + 1 positions in range(n) or fail an identity."""
    for c, fs in zip(names, top):
        if len(fs) != d + 1 or not all(0 <= f < n for f in fs):
            raise error(f"cell {c!r} needs {d + 1} face positions "
                        f"in range({n}), not {fs!r}")
        ffs = [lower[f] for f in fs]
        for i, j in pairs:
            if ffs[j][i] != ffs[i][j - 1]:
                raise error(f"face identity fails on {c!r}: "
                            f"d_{i} d_{j} != d_{j - 1} d_{i}")


class Cochain(Combination):
    """Sparse cochain of a fixed dimension."""

    __slots__ = ("dim",)

    def __init__(self, dim: int, ring: RingSpec, values=None):
        if not 0 <= dim <= 3:
            raise PreconditionError("cochain dimension must be 0..3")
        self.dim = dim
        self.ring = ring
        self.terms = self._summed(ring, values)

    def _like(self, items):
        t = self._tidy(self.ring, items)
        t.dim = self.dim
        return t

    def __call__(self, cell: str) -> int:
        return self.terms.get(cell, 0)

    def _check(self, other: "Cochain"):
        if self.dim != other.dim or self.ring != other.ring:
            raise PreconditionError("cochain dimension or ring mismatch")

    def __eq__(self, other):
        return super().__eq__(other) and self.dim == other.dim

    def __hash__(self):
        return hash((self.dim, self.ring, frozenset(self.terms.items())))

    def vector(self, cells: list[str]) -> list[int]:
        return [self.terms.get(c, 0) for c in cells]

    def pair_with_chain(self, chain: dict[str, int]) -> int:
        return self.ring.normalize(
            sum(self.terms.get(c, 0) * m for c, m in chain.items()))

    def __repr__(self):
        body = ", ".join(f"{c}: {v}" for c, v in sorted(self.terms.items()))
        return f"Cochain{self.dim}({{{body}}})"


# ---------------------------------------------------------------------------
# cochain operations

def coboundary(X: DeltaSet, c: Cochain) -> Cochain:
    if c.dim >= 3:
        raise PreconditionError("coboundary capped at dimension 2 inputs")
    vals = c.vector(X.cells[c.dim]) if X.cells[c.dim + 1] else []
    out = {}
    for s, fs in zip(X.cells[c.dim + 1], X.faces[c.dim + 1]):
        v = 0
        for i, f in enumerate(fs):
            v += vals[f] if i % 2 == 0 else -vals[f]
        if c.ring.normalize(v):
            out[s] = v
    return Cochain(c.dim + 1, c.ring, out)


def cup_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """Alexander-Whitney product u(front) * v(back), read along the
    support of u."""
    if u.ring != v.ring:
        raise PreconditionError("ring mismatch")
    p, q = u.dim, v.dim
    if p + q > 3:
        raise PreconditionError("cup product capped at total dimension 3")
    return Cochain(p + q, u.ring,
                   _cup_into({}, X.front_index(p, q), u.terms, v.terms))


def cup1_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """Pointwise product on 1-cells; zero when a factor is 0-dimensional."""
    if u.ring != v.ring:
        raise PreconditionError("ring mismatch")
    if 0 in (u.dim, v.dim):
        return Cochain(max(u.dim + v.dim - 1, 0), u.ring, {})
    if u.dim != 1 or v.dim != 1:
        raise PreconditionError("cup-one on cochains supports dimensions "
                                "(1,1) and zero-dimensional factors only")
    vv = v.terms
    return Cochain(1, u.ring,
                   {c: a * vv[c] for c, a in u.terms.items() if c in vv})


def cup2_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """The circle map: pointwise product on 2-cells."""
    if u.dim != 2 or v.dim != 2:
        raise PreconditionError("circle product requires two 2-cochains")
    if u.ring != v.ring:
        raise PreconditionError("ring mismatch")
    vv = v.terms
    return Cochain(2, u.ring,
                   {c: a * vv[c] for c, a in u.terms.items() if c in vv})


def zeta_cochain(X: DeltaSet, f: Cochain, k: int) -> Cochain:
    """Pointwise binomial coefficient on 1-cells."""
    if f.dim != 1:
        raise PreconditionError("zeta maps apply to 1-cochains")
    if k == 0:
        return Cochain(1, f.ring, {c: 1 for c in X.cells[1]})
    return push_zeta(X, {"f": f}, MultiIndex.single("f", k), f.ring)


def cup1_21_from_decomposition(X: DeltaSet, decomposition, b: Cochain) -> Cochain:
    """(sum_i c_i u_i cup v_i) cup1 b via the Hirsch rewriting
    (u cup v) cup1 b = u cup (v cup1 b) + (u cup1 b) cup v."""
    out = Cochain(2, b.ring, {})
    for u, v, c in decomposition:
        t = (cup_cochain(X, u, cup1_cochain(X, v, b))
             + cup_cochain(X, cup1_cochain(X, u, b), v))
        out = out + t.scale(c)
    return out


def steenrod_cup1_21(X: DeltaSet, u: Cochain, b: Cochain) -> Cochain:
    """Pointwise form of the (2,1) cup-one on decomposable 2-cochains:
    (u cup1 b)(s) = u(s) * (b(front edge) + b(back edge)).

    Agrees with the Hirsch rewriting on every decomposition of u, which
    makes the rewriting independent of the chosen decomposition."""
    if u.dim != 2 or b.dim != 1:
        raise PreconditionError("requires a 2-cochain and a 1-cochain")
    uv, bv = u.terms, b.terms
    out = {}
    for s, front, back in X.face_table(1, 1):
        val = uv.get(s)
        if val:
            f = bv.get(front, 0) + bv.get(back, 0)
            if f:
                out[s] = val * f
    return Cochain(2, u.ring, out)


# ---------------------------------------------------------------------------
# magmas and their complexes

class FiniteMagma:
    """Finite carrier with a binary operation, kept once as a table on
    positions: elements[prod[i][j]] = elements[i] elements[j].  The table
    is built from a callable or dict, or taken as it is (``from_table``)."""

    def __init__(self, elements, op, unit=None, name_fn=None):
        self._carrier(elements, unit, name_fn)
        index = self._index
        if not callable(op):
            op = lambda a, b, table=dict(op): table[(a, b)]
        self.prod = [[index.get(op(a, b)) for b in self.elements]
                     for a in self.elements]
        for a, row in zip(self.elements, self.prod):
            if None in row:
                b = self.elements[row.index(None)]
                raise PreconditionError(
                    f"product {a}*{b} leaves the carrier")

    @classmethod
    def from_table(cls, elements, prod: list[list[int]], unit=None,
                   name_fn=None) -> "FiniteMagma":
        """The magma whose table on positions is ``prod``."""
        m = cls.__new__(cls)
        m._carrier(elements, unit, name_fn)
        n = len(m.elements)
        inside = frozenset(range(n)).issuperset
        if len(prod) != n or not all(len(row) == n and inside(row)
                                     for row in prod):
            raise PreconditionError(
                f"a product table on {n} elements needs {n} "
                f"rows of {n} positions in range({n})")
        m.prod = prod
        return m

    def _carrier(self, elements, unit, name_fn):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise PreconditionError("duplicate carrier elements")
        self.unit = unit
        self.name_fn = name_fn or (lambda e: str(e))

    def op(self, a, b):
        return self.elements[self.prod[self._index[a]][self._index[b]]]

    def associativity_counterexample(self):
        """The first (a, b, c) in element order with (ab)c != a(bc), or
        None.  Light's test: L = {s : (xs)y = x(sy) for all x, y} is closed
        under the product in any magma, so M is associative once L holds a
        set S that generates M; S picks, in element order, each element
        that right products of earlier picks do not reach.  Each (s, x) is
        one row comparison, (xs)y against x(sy) over all y.  Only on a
        failure are the pairs (a, b) scanned, a row each, for the first c."""
        rows = [tuple(row) for row in self.prod]
        if len(rows) < 2:  # an itemgetter of one index returns no tuple
            return None
        picks, reached = [], set()
        for g in range(len(rows)):
            if g not in reached:
                picks.append(g)
                reached = _right_closure(rows, picks)
        if not any(any(map(ne, map(itemgetter(*rows[s]), rows),
                           map(rows.__getitem__, map(itemgetter(s), rows))))
                   for s in picks):
            return None
        # a_bc[b](rows[a]) lists a(bc) over c, and rows[ab] lists (ab)c.
        a_bc = [itemgetter(*row) for row in rows]
        a, b = next((a, b) for a, row in enumerate(rows)
                    for b, ab in enumerate(row) if rows[ab] != a_bc[b](row))
        c = next(c for c, (u, v) in enumerate(zip(
            rows[rows[a][b]], a_bc[b](rows[a]))) if u != v)
        e = self.elements
        return (e[a], e[b], e[c])

    def is_monoid(self) -> bool:
        if self.unit is None:
            return False
        e = self._index[self.unit]
        return (all(row[e] == a and self.prod[e][a] == a
                    for a, row in enumerate(self.prod))
                and self.associativity_counterexample() is None)

    def has_inverses(self) -> bool:
        if self.unit is None:
            return False
        e = self._index[self.unit]
        return all(e in row for row in self.prod)

    def __len__(self):
        return len(self.elements)


class _TripleNames(Sequence):
    """The names [x|y|z] of the 3-cells of a magma complex, for x, y, z in
    the element names ``names``, z fastest: a read-only sequence that
    makes each string when asked and equals the list of them."""

    def __init__(self, names: list[str]):
        self.names = names

    def __len__(self):
        return len(self.names) ** 3

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        n, names = len(self.names), self.names
        ij, z = divmod(range(n ** 3)[i], n)  # IndexError past either end
        x, y = divmod(ij, n)
        return f"[{names[x]}|{names[y]}|{names[z]}]"

    def __iter__(self):
        names = self.names
        for x in names:
            for y in names:
                pre = f"[{x}|{y}|"
                yield from [pre + z + "]" for z in names]

    def __eq__(self, other):
        return list(self) == other if isinstance(other, list) \
            else NotImplemented

    def split_one_way(self) -> bool:
        """Are the element names distinct and free of "|"?  Then each
        [x|y|z] splits into its names one way, so the names differ."""
        names = self.names
        return (len(set(names)) == len(names)
                and not any("|" in x for x in names))


class _TripleFaces(_TripleNames):
    """The faces (b|c, ab|c, a|bc, a|b) of the same 3-cells [a|b|c], by
    position, written from ``prod`` and checked against ``lower``, the
    2-cell faces, when read: ``rows`` writes only the cells asked for, a
    full read (indexing, slicing, iteration) the whole column, once.  Of
    the face identities only d_1 d_2 = d_1 d_1 reads ``prod`` twice: it is
    associativity, which ``associative`` records as checked."""

    def __init__(self, names, prod, lower, associative: bool):
        super().__init__(names)
        self.prod, self.lower, self.associative = prod, lower, associative
        self._column = None

    def rows(self, rows) -> list[tuple[int, int, int, int]]:
        # [a|b|c] is cell r = (a n + b) n + c: [a|b] is r // n, [b|c] is
        # r % n^2, and ab = flat[a n + b]; one int per 2-cell position.
        n, lower = len(self.prod), self.lower
        nn, flat = n * n, [x for row in self.prod for x in row]
        pos = list(range(nn))
        out = [(pos[r % nn], pos[flat[r // n] * n + r % n],
                pos[r // nn * n + flat[r % nn]], pos[r // n]) for r in rows]
        names = map(partial(_TripleNames.__getitem__, self), rows)
        _check_faces(3, out, lower, len(lower), partial(
            _scan_cells, 3, names=names, top=out, lower=lower, n=len(lower),
            error=InternalError))
        return out

    def __getitem__(self, i):
        if self._column is None:
            self._column = self.rows(range(len(self)))
        return self._column[i]

    def __iter__(self):
        return iter(self[:])


class MagmaComplex:
    """Delta(M) up to dimension <= 3; its cells list the elements, pairs
    and triples of ``magma.elements`` in order, the last entry fastest."""

    def __init__(self, delta: DeltaSet, magma: FiniteMagma):
        self.delta, self.magma = delta, magma


# Largest |G|^k that delta_from_magma and bar_construction take on, for
# the |G|^max_dim top cells and, in the monoid check of bar_construction,
# the |G|^3 associativity triples (Light's test reads |G|^2 |S| of them,
# but the guard counts them all).  group-realize takes it on the |G|^2
# entries of the product table it builds.  Measured on B(Z_2^k) at
# dimension 3, which writes its 3-cells only when read: 262,144 3-cells
# (k = 6) build in 0.01 s, and a full read of their faces takes 0.23 s
# at 45 MB peak RSS, 2,097,152 (k = 7) 2.7 s at 230 MB; group-realize on
# a law with |G| = 512 takes about 1 s at 37 MB (one core of a 2-core x86
# host, Python 3.11).
MAGMA_CELL_LIMIT = 262_144


def check_magma_size(base: int, max_dim: int, monoid: bool = False,
                     power: int = 1):
    """Refuse a magma complex on |G| = base^power elements before any
    table is built: its |G|^max_dim top cells, and the |G|^3 associativity
    triples when the monoid check runs."""
    if base < 2:
        return
    k = power * (max(max_dim, 3) if monoid else max_dim)
    # Past 64 bits the estimate is far above the limit; do not build it.
    exact = k * base.bit_length() <= 64
    if exact and base ** k <= MAGMA_CELL_LIMIT:
        return
    group = f"{base:,}" if power == 1 else f"{base}^{power:,}"
    est = f"{base ** k:,}" if exact else f"{base}^{k:,}"
    what = "cells and associativity triples" if monoid else "cells"
    raise PreconditionError(
        f"magma complex refused: |G| = {group} at max-dim {max_dim} "
        f"gives an estimated {est} {what} (limit {MAGMA_CELL_LIMIT:,})")


def delta_from_magma(m: FiniteMagma, max_dim: int = 2) -> MagmaComplex:
    """One vertex; 1-cells the elements; 2-cell (a,b) has faces
    (b, ab, a); 3-cells per the associativity tetrahedron."""
    check_magma_size(len(m), max_dim)
    if max_dim >= 3 and m.associativity_counterexample() is not None:
        raise PreconditionError("dimension 3 requires an associative magma")
    return _magma_complex(m, max_dim, associative=max_dim >= 3)


def _right_closure(prod, picks: list[int]) -> set[int]:
    """The picks and their right products by picks, ((s s')s'')...: a
    subset of the submagma the picks generate, all of it when M is
    associative, since each product of picks is a shorter one times a
    pick."""
    seen = set(picks)
    queue = list(picks)
    for x in queue:
        for s in picks:
            y = prod[x][s]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def _semigroup_generators(prod: list[list[int]], unit) -> list[int]:
    """A set S that generates an associative magma with product table
    ``prod`` (on indices) as a semigroup, ascending.  Each pick is the
    element not yet reached that adds most to the closure, the smallest
    on a tie, and the unit only when nothing else is left: a finite group
    never needs it, a monoid such as max on {0..3} does.  Every caller
    has capped |M| at 64, so trying each element per pick is cheap."""
    gens: list[int] = []
    reached: set[int] = set()
    while len(reached) < len(prod):
        left = [g for g in range(len(prod))
                if g not in reached and g != unit] or [unit]
        gens.append(max(left,
                        key=lambda g: len(_right_closure(prod, gens + [g]))))
        reached = _right_closure(prod, gens)
    return sorted(gens)


def _magma_complex(m: FiniteMagma, max_dim: int,
                   associative: bool) -> MagmaComplex:
    # [a_i|a_j] is cell i n + j and [a_i|a_j|a_k] is (i n + j) n + k, so
    # faces are arithmetic in the product table.  ``associative``: the
    # caller has checked the magma, so the Delta-set may record its
    # semigroup generators.
    prod, n = m.prod, len(m)
    names = [m.name_fn(a) for a in m.elements]
    cells = {0: ["*"], 1: [f"[{x}]" for x in names], 2: [], 3: []}
    faces = [[()], [(0, 0)] * n, [], []]
    if max_dim >= 2:
        # [a|b] -> (b, ab, a)
        cells[2] = [f"[{x}|{y}]" for x in names for y in names]
        faces[2] = [(j, ab, i) for i in range(n)
                    for j, ab in enumerate(prod[i])]
    if max_dim >= 3:
        # Only a cochain or a report reads a 3-cell name, and GF(p)
        # cohomology reads only the generator rows of the faces.
        cells[3] = _TripleNames(names)
        faces[3] = _TripleFaces(names, prod, faces[2], associative)
    delta = DeltaSet.from_positions(cells, faces)
    if associative and max_dim >= 2:
        delta.last_generators = _semigroup_generators(
            prod, m._index.get(m.unit))
    return MagmaComplex(delta, m)


def cyclic_group_magma(moduli: tuple[int, ...]) -> FiniteMagma:
    """The finite abelian group prod Z_{m_i} as a magma of tuples."""
    elements = [tuple(t) for t in iproduct(*(range(m) for m in moduli))]

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    name = lambda e: ",".join(str(x) for x in e)
    return FiniteMagma(elements, add, unit=tuple(0 for _ in moduli),
                       name_fn=name)


def bar_construction(g: FiniteMagma, max_dim: int = 2) -> MagmaComplex:
    """Delta(M) of a finite monoid (the bar construction)."""
    check_magma_size(len(g), max_dim, monoid=True)
    if not g.is_monoid():
        raise PreconditionError("bar construction requires a finite monoid")
    # is_monoid has checked associativity, which dimension 3 and the
    # generator rows need.
    return _magma_complex(g, max_dim, associative=True)


# ---------------------------------------------------------------------------
# pushing tensor elements into cochains

def push_zeta(X: DeltaSet, rho: dict[str, Cochain], idx: MultiIndex,
              ring: RingSpec) -> Cochain:
    """The image of zeta_I, I not the unit: on each 1-cell e, zeta_I at
    the point x -> rho[x](e).  C(0, k) = 0 for k >= 1, so ``eval_columns``
    evaluates it only on the cells where every rho[x] of I has a value."""
    vals = [rho[name].terms for name in idx.support]
    cells = list(vals[0])
    for f in vals[1:]:
        cells = list(filter(f.__contains__, cells))
    cols = [list(map(f.__getitem__, cells)) for f in vals]
    return Cochain(1, ring, dict(zip(cells, eval_columns(idx, cols, ring))))


def _cup_into(out: dict, front: dict, uv: dict, vv: dict) -> dict:
    """out += u cup v on values, along the front index of u's and v's
    dimensions: only the cells whose front face carries u are read."""
    for f, a in uv.items():
        for s, back in front.get(f, ()):
            b = vv.get(back)
            if b:
                out[s] = out.get(s, 0) + a * b
    return out


def push_tensor(X: DeltaSet, rho: dict[str, Cochain], t: TensorElem,
                deg: int, cache: dict) -> Cochain:
    """The map T(X) -> C*(X) that sends each generator x to the 1-cochain
    rho[x]: zeta_I goes to ``push_zeta`` (once per I, kept in ``cache``),
    a word to the cup product of its factors, and a constant to the
    constant on the 0-cells.  ``deg`` is the degree of a zero ``t``.  Words
    with one prefix sum their last factors' images, and the prefix's image
    is cupped with that sum once along ``DeltaSet.front_index``."""
    ring = t.ring
    if t.terms:
        deg = t.degree()
    if deg == 0:
        c = t.terms.get((), 0)
        return Cochain(0, ring, {v: c for v in X.cells[0]})
    if deg > 3:
        raise PreconditionError("cup product capped at total dimension 3")

    def image(idx) -> dict:
        f = cache.get(idx)
        if f is None:
            f = cache[idx] = push_zeta(X, rho, idx, ring)
        return f.terms

    groups: dict[tuple, dict] = {}
    for word, c in t.terms.items():
        last = groups.setdefault(word[:-1], {})
        for e, v in image(word[-1]).items():
            last[e] = last.get(e, 0) + c * v
    out: dict = {}
    for prefix, last in groups.items():
        if not prefix:  # degree 1: the only group
            out = last
            continue
        cur = image(prefix[0])
        for p, idx in enumerate(prefix[1:], 1):
            cur = _cup_into({}, X.front_index(p, 1), cur, image(idx))
        _cup_into(out, X.front_index(deg - 1, 1), cur, last)
    return Cochain(deg, ring, out)


def psi_embed(u: TensorElem, mc: MagmaComplex, gens: list[str],
              deg: int | None = None) -> Cochain:
    """psi: T(X) -> C*(Delta(M)) for a magma of coordinate tuples aligned
    with ``gens``, the pushforward along the coordinate cochains
    [a] -> a_i.  ``deg`` is the degree of a zero ``u`` (default 1)."""
    X = mc.delta
    if not u.is_zero():
        deg = u.degree()
        if deg > 3:
            raise PreconditionError("psi embeds degrees <= 3")
        if deg == 3 and not X.cells[3]:
            raise PreconditionError("target complex lacks 3-cells")
    # The 1-cells list the elements in order.
    cells = X.cells[1]
    columns = zip(*mc.magma.elements)
    coords = {g: Cochain(1, u.ring, dict(zip(cells, col)))
              for g, col in zip(gens, columns)}
    return push_tensor(X, coords, u, 1 if deg is None else deg, {})


# ---------------------------------------------------------------------------
# coboundaries and cohomology

def coboundary_matrix(X: DeltaSet, k: int) -> list[list[int]]:
    """Matrix of delta^k: C^k -> C^{k+1} (rows: (k+1)-cells)."""
    n = len(X.cells[k])
    rows = []
    for fs in X.faces[k + 1]:
        row = [0] * n
        for i, f in enumerate(fs):
            row[f] += 1 if i % 2 == 0 else -1
        rows.append(row)
    return rows


def _face_rows(X: DeltaSet, d: int, rows: list[int] | None):
    """X.faces[d], or its entries at ``rows``: lazy faces write only those."""
    top = X.faces[d]
    if rows is None:
        return top
    if rows and not 0 <= min(rows) <= max(rows) < len(top):
        raise InternalError(f"rows outside 0..{len(top) - 1}")
    return (top.rows(rows) if isinstance(top, _TripleFaces)
            else [top[r] for r in rows])


def coboundary_cols_sparse(X: DeltaSet, k: int, p: int,
                           rows: list[int] | None = None) -> list[dict]:
    """Columns of delta^k as sparse dicts row -> value mod p.  The rows
    are the (k+1)-cells, or only the cells[k + 1][r] for r in ``rows``,
    numbered by their position there."""
    cols: list[dict] = [{} for _ in X.cells[k]]
    for si, fs in enumerate(_face_rows(X, k + 1, rows)):
        sign = 1
        for j in fs:
            col = cols[j]
            v = (col.get(si, 0) + sign) % p
            if v:
                col[si] = v
            else:
                # sign alone is a unit mod p, so v = 0 means si was there
                del col[si]
            sign = -sign
    return cols


def coboundary_cols_packed(X: DeltaSet, k: int, p: int,
                           rows: list[int] | None = None) -> list:
    """The columns of ``coboundary_cols_sparse`` for p <= 13 as packed rows
    of a ``ZpEliminator``: for p = 2 the int with bit r set where row r
    holds 1, for odd p the list whose entry c is that mask for the value c
    and whose entry 0 is their union.  One pass over the faces: the row of
    a cell holds (-1)^t at its face t, summed over repeated faces."""
    upper = _face_rows(X, k + 1, rows)
    if p == 2:
        cols = [0] * len(X.cells[k])
        for si, fs in enumerate(upper):
            bit = 1 << si
            for j in fs:
                cols[j] ^= bit
        return cols
    cols = [[0] * p for _ in range(len(X.cells[k]))]
    signs = (1, p - 1, 1, p - 1)
    for si, fs in enumerate(upper):
        bit = 1 << si
        if len(set(fs)) == len(fs):
            for j, sign in zip(fs, signs):
                cols[j][sign] |= bit
            continue
        vals: dict[int, int] = {}
        for j, sign in zip(fs, signs):
            vals[j] = (vals.get(j, 0) + sign) % p
        for j, v in vals.items():
            if v:
                cols[j][v] |= bit
    for col in cols:
        col[0] = reduce(or_, col)
    return cols


def segment_cohomology(X: DeltaSet, ring: RingSpec, k: int):
    """H^k(X; R), computed once per (ring, k) and kept on X; sparse
    elimination over Z_p, Smith normal form over Z.  Its ``preimage``
    solves delta^{k-1} x = vec on the same factor.

    Over Z_p, ker delta^k is read from ``X.generator_rows(k)`` when X
    records them: on the complex of an associative magma generated by S,
    those (k+1)-cells ending in S cut out ker delta^k (see DeltaSet).
    Kernel relations depend only on ker delta^k and the column order, so
    every result is the one all rows give.  delta^{k-1} keeps all rows.
    For p <= 13 the columns of delta^k are packed eliminator rows, and its
    kernel relations stay packed into the quotient.

    Over Z, X also keeps one Smith factor per coboundary delta^j.  H^k
    reads ker delta^k from the factor of delta^k; when it has no upper
    term its image matrix is delta^{k-1} itself, so it reads im delta^{k-1}
    from the factor that H^{k-1} reads its kernel from."""
    from .linalg import PACKED_MAX_P, cohomology_Z, cohomology_sparse_zp
    data = X._cohomology.get((ring, k))
    if data is not None:
        return data
    upper = k < 3 and bool(X.cells[k + 1])
    if not ring.is_modular:
        nl = len(X.cells[k - 1]) if k >= 1 else 0
        if upper:
            A = coboundary_matrix(X, k - 1) if nl else None
            data = cohomology_Z(A, nl, _coboundary_factor(X, k), None)
        else:
            data = cohomology_Z(None, nl, None, _coboundary_factor(X, k - 1))
    else:
        p = ring.p
        a_cols = coboundary_cols_sparse(X, k - 1, p) if k >= 1 else []
        cols = (coboundary_cols_packed if p <= PACKED_MAX_P
                else coboundary_cols_sparse)
        b_cols = cols(X, k, p, X.generator_rows(k)) if upper else None
        data = cohomology_sparse_zp(ring, len(X.cells[k]), a_cols, b_cols)
    X._cohomology[(ring, k)] = data
    return data


def _coboundary_factor(X: DeltaSet, j: int):
    """The Smith factor of delta^j: C^j -> C^{j+1} (j = -1 is the map
    from 0), built once per Delta-set; its dense rows are written only
    then.  Its two operation logs serve H^j, which reads its kernel, and
    H^{j+1} when that has no upper term and reads its image."""
    from .linalg import smith_normal_form
    fac = X._factors.get(j)
    if fac is None:
        if j >= 0:
            rows, ncols = coboundary_matrix(X, j), len(X.cells[j])
        else:
            rows, ncols = [[] for _ in X.cells[0]], 0
        fac = X._factors[j] = smith_normal_form(rows, ncols)
    return fac
