"""Finite Delta-sets (dimension <= 3) and their binomial cup-one cochain
algebras, magmas and their classifying complexes, magma extensions by
2-cochains, and the psi embedding of tensor elements.

Cells are identified by strings; the face tuple of a k-cell lists
(d_0, ..., d_k).  Cup products use the Alexander-Whitney front/back
face rule; the cup-one product of 1-cochains and the circle product of
2-cochains are pointwise.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct

from .rings import BinomialPoly, MultiIndex, RingSpec, binom_of
from .tensor import TensorElem


class DeltaSet:
    """Semi-simplicial set truncated at dimension 3."""

    def __init__(self, cells: dict[int, list[str]],
                 faces: dict[str, tuple[str, ...]]):
        self.cells = {d: list(cells.get(d, ())) for d in range(4)}
        self.faces = {c: tuple(f) for c, f in faces.items()}
        self.dim_of = {}
        for d, cs in self.cells.items():
            for c in cs:
                if c in self.dim_of:
                    raise ValueError(f"duplicate cell id {c!r}")
                self.dim_of[c] = d
        self.validate()
        # (ring, k) -> H^k(X; R), filled by segment_cohomology; nothing
        # changes a Delta-set after validation.
        self._cohomology: dict = {}

    def validate(self):
        for d in range(1, 4):
            for c in self.cells[d]:
                fs = self.faces.get(c)
                if fs is None or len(fs) != d + 1:
                    raise ValueError(f"cell {c!r} needs {d + 1} faces")
                for f in fs:
                    if self.dim_of.get(f) != d - 1:
                        raise ValueError(
                            f"face {f!r} of {c!r} is not a {d - 1}-cell")
        # d_i d_j = d_{j-1} d_i for i < j.
        for d in range(2, 4):
            for c in self.cells[d]:
                fs = self.faces[c]
                for j in range(1, d + 1):
                    for i in range(j):
                        left = self.faces[fs[j]][i]
                        right = self.faces[fs[i]][j - 1]
                        if left != right:
                            raise ValueError(
                                f"face identity fails on {c!r}: "
                                f"d_{i} d_{j} != d_{j - 1} d_{i}")

    def face(self, cell: str, i: int) -> str:
        return self.faces[cell][i]

    def front_face(self, cell: str, p: int) -> str:
        """Face spanned by the first p+1 vertices (drop last vertices)."""
        d = self.dim_of[cell]
        while d > p:
            cell = self.faces[cell][d]
            d -= 1
        return cell

    def back_face(self, cell: str, q: int) -> str:
        """Face spanned by the last q+1 vertices (drop first vertices)."""
        d = self.dim_of[cell]
        while d > q:
            cell = self.faces[cell][0]
            d -= 1
        return cell

    def max_dim(self) -> int:
        return max((d for d in range(4) if self.cells[d]), default=0)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(self.cells[d]) for d in range(4))

    def __repr__(self):
        counts = [len(self.cells[d]) for d in range(4)]
        return f"DeltaSet(cells={counts})"


class Cochain:
    """Sparse cochain of a fixed dimension."""

    __slots__ = ("dim", "ring", "values")

    def __init__(self, dim: int, ring: RingSpec, values=None):
        if not 0 <= dim <= 3:
            raise ValueError("cochain dimension must be 0..3")
        self.dim = dim
        self.ring = ring
        vals = {}
        if values:
            for cell, c in (values.items()
                            if isinstance(values, dict) else values):
                c = ring.normalize(c)
                if c:
                    vals[cell] = c
        self.values = vals

    def __call__(self, cell: str) -> int:
        return self.values.get(cell, 0)

    def is_zero(self) -> bool:
        return not self.values

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check(other)
        acc = dict(self.values)
        for cell, c in other.values.items():
            acc[cell] = acc.get(cell, 0) + c
        return Cochain(self.dim, self.ring, acc)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.dim, self.ring,
                       {cell: v * c for cell, v in self.values.items()})

    def _check(self, other: "Cochain"):
        if self.dim != other.dim or self.ring != other.ring:
            raise ValueError("cochain dimension or ring mismatch")

    def __eq__(self, other):
        return (isinstance(other, Cochain) and self.dim == other.dim
                and self.ring == other.ring and self.values == other.values)

    def __hash__(self):
        return hash((self.dim, self.ring, frozenset(self.values.items())))

    def vector(self, cells: list[str]) -> list[int]:
        return [self.values.get(c, 0) for c in cells]

    def pair_with_chain(self, chain: dict[str, int]) -> int:
        return self.ring.normalize(
            sum(self.values.get(c, 0) * m for c, m in chain.items()))

    def __repr__(self):
        body = ", ".join(f"{c}: {v}" for c, v in sorted(self.values.items()))
        return f"Cochain{self.dim}({{{body}}})"


# ---------------------------------------------------------------------------
# cochain operations

def coboundary(X: DeltaSet, c: Cochain) -> Cochain:
    if c.dim >= 3:
        raise ValueError("coboundary capped at dimension 2 inputs")
    out = {}
    for s in X.cells[c.dim + 1]:
        v = 0
        for i, f in enumerate(X.faces[s]):
            v += (c.values.get(f, 0) if i % 2 == 0 else -c.values.get(f, 0))
        if c.ring.normalize(v):
            out[s] = v
    return Cochain(c.dim + 1, c.ring, out)


def cup_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """Alexander-Whitney product u(front) * v(back)."""
    if u.ring != v.ring:
        raise ValueError("ring mismatch")
    p, q = u.dim, v.dim
    if p + q > 3:
        raise ValueError("cup product capped at total dimension 3")
    out = {}
    for s in X.cells[p + q]:
        a = u.values.get(X.front_face(s, p), 0)
        if not a:
            continue
        b = v.values.get(X.back_face(s, q), 0)
        if b:
            out[s] = a * b
    return Cochain(p + q, u.ring, out)


def unit_cochain(X: DeltaSet, ring: RingSpec) -> Cochain:
    return Cochain(0, ring, {c: 1 for c in X.cells[0]})


def cup1_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """Pointwise product on 1-cells; zero when a factor is 0-dimensional."""
    if u.ring != v.ring:
        raise ValueError("ring mismatch")
    if 0 in (u.dim, v.dim):
        return Cochain(max(u.dim + v.dim - 1, 0), u.ring, {})
    if u.dim != 1 or v.dim != 1:
        raise ValueError("cup-one on cochains supports dimensions (1,1) "
                         "and zero-dimensional factors only")
    out = {}
    for cell, a in u.values.items():
        b = v.values.get(cell, 0)
        if b:
            out[cell] = a * b
    return Cochain(1, u.ring, out)


def cup2_cochain(X: DeltaSet, u: Cochain, v: Cochain) -> Cochain:
    """The circle map: pointwise product on 2-cells."""
    if u.dim != 2 or v.dim != 2:
        raise ValueError("circle product requires two 2-cochains")
    if u.ring != v.ring:
        raise ValueError("ring mismatch")
    out = {}
    for cell, a in u.values.items():
        b = v.values.get(cell, 0)
        if b:
            out[cell] = a * b
    return Cochain(2, u.ring, out)


def zeta_cochain(X: DeltaSet, f: Cochain, k: int) -> Cochain:
    """Pointwise binomial coefficient on 1-cells."""
    if f.dim != 1:
        raise ValueError("zeta maps apply to 1-cochains")
    if k == 0:
        return Cochain(1, f.ring, {c: 1 for c in X.cells[1]})
    out = {}
    for cell in X.cells[1]:
        v = binom_of(f.values.get(cell, 0), k, f.ring)
        if v:
            out[cell] = v
    return Cochain(1, f.ring, out)


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
        raise ValueError("requires a 2-cochain and a 1-cochain")
    out = {}
    for s, val in u.values.items():
        f = b.values.get(X.front_face(s, 1), 0) + \
            b.values.get(X.back_face(s, 1), 0)
        if f:
            out[s] = val * f
    return Cochain(2, u.ring, out)


# ---------------------------------------------------------------------------
# magmas and their complexes

class FiniteMagma:
    """Finite carrier with a binary operation given by a table or callable."""

    def __init__(self, elements, op, unit=None, name_fn=None):
        self.elements = list(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate carrier elements")
        if callable(op):
            self.table = {(a, b): op(a, b)
                          for a in self.elements for b in self.elements}
        else:
            self.table = dict(op)
        for (a, b), c in self.table.items():
            if c not in self._index:
                raise ValueError(f"product {a}*{b} leaves the carrier")
        self.unit = unit
        self.name_fn = name_fn or (lambda e: str(e))

    def op(self, a, b):
        return self.table[(a, b)]

    def associativity_counterexample(self):
        t = self.table
        for a in self.elements:
            for b in self.elements:
                ab = t[(a, b)]
                for c in self.elements:
                    if t[(ab, c)] != t[(a, t[(b, c)])]:
                        return (a, b, c)
        return None

    def is_monoid(self) -> bool:
        if self.unit is None:
            return False
        e = self.unit
        return (all(self.table[(a, e)] == a and self.table[(e, a)] == a
                    for a in self.elements)
                and self.associativity_counterexample() is None)

    def has_inverses(self) -> bool:
        if self.unit is None:
            return False
        e = self.unit
        return all(any(self.table[(a, b)] == e for b in self.elements)
                   for a in self.elements)

    def __len__(self):
        return len(self.elements)


@dataclass
class MagmaComplex:
    """Delta(M) up to dimension <= 3 with the cell -> tuple dictionary."""
    delta: DeltaSet
    magma: FiniteMagma
    cell_elems: dict  # cell id -> element / pair / triple


def delta_from_magma(m: FiniteMagma, max_dim: int = 2) -> MagmaComplex:
    """One vertex; 1-cells the elements; 2-cell (a,b) has faces
    (b, ab, a); 3-cells per the associativity tetrahedron."""
    if max_dim >= 3 and m.associativity_counterexample() is not None:
        raise ValueError("dimension 3 requires an associative magma")
    return _magma_complex(m, max_dim)


def _magma_complex(m: FiniteMagma, max_dim: int) -> MagmaComplex:
    nm = m.name_fn
    cells = {0: ["*"], 1: [], 2: [], 3: []}
    faces = {}
    cell_elems = {}
    for a in m.elements:
        cid = f"[{nm(a)}]"
        cells[1].append(cid)
        faces[cid] = ("*", "*")
        cell_elems[cid] = a
    id1 = {a: f"[{nm(a)}]" for a in m.elements}
    if max_dim >= 2:
        for a in m.elements:
            for b in m.elements:
                cid = f"[{nm(a)}|{nm(b)}]"
                cells[2].append(cid)
                faces[cid] = (id1[b], id1[m.op(a, b)], id1[a])
                cell_elems[cid] = (a, b)
    if max_dim >= 3:
        id2 = {(a, b): f"[{nm(a)}|{nm(b)}]"
               for a in m.elements for b in m.elements}
        for a in m.elements:
            for b in m.elements:
                for c in m.elements:
                    cid = f"[{nm(a)}|{nm(b)}|{nm(c)}]"
                    cells[3].append(cid)
                    faces[cid] = (id2[(b, c)], id2[(m.op(a, b), c)],
                                  id2[(a, m.op(b, c))], id2[(a, b)])
                    cell_elems[cid] = (a, b, c)
    return MagmaComplex(DeltaSet(cells, faces), m, cell_elems)


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
    if not g.is_monoid():
        raise ValueError("bar construction requires a finite monoid")
    # is_monoid has checked associativity, which dimension 3 needs.
    return _magma_complex(g, max_dim)


# ---------------------------------------------------------------------------
# mu_tau: magma laws from 2-tensor assignments

class MagmaLaw:
    """mu_tau(a, a') = a + a' - f_tau(a, a') on M(X, R).

    tau maps each generator to a degree-2 TensorElem over the other
    generators; elements are coordinate tuples aligned with ``gens``.
    """

    def __init__(self, gens: list[str], tau: dict[str, TensorElem],
                 ring: RingSpec):
        self.gens = list(gens)
        self.ring = ring
        self.tau = {g: tau.get(g) for g in gens}
        for g, t in self.tau.items():
            if t is not None and not t.is_zero() and t.degree() != 2:
                raise ValueError(f"tau({g}) must have degree 2")

    def _point(self, a) -> dict:
        return dict(zip(self.gens, a))

    def f_tau(self, a, b) -> tuple:
        pa, pb = self._point(a), self._point(b)
        out = []
        for g in self.gens:
            t = self.tau.get(g)
            total = 0
            if t is not None and not t.is_zero():
                for word, c in t.terms.items():
                    i1, i2 = word
                    v = c
                    for name, e in i1.entries:
                        v *= binom_of(pa.get(name, 0), e, self.ring)
                        if not v:
                            break
                    if v:
                        for name, e in i2.entries:
                            v *= binom_of(pb.get(name, 0), e, self.ring)
                            if not v:
                                break
                    total += v
            out.append(self.ring.normalize(total))
        return tuple(out)

    def apply(self, a, b) -> tuple:
        f = self.f_tau(a, b)
        return tuple(self.ring.normalize(x + y - z)
                     for x, y, z in zip(a, b, f))

    def law_polynomials(self, prime: str = "'") -> dict[str, BinomialPoly]:
        """Symbolic law: mu(a, a')(x) as a polynomial in the generator
        values and their primed copies."""
        out = {}
        for gi, g in enumerate(self.gens):
            p = (BinomialPoly.gen(self.ring, g)
                 + BinomialPoly.gen(self.ring, g + prime))
            t = self.tau.get(g)
            if t is not None and not t.is_zero():
                for word, c in t.terms.items():
                    i1, i2 = word
                    left = BinomialPoly(self.ring, {i1: 1}, _validated=True)
                    primed = MultiIndex((n + prime, e) for n, e in i2.entries)
                    right = BinomialPoly(self.ring, {primed: 1},
                                         _validated=True)
                    p = p - (left * right).scale(c)
            out[g] = p
        return out

    def to_finite_magma(self) -> FiniteMagma:
        if not self.ring.is_modular:
            raise ValueError("finite carrier requires Z_p")
        p = self.ring.p
        elements = [tuple(t) for t in iproduct(range(p),
                                               repeat=len(self.gens))]
        name = lambda e: ",".join(str(x) for x in e)
        return FiniteMagma(elements, self.apply,
                           unit=tuple(0 for _ in self.gens), name_fn=name)


def magma_from_tau(gens: list[str], tau: dict[str, TensorElem],
                   ring: RingSpec) -> MagmaLaw:
    return MagmaLaw(gens, tau, ring)


@dataclass
class AdmissibilityVerdict:
    status: str          # "admissible" | "not-associative" | "no-counterexample-found"
    counterexample: tuple | None = None
    samples: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("admissible", "no-counterexample-found")


def check_admissible(m, mode: str = "exhaustive", box: int = 4,
                     samples: int = 200, seed: int = 0) -> AdmissibilityVerdict:
    """Exhaustive associativity check on finite carriers; sampled integer
    box over Z (which can only ever report 'no counterexample found')."""
    if isinstance(m, FiniteMagma):
        witness = m.associativity_counterexample()
        if witness is None:
            return AdmissibilityVerdict("admissible")
        return AdmissibilityVerdict("not-associative", witness)
    if not isinstance(m, MagmaLaw):
        raise TypeError("expected FiniteMagma or MagmaLaw")
    if m.ring.is_modular and mode == "exhaustive":
        return check_admissible(m.to_finite_magma())
    import random as _random
    rng = _random.Random(seed)
    n = len(m.gens)
    for _ in range(samples):
        a, b, c = (tuple(rng.randint(-box, box) for _ in range(n))
                   for _ in range(3))
        if m.apply(m.apply(a, b), c) != m.apply(a, m.apply(b, c)):
            return AdmissibilityVerdict("not-associative", (a, b, c))
    return AdmissibilityVerdict("no-counterexample-found", samples=samples)


def extension_magma(m: FiniteMagma, moduli: tuple[int, ...],
                    nu: dict) -> tuple[FiniteMagma, tuple | None]:
    """Extension of (M, mu) by the abelian group prod Z_{m_i} along nu.

    ``nu`` maps ordered pairs of M-elements to B-tuples.  Returns the
    extension magma and an associativity counterexample (None when nu is
    a cocycle, by the coboundary formula on Delta(M))."""

    def nu_val(a, b):
        v = nu.get((a, b))
        return tuple(v) if v is not None else tuple(0 for _ in moduli)

    def badd(x, y):
        return tuple((p + q) % mm for p, q, mm in zip(x, y, moduli))

    elements = [(a, t) for a in m.elements
                for t in iproduct(*(range(mm) for mm in moduli))]

    def op(x, y):
        (a1, b1), (a2, b2) = x, y
        return (m.op(a1, a2), badd(badd(b1, b2), nu_val(a1, a2)))

    unit = None
    if m.unit is not None:
        unit = (m.unit, tuple(0 for _ in moduli))
    name = lambda e: f"{m.name_fn(e[0])};{','.join(str(x) for x in e[1])}"
    ext = FiniteMagma(elements, op, unit=unit, name_fn=name)
    return ext, ext.associativity_counterexample()


# ---------------------------------------------------------------------------
# the psi embedding

def eval_index(idx, point: dict, ring: RingSpec) -> int:
    v = 1
    for name, e in idx.entries:
        v *= binom_of(point.get(name, 0), e, ring)
        if not v:
            return 0
    return ring.normalize(v)


def psi_embed(u: TensorElem, mc: MagmaComplex, gens: list[str],
              deg: int | None = None) -> Cochain:
    """psi sends a polynomial to evaluation on 1-cells and a tensor word
    to the product of slotwise evaluations on tuples."""
    ring = u.ring
    if u.is_zero():
        return Cochain(deg if deg is not None else 1, ring, {})
    deg = u.degree()
    if deg == 0:
        return Cochain(0, ring, {"*": u.terms.get((), 0)})
    if deg > 3:
        raise ValueError("psi embeds degrees <= 3")
    if deg == 3 and not mc.delta.cells[3]:
        raise ValueError("target complex lacks 3-cells")
    out = {}
    for cell in mc.delta.cells[deg]:
        elem = mc.cell_elems[cell]
        tup = (elem,) if deg == 1 else elem
        points = [dict(zip(gens, t)) for t in tup]
        total = 0
        for word, c in u.terms.items():
            v = c
            for slot, idx in enumerate(word):
                v *= eval_index(idx, points[slot], ring)
                if not v:
                    break
            total += v
        total = ring.normalize(total)
        if total:
            out[cell] = total
    return Cochain(deg, ring, out)


# ---------------------------------------------------------------------------
# complex segments for cohomology

def coboundary_matrix(X: DeltaSet, k: int) -> list[list[int]]:
    """Matrix of delta^k: C^k -> C^{k+1} (rows: (k+1)-cells)."""
    lower = X.cells[k]
    upper = X.cells[k + 1]
    index = {c: i for i, c in enumerate(lower)}
    rows = []
    for s in upper:
        row = [0] * len(lower)
        for i, f in enumerate(X.faces[s]):
            row[index[f]] += 1 if i % 2 == 0 else -1
        rows.append(row)
    return rows


def segment_at(X: DeltaSet, ring: RingSpec, k: int):
    from .linalg import ComplexSegment
    lower = X.cells[k - 1] if k >= 1 else []
    mid = X.cells[k]
    upper = X.cells[k + 1] if k + 1 <= 3 else []
    A = coboundary_matrix(X, k - 1) if k >= 1 else [[] for _ in mid]
    B = coboundary_matrix(X, k) if upper else []
    return ComplexSegment(ring, lower, mid, upper, A, B)


def coboundary_cols_sparse(X: DeltaSet, k: int, p: int) -> list[dict]:
    """Columns of delta^k as sparse dicts (k+1)-cell-index -> value mod p."""
    index = {c: i for i, c in enumerate(X.cells[k])}
    cols: list[dict] = [{} for _ in X.cells[k]]
    for si, s in enumerate(X.cells[k + 1]):
        for i, f in enumerate(X.faces[s]):
            j = index[f]
            v = (cols[j].get(si, 0) + (1 if i % 2 == 0 else -1)) % p
            if v:
                cols[j][si] = v
            else:
                cols[j].pop(si, None)
    return cols


def segment_cohomology(X: DeltaSet, ring: RingSpec, k: int):
    """H^k(X; R), computed once per (ring, k) and kept on X; sparse
    elimination over Z_p, Smith normal form over Z.  Its ``preimage``
    solves delta^{k-1} x = vec on the same factor."""
    from .linalg import cohomology_at, cohomology_sparse_zp
    data = X._cohomology.get((ring, k))
    if data is not None:
        return data
    if not ring.is_modular:
        data = cohomology_at(segment_at(X, ring, k))
    else:
        p = ring.p
        a_cols = coboundary_cols_sparse(X, k - 1, p) if k >= 1 else []
        upper = X.cells[k + 1] if k + 1 <= 3 else []
        b_cols = coboundary_cols_sparse(X, k, p) if upper else None
        data = cohomology_sparse_zp(ring, len(X.cells[k]), a_cols, b_cols,
                                    X.cells[k])
    X._cohomology[(ring, k)] = data
    return data


def cochain_from_vector(X: DeltaSet, ring: RingSpec, dim: int,
                        vec: list[int]) -> Cochain:
    return Cochain(dim, ring, dict(zip(X.cells[dim], vec)))
