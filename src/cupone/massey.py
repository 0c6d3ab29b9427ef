"""Triple Massey products and the Magnus-expansion oracle.

The simplicial route is primary: given 1-cocycles u1, u2, u3 on a
Delta-set with [u1 u2] = [u2 u3] = 0, corrections c_{1,2}, c_{2,3} are
found by exact solving and the product is the class of
u1 c_{2,3} + c_{1,2} u3, reported with its indeterminacy submodule
u1 H^1 + H^1 u3.

The Magnus route expands relator words in truncated noncommutative
power series (g -> 1 + X, g^{-1} -> 1 - X + X^2 - X^3) and reads off
the degree-2 and degree-3 coefficients.  cross_validate fixes the one
sign that relates the two routes and fails loudly on any discrepancy
beyond it; the recorded calibration is

    <u_a, u_b, u_c>(relator cycle) = -eps_{abc}(relator).
"""
from __future__ import annotations

from itertools import product as iproduct

from .delta import (
    Cochain,
    DeltaSet,
    coboundary,
    cup_cochain,
    segment_cohomology,
)
from .linalg import ClassSpan, CohomologyData
from .presentation import PresentedGroup, presentation_complex
from .rings import InternalError, PreconditionError, RingSpec

MAGNUS_MASSEY_SIGN = -1  # fixed once by cross_validate on torus/Borromean


# ---------------------------------------------------------------------------
# Magnus expansions

class MagnusSeries:
    """Truncated noncommutative series with integer coefficients.

    Monomials are tuples of generator indices of length <= depth; the
    empty tuple is the constant term.
    """

    __slots__ = ("depth", "terms")

    def __init__(self, depth: int = 3, terms=None):
        if depth > 3:
            raise PreconditionError("truncation depth capped at 3")
        self.depth = depth
        self.terms = {}
        if terms:
            for mono, c in (terms.items()
                            if isinstance(terms, dict) else terms):
                if len(mono) <= depth and c:
                    self.terms[tuple(mono)] = \
                        self.terms.get(tuple(mono), 0) + c

    @classmethod
    def one(cls, depth: int = 3) -> "MagnusSeries":
        return cls(depth, {(): 1})

    @classmethod
    def letter(cls, i: int, e: int, depth: int = 3) -> "MagnusSeries":
        if e == 1:
            return cls(depth, {(): 1, (i,): 1})
        # truncated geometric series for the inverse
        terms = {(): 1}
        for k in range(1, depth + 1):
            terms[(i,) * k] = (-1) ** k
        return cls(depth, terms)

    def mul(self, other: "MagnusSeries") -> "MagnusSeries":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if len(m1) + len(m2) > self.depth:
                    continue
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return MagnusSeries(self.depth, out)

    def coefficient(self, mono: tuple) -> int:
        return self.terms.get(tuple(mono), 0)

    def __eq__(self, other):
        return (isinstance(other, MagnusSeries)
                and self.depth == other.depth
                and {m: c for m, c in self.terms.items() if c}
                == {m: c for m, c in other.terms.items() if c})

    def __repr__(self):
        body = " + ".join(
            f"{c}*X{''.join(str(i) for i in m)}" if m else str(c)
            for m, c in sorted(self.terms.items(),
                               key=lambda kv: (len(kv[0]), kv[0])))
        return f"<{body or 0}>"


def magnus_expand(w, gens, depth: int = 3) -> MagnusSeries:
    """Expand a word of (generator, +-1) letters; gens fixes the indexing."""
    index = {g: i + 1 for i, g in enumerate(gens)}
    out = MagnusSeries.one(depth)
    for name, e in w:
        out = out.mul(MagnusSeries.letter(index[name], e, depth))
    return out


class MagnusPairings:
    def __init__(self, gens: tuple[str, ...],
                 eps2: list[dict[tuple[int, int], int]],
                 eps3: list[dict[tuple[int, int, int], int]]):
        self.gens = gens
        self.eps2, self.eps3 = eps2, eps3  # per relator

    def eps2_zero(self) -> bool:
        return all(not any(t.values()) for t in self.eps2)


def magnus_pairings(group: PresentedGroup) -> MagnusPairings:
    gens = group.generators
    n = len(gens)
    eps2, eps3 = [], []
    for rel in group.relators:
        series = magnus_expand(rel, gens)
        table2 = {}
        table3 = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                c = series.coefficient((i, j))
                if c:
                    table2[(i, j)] = c
                for k in range(1, n + 1):
                    c3 = series.coefficient((i, j, k))
                    if c3:
                        table3[(i, j, k)] = c3
        eps2.append(table2)
        eps3.append(table3)
    return MagnusPairings(gens=gens, eps2=eps2, eps3=eps3)


# ---------------------------------------------------------------------------
# triple Massey products on cochain algebras

class MasseyResult:
    def __init__(self, coords: list[int], indeterminacy: list[list[int]],
                 representative: object):
        self.coords, self.indeterminacy = coords, indeterminacy
        self.representative = representative

    def indeterminacy_contains(self, delta_coords, orders) -> bool:
        """Is delta_coords in the span of the indeterminacy generators
        (mod the torsion orders of the H^2 generators)?  Over GF(p) the
        orders are p, so the span is taken over Z modulo p."""
        return ClassSpan(RingSpec.Z(), orders,
                         self.indeterminacy).contains(delta_coords)


def _content(c: Cochain) -> tuple:
    """What Cochain.__hash__ hashes, frozen: an equal copy of c finds
    the same cache entry, and c changed later does not."""
    return (c.dim, c.ring, frozenset(c.terms.items()))


class MasseyContext:
    """Simplicial Massey products on C*(X; R).

    Work on fewer than three inputs runs once per context and is read
    back by every later triple: per input its cocycle check and its
    indeterminacy rows, the classes of u h and h u over h1_reps; per
    ordered pair (u, v) its cup product, its H^2 class and, once asked
    for, a cochain it bounds.  The caches are keyed on cochain content
    and live with the context."""

    def __init__(self, X: DeltaSet, ring: RingSpec,
                 h1_reps: list[Cochain] | None = None):
        self.X = X
        self.ring = ring
        self.h2: CohomologyData = segment_cohomology(X, ring, 2)
        h1data = segment_cohomology(X, ring, 1)
        if h1_reps is None:
            h1_reps = [Cochain(1, ring, dict(zip(X.cells[1], rep)))
                       for _, rep in h1data.generators]
        self.h1_reps = h1_reps
        self._cocycle: dict = {}  # key -> is a cocycle
        self._pairs: dict = {}    # (key, key) -> (u v, its H^2 coords)
        self._bounds: dict = {}   # (key, key) -> c, delta c = u v, or None
        self._rows: dict = {}     # (key, left) -> coords of u h (h u) per h

    def h2_coords(self, c: Cochain) -> list[int]:
        """Class coordinates of a product built from checked cocycles;
        a failure here is a defect, not a refusal."""
        try:
            return self.h2.class_coords(c.vector(self.X.cells[2]))
        except ValueError as e:
            raise InternalError(f"class coordinates of a product of "
                                f"cocycles failed: {e}") from e

    def solve_coboundary(self, target: Cochain) -> Cochain | None:
        # H^2 factors im delta^1 once; every coboundary solve reuses it.
        x = self.h2.preimage(target.vector(self.X.cells[2]))
        if x is None:
            return None
        return Cochain(1, self.ring, dict(zip(self.X.cells[1], x)))

    def _cocycle_key(self, u: Cochain) -> tuple:
        key = _content(u)
        ok = self._cocycle.get(key)
        if ok is None:
            ok = self._cocycle[key] = coboundary(self.X, u).is_zero()
        if not ok:
            raise PreconditionError("Massey inputs must be cocycles")
        return key

    def _pair(self, u: Cochain, ku: tuple, v: Cochain, kv: tuple) -> tuple:
        entry = self._pairs.get((ku, kv))
        if entry is None:
            prod = cup_cochain(self.X, u, v)
            entry = self._pairs[(ku, kv)] = (prod, self.h2_coords(prod))
        return entry

    def _bound(self, pair: tuple) -> Cochain:
        if pair not in self._bounds:
            self._bounds[pair] = self.solve_coboundary(self._pairs[pair][0])
        c = self._bounds[pair]
        if c is None:
            raise InternalError("cup product with zero class must bound")
        return c

    def _rows_of(self, u: Cochain, key: tuple, left: bool) -> list:
        rows = self._rows.get((key, left))
        if rows is None:
            rows = []
            for h in self.h1_reps:
                kh = _content(h)
                pair = (self._pair(u, key, h, kh) if left
                        else self._pair(h, kh, u, key))
                rows.append(pair[1])
            self._rows[(key, left)] = rows
        return rows

    def triple_massey(self, u1: Cochain, u2: Cochain,
                      u3: Cochain) -> MasseyResult:
        X = self.X
        k1, k2, k3 = (self._cocycle_key(u) for u in (u1, u2, u3))
        p12 = self._pair(u1, k1, u2, k2)
        p23 = self._pair(u2, k2, u3, k3)
        for label, (_, coords) in (("u1 u2", p12), ("u2 u3", p23)):
            if any(coords):
                raise PreconditionError(
                    f"Massey product undefined: [{label}] = {coords} != 0")
        c12 = self._bound((k1, k2))
        c23 = self._bound((k2, k3))
        rep = cup_cochain(X, u1, c23) + cup_cochain(X, c12, u3)
        if not coboundary(X, rep).is_zero():
            raise InternalError("Massey representative is not a cocycle")
        coords = self.h2_coords(rep)
        left = self._rows_of(u1, k1, True)
        right = self._rows_of(u3, k3, False)
        indet = [list(v) for row in zip(left, right) for v in row if any(v)]
        return MasseyResult(coords=coords, indeterminacy=indet,
                            representative=rep)


# ---------------------------------------------------------------------------
# cross-validation of the two routes

class CrossValidation:
    def __init__(self, ok: bool, sign2: int | None, sign3: int | None,
                 cup_table: dict, massey_table: dict,
                 messages: list[str] | None = None):
        self.ok, self.sign2, self.sign3 = ok, sign2, sign3
        self.cup_table, self.massey_table = cup_table, massey_table
        self.messages = [] if messages is None else messages


def cross_validate(group: PresentedGroup,
                   ring: RingSpec | None = None) -> CrossValidation:
    """Compare simplicial cup/Massey values against Magnus coefficients.

    Requires zero exponent sums (otherwise the generator duals are not
    cocycles).  The relation must be value = sign * eps with one global
    sign per degree; any other discrepancy fails.
    """
    ring = ring or RingSpec.Z()
    if not group.all_zero_exponent_sums():
        raise PreconditionError("cross_validate requires zero exponent sums")
    pc = presentation_complex(group)
    X = pc.delta
    gens = group.generators
    duals = {g: pc.dual_cochain(g, ring) for g in gens}
    cycles = [pc.relator_cycle(i) for i in range(len(group.relators))]
    pair = magnus_pairings(group)
    messages = []

    cup_table = {}
    sign2_votes = set()
    for i, gi in enumerate(gens, start=1):
        for j, gj in enumerate(gens, start=1):
            c = cup_cochain(X, duals[gi], duals[gj])
            for r, cyc in enumerate(cycles):
                val = c.pair_with_chain(cyc)
                eps = ring.normalize(pair.eps2[r].get((i, j), 0))
                cup_table[(i, j, r)] = (val, eps)
                if val or eps:
                    if val == ring.normalize(eps):
                        sign2_votes.add(1)
                    elif val == ring.normalize(-eps):
                        sign2_votes.add(-1)
                    else:
                        messages.append(
                            f"cup mismatch at ({gi},{gj}) relator {r}: "
                            f"{val} vs eps {eps}")
    sign2 = None
    if len(sign2_votes) == 1:
        sign2 = sign2_votes.pop()
    elif len(sign2_votes) > 1:
        messages.append("inconsistent degree-2 sign")

    massey_table = {}
    sign3_votes = set()
    ctx = MasseyContext(X, ring, [duals[g] for g in gens])
    n = len(gens)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, n + 1):
                ua, ub, uc = (duals[gens[t - 1]] for t in (a, b, c))
                try:
                    res = ctx.triple_massey(ua, ub, uc)
                except PreconditionError:
                    continue
                if res.indeterminacy:
                    continue
                for r, cyc in enumerate(cycles):
                    val = res.representative.pair_with_chain(cyc)
                    eps = ring.normalize(pair.eps3[r].get((a, b, c), 0))
                    massey_table[(a, b, c, r)] = (val, eps)
                    if val or eps:
                        if val == ring.normalize(eps):
                            sign3_votes.add(1)
                        elif val == ring.normalize(-eps):
                            sign3_votes.add(-1)
                        else:
                            messages.append(
                                f"Massey mismatch at ({a},{b},{c}) relator "
                                f"{r}: {val} vs eps {eps}")
    sign3 = None
    if len(sign3_votes) == 1:
        sign3 = sign3_votes.pop()
    elif len(sign3_votes) > 1:
        messages.append("inconsistent degree-3 sign")
    ok = not messages
    return CrossValidation(ok=ok, sign2=sign2, sign3=sign3,
                           cup_table=cup_table, massey_table=massey_table,
                           messages=messages)


# ---------------------------------------------------------------------------
# the Magnus gate for Borromean-type families

class GateReport:
    def __init__(self, ok: bool, details: list[str]):
        self.ok, self.details = ok, details


def magnus_gate(group: PresentedGroup, n: int) -> GateReport:
    """Certify that a 3-generator, 2-relator family realizes the
    generalized-Borromean invariants: all degree-2 pairings vanish and
    the predicted Massey values are <u1,u2,u3> = -n gamma_13 and
    <u1,u3,u2> = +n gamma_12, with gamma_1j dual to relator cell j.
    """
    details = []
    if len(group.generators) != 3 or len(group.relators) != 2:
        return GateReport(False, ["need 3 generators and 2 relators"])
    if not group.all_zero_exponent_sums():
        return GateReport(False, ["nonzero exponent sums"])
    pair = magnus_pairings(group)
    if not pair.eps2_zero():
        details.append(f"degree-2 pairings nonzero: {pair.eps2}")
    # Predicted Massey value on relator r: sign3 * eps_{abc}(r).
    def predicted(a, b, c, r):
        return MAGNUS_MASSEY_SIGN * pair.eps3[r].get((a, b, c), 0)

    # (r12-cell, r13-cell) = relators (0, 1)
    want = {(1, 2, 3): (0, -n), (1, 3, 2): (n, 0)}
    for (a, b, c), expect in want.items():
        got = (predicted(a, b, c, 0), predicted(a, b, c, 1))
        if got != expect:
            details.append(f"<u{a},u{b},u{c}> predicted {got}, want {expect}")
    for a, b, c in iproduct((1, 2, 3), repeat=3):
        if len({a, b, c}) == 3:
            continue
        got = (predicted(a, b, c, 0), predicted(a, b, c, 1))
        if got != (0, 0):
            details.append(
                f"repeated-index <u{a},u{b},u{c}> predicted {got}, want 0")
    return GateReport(ok=not details, details=details)
