"""Exact arithmetic in the free binomial algebra over Z or Z_p.

Elements are integer-valued polynomials written in the basis of products
of binomial coefficients z(x, k) = C(x, k).  Over Z the basis consists of
all such products; over Z_p every exponent is capped at p - 1 and the
coefficients live in the field with p elements.

Products of basis monomials are re-expanded in the basis using structure
constants obtained by evaluation-interpolation on the integer grid
0..m+n, which makes the multiplication self-verifying: the expansion is
the unique one matching the product pointwise.

The module ends with the row operation v - f h of one-hot rows over
GF(p), p odd (``onehot_sub``), with which ``linalg.ZpEliminator``
reduces.
"""
from __future__ import annotations

from math import comb, factorial
from operator import or_


class InternalError(RuntimeError):
    """An internal consistency check failed: a defect in cupone, never a
    fault of the input."""


class PreconditionError(ValueError):
    """A mathematical precondition of an operation fails."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RingSpec:
    """Coefficient ring: the integers or the field Z_p for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Zp"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zp":
            if p is None or not is_prime(p):
                raise ValueError(f"Zp requires a prime, got {p!r}")
        elif p is not None:
            raise ValueError("Z takes no modulus")
        self.kind = kind
        self.p = p

    @classmethod
    def Z(cls) -> "RingSpec":
        return cls("Z")

    @classmethod
    def Zp(cls, p: int) -> "RingSpec":
        return cls("Zp", p)

    @property
    def is_modular(self) -> bool:
        return self.kind == "Zp"

    @property
    def max_zeta(self) -> int | None:
        """Largest k for which zeta_k is defined (None means unbounded)."""
        return None if self.p is None else self.p - 1

    def normalize(self, c: int) -> int:
        return c % self.p if self.p else c

    def inv(self, c: int) -> int:
        if not self.p:
            if c in (1, -1):
                return c
            raise ZeroDivisionError(f"{c} is not a unit in Z")
        c %= self.p
        if c == 0:
            raise ZeroDivisionError("inverse of 0 in Zp")
        return pow(c, self.p - 2, self.p)

    def __eq__(self, other):
        return (isinstance(other, RingSpec)
                and self.kind == other.kind and self.p == other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "Z" if self.kind == "Z" else f"Zp({self.p})"


ZZ = RingSpec.Z()


def binom_of(a: int, n: int, ring: RingSpec = ZZ) -> int:
    """C(a, n) in the coefficient ring, with the convention C(a, 0) = 1.

    Over Z the argument may be any integer (falling factorial divided
    exactly by n!).  Over Z_p the operation is undefined for n >= p.
    """
    if n < 0:
        raise ValueError("binomial lower index must be >= 0")
    if ring.is_modular and n > ring.max_zeta:
        raise ValueError(f"zeta_{n} undefined over Zp with p={ring.p}")
    if n == 0:
        return ring.normalize(1)
    if ring.is_modular:
        a %= ring.p
    num = 1
    for i in range(n):
        num *= a - i
    q, r = divmod(num, factorial(n))
    if r:
        raise ArithmeticError("falling factorial must be divisible by n!")
    return ring.normalize(q)


def eval_index(idx: "MultiIndex", point, ring: RingSpec = ZZ) -> int:
    """zeta_I at a point: the product of C(point[x], e) over the entries
    (x, e) of I; generators the point does not set are 0."""
    if not idx.entries:
        return ring.normalize(1)
    return ring.normalize(eval_columns(
        idx, [[point.get(name, 0)] for name, _ in idx.entries], ring)[0])


def eval_columns(idx: "MultiIndex", columns, ring: RingSpec = ZZ) -> list:
    """zeta_I at many points, up to ``ring.normalize``: ``columns`` holds,
    per entry (x, e) of I (not the unit), the values of x at the points.
    C(a, 1) = a takes no ``binom_of``."""
    vals = None
    for (_, e), col in zip(idx.entries, columns):
        if e != 1:
            col = [binom_of(a, e, ring) for a in col]
        vals = col if vals is None else [a * b for a, b in zip(vals, col)]
    return vals


# The one MultiIndex per canonical entry tuple (see MultiIndex).
_INTERNED: dict[tuple, "MultiIndex"] = {}


class MultiIndex:
    """Finitely supported map generator -> positive exponent.

    The empty index is the unit (the constant monomial 1).  Entries are
    stored sorted by generator name, which makes the representation
    canonical.  Indices are hash-consed: the constructor returns the one
    object for its sorted entries, so equal indices are the same object,
    and equality and hashing are object identity, done in C.  Dict keys
    and tensor words (tuples of indices) then hash and compare without
    calling Python code, which is most of the lookups in the d-value
    loops.  The table keeps every index built in the process.  Copies
    and pickles come back through the constructor.
    """

    __slots__ = ("entries", "weight")

    def __new__(cls, entries):
        pairs = tuple(sorted((str(n), int(e)) for n, e in entries if e))
        found = _INTERNED.get(pairs)
        if found is not None:
            return found
        for _, e in pairs:
            if e < 0:
                raise ValueError("exponents must be positive")
        names = [n for n, _ in pairs]
        if len(set(names)) != len(names):
            raise ValueError("repeated generator in multi-index")
        self = super().__new__(cls)
        self.entries = pairs
        self.weight = sum(e for _, e in pairs)
        # A concurrent builder of the same index may have won the insert.
        return _INTERNED.setdefault(pairs, self)

    def __reduce__(self):
        return (MultiIndex, (self.entries,))

    @classmethod
    def unit(cls) -> "MultiIndex":
        return cls(())

    @classmethod
    def single(cls, name: str, exp: int = 1) -> "MultiIndex":
        return cls(((name, exp),))

    def get(self, name: str) -> int:
        for n, e in self.entries:
            if n == name:
                return e
        return 0

    @property
    def support(self) -> tuple:
        return tuple(n for n, _ in self.entries)

    @property
    def is_unit(self) -> bool:
        return not self.entries

    def merge(self, other: "MultiIndex") -> "MultiIndex":
        """Entrywise sum of exponents."""
        acc = dict(self.entries)
        for n, e in other.entries:
            acc[n] = acc.get(n, 0) + e
        return MultiIndex(acc.items())

    def max_exponent(self) -> int:
        return max((e for _, e in self.entries), default=0)

    def sort_key(self):
        return (self.weight, self.entries)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        if self.is_unit:
            return "1"
        return "*".join(f"z({n},{e})" for n, e in self.entries)


UNIT_INDEX = MultiIndex.unit()

# Structure constants of single-variable products:
# zeta_m(x) * zeta_n(x) = sum_k c_k zeta_k(x), computed once over Z by
# interpolation on x = 0..m+n and shared across rings (idempotent insert,
# safe under concurrent readers).
_ZETA_CACHE: dict[tuple[int, int], dict[int, int]] = {}


def zeta_structure_constants(m: int, n: int) -> dict[int, int]:
    key = (m, n) if m <= n else (n, m)
    cached = _ZETA_CACHE.get(key)
    if cached is not None:
        return cached
    m, n = key
    top = m + n
    values = [comb(t, m) * comb(t, n) for t in range(top + 1)]
    coeffs: dict[int, int] = {}
    # Forward substitution: C(t, k) vanishes for k > t, so c_t is read off
    # the value at t once lower coefficients are subtracted.
    for t in range(top + 1):
        c = values[t] - sum(ck * comb(t, k) for k, ck in coeffs.items())
        if c:
            coeffs[t] = c
    for t in range(top + 1):
        if sum(ck * comb(t, k) for k, ck in coeffs.items()) != values[t]:
            raise ArithmeticError(
                f"zeta_{m} zeta_{n} interpolation fails at {t}")
    _ZETA_CACHE[key] = coeffs
    return coeffs


# Cache of basis-monomial products zeta_I * zeta_J, keyed by (p, I, J)
# in call order (p is None over Z); a product is stored under both orders
# of its factors, so a hit costs one lookup (idempotent inserts; safe to
# share across threads).
_MONO_CACHE: dict = {}


def mono_product(ring: RingSpec, i1: MultiIndex, i2: MultiIndex):
    """zeta_I * zeta_J expanded in the basis, as a tuple of (index, coeff).

    The expansion runs on the factors in ``sort_key`` order, so both
    argument orders give the same tuple."""
    key = (ring.p, i1, i2)
    cached = _MONO_CACHE.get(key)
    if cached is not None:
        return cached
    if i2.sort_key() < i1.sort_key():
        out = _expand_product(ring, i2, i1)
    else:
        out = _expand_product(ring, i1, i2)
    _MONO_CACHE[key] = _MONO_CACHE[(ring.p, i2, i1)] = out
    return out


def _expand_product(ring: RingSpec, i1: MultiIndex, i2: MultiIndex):
    """zeta_I * zeta_J expanded in the basis, uncached."""
    cap = ring.max_zeta
    shared = set(i1.support) & set(i2.support)
    if not shared:
        idx = i1.merge(i2)
        return () if (cap is not None and idx.max_exponent() > cap) \
            else ((idx, 1),)
    partial: dict[MultiIndex, int] = {UNIT_INDEX: 1}
    rest1 = dict(i1.entries)
    rest2 = dict(i2.entries)
    for name in sorted(shared):
        m, n = rest1.pop(name), rest2.pop(name)
        consts = zeta_structure_constants(m, n)
        nxt: dict[MultiIndex, int] = {}
        for idx, cc in partial.items():
            for k, ck in consts.items():
                if cap is not None and k > cap:
                    continue
                nidx = idx.merge(MultiIndex.single(name, k))
                nxt[nidx] = nxt.get(nidx, 0) + cc * ck
        partial = nxt
    tail = MultiIndex(list(rest1.items()) + list(rest2.items()))
    out_list = []
    if cap is None or tail.max_exponent() <= cap:
        for idx, cc in partial.items():
            c = ring.normalize(cc)
            if c:
                out_list.append((idx.merge(tail), c))
    return tuple(out_list)


class Combination:
    """Sparse R-linear combination: a dict key -> coefficient whose
    coefficients are normalized in ``ring`` and nonzero.  Subclasses fix
    the keys and validate outside input in their constructors; the
    arithmetic here builds its results through ``_like``."""

    __slots__ = ("ring", "terms")

    @classmethod
    def _tidy(cls, ring: RingSpec, items):
        """Element from (key, coefficient) pairs whose keys are distinct
        and valid (a result of arithmetic on elements): normalizes the
        coefficients and drops the zero ones, checking nothing else."""
        t = cls.__new__(cls)
        t.ring = ring
        p = ring.p
        if p:
            t.terms = {k: r for k, c in items if (r := c % p)}
        else:
            t.terms = {k: c for k, c in items if c}
        return t

    @staticmethod
    def _summed(ring: RingSpec, terms) -> dict:
        """The terms of outside input, a dict key -> coefficient or
        (key, coefficient) pairs: a repeated key gets the sum of its
        coefficients, normalized, and is dropped when that is zero."""
        if not isinstance(terms, dict):
            acc: dict = {}
            for k, c in terms or ():
                acc[k] = acc.get(k, 0) + c
            terms = acc
        p = ring.p
        if p:
            return {k: r for k, c in terms.items() if (r := c % p)}
        return {k: c for k, c in terms.items() if c}

    def _like(self, items):
        """``_tidy`` over this element's ring; ``Cochain`` overrides it
        to keep its dimension."""
        return self._tidy(self.ring, items)

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._check(other)
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0) + c
        return self._like(acc.items())

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int):
        return self._like([(k, v * c) for k, v in self.terms.items()])

    def divide(self, m: int):
        """The exact quotient by m: over Z_p the product with m^-1; over Z
        a coefficient that m does not divide raises ArithmeticError."""
        ring = self.ring
        if ring.is_modular:
            return self.scale(ring.inv(m))
        out = []
        for k, c in self.terms.items():
            q, r = divmod(c, m)
            if r:
                raise ArithmeticError(
                    f"inexact division by {m} at {k!r} (coefficient {c})")
            out.append((k, q))
        return self._like(out)

    def __eq__(self, other):
        return (type(self) is type(other) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))


class BinomialPoly(Combination):
    """Element of Int(R^X): sparse combination of zeta-basis monomials."""

    __slots__ = ()

    def __init__(self, ring: RingSpec, terms=None):
        self.ring = ring
        tidy = self._summed(ring, terms)
        if ring.is_modular:
            for idx in tidy:
                if idx.max_exponent() > ring.max_zeta:
                    raise ValueError(
                        f"exponent exceeds p-1 in {idx!r} over {ring!r}")
        self.terms = tidy

    @classmethod
    def zero(cls, ring: RingSpec) -> "BinomialPoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: RingSpec, c: int) -> "BinomialPoly":
        return cls(ring, {UNIT_INDEX: c})

    @classmethod
    def gen(cls, ring: RingSpec, name: str) -> "BinomialPoly":
        return cls(ring, {MultiIndex.single(name): 1})

    @classmethod
    def zeta_monomial(cls, ring: RingSpec, idx: MultiIndex, c: int = 1) -> "BinomialPoly":
        return cls(ring, {idx: c})

    def is_constant_free(self) -> bool:
        return UNIT_INDEX not in self.terms

    def support_names(self) -> tuple:
        names = set()
        for idx in self.terms:
            names.update(idx.support)
        return tuple(sorted(names))

    def __add__(self, other):
        if isinstance(other, int):
            other = BinomialPoly.const(self.ring, other)
        return super().__add__(other)

    def __mul__(self, other):
        """Product re-expanded in the zeta basis.

        Disjoint supports merge directly (zeta_I * zeta_J = zeta_{I+J});
        shared variables go through the interpolated structure constants.
        Over Z_p the quotient kills every index with an exponent >= p.
        """
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        ring = self.ring
        out: dict[MultiIndex, int] = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                base = c1 * c2
                for idx, cc in mono_product(ring, i1, i2):
                    out[idx] = out.get(idx, 0) + base * cc
        return BinomialPoly._tidy(ring, out.items())

    __rmul__ = __mul__

    def zeta(self, k: int) -> "BinomialPoly":
        """zeta_k applied to this element: falling factorial over k!.

        The division is exact on the level of basis coordinates; a
        non-zero remainder signals an arithmetic bug and raises.
        """
        ring = self.ring
        if k < 0:
            raise ValueError("zeta index must be >= 0")
        if ring.is_modular and k > ring.max_zeta:
            raise ValueError(f"zeta_{k} undefined over {ring!r}")
        if k == 0:
            return BinomialPoly.const(ring, 1)
        prod = BinomialPoly.const(ring, 1)
        for i in range(k):
            prod = prod * (self - i)
        return prod.divide(factorial(k))

    def evaluate(self, point: dict) -> int:
        """Evaluate at a point (unset generators default to 0)."""
        ring = self.ring
        return ring.normalize(sum(c * eval_index(idx, point, ring)
                                  for idx, c in self.terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def render(self) -> str:
        """Canonical text form, e.g. ``3 * z(x,2)*z(y,1) + 1 * z(y,1)``."""
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            if idx.is_unit:
                parts.append(str(c))
            else:
                mono = "*".join(f"z({n},{e})" for n, e in idx.entries)
                parts.append(f"{c} * {mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.render()} over {self.ring!r}>"


def zeta_add_expand(k: int, ring: RingSpec = ZZ) -> BinomialPoly:
    """The addition law zeta_k(a+b) = sum_{i+j=k} zeta_i(a) zeta_j(b)
    as an element of Int(R^{a,b})."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if ring.is_modular and k > ring.max_zeta:
        raise ValueError(f"zeta_{k} undefined over {ring!r}")
    terms = []
    for i in range(k + 1):
        j = k - i
        entries = []
        if i:
            entries.append(("a", i))
        if j:
            entries.append(("b", j))
        terms.append((MultiIndex(entries), 1))
    return BinomialPoly(ring, terms)


# ---------------------------------------------------------------------------
# one-hot rows over GF(p), p odd (the rows of linalg.ZpEliminator): entry c
# of a row, 0 < c < p, is the mask of the columns that hold c, and entry 0
# is the support, the OR of the others

def onehot_sub(p: int):
    """The row operation (v, h, f) -> v - f h on one-hot rows over GF(p).

    For p = 3 and p = 5 it is written out: the masks of h are unpacked in
    the order of -f h, with no permuted copy, and each result mask is a
    fixed OR of the ANDs that ``_add_onehot`` finds by looping over the
    values.  Larger p permute h and run that loop."""
    if p == 3:
        return _sub3
    if p == 5:
        return _sub5
    # perm[f][k]: the mask of h that holds k in -f h
    perm = [None] + [[k * pow(-f, -1, p) % p for k in range(p)]
                     for f in range(1, p)]

    def sub(v: list, h: list, f: int) -> list:
        return _add_onehot(p, v, [h[k] for k in perm[f]])
    return sub


def _add_onehot(p: int, v: list, w: list) -> list:
    """v + w: mask k is (V_k | W_k) off the common support, plus V_i & W_j
    for every i + j = k mod p on it.  And-not is a ^ (a & b), since ~b on
    a wide int costs a two's-complement pass over all of b."""
    sv, sw = v[0], w[0]
    both = sv & sw
    if not both:
        return [a | b for a, b in zip(v, w)]
    out = [t ^ (t & both) for t in map(or_, v, w)]
    gone = 0  # columns where v and w cancel
    for i in range(1, p):
        vi = v[i]
        if vi & both:
            for j in range(1, p):
                x = vi & w[j]
                if x:
                    k = i + j - p if i + j >= p else i + j
                    if k:
                        out[k] |= x
                    else:
                        gone |= x
    out[0] = (sv | sw) ^ gone
    return out


def _sub3(v: list, h: list, f: int) -> list:
    """v - f h over GF(3): -h permutes the masks of h, -2h = h."""
    s, v1, v2 = v
    if f == 1:
        t, w2, w1 = h
    else:
        t, w1, w2 = h
    both = s & t
    o1 = v1 | w1
    o2 = v2 | w2
    o1 = o1 ^ (o1 & both) | v2 & w2
    o2 = o2 ^ (o2 & both) | v1 & w1
    return [o1 | o2, o1, o2]


def _sub5(v: list, h: list, f: int) -> list:
    """v - f h over GF(5): w_k, the mask of -f h that holds k, is the
    mask of h that holds -k / f."""
    s, v1, v2, v3, v4 = v
    if f == 1:
        t, w4, w3, w2, w1 = h
    elif f == 2:
        t, w3, w1, w4, w2 = h
    elif f == 3:
        t, w2, w4, w1, w3 = h
    else:
        t, w1, w2, w3, w4 = h
    both = s & t
    o1 = v1 | w1
    o2 = v2 | w2
    o3 = v3 | w3
    o4 = v4 | w4
    o1 = o1 ^ (o1 & both) | v2 & w4 | v3 & w3 | v4 & w2
    o2 = o2 ^ (o2 & both) | v1 & w1 | v3 & w4 | v4 & w3
    o3 = o3 ^ (o3 & both) | v1 & w2 | v2 & w1 | v4 & w4
    o4 = o4 ^ (o4 & both) | v1 & w3 | v2 & w2 | v3 & w1
    return [o1 | o2 | o3 | o4, o1, o2, o3, o4]
