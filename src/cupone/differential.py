"""Differentials on T_R(X) extending a generator assignment tau.

A map tau: X -> T^2 extends to the unique degree-1 linear map satisfying
the graded Leibniz rule and the cup-one/d formula

    d(a cup1 b) = -a b - b a + da cup1 b + db cup1 a - da circ db

for degree-1 a, b.  On the zeta basis the extension is driven by the
recursion zeta_{n+1}(x) = (zeta_n(x) cup1 x - n zeta_n(x)) / (n+1)
(division exact over Z, capped at p-1 over Z_p) and, across disjoint
variables, by splitting zeta_I into cup-one factors.

Each Differential keeps one cache of d(zeta_I) keyed by the multi-index,
for single-variable and composite indices alike: tau is fixed once the
Differential is built (a new stage builds a new one), so a value never
changes and every caller (apply_d, the d^2 audit, the Z_p stage
cohomology of resolution_cohomology_Zp) computes it at most once.
Callers share the cached elements and must not mutate them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .rings import BinomialPoly, MultiIndex, RingSpec
from .tensor import (
    TensorElem,
    circ_22,
    cup,
    cup1_hirsch,
)


class GeneratorSet:
    """Ordered generators with stage levels (X = union of X_i, i >= 1)."""

    def __init__(self, names, level=None):
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate generator names")
        self.level = dict(level) if level else {n: 1 for n in self.names}
        for n in self.names:
            if self.level.get(n, 0) < 1:
                raise ValueError(f"generator {n} needs a level >= 1")

    def at_level(self, m: int) -> list:
        return [n for n in self.names if self.level[n] == m]

    def up_to_level(self, m: int) -> list:
        return [n for n in self.names if self.level[n] <= m]

    def max_level(self) -> int:
        return max((self.level[n] for n in self.names), default=1)

    def extend(self, new_names, level: int) -> "GeneratorSet":
        lv = dict(self.level)
        lv.update({n: level for n in new_names})
        return GeneratorSet(self.names + list(new_names), lv)

    def __contains__(self, name):
        return name in self.level

    def __repr__(self):
        return f"GeneratorSet({self.names}, levels={self.level})"


class Differential:
    """tau on generators plus the cache of d-values on the zeta basis."""

    def __init__(self, ring: RingSpec, gens: GeneratorSet,
                 tau: dict[str, TensorElem]):
        self.ring = ring
        self.gens = gens
        self.tau = dict(tau)
        self.cache: dict[MultiIndex, TensorElem] = {}
        for name in gens.names:
            val = self.tau.get(name)
            if val is None or val.is_zero():
                self.tau[name] = TensorElem.zero(ring)
                continue
            if val.degree() != 2:
                raise ValueError(f"tau({name}) must have degree 2")
            if val.ring != ring:
                raise ValueError("ring mismatch in tau")
            lv = gens.level[name]
            allowed = set(gens.up_to_level(lv - 1))
            used = set(val.support_names())
            if not used <= allowed:
                raise ValueError(
                    f"tau({name}) uses {sorted(used - allowed)}, not of "
                    f"lower level than {name} (level {lv})")

    # -- d on the zeta basis -------------------------------------------

    def d_zeta(self, name: str, k: int) -> TensorElem:
        """d(zeta_k(x))."""
        return self.d_index(MultiIndex.single(name, k))

    def _d_single(self, name: str, k: int) -> TensorElem:
        if name not in self.gens:
            raise KeyError(f"unknown generator {name}")
        if k == 1:
            return self.tau[name]
        cap = self.ring.max_zeta
        if cap is not None and k > cap:
            raise ValueError(f"zeta_{k} undefined over {self.ring!r}")
        n = k - 1
        zn = MultiIndex.single(name, n)
        d_zn = self.d_index(zn)
        d_prod = self._d_cup1(TensorElem(self.ring, {(zn,): 1}),
                              TensorElem.gen(self.ring, name),
                              d_zn, self.tau[name])
        return self._divide(d_prod - d_zn.scale(n), n + 1)

    def _divide(self, t: TensorElem, m: int) -> TensorElem:
        if self.ring.is_modular:
            return t.scale(self.ring.inv(m))
        out = {}
        for w, c in t.terms.items():
            q, r = divmod(c, m)
            if r:
                raise ArithmeticError(
                    f"inexact division by {m} in zeta recursion")
            out[w] = q
        return TensorElem(self.ring, out)

    def _d_cup1(self, a: TensorElem, b: TensorElem,
                da: TensorElem, db: TensorElem) -> TensorElem:
        """cup1-d formula for degree-1 a, b with known differentials."""
        out = (-cup(a, b)) + (-cup(b, a))
        if not da.is_zero():
            out = out + cup1_hirsch(da, b)
        if not db.is_zero():
            out = out + cup1_hirsch(db, a)
        if not (da.is_zero() or db.is_zero()):
            out = out - circ_22(da, db)
        return out

    def d_index(self, idx: MultiIndex) -> TensorElem:
        """d(zeta_I), cached; composite indices split off their first
        variable as a cup-one factor."""
        if idx.is_unit:
            return TensorElem.zero(self.ring)
        cached = self.cache.get(idx)
        if cached is not None:
            return cached
        name, k = idx.entries[0]
        if len(idx.entries) == 1:
            val = self._d_single(name, k)
        else:
            head = MultiIndex.single(name, k)
            rest = idx.drop(name)
            a = TensorElem(self.ring, {(head,): 1})
            b = TensorElem(self.ring, {(rest,): 1})
            val = self._d_cup1(a, b, self.d_index(head), self.d_index(rest))
        self.cache[idx] = val
        return val

    def d_poly(self, p: BinomialPoly) -> TensorElem:
        """d of a polynomial in the zeta basis (the canonical-decomposition
        hook for the mixed-degree maps)."""
        out = TensorElem.zero(self.ring)
        for idx, c in p.terms.items():
            if idx.is_unit:
                continue
            out = out + self.d_index(idx).scale(c)
        return out


def build_differential(gens: GeneratorSet,
                       tau: dict[str, TensorElem] | None,
                       ring: RingSpec) -> Differential:
    """Validate tau and package it as a Differential."""
    return Differential(ring, gens, tau or {})


def zero_differential(gens: GeneratorSet, ring: RingSpec) -> Differential:
    """The differential d_0 with tau = 0."""
    return Differential(ring, gens, {})


def apply_d(d: Differential, u: TensorElem) -> TensorElem:
    """Extend d over words by the graded Leibniz rule
    d(a cup b) = da cup b + (-1)^{|a|} a cup db."""
    ring = d.ring
    acc: dict = {}
    for word, c in u.terms.items():
        if len(word) > 3:
            raise ValueError("degree cap exceeded in apply_d")
        for slot in range(len(word)):
            dv = d.d_index(word[slot])
            if dv.is_zero():
                continue
            sign = -1 if slot % 2 else 1
            pre = word[:slot]
            post = word[slot + 1:]
            for wmid, cm in dv.terms.items():
                w = pre + wmid + post
                acc[w] = acc.get(w, 0) + c * cm * sign
    return TensorElem(ring, acc)


def cup1_high(u: TensorElem, v: TensorElem,
              context: Differential | None = None) -> TensorElem:
    """Dispatch the higher cup-one maps by degree pair.

    (3,1) needs no context; (2,2) reads the canonical decompositions of
    the left factor's differentials from the context."""
    from .tensor import cup1_22_words, cup1_31
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    pair = (u.degree(), v.degree())
    if pair == (3, 1):
        return cup1_31(u, v)
    if pair == (2, 2):
        if context is None:
            raise ValueError("degree (2,2) cup-one needs a differential")
        return cup1_22_words(u, v, context.d_poly)
    if pair == (2, 1):
        return cup1_hirsch(u, v)
    raise ValueError(f"unsupported cup-one degrees {pair}")


def circ(u: TensorElem, v: TensorElem,
         context: Differential | None = None) -> TensorElem:
    """Dispatch the circle maps by degree pair: (2,2) is context-free,
    (2,3) and (3,2) read decomposition sums from the context."""
    from .tensor import circ_23_words, circ_32_words
    if u.is_zero() or v.is_zero():
        return TensorElem.zero(u.ring)
    pair = (u.degree(), v.degree())
    if pair == (2, 2):
        return circ_22(u, v)
    if context is None:
        raise ValueError(f"circle map of degrees {pair} needs a differential")
    if pair == (2, 3):
        return circ_23_words(u, v, context.d_poly)
    if pair == (3, 2):
        return circ_32_words(u, v, context.d_poly)
    raise ValueError(f"unsupported circle degrees {pair}")


@dataclass
class DSquaredReport:
    passed: bool
    checked: int
    failures: list = field(default_factory=list)  # (label, witness TensorElem)

    def first_failure(self):
        return self.failures[0] if self.failures else None


def iter_indices(names, max_weight, max_exp=None):
    """All nonzero multi-indices over `names` of weight <= max_weight."""

    def rec(i, remaining):
        if i == len(names):
            yield ()
            return
        cap = remaining if max_exp is None else min(remaining, max_exp)
        for e in range(cap + 1):
            head = ((names[i], e),) if e else ()
            for rest in rec(i + 1, remaining - e):
                yield head + rest

    for entries in rec(0, max_weight):
        if entries:
            yield MultiIndex(entries)


def check_d_squared(d: Differential, weight_cap: int = 6,
                    names=None) -> DSquaredReport:
    """Verify d^2 = 0 on generators and on the zeta basis up to weight_cap."""
    names = list(names) if names is not None else list(d.gens.names)
    failures = []
    checked = 0
    for name in names:
        val = apply_d(d, d.tau[name])
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2({name})", val))
    for idx in iter_indices(names, weight_cap, d.ring.max_zeta):
        val = apply_d(d, d.d_index(idx))
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2(zeta_{idx!r})", val))
    return DSquaredReport(passed=not failures, checked=checked,
                          failures=failures)
