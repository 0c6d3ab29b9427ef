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

from .rings import (_INTERNED, BinomialPoly, MultiIndex, PreconditionError,
                    RingSpec)
from .tensor import TensorElem, circ_22, cup1_hirsch


class GeneratorSet:
    """Ordered generators with stage levels (X = union of X_i, i >= 1)."""

    def __init__(self, names, level=None):
        self.names = list(names)
        if len(set(self.names)) != len(self.names):
            raise PreconditionError("duplicate generator names")
        self.level = dict(level) if level else {n: 1 for n in self.names}
        for n in self.names:
            if self.level.get(n, 0) < 1:
                raise PreconditionError(f"generator {n} needs a level >= 1")

    def at_level(self, m: int) -> list:
        return [n for n in self.names if self.level[n] == m]

    def up_to_level(self, m: int) -> list:
        return [n for n in self.names if self.level[n] <= m]

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
                raise PreconditionError(f"tau({name}) must have degree 2")
            if val.ring != ring:
                raise PreconditionError("ring mismatch in tau")
            lv = gens.level[name]
            allowed = set(gens.up_to_level(lv - 1))
            used = set(val.support_names())
            if not used <= allowed:
                raise PreconditionError(
                    f"tau({name}) uses {sorted(used - allowed)}, not of "
                    f"lower level than {name} (level {lv})")

    # -- d on the zeta basis -------------------------------------------

    def _d_single(self, name: str, k: int) -> TensorElem:
        if name not in self.gens:
            raise KeyError(f"unknown generator {name}")
        if k == 1:
            return self.tau[name]
        cap = self.ring.max_zeta
        if cap is not None and k > cap:
            raise PreconditionError(f"zeta_{k} undefined over {self.ring!r}")
        n = k - 1
        zn = MultiIndex.single(name, n)
        d_zn = self.d_index(zn)
        d_prod = self._d_cup1(TensorElem(self.ring, {(zn,): 1}),
                              TensorElem.gen(self.ring, name),
                              d_zn, self.tau[name])
        return (d_prod - d_zn.scale(n)).divide(n + 1)

    def _d_cup1(self, a: TensorElem, b: TensorElem,
                da: TensorElem, db: TensorElem) -> TensorElem:
        """cup1-d formula for one-word degree-1 a, b with known
        differentials.

        The cup parts -ab and -ba are the single words (a, b) and (b, a).
        The parts add into one dict in the formula's order.  A word whose
        sum reaches zero leaves the dict at once, so a later part that
        meets it again appends it: the terms come out in the order that
        chained ``TensorElem`` additions give."""
        ((ia,), ca), = a.terms.items()
        ((ib,), cb), = b.terms.items()
        c = ca * cb
        parts = [((((ia, ib), c),), -1), ((((ib, ia), c),), -1)]
        if da.terms:
            parts.append((cup1_hirsch(da, b).terms.items(), 1))
        if db.terms:
            parts.append((cup1_hirsch(db, a).terms.items(), 1))
        if da.terms and db.terms:
            parts.append((circ_22(da, db).terms.items(), -1))
        p = self.ring.p
        acc: dict = {}
        get = acc.get
        for part, sign in parts:
            for w, c in part:
                v = get(w, 0) + sign * c
                if v % p if p else v:
                    acc[w] = v
                else:
                    del acc[w]
        return TensorElem._tidy(self.ring, acc.items())

    def d_index(self, idx: MultiIndex) -> TensorElem:
        """d(zeta_I), cached; composite indices split off their first
        variable as a cup-one factor."""
        if idx.is_unit:
            return TensorElem.zero(self.ring)
        cached = self.cache.get(idx)
        if cached is not None:
            return cached
        entries = idx.entries
        if len(entries) == 1:
            val = self._d_single(*entries[0])
        else:
            # Both parts are canonical entry tuples, so the interned table
            # finds their indices without a constructor call.
            head = _INTERNED.get(entries[:1]) or MultiIndex(entries[:1])
            rest = _INTERNED.get(entries[1:]) or MultiIndex(entries[1:])
            val = self._d_cup1(TensorElem._tidy(self.ring, [((head,), 1)]),
                               TensorElem._tidy(self.ring, [((rest,), 1)]),
                               self.d_index(head), self.d_index(rest))
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


def zero_differential(gens: GeneratorSet, ring: RingSpec) -> Differential:
    """The differential d_0 with tau = 0."""
    return Differential(ring, gens, {})


def apply_d(d: Differential, u: TensorElem) -> TensorElem:
    """Extend d over words by the graded Leibniz rule
    d(a cup b) = da cup b + (-1)^{|a|} a cup db.

    Terms accumulate on the words in the order the rule meets them.  A
    two-factor word (a, b) takes da cup b, then -a cup db, each 3-word
    built in one tuple display (d-values are 2-words); other words run
    the slot loop."""
    cache = d.cache
    acc: dict = {}
    get = acc.get
    for word, c in u.terms.items():
        if len(word) == 2:
            a, b = word
            dv = cache.get(a)
            if dv is None:
                dv = d.d_index(a)
            for (x, y), cm in dv.terms.items():
                w = (x, y, b)
                acc[w] = get(w, 0) + c * cm
            dv = cache.get(b)
            if dv is None:
                dv = d.d_index(b)
            for (x, y), cm in dv.terms.items():
                w = (a, x, y)
                acc[w] = get(w, 0) - c * cm
            continue
        if len(word) > 3:
            raise PreconditionError("degree cap exceeded in apply_d")
        for slot, f in enumerate(word):
            dv = cache.get(f)
            if dv is None:
                dv = d.d_index(f)
            if not dv.terms:
                continue
            sc = -c if slot % 2 else c
            pre = word[:slot]
            post = word[slot + 1:]
            for wmid, cm in dv.terms.items():
                w = pre + wmid + post
                acc[w] = get(w, 0) + sc * cm
    return TensorElem._tidy(d.ring, acc.items())


class DSquaredReport:
    def __init__(self, passed: bool, checked: int,
                 failures: list | None = None):
        self.passed, self.checked = passed, checked
        # (label, witness TensorElem)
        self.failures = [] if failures is None else failures

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


def check_d_squared(d: Differential, weight_cap: int = 6) -> DSquaredReport:
    """Verify d^2 = 0 on generators and on the zeta basis up to weight_cap."""
    names = list(d.gens.names)
    failures = []
    checked = 0
    on_gens = {}
    for name in names:
        val = on_gens[name] = apply_d(d, d.tau[name])
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2({name})", val))
    for idx in iter_indices(names, weight_cap, d.ring.max_zeta):
        # d(zeta_1(x)) is tau(x), whose d was taken above.
        if idx.weight == 1:
            val = on_gens[idx.entries[0][0]]
        else:
            val = apply_d(d, d.d_index(idx))
        checked += 1
        if not val.is_zero():
            failures.append((f"d^2(zeta_{idx!r})", val))
    return DSquaredReport(passed=not failures, checked=checked,
                          failures=failures)
