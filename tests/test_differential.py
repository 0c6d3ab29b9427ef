import functools
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import d_oracle
from cupone import differential
from cupone.cli import LoadedInput
from cupone.differential import (
    Differential,
    GeneratorSet,
    apply_d,
    check_d_squared,
    iter_indices,
    zero_differential,
)
from cupone.rings import MultiIndex, PreconditionError, RingSpec
from cupone.tensor import (
    TensorElem,
    circ_22,
    cup,
    cup1_22_words,
    cup1_31,
    cup1_deg1,
    cup1_hirsch,
)

Z = RingSpec.Z()
Z3 = RingSpec.Zp(3)


def g(name, ring=Z):
    return TensorElem.gen(ring, name)


def zmono(name, k, ring=Z, c=1):
    return TensorElem(ring, {(MultiIndex.single(name, k),): c})


def word(*factors, ring=Z, c=1):
    return TensorElem(ring, {tuple(MultiIndex(f) for f in factors): c})


def d0(names=("x", "y"), ring=Z):
    return zero_differential(GeneratorSet(names), ring)


def closed_form_d0_single(name, k, ring=Z):
    """Independent oracle: d0(zeta_k(x)) = -sum zeta_l T zeta_{k-l}."""
    acc = {}
    for l in range(1, k):
        w = (MultiIndex.single(name, l), MultiIndex.single(name, k - l))
        acc[w] = acc.get(w, 0) - 1
    return TensorElem(ring, acc)


def closed_form_d0_index(idx, ring=Z):
    """d0(zeta_I) = -sum_{I1+I2=I, Ij != 0} zeta_I1 T zeta_I2."""
    entries = idx.entries
    acc = {}

    def splits(i):
        if i == len(entries):
            yield (), ()
            return
        name, e = entries[i]
        for a in range(e + 1):
            for left, right in splits(i + 1):
                l = ((name, a),) + left if a else left
                r = ((name, e - a),) + right if e - a else right
                yield l, r

    for left, right in splits(0):
        if not left or not right:
            continue
        w = (MultiIndex(left), MultiIndex(right))
        acc[w] = acc.get(w, 0) - 1
    return TensorElem(ring, acc)


def test_d0_zeta_closed_form():
    d = d0(("x",))
    for k in range(1, 7):
        assert d.d_index(MultiIndex.single("x", k)) == \
            closed_form_d0_single("x", k)


def test_d0_multi_index_closed_form():
    d = d0(("x", "y"))
    for idx in iter_indices(["x", "y"], 6):
        assert d.d_index(idx) == closed_form_d0_index(idx)


def test_d0_zp_closed_form():
    for p in (2, 3, 5):
        ring = RingSpec.Zp(p)
        d = zero_differential(GeneratorSet(["x", "y"]), ring)
        for idx in iter_indices(["x", "y"], 6, max_exp=p - 1):
            assert d.d_index(idx) == closed_form_d0_index(idx, ring)


def test_apply_d_scalar_and_cup1():
    d = d0()
    assert apply_d(d, TensorElem.scalar(Z, 5)).is_zero()
    # d0(x cup1 y) = -x T y - y T x
    got = apply_d(d, cup1_deg1(g("x"), g("y")))
    assert got == word([("x", 1)], [("y", 1)], c=-1) + word([("y", 1)], [("x", 1)], c=-1)


def test_apply_d_leibniz_on_word():
    # d0(z2(x) T y) = -x T x T y
    d = d0()
    got = apply_d(d, word([("x", 2)], [("y", 1)]))
    assert got == word([("x", 1)], [("x", 1)], [("y", 1)], c=-1)


def test_d0_check_d_squared():
    report = check_d_squared(d0(), weight_cap=6)
    assert report.passed
    assert report.checked > 20


def heisenberg_diff(k=1, ring=Z):
    gens = GeneratorSet(["x1", "x2", "y"], {"x1": 1, "x2": 1, "y": 2})
    tau = {"y": cup(g("x1", ring), g("x2", ring)).scale(-k)}
    return Differential(ring, gens, tau)


def test_heisenberg_leibniz_sign():
    # d(x1 T y) = -x1 T dy = k x1 T x1 T x2 for dy = -k x1 T x2.
    k = 3
    d = heisenberg_diff(k)
    got = apply_d(d, word([("x1", 1)], [("y", 1)]))
    assert got == word([("x1", 1)], [("x1", 1)], [("x2", 1)], c=k)


def test_heisenberg_d_squared():
    report = check_d_squared(heisenberg_diff(2), weight_cap=4)
    assert report.passed


def test_heisenberg_cocycles_mechanical():
    # Under d(a T b) = da T b + (-1)^{|a|} a T db and dy = -k x1 T x2 the
    # verified cocycles carry a plus sign on the correction term.
    k = 4
    d = heisenberg_diff(k)
    u = word([("x1", 1)], [("y", 1)]) + word([("x1", 2)], [("x2", 1)], c=k)
    v = word([("y", 1)], [("x2", 1)]) + word([("x1", 1)], [("x2", 2)], c=k)
    assert apply_d(d, u).is_zero()
    assert apply_d(d, v).is_zero()
    # The minus-sign variant fails the mechanical test.
    bad = word([("x1", 1)], [("y", 1)]) + word([("x1", 2)], [("x2", 1)], c=-k)
    assert not apply_d(d, bad).is_zero()


def test_corrupted_tau_fails_d_squared():
    # dy = x1 T x2 + z2(x1) is not a cocycle for d0; d^2(y) != 0.
    gens = GeneratorSet(["x1", "x2", "y"], {"x1": 1, "x2": 1, "y": 2})
    tau = {"y": cup(g("x1"), g("x2")) + cup(g("x1"), zmono("x1", 2))}
    d = Differential(Z, gens, tau)
    report = check_d_squared(d, weight_cap=2)
    assert not report.passed
    assert report.first_failure() is not None


def test_level_violation_rejected():
    gens = GeneratorSet(["x", "y"], {"x": 1, "y": 2})
    tau = {"y": cup(g("y"), g("x"))}
    with pytest.raises(ValueError):
        Differential(Z, gens, tau)


@pytest.mark.parametrize("tau, message", [
    ({"y": g("x")}, r"^tau\(y\) must have degree 2$"),
    ({"y": cup(g("x", Z3), g("x", Z3))}, "^ring mismatch in tau$"),
    ({"y": cup(g("y"), g("x"))},
     r"^tau\(y\) uses \['y'\], not of lower level than y \(level 2\)$"),
], ids=["degree", "ring", "level"])
def test_tau_refusals_are_precondition_errors(tau, message):
    gens = GeneratorSet(["x", "y"], {"x": 1, "y": 2})
    with pytest.raises(PreconditionError, match=message):
        Differential(Z, gens, tau)


def test_zeta_past_the_cap_is_a_precondition_error():
    d = zero_differential(GeneratorSet(["x"]), Z3)
    with pytest.raises(PreconditionError,
                       match=r"^zeta_3 undefined over Zp\(3\)$"):
        d.d_index(MultiIndex.single("x", 3))


def test_weight_grading_of_d0():
    d = d0(("x", "y", "z"))
    rng = random.Random(3)
    for idx in iter_indices(["x", "y", "z"], 5):
        val = d.d_index(idx)
        if not val.is_zero():
            lo, hi = val.weight_of()
            assert lo == hi == idx.weight


def random_deg1(rng, names=("x", "y"), ring=Z):
    # <= 3 terms, weight <= 3 per term
    t = TensorElem.zero(ring)
    for _ in range(rng.randint(1, 3)):
        budget = rng.randint(1, 3)
        entries = []
        for n in names:
            e = rng.randint(0, budget)
            budget -= e
            if e:
                entries.append((n, e))
        if not entries:
            entries = [(rng.choice(names), 1)]
        c = rng.choice([-2, -1, 1, 2])
        t = t + TensorElem(ring, {(MultiIndex(entries),): c})
    return t


def test_cup1_d_formula_random():
    # d(a cup1 b) = -ab - ba + da cup1 b + db cup1 a - da circ db
    rng = random.Random(4)
    d = heisenberg_diff(2)
    names = ("x1", "x2", "y")
    for _ in range(40):
        a = random_deg1(rng, names)
        b = random_deg1(rng, names)
        lhs = apply_d(d, cup1_deg1(a, b))
        da, db = apply_d(d, a), apply_d(d, b)
        rhs = -cup(a, b) - cup(b, a)
        if not da.is_zero():
            rhs = rhs + cup1_hirsch(da, b)
        if not db.is_zero():
            rhs = rhs + cup1_hirsch(db, a)
        if not (da.is_zero() or db.is_zero()):
            rhs = rhs - circ_22(da, db)
        assert lhs == rhs


def test_da1b_identity():
    # d(da cup1 b) = da cup b - b cup da + da cup1 db  (d^2 a = 0)
    rng = random.Random(5)
    d = heisenberg_diff(3)
    names = ("x1", "x2", "y")
    dp = d.d_poly
    for _ in range(30):
        a = random_deg1(rng, names)
        b = random_deg1(rng, names)
        da, db = apply_d(d, a), apply_d(d, b)
        if da.is_zero():
            continue
        lhs = apply_d(d, cup1_hirsch(da, b))
        rhs = cup(da, b) - cup(b, da)
        if not db.is_zero():
            rhs = rhs + cup1_22_words(da, db, dp)
        assert lhs == rhs


def test_da1b_identity_closed_case():
    # a = zeta_2(x), b = y under d0.
    d = d0()
    dp = d.d_poly
    a, b = zmono("x", 2), g("y")
    da, db = apply_d(d, a), apply_d(d, b)
    lhs = apply_d(d, cup1_hirsch(da, b))
    rhs = cup(da, b) - cup(b, da)  # db = 0 kills da cup1 db
    assert db.is_zero()
    assert lhs == rhs


def test_dadb_identity():
    # d(da circ db) = da cup1 db + db cup1 da  (d^2 a = d^2 b = 0)
    rng = random.Random(6)
    d = heisenberg_diff(2)
    names = ("x1", "x2", "y")
    dp = d.d_poly
    for _ in range(30):
        a = random_deg1(rng, names)
        b = random_deg1(rng, names)
        da, db = apply_d(d, a), apply_d(d, b)
        if da.is_zero() or db.is_zero():
            continue
        lhs = apply_d(d, circ_22(da, db))
        rhs = cup1_22_words(da, db, dp) + cup1_22_words(db, da, dp)
        assert lhs == rhs


def test_cup1_31_slotwise_expansion():
    got = cup1_31(cup(cup(g("x"), g("y")), g("z")), g("w"))
    expect = (cup(cup(cup1_deg1(g("x"), g("w")), g("y")), g("z"))
              + cup(cup(g("x"), cup1_deg1(g("y"), g("w"))), g("z"))
              + cup(cup(g("x"), g("y")), cup1_deg1(g("z"), g("w"))))
    assert expect == got


def test_chain_homotopy_identity():
    """d0 h_l + h_{l+1} d0 = id on the acyclic summand T1 (single x),
    where h kills words unless the first factor is zeta_1 and then
    shifts: h(z1 T z_{i2} T ...) = -z_{i2+1} T ...; weight <= 6."""
    ring = Z
    d = d0(("x",))

    def h(t: TensorElem) -> TensorElem:
        acc = {}
        for w, c in t.terms.items():
            if not w or w[0].get("x") != 1:
                continue
            if len(w) == 1:
                continue
            i2 = w[1].get("x")
            nw = (MultiIndex.single("x", i2 + 1),) + w[2:]
            acc[nw] = acc.get(nw, 0) - c
        return TensorElem(ring, acc)

    def words_T1(weight, length):
        # words of given length in zeta_i(x), total weight given,
        # excluding the single word (x) in degree 1 (that lives in T0).
        def rec(l, rem):
            if l == 0:
                if rem == 0:
                    yield ()
                return
            for i in range(1, rem + 1):
                for rest in rec(l - 1, rem - i):
                    yield (MultiIndex.single("x", i),) + rest

        for w in rec(length, weight):
            if length == 1 and w[0].weight == 1:
                continue
            yield w

    checked = 0
    for weight in range(2, 7):
        for length in range(1, min(weight, 3) + 1):
            for w in words_T1(weight, length):
                t = TensorElem(ring, {w: 1})
                got = apply_d(d, h(t)) + h(apply_d(d, t))
                assert got == t, (w, got.render())
                checked += 1
    assert checked > 30


# -- the d-value cache ----------------------------------------------------

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

CACHE_CASES = [("torus", "Z"), ("torus", "Zp:2"), ("torus", "Zp:3"),
               ("heisenberg_k2", "Z"), ("heisenberg_k2", "Zp:2"),
               ("heisenberg_k2", "Zp:3"), ("borromean_n1", "Z")]


def stage2_differential(fixture, ring):
    """The stage-2 differential of a fixture's model (tau(y_i) = -rep_i
    over the stage-1 kernel basis), built without the stage-2 H^2."""
    s1 = LoadedInput(str(FIXTURES / f"{fixture}.pres"), ring).build_model(1)[0]
    names = [f"y{i + 1}" for i in range(len(s1.ker_basis or []))]
    tau = dict(s1.diff.tau)
    tau.update({n: rep.scale(-1) for n, rep in zip(names, s1.ker_basis or [])})
    return Differential(s1.ring, s1.gens.extend(names, 2), tau)


def fresh(d):
    return Differential(d.ring, d.gens, d.tau)


@pytest.mark.parametrize("fixture,ring", CACHE_CASES)
def test_cached_d_index_matches_fresh_differential(fixture, ring):
    d = stage2_differential(fixture, ring)
    idxs = list(iter_indices(d.gens.names, 4, d.ring.max_zeta))
    random.Random(f"{fixture}/{ring}").shuffle(idxs)
    for idx in idxs:
        got = d.d_index(idx)
        want = fresh(d).d_index(idx)
        # Same terms in the same order, so renderings cannot differ.
        assert list(got.terms.items()) == list(want.terms.items()), idx
    cold = check_d_squared(fresh(d), weight_cap=4)
    warm = check_d_squared(d, weight_cap=4)
    assert cold.passed and warm.passed
    assert warm.checked == cold.checked


# -- d-values against the products they replaced ---------------------------

MODEL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.pres"))


def d_values(d, max_weight=4):
    """Every d(zeta_I) up to max_weight as its list of terms, in order."""
    return [list(d.d_index(idx).terms.items())
            for idx in iter_indices(d.gens.names, max_weight, d.ring.max_zeta)]


@pytest.mark.parametrize("ring", ["Z", "Zp:2", "Zp:3"])
@pytest.mark.parametrize("fixture", MODEL_FIXTURES)
def test_d_values_match_replaced_products(monkeypatch, fixture, ring):
    s1 = LoadedInput(str(FIXTURES / f"{fixture}.pres"), ring).build_model(1)[0]
    stages = [s1.diff, stage2_differential(fixture, ring)]
    got = [d_values(d) for d in stages]
    monkeypatch.setattr(differential, "cup1_hirsch", d_oracle.cup1_hirsch)
    monkeypatch.setattr(differential, "circ_22", d_oracle.circ_22)
    # Same terms in the same order.
    assert got == [d_values(fresh(d)) for d in stages]


@pytest.mark.parametrize("ring", ["Z", "Zp:2", "Zp:3"])
@pytest.mark.parametrize("fixture", MODEL_FIXTURES)
def test_d_values_match_chained_d_cup1(monkeypatch, fixture, ring):
    s1 = LoadedInput(str(FIXTURES / f"{fixture}.pres"), ring).build_model(1)[0]
    stages = [s1.diff, stage2_differential(fixture, ring)]
    got = [d_values(d) for d in stages]
    monkeypatch.setattr(Differential, "_d_cup1", d_oracle.d_cup1)
    # Same terms in the same order.
    assert got == [d_values(fresh(d)) for d in stages]


@pytest.mark.parametrize("ring", [Z, RingSpec.Zp(2), Z3], ids=repr)
def test_d_cup1_matches_chained_additions_on_random_parts(ring):
    # Arbitrary parts, not d-values: some words cancel at one part and
    # come back at a later one, which chained additions move to the end.
    rng = random.Random(f"d_cup1/{ring!r}")
    d = d0(("x", "y", "z"), ring)
    top = ring.max_zeta or 2

    def index():
        idx = MultiIndex.unit()
        while idx.is_unit:
            idx = MultiIndex((n, rng.randint(0, top)) for n in "xyz")
        return idx

    def part():
        return TensorElem(ring, [((index(), index()), rng.randint(-2, 2))
                                 for _ in range(rng.randint(1, 3))])

    for _ in range(1000):
        a = TensorElem(ring, {(index(),): 1})
        b = TensorElem(ring, {(index(),): 1})
        da, db = part(), part()
        assert same_terms(d._d_cup1(a, b, da, db),
                          d_oracle.d_cup1(d, a, b, da, db))


def test_corrupted_tau_fails_d_squared_on_warm_cache():
    gens = GeneratorSet(["x1", "x2", "y"], {"x1": 1, "x2": 1, "y": 2})
    tau = {"y": cup(g("x1"), g("x2")) + cup(g("x1"), zmono("x1", 2))}
    d = Differential(Z, gens, tau)
    for idx in iter_indices(gens.names, 2):
        d.d_index(idx)
    warm = check_d_squared(d, weight_cap=2)
    cold = check_d_squared(fresh(d), weight_cap=2)
    assert not warm.passed
    assert warm.checked == cold.checked
    assert [(label, list(w.terms.items())) for label, w in warm.failures] \
        == [(label, list(w.terms.items())) for label, w in cold.failures]


def same_report(got, want):
    """Equal in verdict, count, and failure labels and witnesses in order."""
    return (got.passed == want.passed and got.checked == want.checked
            and [(label, list(w.terms.items())) for label, w in got.failures]
            == [(label, list(w.terms.items())) for label, w in want.failures])


@pytest.mark.parametrize("ring", ["Z", "Zp:2", "Zp:3"])
@pytest.mark.parametrize("fixture", MODEL_FIXTURES)
def test_d_squared_audit_matches_oracle(fixture, ring):
    d = stage2_differential(fixture, ring)
    got = check_d_squared(d, weight_cap=3)
    assert got.passed
    assert same_report(got, d_oracle.check_d_squared(fresh(d), weight_cap=3))


# -- the coded Leibniz rule against the MultiIndex oracle -----------------

def oracle_stage_builders() -> dict:
    """The stage-2 differentials of CACHE_CASES and every fixture stage of
    the resolution route's brute-force comparison, by label."""
    from test_model import RESOLUTION_STAGES, stage_diff
    out = {f"{fx}/{ring}": lambda fx=fx, ring=ring:
           stage2_differential(fx, ring) for fx, ring in CACHE_CASES}
    out.update({f"{fx}/Zp:{p}/stage{n}": lambda fx=fx, p=p, n=n:
                stage_diff(fx, p, n)[1] for fx, p, n in RESOLUTION_STAGES})
    return out


ORACLE_STAGES = oracle_stage_builders()


@functools.lru_cache(maxsize=None)
def oracle_stage(label):
    return ORACLE_STAGES[label]()


def same_terms(a, b):
    return list(a.terms.items()) == list(b.terms.items())


@pytest.mark.parametrize("label", ORACLE_STAGES)
def test_apply_d_matches_oracle_on_audit_inputs(label):
    # The d^2 audit's inputs: tau and every d-value up to weight 3.
    d = oracle_stage(label)
    idxs = iter_indices(d.gens.names, 3, d.ring.max_zeta)
    for val in list(d.tau.values()) + [d.d_index(idx) for idx in idxs]:
        assert same_terms(apply_d(d, val), d_oracle.apply_d(d, val))


@st.composite
def tensor_elems(draw, d, pool):
    """Words of 1-3 factors from pool with small coefficients; a drawn
    word may repeat with the opposite coefficient, and d-values (whose
    images cancel, d^2 = 0) may be mixed in."""
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        w = tuple(draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=3)))
        c = draw(st.integers(-3, 3))
        terms.append((w, c))
        if draw(st.booleans()):
            terms.append((w, -c))
    u = TensorElem(d.ring, terms)
    for idx in draw(st.lists(st.sampled_from(pool), max_size=2)):
        u = u + d.d_index(idx).scale(draw(st.integers(-2, 2)))
    return u


@pytest.mark.parametrize("label", ORACLE_STAGES)
@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_apply_d_matches_oracle(label, data):
    d = oracle_stage(label)
    pool = list(iter_indices(d.gens.names, 3, d.ring.max_zeta))
    u = data.draw(tensor_elems(d, pool))
    # Same terms in the same order, zero terms dropped.
    assert same_terms(apply_d(d, u), d_oracle.apply_d(d, u))


def test_apply_d_degree_cap_matches_oracle():
    d = d0()
    u = word([("x", 1)], [("y", 1)], [("x", 2)], [("y", 2)])
    for impl in (apply_d, d_oracle.apply_d):
        with pytest.raises(ValueError, match="degree cap"):
            impl(d, u)


@pytest.mark.parametrize("fixture,ring", [("torus", "Zp:2"),
                                          ("heisenberg_k2", "Z"),
                                          ("heisenberg_k2", "Zp:3"),
                                          ("borromean_n1", "Z")])
def test_corrupted_tau_fails_d_squared_like_oracle(monkeypatch, fixture,
                                                   ring):
    d = stage2_differential(fixture, ring)
    x1, x2 = d.gens.at_level(1)[:2]
    y = d.gens.at_level(2)[0]
    tau = dict(d.tau)
    # d(x1 (x) zeta_{x1 x2}) = -x1 (x) (x1 (x) x2 + x2 (x) x1) is not zero.
    tau[y] = tau[y] + TensorElem(d.ring, {(MultiIndex.single(x1), MultiIndex(
        [(x1, 1), (x2, 1)])): 1})
    bad = Differential(d.ring, d.gens, tau)
    got = check_d_squared(bad, weight_cap=3)
    labels = [label for label, _ in got.failures]
    # Both loops of the audit fail: the generator y and zeta_1(y), ...
    assert f"d^2({y})" in labels and f"d^2(zeta_z({y},1))" in labels
    monkeypatch.setattr(differential, "apply_d", d_oracle.apply_d)
    assert same_report(got, d_oracle.check_d_squared(fresh(bad), weight_cap=3))
