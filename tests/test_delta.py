import random

import pytest

from cupone.delta import (
    Cochain,
    DeltaSet,
    FiniteMagma,
    bar_construction,
    check_admissible,
    coboundary,
    cochain_from_vector,
    cup1_21_from_decomposition,
    cup1_cochain,
    cup2_cochain,
    cup_cochain,
    cyclic_group_magma,
    delta_from_magma,
    extension_magma,
    magma_from_tau,
    psi_embed,
    segment_at,
    segment_cohomology,
    unit_cochain,
    zeta_cochain,
)
from cupone.interval import interval_algebra
from cupone.linalg import AbelianInvariants, cohomology_at
from cupone.rings import MultiIndex, RingSpec, binom_of
from cupone.tensor import TensorElem, cup

Z = RingSpec.Z()
Z2 = RingSpec.Zp(2)
Z3 = RingSpec.Zp(3)
Z5 = RingSpec.Zp(5)


def bar_z(n, max_dim=2):
    return bar_construction(cyclic_group_magma((n,)), max_dim)


def random_cochain(rng, X, dim, ring=Z, lo=-3, hi=3):
    return Cochain(dim, ring,
                   {c: rng.randint(lo, hi) for c in X.cells[dim]})


def test_interval_relations():
    ia = interval_algebra(Z)
    X, t0, t1, u = ia.delta, ia.t0, ia.t1, ia.u
    assert coboundary(X, t0) == -u
    assert coboundary(X, t1) == u
    assert cup_cochain(X, t0, t0) == t0
    assert cup_cochain(X, t0, t1).is_zero()
    assert cup_cochain(X, t0, u) == u
    assert cup_cochain(X, u, t1) == u
    assert cup_cochain(X, u, t0).is_zero()
    assert cup_cochain(X, t1, u).is_zero()
    assert cup1_cochain(X, u, u) == u
    # unit is t0 + t1
    one = t0 + t1
    assert cup_cochain(X, one, u) == u
    assert cup_cochain(X, u, one) == u
    assert coboundary(X, one).is_zero()
    # zeta_k(n u) = C(n, k) u; zeta_k(u) = 0 for k >= 2
    for n in range(-3, 4):
        for k in range(1, 5):
            got = zeta_cochain(X, u.scale(n), k)
            assert got == u.scale(binom_of(n, k))
    assert zeta_cochain(X, u, 2).is_zero()


def test_interval_cohomology_concentrated_in_degree_0():
    ia = interval_algebra(Z)
    h0 = cohomology_at(segment_at(ia.delta, Z, 0))
    h1 = cohomology_at(segment_at(ia.delta, Z, 1))
    assert h0.invariants == AbelianInvariants(1, ())
    assert h1.invariants == AbelianInvariants(0, ())


def test_cup1_zero_cochain_rule():
    ia = interval_algebra(Z)
    assert cup1_cochain(ia.delta, ia.t0, ia.u).is_zero()
    assert cup1_cochain(ia.delta, ia.u, ia.t0).is_zero()


def test_bar_cell_counts():
    mc = bar_z(2, max_dim=3)
    X = mc.delta
    assert [len(X.cells[d]) for d in range(4)] == [1, 2, 4, 8]
    mc3 = bar_z(3, max_dim=2)
    assert [len(mc3.delta.cells[d]) for d in range(3)] == [1, 3, 9]


def test_bar_face_formula():
    mc = bar_z(5)
    X = mc.delta
    # d1 [g1|g2] = [g1 g2]
    assert X.face("[2|4]", 1) == "[1]"
    assert X.face("[2|4]", 0) == "[4]"
    assert X.face("[2|4]", 2) == "[2]"


def test_bar_cup_and_coboundary_formulas():
    mc = bar_z(7)
    X = mc.delta
    rng = random.Random(0)
    f = random_cochain(rng, X, 1)
    h = random_cochain(rng, X, 1)
    fh = cup_cochain(X, f, h)
    df = coboundary(X, f)
    for a in range(7):
        for b in range(7):
            cell = f"[{a}|{b}]"
            assert fh(cell) == f(f"[{a}]") * h(f"[{b}]")
            assert df(cell) == f(f"[{a}]") + f(f"[{b}]") - f(f"[{(a + b) % 7}]")
    # cup1 on the bar: pointwise
    f1 = cup1_cochain(X, f, h)
    for a in range(7):
        assert f1(f"[{a}]") == f(f"[{a}]") * h(f"[{a}]")
    # zeta on the bar: pointwise binomial
    z2 = zeta_cochain(X, f, 2)
    for a in range(7):
        assert z2(f"[{a}]") == binom_of(f(f"[{a}]"), 2)


def test_coboundary_squared_zero_random():
    rng = random.Random(1)
    mc = bar_z(3, max_dim=3)
    X = mc.delta
    for dim in (0, 1):
        for _ in range(10):
            c = random_cochain(rng, X, dim)
            assert coboundary(X, coboundary(X, c)).is_zero()


def bar_generator_cycle(p):
    """The degree-2 class of B(Z_p): sum_{i=1}^{p-1} [i|1], corrected by
    the degenerate cell [0|0] that the unnormalized complex keeps."""
    return {f"[{i}|1]": 1 for i in range(1, p)} | {"[0|0]": 1}


def test_bar_z3_cycle_mod_3():
    # sum_i [i|1] is a cycle mod 3 up to the degenerate correction [0|0]
    # (normalized cochains cannot see the correction).
    mc = bar_z(3)
    X = mc.delta
    boundary = {}
    for cell, mult in bar_generator_cycle(3).items():
        for i, f in enumerate(X.faces[cell]):
            boundary[f] = boundary.get(f, 0) + mult * (1 if i % 2 == 0 else -1)
    assert all(v % 3 == 0 for v in boundary.values())
    # Without the correction the boundary is supported on the identity
    # cell only, which every normalized cochain kills.
    boundary = {}
    for cell in ("[1|1]", "[2|1]"):
        for i, f in enumerate(X.faces[cell]):
            boundary[f] = boundary.get(f, 0) + (1 if i % 2 == 0 else -1)
    assert {c for c, v in boundary.items() if v % 3} == {"[0]"}


def test_circ_equals_pointwise_and_circ_simp():
    mc = bar_z(5)
    X = mc.delta
    rng = random.Random(2)
    for _ in range(20):
        u, v, w, z = (random_cochain(rng, X, 1) for _ in range(4))
        lhs = cup2_cochain(X, cup_cochain(X, u, v), cup_cochain(X, w, z))
        rhs = cup_cochain(X, cup1_cochain(X, u, w), cup1_cochain(X, v, z))
        assert lhs == rhs
    c = random_cochain(rng, X, 2)
    sq = cup2_cochain(X, c, c)
    for cell in X.cells[2]:
        assert sq(cell) == c(cell) ** 2


def test_magma_from_tau_zero_is_addition():
    law = magma_from_tau(["x", "y"], {}, Z)
    assert law.apply((2, 3), (4, -1)) == (6, 2)
    assert law.apply((2, 3), (0, 0)) == (2, 3)
    assert check_admissible(law).ok


def test_magma_from_tau_heisenberg():
    ring = Z
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-2)}
    law = magma_from_tau(["x1", "x2", "y"], tau, ring)
    # third coordinate a_y + b_y + 2 a_1 b_2
    assert law.apply((1, 0, 0), (0, 1, 0)) == (1, 1, 2)
    assert law.apply((1, 2, 3), (4, 5, 6)) == (5, 7, 3 + 6 + 2 * 1 * 5)
    # unit property on random elements
    rng = random.Random(3)
    for _ in range(10):
        a = tuple(rng.randint(-5, 5) for _ in range(3))
        assert law.apply(a, (0, 0, 0)) == a
        assert law.apply((0, 0, 0), a) == a


def test_heisenberg_admissible_exhaustive_z5():
    ring = RingSpec.Zp(5)
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-1)}
    law = magma_from_tau(["x1", "x2", "y"], tau, ring)
    verdict = check_admissible(law)
    assert verdict.status == "admissible"


def test_sampled_admissibility_over_Z():
    tau = {"y": cup(TensorElem.gen(Z, "x1"),
                    TensorElem.gen(Z, "x2")).scale(-3)}
    law = magma_from_tau(["x1", "x2", "y"], tau, Z)
    verdict = check_admissible(law, box=5, samples=100)
    assert verdict.status == "no-counterexample-found"


def test_delta_from_magma_matches_bar_for_groups():
    g = cyclic_group_magma((2,))
    mc_bar = bar_construction(g, 2)
    mc_magma = delta_from_magma(g, 2)
    assert mc_bar.delta.cells == mc_magma.delta.cells
    assert mc_bar.delta.faces == mc_magma.delta.faces


def test_delta_from_magma_heisenberg_mod3_cell_count():
    ring = RingSpec.Zp(3)
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-1)}
    law = magma_from_tau(["x1", "x2", "y"], tau, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    assert len(mc.delta.cells[1]) == 27


def test_face_identity_audit_on_magma_triples():
    mc = delta_from_magma(cyclic_group_magma((4,)), 3)
    # DeltaSet.validate already ran in the constructor; spot check one.
    X = mc.delta
    c = X.cells[3][7]
    for j in range(1, 4):
        for i in range(j):
            assert X.faces[X.faces[c][j]][i] == X.faces[X.faces[c][i]][j - 1]


def test_extension_magma_direct_product():
    m = cyclic_group_magma((2,))
    ext, witness = extension_magma(m, (2,), {})
    assert witness is None
    assert len(ext) == 4
    # Direct product: every element has order dividing 2.
    for e in ext.elements:
        assert ext.op(e, e) == ext.unit


def test_extension_magma_z4():
    # M = Z2, B = Z2, nu([1|1]) = 1 gives Z4.
    m = cyclic_group_magma((2,))
    nu = {(((1,)), ((1,))): (1,)}
    ext, witness = extension_magma(m, (2,), nu)
    assert witness is None
    assert ext.is_monoid() and ext.has_inverses()
    a = ((1,), (0,))
    sq = ext.op(a, a)
    cube = ext.op(sq, a)
    fourth = ext.op(cube, a)
    assert sq != ext.unit and fourth == ext.unit


def test_extension_magma_non_cocycle():
    # nu([1|0]) = 1 alone is not a cocycle on Delta(Z2); associativity fails.
    m = cyclic_group_magma((2,))
    nu = {(((1,)), ((0,))): (1,)}
    ext, witness = extension_magma(m, (2,), nu)
    assert witness is not None
    a, b, c = witness
    assert ext.op(ext.op(a, b), c) != ext.op(a, ext.op(b, c))


def psi_setup(p=3):
    ring = RingSpec.Zp(p)
    gens = ["x", "y"]
    law = magma_from_tau(gens, {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    return ring, gens, law, mc


def test_psi_values_and_products():
    ring, gens, law, mc = psi_setup()
    x = TensorElem.gen(ring, "x")
    px = psi_embed(x, mc, gens)
    for cell in mc.delta.cells[1]:
        a = mc.cell_elems[cell]
        assert px(cell) == a[0] % 3
    xy = cup(x, TensorElem.gen(ring, "y"))
    pxy = psi_embed(xy, mc, gens)
    for cell in mc.delta.cells[2]:
        a, b = mc.cell_elems[cell]
        assert pxy(cell) == (a[0] * b[1]) % 3


def test_psi_commutes_with_d_and_cup1():
    from cupone.differential import GeneratorSet, apply_d, zero_differential
    from cupone.tensor import cup1_deg1

    ring, gens, law, mc = psi_setup()
    X = mc.delta
    d0 = zero_differential(GeneratorSet(gens), ring)
    rng = random.Random(4)
    for _ in range(10):
        idx = MultiIndex((("x", rng.randint(0, 2)), ("y", rng.randint(0, 2))))
        if idx.is_unit:
            continue
        u = TensorElem(ring, {(idx,): 1})
        lhs = psi_embed(apply_d(d0, u), mc, gens, deg=2)
        rhs = coboundary(X, psi_embed(u, mc, gens))
        assert lhs == rhs
        v = TensorElem.gen(ring, rng.choice(gens))
        lhs = psi_embed(cup1_deg1(u, v), mc, gens)
        rhs = cup1_cochain(X, psi_embed(u, mc, gens), psi_embed(v, mc, gens))
        assert lhs == rhs


def test_psi_injective_on_basis_weight_4():
    # Distinct basis elements map to distinct cochains over Z5.
    ring = RingSpec.Zp(5)
    gens = ["x", "y"]
    law = magma_from_tau(gens, {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    from cupone.differential import iter_indices
    seen = {}
    for idx in iter_indices(gens, 4, max_exp=4):
        c = psi_embed(TensorElem(ring, {(idx,): 1}), mc, gens)
        key = tuple(sorted(c.values.items()))
        assert key not in seen, (idx, seen[key])
        seen[key] = idx


def test_steenrod_identity_decomposable_coboundary():
    """delta(a cup1 b) = -ab - ba + da cup1 b + db cup1 a - da circ db
    for 1-cochains with decomposable coboundaries (cup1 against
    2-cochains via the Hirsch rewriting)."""
    mc = bar_z(5)
    X = mc.delta
    ring = Z5
    # Over Z_5 the identity map of Z_5 is a genuine 1-cocycle; over Z the
    # bar complex of a finite group has no nonzero 1-cocycles at all.
    idc = Cochain(1, ring, {f"[{a}]": a for a in range(5)})
    assert coboundary(X, idc).is_zero()

    def decomposable_pair(seed_cochain, k):
        # a = zeta_k(c) has delta a = -sum_l zeta_l(c) cup zeta_{k-l}(c).
        a = zeta_cochain(X, seed_cochain, k)
        dec = [(zeta_cochain(X, seed_cochain, l),
                zeta_cochain(X, seed_cochain, k - l), -1)
               for l in range(1, k)]
        return a, dec

    for ka in (2, 3):
        for kb in (2, 3):
            a, dec_a = decomposable_pair(idc, ka)
            b, dec_b = decomposable_pair(idc.scale(2), kb)
            lhs = coboundary(X, cup1_cochain(X, a, b))
            rhs = (-cup_cochain(X, a, b) - cup_cochain(X, b, a)
                   + cup1_21_from_decomposition(X, dec_a, b)
                   + cup1_21_from_decomposition(X, dec_b, a))
            da = coboundary(X, a)
            db = coboundary(X, b)
            rhs = rhs - cup2_cochain(X, da, db)
            assert lhs == rhs


def test_c0d_identity_random():
    # a cup1 delta c = a cup c - c cup a for 1-cochain a, 0-cochain c.
    mc = bar_z(4, max_dim=2)
    X = mc.delta
    rng = random.Random(6)
    for _ in range(20):
        a = random_cochain(rng, X, 1)
        c = random_cochain(rng, X, 0)
        lhs = cup1_cochain(X, a, coboundary(X, c))
        rhs = cup_cochain(X, a, c) - cup_cochain(X, c, a)
        assert lhs == rhs


def test_segment_cohomology_of_bar_z2():
    # H^1(B(Z2); Z2) and H^2 are 1-dimensional.
    mc = bar_z(2, max_dim=3)
    ring = Z2
    h1 = cohomology_at(segment_at(mc.delta, ring, 1))
    h2 = cohomology_at(segment_at(mc.delta, ring, 2))
    assert h1.invariants.torsion == (2,)
    assert h2.invariants.torsion == (2,)


def test_segment_cohomology_is_computed_once_per_ring_and_degree():
    X = bar_z(2, max_dim=3).delta
    for ring in (Z, Z2, RingSpec.Zp(3)):
        for k in range(3):
            h = segment_cohomology(X, ring, k)
            assert segment_cohomology(X, ring, k) is h
    assert segment_cohomology(X, Z2, 1) is not segment_cohomology(X, Z2, 2)
    assert segment_cohomology(X, Z, 1) is not segment_cohomology(X, Z2, 1)


def test_bar_construction_checks_associativity_once(monkeypatch):
    calls = []
    scan = FiniteMagma.associativity_counterexample

    def counted(self):
        calls.append(len(self))
        return scan(self)

    monkeypatch.setattr(FiniteMagma, "associativity_counterexample", counted)
    mc = bar_construction(cyclic_group_magma((2, 2, 2, 2)), 3)
    assert len(mc.delta.cells[3]) == 16 ** 3
    assert calls == [16]
    # A bare magma still gets its check before dimension 3.
    calls.clear()
    delta_from_magma(cyclic_group_magma((3,)), 3)
    assert calls == [3]


def test_hirsch_rewriting_matches_pointwise_cup1_21():
    # The Hirsch rewriting of (u cup v) cup1 b equals the pointwise
    # formula u(s)(b(front) + b(back)), for every decomposition.
    from cupone.delta import cup1_21_from_decomposition, steenrod_cup1_21
    mc = bar_z(5)
    X = mc.delta
    rng = random.Random(9)
    for _ in range(25):
        u = random_cochain(rng, X, 1)
        v = random_cochain(rng, X, 1)
        b = random_cochain(rng, X, 1)
        lhs = cup1_21_from_decomposition(X, [(u, v, 1)], b)
        rhs = steenrod_cup1_21(X, cup_cochain(X, u, v), b)
        assert lhs == rhs


def test_zeta_of_indicator_cochain():
    # zeta_2 of a 0/1-valued cochain vanishes (C(1,2) = 0).
    mc = bar_z(3)
    X = mc.delta
    ind = Cochain(1, Z, {X.cells[1][0]: 1, X.cells[1][2]: 1})
    assert zeta_cochain(X, ind, 2).is_zero()
