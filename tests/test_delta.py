import pathlib
import random
from itertools import product as iproduct

import pytest

from cupone.delta import (
    Cochain,
    FiniteMagma,
    bar_construction,
    coboundary,
    cup1_21_from_decomposition,
    cup1_cochain,
    cup2_cochain,
    cup_cochain,
    cyclic_group_magma,
    delta_from_magma,
    psi_embed,
    segment_cohomology,
    steenrod_cup1_21,
    zeta_cochain,
)
from cupone.formats import detect_and_parse
from cupone.interval import interval_algebra
from cupone.linalg import AbelianInvariants
from cupone.magma import MagmaLaw, check_admissible, extension_magma
from cupone.presentation import presentation_complex
from cupone.rings import MultiIndex, RingSpec, binom_of
from cupone.tensor import TensorElem, cup

Z = RingSpec.Z()
Z2 = RingSpec.Zp(2)
Z3 = RingSpec.Zp(3)
Z5 = RingSpec.Zp(5)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def bar_z(n, max_dim=2):
    return bar_construction(cyclic_group_magma((n,)), max_dim)


def face_names(X, dim, cell):
    """The names of the faces d_0 .. d_dim of a named dim-cell."""
    fs = X.faces[dim][X.cells[dim].index(cell)]
    return [X.cells[dim - 1][f] for f in fs]


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
    h0 = segment_cohomology(ia.delta, Z, 0)
    h1 = segment_cohomology(ia.delta, Z, 1)
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
    assert face_names(X, 2, "[2|4]")[1] == "[1]"
    assert face_names(X, 2, "[2|4]")[0] == "[4]"
    assert face_names(X, 2, "[2|4]")[2] == "[2]"


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
        for i, f in enumerate(face_names(X, 2, cell)):
            boundary[f] = boundary.get(f, 0) + mult * (1 if i % 2 == 0 else -1)
    assert all(v % 3 == 0 for v in boundary.values())
    # Without the correction the boundary is supported on the identity
    # cell only, which every normalized cochain kills.
    boundary = {}
    for cell in ("[1|1]", "[2|1]"):
        for i, f in enumerate(face_names(X, 2, cell)):
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
    law = MagmaLaw(["x", "y"], {}, Z)
    assert law.apply((2, 3), (4, -1)) == (6, 2)
    assert law.apply((2, 3), (0, 0)) == (2, 3)
    assert check_admissible(law).ok


def test_magma_from_tau_heisenberg():
    ring = Z
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-2)}
    law = MagmaLaw(["x1", "x2", "y"], tau, ring)
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
    law = MagmaLaw(["x1", "x2", "y"], tau, ring)
    verdict = check_admissible(law)
    assert verdict.status == "admissible"


def test_sampled_admissibility_over_Z():
    tau = {"y": cup(TensorElem.gen(Z, "x1"),
                    TensorElem.gen(Z, "x2")).scale(-3)}
    law = MagmaLaw(["x1", "x2", "y"], tau, Z)
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
    law = MagmaLaw(["x1", "x2", "y"], tau, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    assert len(mc.delta.cells[1]) == 27


def test_face_identity_audit_on_magma_triples():
    mc = delta_from_magma(cyclic_group_magma((4,)), 3)
    # DeltaSet.validate already ran in the constructor; spot check one.
    X = mc.delta
    c = X.faces[3][7]
    for j in range(1, 4):
        for i in range(j):
            assert X.faces[2][c[j]][i] == X.faces[2][c[i]][j - 1]


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
    law = MagmaLaw(gens, {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    return ring, gens, law, mc


def test_psi_values_and_products():
    ring, gens, law, mc = psi_setup()
    x = TensorElem.gen(ring, "x")
    px = psi_embed(x, mc, gens)
    elems = mc.magma.elements
    for cell, a in zip(mc.delta.cells[1], elems):
        assert px(cell) == a[0] % 3
    xy = cup(x, TensorElem.gen(ring, "y"))
    pxy = psi_embed(xy, mc, gens)
    for cell, (a, b) in zip(mc.delta.cells[2], iproduct(elems, elems)):
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
    law = MagmaLaw(gens, {}, ring)
    mc = delta_from_magma(law.to_finite_magma(), 2)
    from cupone.differential import iter_indices
    seen = {}
    for idx in iter_indices(gens, 4, max_exp=4):
        c = psi_embed(TensorElem(ring, {(idx,): 1}), mc, gens)
        key = tuple(sorted(c.terms.items()))
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
    h1 = segment_cohomology(mc.delta, ring, 1)
    h2 = segment_cohomology(mc.delta, ring, 2)
    assert h1.invariants.torsion == (2,)
    assert h2.invariants.torsion == (2,)


def test_z_cohomology_spells_out_no_3_cell_name(monkeypatch):
    # Over Z, H^2 of a magma complex reads delta^2 off the 3-cell faces;
    # the |G|^3 lazy 3-cell names must stay unmade.
    from cupone.delta import _TripleNames
    X = bar_construction(cyclic_group_magma((3, 3)), 3).delta
    assert isinstance(X.cells[3], _TripleNames)

    def refuse(*args):
        raise AssertionError("a 3-cell name was made")

    monkeypatch.setattr(_TripleNames, "__iter__", refuse)
    monkeypatch.setattr(_TripleNames, "__getitem__", refuse)
    h2 = segment_cohomology(X, Z, 2)
    assert h2.invariants == AbelianInvariants(0, (3, 3))


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


def test_magma_size_guard(monkeypatch):
    from cupone.delta import MAGMA_CELL_LIMIT, check_magma_size
    from cupone.rings import PreconditionError
    assert MAGMA_CELL_LIMIT == 64 ** 3
    # B(Z_3^3) and B(Z_5 x Z_2^2) at dimension 3, and the limit itself.
    for order in (27, 20, 64):
        check_magma_size(order, 3, monoid=True)
    check_magma_size(512, 2)  # no associativity check below dimension 3
    with pytest.raises(PreconditionError, match="262,144"):
        check_magma_size(512, 2, monoid=True)
    check_magma_size(4, 3, power=3)  # B(Z_4^3)
    with pytest.raises(PreconditionError, match="estimated 2,097,152 cells"):
        check_magma_size(2, 3, power=7)
    # Refused before the associativity scan.
    monkeypatch.setattr(FiniteMagma, "associativity_counterexample",
                        lambda self: pytest.fail("associativity scanned"))
    for build in (bar_construction, delta_from_magma):
        with pytest.raises(PreconditionError, match="274,625"):
            build(cyclic_group_magma((65,)), 3)


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


def face_table_complexes():
    """Every fixture Delta-set, and bar complexes of Z/3 and Z/4 with
    3-cells."""
    out = []
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        out.append(parsed[0] if kind == "delta"
                   else presentation_complex(parsed).delta)
    return out + [bar_z(n, 3).delta for n in (3, 4)]


def test_face_table_matches_front_and_back_faces():
    # cup_cochain and steenrod_cup1_21 read one face table per (p, q)
    # and Delta-set; the references walk the faces of each cell by
    # position, front (drop the last vertex) and back (drop the first).
    def front_back(X, p, q):
        """(s, front p-face, back q-face) for each (p+q)-cell s."""
        d = p + q
        out = []
        for i, s in enumerate(X.cells[d]):
            front = back = i
            for e in range(d, p, -1):
                front = X.faces[e][front][e]
            for e in range(d, q, -1):
                back = X.faces[e][back][0]
            out.append((s, X.cells[p][front], X.cells[q][back]))
        return out

    def reference_cup(X, u, v):
        p, q = u.dim, v.dim
        return Cochain(p + q, u.ring,
                       {s: u(front) * v(back)
                        for s, front, back in front_back(X, p, q)})

    def reference_cup1_21(X, u, b):
        return Cochain(2, u.ring,
                       {s: u(s) * (b(front) + b(back))
                        for s, front, back in front_back(X, 1, 1)})

    rng = random.Random(15)
    for X in face_table_complexes():
        for p in range(4):
            for q in range(4 - p):
                table = X.face_table(p, q)
                assert table == front_back(X, p, q)
                assert X.face_table(p, q) is table
                for ring in (Z, Z3):
                    u = random_cochain(rng, X, p, ring)
                    v = random_cochain(rng, X, q, ring)
                    assert cup_cochain(X, u, v) == reference_cup(X, u, v)
        for ring in (Z, Z3):
            u = random_cochain(rng, X, 2, ring)
            b = random_cochain(rng, X, 1, ring)
            assert steenrod_cup1_21(X, u, b) == reference_cup1_21(X, u, b)


def frozen_complexes():
    """(name, Delta-set, ring label, dense?) for the complexes whose
    construction output ``test_complexes_frozen`` pins."""
    from test_generator_rows import NON_ASSOCIATIVE, heisenberg_law
    out = []
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        if kind == "delta":
            out.append((path.name, parsed[0], parsed[1], True))
        else:
            out.append((path.name, presentation_complex(parsed).delta, Z,
                        True))
    out.append(("interval", interval_algebra(Z).delta, Z, False))
    for moduli in ((3,), (4,), (2, 2, 2, 2), (3, 3, 2)):
        X = bar_construction(cyclic_group_magma(moduli), 3).delta
        out.append((f"bar{moduli}", X, Z, len(moduli) == 1))
    heis = heisenberg_law(2).to_finite_magma()
    out.append(("heis2", delta_from_magma(heis, 3).delta, Z, False))
    non_assoc = FiniteMagma([0, 1], NON_ASSOCIATIVE)
    out.append(("non-assoc", delta_from_magma(non_assoc, 2).delta, Z, False))
    return out


def test_complexes_frozen():
    # Serialized cells and faces, semigroup generators, every
    # Alexander-Whitney face table, the GF(3) coboundary columns on the
    # generator rows and, on the small complexes, the dense coboundary
    # matrices: one digest, computed before faces were stored by position.
    import hashlib

    from cupone.delta import coboundary_cols_sparse, coboundary_matrix
    from cupone.formats import serialize_delta
    h = hashlib.sha256()
    for name, X, ring, dense in frozen_complexes():
        h.update(repr((name, serialize_delta(X, ring),
                       X.last_generators)).encode())
        for p in range(4):
            for q in range(4 - p):
                h.update(repr(X.face_table(p, q)).encode())
        for k in range(3):
            if X.cells[k + 1]:
                cols = coboundary_cols_sparse(X, k, 3, X.generator_rows(k))
                h.update(repr([sorted(c.items()) for c in cols]).encode())
            if dense:
                h.update(repr(coboundary_matrix(X, k)).encode())
    assert h.hexdigest() == (
        "e99792d580457815aa89a17367485149da4c901673b0400d8eff838cf02f0afd")


MALFORMED_DELTAS = {
    "duplicate": ("ring Z\ncells 0\nv :\nv :\n", 0, "duplicate cell id 'v'"),
    "first-duplicate": ("ring Z\ncells 0\nv :\nw :\nw :\ncells 1\n"
                        "v : w w\n", 0, "duplicate cell id 'w'"),
    "low-face": ("ring Z\ncells 0\nv :\ncells 1\ne : v v\ncells 2\n"
                 "s : e v e\n", 0, "face 'v' of 's' is not a 1-cell"),
    "unknown-face": ("ring Z\ncells 0\nv :\ncells 1\ne : v v\ncells 2\n"
                     "s : e x e\n", 0, "face 'x' of 's' is not a 1-cell"),
    "identity": ("ring Z\ncells 0\nv :\nw :\ncells 1\ne : w v\ncells 2\n"
                 "s : e e e\n", 0,
                 "face identity fails on 's': d_0 d_2 != d_1 d_0"),
    "first-failing": ("ring Z\ncells 0\nv :\nw :\ncells 1\ne : w v\n"
                      "f : v v\ncells 2\ns : f f f\nt : e e e\n", 0,
                      "face identity fails on 't': d_0 d_2 != d_1 d_0"),
    # A bare ring line used to raise IndexError (a traceback, exit 1).
    "bare-ring": ("# no ring named\nring\ncells 0\nv :\n", 2,
                  "bad ring line 'ring'"),
    # A second ring line used to replace the first silently.
    "second-ring": ("ring Z\ncells 0\nv :\nring Zp 3\n", 4,
                    "second ring line"),
    # Read by content, so as a presentation: a second gens: line used to
    # replace the first, and this read as the group on b.
    "second-gens": ("gens: a\ngens: b\nrel: b b\n", 2, "second gens: line"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DELTAS))
def test_malformed_delta_exits_2(tmp_path, capsys, case):
    from cupone.cli import main
    text, lineno, message = MALFORMED_DELTAS[case]
    path = tmp_path / f"{case}.delta"
    path.write_text(text)
    assert main(["cohomology", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {path}:{lineno}: {message}\n"


def test_face_identity_failure_on_built_complex_is_internal():
    # A Delta-set cupone builds from positions that fails a face identity
    # is a defect (exit 3), not a fault of the input.
    from cupone.delta import DeltaSet, _magma_complex
    from cupone.rings import InternalError
    from test_generator_rows import NON_ASSOCIATIVE
    m = FiniteMagma([0, 1], NON_ASSOCIATIVE)
    with pytest.raises(InternalError, match="face identity fails"):
        _magma_complex(m, 3, associative=False)
    with pytest.raises(InternalError, match="duplicate cell id '\\*'"):
        DeltaSet.from_positions({0: ["*", "*"], 1: [], 2: [], 3: []},
                                [[(), ()], [], [], []])


@pytest.mark.parametrize("bad, message", [
    ((0, 0), "cell 't' needs 3 face positions in range(1), not (0, 0)"),
    ((0, 0, 0, 0), "cell 't' needs 3 face positions in range(1), "
     "not (0, 0, 0, 0)"),
    ((0, 1, 0), "cell 't' needs 3 face positions in range(1), not (0, 1, 0)"),
    ((0, -1, 0), "cell 't' needs 3 face positions in range(1), "
     "not (0, -1, 0)"),
    (None, "2 2-cells but 1 face tuples"),
], ids=["short", "long", "past-end", "negative", "missing"])
def test_from_positions_checks_face_arity_and_range(bad, message):
    # A short tuple used to raise IndexError, and a long one or a negative
    # position passed; the column check of validate would cut either.
    from cupone.delta import DeltaSet
    from cupone.rings import InternalError
    cells = {0: ["*"], 1: ["a"], 2: ["s", "t"], 3: []}
    faces = [[()], [(0, 0)], [(0, 0, 0)] + ([bad] if bad else []), []]
    with pytest.raises(InternalError) as err:
        DeltaSet.from_positions(cells, faces)
    assert str(err.value) == message
    with pytest.raises(InternalError, match=r"cell 'a' needs 2 face "
                       r"positions in range\(1\), not \(0, 1\)"):
        DeltaSet.from_positions(cells, [[()], [(0, 1)], [(0, 0, 0)] * 2, []])


def test_lazy_3_cell_names_equal_the_eager_names():
    # A magma complex makes each 3-cell name when asked; every way of
    # reading them gives the f-strings it used to build up front.
    for magma in (cyclic_group_magma((3, 2)), FiniteMagma(range(4), max,
                                                          unit=0)):
        X = bar_construction(magma, 3).delta
        names = [magma.name_fn(e) for e in magma.elements]
        eager = [f"[{x}|{y}|{z}]" for x in names for y in names
                 for z in names]
        lazy = X.cells[3]
        assert len(lazy) == len(eager)
        assert [lazy[i] for i in range(len(eager))] == eager
        assert list(lazy) == eager
        assert lazy == eager and eager == lazy and not lazy != eager
        assert lazy != eager[:-1] and lazy != eager[::-1]
        assert lazy[-1] == eager[-1] and lazy[-len(eager)] == eager[0]
        for cut in (slice(5, 17, 3), slice(None, None, -7), slice(-4, None)):
            assert lazy[cut] == eager[cut]
        assert [lazy.index(c) for c in eager] == list(range(len(eager)))
        assert lazy.index(eager[9], 9) == lazy.index(eager[9], 0, 10) == 9
        for bad, span in [(eager[9], (10,)), (eager[9], (0, 9)),
                          ("[x|y|z]", ()), (eager[0][:-1], ()), ("*", ()),
                          (eager[0] + "]", ()), (3, ())]:
            with pytest.raises(ValueError):
                lazy.index(bad, *span)
        for i in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                lazy[i]


def test_lazy_names_fall_back_to_the_full_name_check():
    from cupone.delta import DeltaSet, _TripleNames
    from cupone.rings import InternalError

    def z2(names):
        return FiniteMagma([0, 1], lambda a, b: (a + b) % 2, unit=0,
                           name_fn=names.__getitem__)

    # Names with "|" are checked cell by cell.  These stay distinct.
    X = bar_construction(z2(["a|b", "c"]), 3).delta
    assert not X.cells[3].split_one_way()
    assert X.cells[3].index("[a|b|c|a|b]") == 2
    # Each error names the first duplicate, as the eager check did: the
    # 1-cell [a|a] is also the 2-cell [a, a], and [x] is two 1-cells.
    for names, dup in [(["a", "a|a"], "[a|a]"), (["x", "x"], "[x]")]:
        with pytest.raises(InternalError) as err:
            bar_construction(z2(names), 3)
        assert str(err.value) == f"duplicate cell id {dup!r}"
    # [a|a|a|a] is both [a, a, a|a] and [a, a|a, a]; and a lower name
    # with two "|" may equal a lazy one.
    for lower, names, dup in [(["e"], ["a", "a|a"], "[a|a|a|a]"),
                              (["[a|a|a]"], ["a"], "[a|a|a]")]:
        cells = {0: ["*"], 1: ["[a]"], 2: lower, 3: _TripleNames(names)}
        with pytest.raises(InternalError) as err:
            DeltaSet.from_positions(cells, [[()], [(0, 0)], [], []])
        assert str(err.value) == f"duplicate cell id {dup!r}"


def test_bar_construction_memory_at_dimension_3():
    # B(Z_2^5) at dimension 3 has 32,768 3-cells.  Spelling out each name
    # and a fresh int per face position peaked at 10.4 MiB (Python 3.11);
    # lazy names and shared positions peak at 3.2 MiB.
    import tracemalloc
    magma = cyclic_group_magma((2,) * 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bar_construction(magma, 3)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
