"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (written through the capture so
it is always visible) and enforces its runtime budget.
"""
import sys
import time

import pytest

from cupone.delta import cyclic_group_magma, coboundary
from cupone.differential import (
    GeneratorSet,
    apply_d,
    check_d_squared,
    iter_indices,
    zero_differential,
)
from cupone.linalg import AbelianInvariants, smith_normal_form
from cupone.magma import extension_magma
from cupone.massey import magnus_gate
from cupone.model import (
    construct_homotopy,
    exterior_weight_cohomology,
    express_many_in_h2_basis,
    kappa,
    minimal_model,
    n_step_compare,
    psi_cohomology_comparison,
    realize_group,
    rho_push,
    word_pair,
)
from cupone.presentation import (
    borromean_presentation,
    heisenberg_presentation,
    presentation_complex,
)
from cupone.rings import MultiIndex, RingSpec
from cupone.tensor import TensorElem, cup
from cupone.verify import run_all_suites
from zp_oracle import t_cohomology_Zp

Z = RingSpec.Z()


def report(criterion, ok, elapsed, budget, detail=""):
    status = "PASS" if ok else "FAIL"
    line = (f"ACCEPTANCE {criterion}: {status} "
            f"({elapsed:.1f}s / budget {budget}s){': ' + detail if detail else ''}")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    assert elapsed < budget, f"budget exceeded: {line}"


def heisenberg_stage2(k, ring=Z):
    pc = presentation_complex(heisenberg_presentation(k))
    reps = [pc.dual_cochain(g, ring) for g in ("g1", "g2")]
    return pc, minimal_model(pc.delta, ring, 2, reps)


def borromean_stage2(n, ring=Z):
    pc = presentation_complex(borromean_presentation(n))
    reps = [pc.dual_cochain(g, ring) for g in pc.group.generators]
    return pc, minimal_model(pc.delta, ring, 2, reps)


def test_criterion_1_differential_consistency():
    """d^2 = 0 on the zeta basis (weight <= 6) for d_0 and every stage
    differential built in criteria 4-5."""
    t0 = time.time()
    ok = True
    # d_0 on {x, y} over Z
    ok &= check_d_squared(zero_differential(GeneratorSet(["x", "y"]), Z),
                          weight_cap=6).passed
    # criterion-4 differentials: d_0 over Z_p on one and two generators
    for p in (2, 3, 5):
        ring = RingSpec.Zp(p)
        ok &= check_d_squared(zero_differential(GeneratorSet(["x"]), ring),
                              weight_cap=6).passed
        ok &= check_d_squared(
            zero_differential(GeneratorSet(["x1", "x2"]), ring),
            weight_cap=6).passed
    # criterion-5 stage differentials: Heisenberg k in {1, 2, 3, 6}
    for k in (1, 2, 3, 6):
        _, stages = heisenberg_stage2(k)
        ok &= check_d_squared(stages[-1].diff, weight_cap=6).passed
    report(1, ok, time.time() - t0, 10, "d^2 = 0, zeta basis weight <= 6")


def test_criterion_2_closed_form_and_chain_homotopy():
    """d_0 closed form verbatim for k <= 6, |supp I| <= 2, and the chain
    homotopy identity d_0 h + h d_0 = id on the acyclic summand."""
    t0 = time.time()
    ok = True
    d = zero_differential(GeneratorSet(["x", "y"]), Z)

    def closed_form(idx):
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
            if left and right:
                w = (MultiIndex(left), MultiIndex(right))
                acc[w] = acc.get(w, 0) - 1
        return TensorElem(Z, acc)

    for idx in iter_indices(["x", "y"], 6):
        ok &= d.d_index(idx) == closed_form(idx)

    # chain homotopy h on T_1 (single generator), weight <= 6
    def h(t):
        acc = {}
        for w, c in t.terms.items():
            if not w or w[0].get("x") != 1 or len(w) == 1:
                continue
            nw = (MultiIndex.single("x", w[1].get("x") + 1),) + w[2:]
            acc[nw] = acc.get(nw, 0) - c
        return TensorElem(Z, acc)

    dsingle = zero_differential(GeneratorSet(["x"]), Z)

    def words(length, weight):
        def rec(l, rem):
            if l == 0:
                if rem == 0:
                    yield ()
                return
            for i in range(1, rem + 1):
                for rest in rec(l - 1, rem - i):
                    yield (MultiIndex.single("x", i),) + rest
        yield from rec(length, weight)

    checked = 0
    for weight in range(2, 7):
        for length in range(1, min(weight, 3) + 1):
            for w in words(length, weight):
                if length == 1 and w[0].weight == 1:
                    continue
                t = TensorElem(Z, {w: 1})
                ok &= (apply_d(dsingle, h(t)) + h(apply_d(dsingle, t))) == t
                checked += 1
    ok &= checked > 30
    report(2, ok, time.time() - t0, 5,
           "closed form k <= 6 and chain homotopy on T1")


def test_criterion_3_exterior_cohomology():
    """H^1 free of rank |X1| in weight 1, H^2 free of rank C(|X1|,2) in
    weight 2, all other weight components zero up to weight 6."""
    t0 = time.time()
    ok = True
    for m in (1, 2, 3):
        names = [f"x{i}" for i in range(1, m + 1)]
        h = exterior_weight_cohomology(names, Z, 1, 1)
        ok &= h.invariants == AbelianInvariants(m, ())
        for w in range(2, 7):
            ok &= exterior_weight_cohomology(names, Z, w, 1).invariants \
                .is_trivial()
        h = exterior_weight_cohomology(names, Z, 2, 2)
        ok &= h.invariants == AbelianInvariants(m * (m - 1) // 2, ())
        for w in range(3, 7):
            inv = exterior_weight_cohomology(names, Z, w, 2).invariants
            ok &= inv.is_trivial()
    report(3, ok, time.time() - t0, 30,
           "H* of (T(X), d_0) is the exterior algebra, weights <= 6")


def test_criterion_4_zp_eilenberg_maclane():
    """dim H^i(T_{Z_p}(x)) = 1 for i <= 2 and psi induces isomorphisms
    on H^1 and H^2 against B(Z_p) and B(Z_p^2), p in {2, 3, 5}."""
    t0 = time.time()
    ok = True
    for p in (2, 3, 5):
        ring = RingSpec.Zp(p)
        # H^0 = ker(d: R -> T^1) = R is 1-dimensional by construction.
        d1, _, _ = t_cohomology_Zp(["x"], ring, 1)
        d2, _, _ = t_cohomology_Zp(["x"], ring, 2)
        ok &= len(d1.generators) == 1 and len(d2.generators) == 1
        cmp1 = psi_cohomology_comparison(["x"], ring)
        ok &= cmp1.ok
        cmp2 = psi_cohomology_comparison(["x1", "x2"], ring)
        ok &= cmp2.ok
        ok &= cmp2.dims_bar == {1: 2, 2: 3}
    report(4, ok, time.time() - t0, 60,
           "psi iso on H^1, H^2 for B(Z_p) and B(Z_p^2), p in {2,3,5}")


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_criterion_5_heisenberg(k):
    """ker H^2(rho_1) = <k[x1 T x2]>, H^2(M_2) = Z_k + Z + Z, H^2(rho_2)
    an isomorphism, torus evaluation matrix of determinant +-1."""
    t0 = time.time()
    pc, stages = heisenberg_stage2(k)
    s1, s2 = stages[0], stages[-1]
    ok = s1.ker_basis == [word_pair("x1", "x2", Z, k)]
    orders = sorted(g.order for g in s2.h2_model)
    ok &= orders == sorted([0, 0] + ([k] if k > 1 else []))
    ok &= s2.complete  # H^2(rho_2) injective
    k2 = kappa(s2)
    ok &= k2.cokernel.is_trivial()  # and surjective onto H^2
    free_reps = [g.rep for g in s2.h2_model if g.order == 0]
    cycles = [pc.relator_cycle(1), pc.relator_cycle(2)]
    mat = [[rho_push(s2, rep).pair_with_chain(cyc) for cyc in cycles]
           for rep in free_reps]
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    ok &= det in (1, -1)
    report(f"5(k={k})", ok, time.time() - t0, 60,
           f"H^2(M_2) = {'Z_' + str(k) + ' + ' if k > 1 else ''}Z + Z, "
           f"kappa_2 = 0, det = {det}")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_6_borromean(n):
    """Magnus gate, H^2(M_2) = Z^8 with the Massey basis, kappa_2 =
    Z_n + Z_n."""
    t0 = time.time()
    pg = borromean_presentation(n)
    ok = magnus_gate(pg, n).ok
    pc, stages = borromean_stage2(n)
    s2 = stages[-1]
    ok &= [g.order for g in s2.h2_model] == [0] * 8

    # the eight classical Massey cocycles form a basis of H^2(M_2)
    def solve_pair(i, j):
        from cupone.tensor import cup1_deg1
        if i == j:
            return TensorElem(Z, {(MultiIndex.single(f"x{i}", 2),): -1})
        ys = {(1, 2): "y1", (1, 3): "y2", (2, 3): "y3"}
        if (i, j) in ys:
            return TensorElem.gen(Z, ys[(i, j)]).scale(-1)
        xi, xj = TensorElem.gen(Z, f"x{i}"), TensorElem.gen(Z, f"x{j}")
        return cup1_deg1(xi, xj).scale(-1) + TensorElem.gen(Z, ys[(j, i)])

    def massey_rep(a, b, c):
        rep = cup(TensorElem.gen(Z, f"x{a}"), solve_pair(b, c)) \
            + cup(solve_pair(a, b), TensorElem.gen(Z, f"x{c}"))
        assert apply_d(s2.diff, rep).is_zero()
        return rep

    triples = [(1, 1, 2), (1, 2, 2), (1, 1, 3), (1, 3, 3),
               (2, 2, 3), (2, 3, 3), (1, 2, 3), (1, 3, 2)]
    mat = express_many_in_h2_basis(s2, [massey_rep(*t) for t in triples])
    ok &= smith_normal_form(mat, 8).diag == [1] * 8

    k2 = kappa(s2)
    expect = AbelianInvariants(0, (n, n)) if n > 1 else AbelianInvariants(0, ())
    ok &= k2.cokernel == expect and k2.torsion == expect
    report(f"6(n={n})", ok, time.time() - t0, 120,
           f"Z^8 Massey basis, kappa_2 = {expect.render()}")


def test_criterion_6_comparisons():
    """X(n) and X(m) are distinguished at stage 2 for n != m; the
    torsion-forgetting comparison is not distinguishing."""
    t0 = time.time()
    deltas = {n: presentation_complex(borromean_presentation(n)).delta
              for n in (1, 2, 3, 4)}
    ok = True
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for n, m in pairs:
        res = n_step_compare(deltas[n], deltas[m], Z, 2)
        ok &= res.distinguished
        res_q = n_step_compare(deltas[n], deltas[m], Z, 2,
                               forget_torsion=True)
        ok &= not res_q.distinguished
    res_self = n_step_compare(deltas[2], deltas[2], Z, 2)
    ok &= not res_self.distinguished
    report("6(compare)", ok, time.time() - t0, 120,
           "all pairs distinguished; rational analog not")


def test_criterion_7_group_realization():
    t0 = time.time()
    # symbolic Heisenberg law
    _, stages = heisenberg_stage2(3)
    gr = realize_group(stages[-1])
    ok = gr.law_rendered["y1"] == ("1 * z(y1,1) + 1 * z(y1',1) "
                                   "+ 3 * z(x1,1)*z(x2',1)")
    ok &= gr.law.apply((1, 0, 0), (0, 1, 0)) == (1, 1, 3)
    # exhaustive group axioms over Z_3 with three generators
    from cupone.differential import Differential
    from cupone.model import ModelStage
    from cupone.delta import DeltaSet
    ring3 = RingSpec.Zp(3)
    gens = GeneratorSet(["x1", "x2", "y1"], {"x1": 1, "x2": 1, "y1": 2})
    tau = {"y1": cup(TensorElem.gen(ring3, "x1"),
                     TensorElem.gen(ring3, "x2")).scale(-1)}
    synth = ModelStage(n=2, ring=ring3, gens=gens,
                       diff=Differential(ring3, gens, tau),
                       target=DeltaSet({0: ["v"]}, {}), rho={},
                       h1_names=["x1", "x2"], h2x=None)
    gr3 = realize_group(synth)
    ok &= gr3.audit["associativity"] == "admissible"
    ok &= gr3.audit["order"] == 27 and gr3.audit["unit"] is True
    ok &= gr3.audit["inverses"] is True
    # extension magma: non-cocycle -> counterexample; Z_4 cocycle -> C4
    m = cyclic_group_magma((2,))
    _, witness = extension_magma(m, (2,), {((1,), (0,)): (1,)})
    ok &= witness is not None
    ext, witness = extension_magma(m, (2,), {((1,), (1,)): (1,)})
    ok &= witness is None
    a = ((1,), (0,))
    sq = ext.op(a, a)
    ok &= sq != ext.unit and ext.op(sq, sq) == ext.unit
    report(7, ok, time.time() - t0, 30,
           "heis-mult law, Z_3 exhaustive axioms, extension lemma")


def test_criterion_8_identity_suites():
    t0 = time.time()
    results = run_all_suites(cases=200, seed=0)
    ok = all(r.passed for r in results) and len(results) == 8
    detail = ", ".join(r.name for r in results if not r.passed) or \
        "8 suites x 200 cases"
    report(8, ok, time.time() - t0, 60, detail)


def test_criterion_9_homotopy_construction():
    t0 = time.time()
    from cupone.delta import Cochain, DeltaSet
    # wedge of two circles, subdivided so degree-0 coboundaries exist
    cells = {0: ["v", "w0", "w1"], 1: ["a0", "b0", "a1", "b1"], 2: [], 3: []}
    faces = {"a0": ("w0", "v"), "b0": ("v", "w0"),
             "a1": ("w1", "v"), "b1": ("v", "w1")}
    X = DeltaSet(cells, faces)
    names = ["x1", "x2"]
    phi0 = {"x1": Cochain(1, Z, {"a0": 1, "b0": 1}),
            "x2": Cochain(1, Z, {"a1": 1, "b1": 1})}
    shift = Cochain(0, Z, {"w0": 3, "w1": -2})
    db = coboundary(X, shift)
    phi1 = {"x1": phi0["x1"] + db, "x2": phi0["x2"] - db}
    wit = construct_homotopy(X, Z, names, phi0, phi1)
    ok = wit.audit == {"cocycle": True, "endpoints": True,
                       "zeta": True, "cup1": True}
    for g in names:
        ok &= (coboundary(X, wit.c[g]) == phi0[g] - phi1[g])
    report(9, ok, time.time() - t0, 5,
           "verified dga homotopy restricting to the endpoints")
