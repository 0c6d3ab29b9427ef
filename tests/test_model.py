import random

import pytest

from cupone.delta import (
    Cochain,
    DeltaSet,
    bar_construction,
    coboundary,
    cyclic_group_magma,
    psi_embed,
    segment_at,
)
from cupone.differential import apply_d, check_d_squared
from cupone.linalg import AbelianInvariants, cohomology_at
from cupone.model import (
    H2Gen,
    KappaInvariant,
    PreconditionError,
    StageCapError,
    construct_homotopy,
    exterior_weight_cohomology,
    express_in_h2_basis,
    extend_stage,
    h2_stage2_Z,
    h2_stage_Zp,
    kappa,
    lambda2_coords,
    lambda3_coords,
    minimal_model,
    n_step_compare,
    realize_group,
    rho_push,
    stage1,
    word_pair,
)
from cupone.presentation import (
    borromean_presentation,
    cyclic_presentation,
    heisenberg_presentation,
    presentation_complex,
    torus_presentation,
    wedge_presentation,
)
from cupone.rings import MultiIndex, RingSpec
from cupone.tensor import TensorElem, cup

Z = RingSpec.Z()


def dual_reps(pc, ring, gens=None):
    gens = gens if gens is not None else pc.group.generators
    return [pc.dual_cochain(g, ring) for g in gens]


def model_for(pg, ring=Z, stages=2, h1_gens=None):
    pc = presentation_complex(pg)
    reps = None
    if h1_gens is not None:
        reps = dual_reps(pc, ring, h1_gens)
    return pc, minimal_model(pc.delta, ring, stages, reps)


# -- stage 1 ----------------------------------------------------------------


def test_stage1_wedge():
    pc, stages = model_for(wedge_presentation(2))
    s1 = stages[0]
    assert s1.h1_names == ["x1", "x2"]
    # H^2(wedge) = 0, so the kernel is all of Lambda^2.
    assert len(s1.ker_basis) == 1
    assert s1.ker_basis[0] == word_pair("x1", "x2", Z)
    assert not s1.complete


def test_stage1_torus_complete():
    pc, stages = model_for(torus_presentation(), h1_gens=("g1", "g2"))
    s1 = stages[0]
    assert s1.ker_basis == []
    assert s1.complete
    # stage 2 returns the same stage
    assert extend_stage(s1) is s1
    assert len(stages) == 1


def test_stage1_heisenberg_kernel():
    for k in (1, 2, 3, 6):
        pc = presentation_complex(heisenberg_presentation(k))
        reps = dual_reps(pc, Z, ("g1", "g2"))
        s1 = stage1(pc.delta, Z, reps)
        assert len(s1.ker_basis) == 1
        assert s1.ker_basis[0] == word_pair("x1", "x2", Z, k)


def test_stage1_rejects_disconnected():
    X = DeltaSet({0: ["p", "q"]}, {})
    with pytest.raises(PreconditionError):
        stage1(X, Z)


def test_stage1_rho_values_are_cocycles():
    pc, stages = model_for(borromean_presentation(2))
    s = stages[-1]
    X = pc.delta
    for g in s.gens.names:
        assert (coboundary(X, s.rho[g])
                - rho_push(s, s.diff.tau[g])).is_zero()


# -- exterior cohomology oracle ----------------------------------------------


def test_exterior_weight_cohomology_ranks():
    for m in (1, 2, 3):
        names = [f"x{i}" for i in range(1, m + 1)]
        h1w1 = exterior_weight_cohomology(names, Z, 1, 1)
        assert h1w1.invariants == AbelianInvariants(m, ())
        h2w2 = exterior_weight_cohomology(names, Z, 2, 2)
        assert h2w2.invariants == AbelianInvariants(m * (m - 1) // 2, ())
        for w in range(2, 5):
            hw = exterior_weight_cohomology(names, Z, w, 1)
            assert hw.invariants.is_trivial()
        for w in range(3, 6):
            hw = exterior_weight_cohomology(names, Z, w, 2)
            assert hw.invariants.is_trivial(), (m, w)


def test_lambda2_coords_match_linear_algebra():
    names = ["x1", "x2", "x3"]
    data = exterior_weight_cohomology(names, Z, 2, 2)
    from cupone.model import t_word_basis
    basis = t_word_basis(names, 2, 2, Z)
    rng = random.Random(0)
    for _ in range(15):
        t = TensorElem.zero(Z)
        for w in basis:
            t = t + TensorElem(Z, {w: rng.randint(-2, 2)})
        manual = lambda2_coords(t, names)
        vec = [t.terms.get(w, 0) for w in basis]
        generic = data.class_coords(vec)
        # Both are coordinates w.r.t. possibly different bases of Z^3:
        # check they vanish together and determine each other linearly.
        assert (any(manual) == any(generic))
    # pin the basis itself
    assert lambda2_coords(word_pair("x1", "x2", Z), names) == [1, 0, 0]
    assert lambda2_coords(word_pair("x2", "x1", Z), names) == [-1, 0, 0]
    assert lambda2_coords(word_pair("x1", "x1", Z), names) == [0, 0, 0]


def test_lambda3_coords():
    names = ["x1", "x2", "x3"]
    w = TensorElem(Z, {(MultiIndex.single("x2"), MultiIndex.single("x1"),
                        MultiIndex.single("x3")): 1})
    assert lambda3_coords(w, names) == [-1]
    rep = TensorElem(Z, {(MultiIndex.single("x1"), MultiIndex.single("x1"),
                          MultiIndex.single("x3")): 5})
    assert lambda3_coords(rep, names) == [0]


# -- Heisenberg family --------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_heisenberg_pipeline(k):
    pc = presentation_complex(heisenberg_presentation(k))
    reps = dual_reps(pc, Z, ("g1", "g2"))
    stages = minimal_model(pc.delta, Z, 2, reps)
    s2 = stages[-1]
    assert s2.n == 2
    assert s2.gens.at_level(2) == ["y1"]
    # dy = -k x1 T x2 (the normalization that reproduces the group law)
    assert s2.diff.tau["y1"] == word_pair("x1", "x2", Z, -k)
    # H^2(M_2) = Z_k + Z + Z
    orders = sorted(g.order for g in s2.h2_model)
    expect = [0, 0] + ([k] if k > 1 else [])
    assert orders == sorted(expect)
    # H^2(rho_2) is injective, so the model is complete and kappa trivial
    assert s2.complete
    k2 = kappa(s2)
    assert k2.cokernel.is_trivial()
    # determinant of the evaluations of the two free generators on the
    # two torus relator cells is +-1
    free_reps = [g.rep for g in s2.h2_model if g.order == 0]
    cycles = [pc.relator_cycle(1), pc.relator_cycle(2)]
    mat = [[rho_push(s2, rep).pair_with_chain(cyc) for cyc in cycles]
           for rep in free_reps]
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert det in (1, -1)


def test_heisenberg_stage_differential_d_squared():
    pc = presentation_complex(heisenberg_presentation(3))
    reps = dual_reps(pc, Z, ("g1", "g2"))
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    report = check_d_squared(s2.diff, weight_cap=4)
    assert report.passed


def test_heisenberg_h2_representative_audit():
    pc = presentation_complex(heisenberg_presentation(2))
    reps = dual_reps(pc, Z, ("g1", "g2"))
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    for g in s2.h2_model:
        assert apply_d(s2.diff, g.rep).is_zero()
    # the verified cocycle signs (free_dga open question resolution)
    k = 2
    u = (word_pair("x1", "y1", Z)
         + TensorElem(Z, {(MultiIndex.single("x1", 2),
                           MultiIndex.single("x2")): k}))
    assert apply_d(s2.diff, u).is_zero()
    coords = express_in_h2_basis(s2, u)
    assert any(coords)


def synthetic_stage2(ring, k):
    """Stage-2 shape T({x1, x2, y1}) with dy1 = -k x1 T x2, no target."""
    from cupone.differential import GeneratorSet, build_differential
    from cupone.model import ModelStage

    gens = GeneratorSet(["x1", "x2", "y1"], {"x1": 1, "x2": 1, "y1": 2})
    tau = {"y1": word_pair("x1", "x2", ring, -(k % ring.p if ring.is_modular
                                               else k))}
    diff = build_differential(gens, tau, ring)
    dummy = DeltaSet({0: ["v"]}, {})
    return ModelStage(n=2, ring=ring, gens=gens, diff=diff, target=dummy,
                      rho={}, h1_names=["x1", "x2"],
                      h2x=None)


def test_heisenberg_splitting_audit_mod_p():
    # The derived Z-route must be consistent with the brute-force Z_p
    # dimensions: dim H^2(M (x) Z_p) >= rank + #{d_i : p | d_i} by
    # universal coefficients.
    for k, p in ((2, 2), (2, 3), (3, 3), (6, 2)):
        sZ = synthetic_stage2(Z, k)
        gens_Z = h2_stage2_Z(sZ)
        rank = sum(1 for g in gens_Z if g.order == 0)
        tors = [g.order for g in gens_Z if g.order]
        assert rank == 2 and tors == ([k] if k > 1 else [])
        sp = synthetic_stage2(RingSpec.Zp(p), k)
        dim_p = len(h2_stage_Zp(sp))
        lower = rank + sum(1 for d in tors if d % p == 0)
        assert dim_p >= lower, (k, p, dim_p, lower)


# -- Borromean family ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_borromean_pipeline(n):
    pc = presentation_complex(borromean_presentation(n))
    reps = dual_reps(pc, Z)
    stages = minimal_model(pc.delta, Z, 2, reps)
    s2 = stages[-1]
    assert [g for g in s2.gens.at_level(2)] == ["y1", "y2", "y3"]
    # H^2(M_2) = Z^8
    orders = [g.order for g in s2.h2_model]
    assert orders == [0] * 8
    k2 = kappa(s2)
    if n == 1:
        assert k2.cokernel == AbelianInvariants(0, ())
    else:
        assert k2.cokernel == AbelianInvariants(0, (n, n))
    assert k2.torsion == k2.cokernel


def test_borromean_massey_basis_unimodular():
    # The eight classical Massey cocycles form a basis of H^2(M_2).
    n = 2
    pc = presentation_complex(borromean_presentation(n))
    reps = dual_reps(pc, Z)
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    ring = Z

    def massey_rep(a, b, c):
        # <x_a, x_b, x_c>: solve d c12 = x_a x_b, d c23 = x_b x_c in T.
        def solve_pair(i, j):
            # dy_r = -x_i T x_j for the pair y_r matching (i, j), i < j;
            # d zeta_2(x_i) = -x_i T x_i on the diagonal.
            if i == j:
                return TensorElem(ring,
                                  {(MultiIndex.single(f"x{i}", 2),): -1})
            ys = {(1, 2): "y1", (1, 3): "y2", (2, 3): "y3"}
            if (i, j) in ys:
                return TensorElem.gen(ring, ys[(i, j)]).scale(-1)
            name = ys[(j, i)]
            # x_i T x_j = -x_j T x_i + d(x_i cup1 x_j):
            # c with d c = x_i T x_j is -(x_i cup1 x_j) - y_{ji}... solve:
            from cupone.tensor import cup1_deg1
            xi = TensorElem.gen(ring, f"x{i}")
            xj = TensorElem.gen(ring, f"x{j}")
            return (cup1_deg1(xi, xj).scale(-1)
                    + TensorElem.gen(ring, name))

        c12 = solve_pair(a, b)
        c23 = solve_pair(b, c)
        xa = TensorElem.gen(ring, f"x{a}")
        xc = TensorElem.gen(ring, f"x{c}")
        rep = cup(xa, c23) + cup(c12, xc)
        assert apply_d(s2.diff, rep).is_zero()
        return rep

    triples = [(1, 1, 2), (1, 2, 2), (1, 1, 3), (1, 3, 3),
               (2, 2, 3), (2, 3, 3), (1, 2, 3), (1, 3, 2)]
    from cupone.model import express_many_in_h2_basis
    mat = express_many_in_h2_basis(s2, [massey_rep(*t) for t in triples])
    from cupone.linalg import smith_normal_form
    snf = smith_normal_form(mat, 8)
    assert snf.diag == [1] * 8


@pytest.mark.parametrize("pair", [(2, 3), (1, 2), (3, 4)])
def test_borromean_compare(pair):
    n, m = pair
    Xa = presentation_complex(borromean_presentation(n)).delta
    Xb = presentation_complex(borromean_presentation(m)).delta
    res = n_step_compare(Xa, Xb, Z, 2)
    assert res.distinguished
    assert res.verdict == "distinguished"
    # the rational analog (torsion forgotten) does not distinguish
    res_q = n_step_compare(Xa, Xb, Z, 2, forget_torsion=True)
    assert not res_q.distinguished
    # self-comparison never distinguishes
    res_self = n_step_compare(Xa, Xa, Z, 2)
    assert not res_self.distinguished


# -- Z_p stages ----------------------------------------------------------------


def test_h2_stage_zp_single_generator():
    for p in (2, 3, 5):
        ring = RingSpec.Zp(p)
        mc = bar_construction(cyclic_group_magma((p,)), 2)
        # stage 1 of B(Z_p) over Z_p: one generator, H^2 dimension 1
        s1 = stage1(mc.delta, ring)
        assert len(s1.h1_names) == 1
        assert len(s1.h2_model) == 1
        if p > 2:
            # generator [zeta_1 T zeta_{p-1}]
            rep = s1.h2_model[0].rep
            words = set(rep.terms)
            assert (MultiIndex.single("x1", 1),
                    MultiIndex.single("x1", p - 1)) in words


def test_zp_cyclic_complete_at_stage1():
    # psi is a quasi-isomorphism for B(Z_p), so <g | g^3> mod 3 is
    # complete at stage 1 and kappa_1 vanishes.
    ring = RingSpec.Zp(3)
    pc = presentation_complex(cyclic_presentation(3))
    stages = minimal_model(pc.delta, ring, 2)
    assert stages[0].h1_names == ["x1"]
    assert stages[-1].n == 1 and stages[-1].complete
    assert kappa(stages[-1]).cokernel.is_trivial()


def test_zp_stage_extension_torus():
    # Over Z_3 the torus model extends: the two Bockstein-type classes
    # [zeta_1 T zeta_2(x_i)] die in H^2(T^2; Z_3), so stage 2 adds two
    # generators (no Z stage cap applies).
    ring = RingSpec.Zp(3)
    pc = presentation_complex(torus_presentation())
    stages = minimal_model(pc.delta, ring, 2)
    s2 = stages[-1]
    assert s2.n == 2
    assert s2.gens.at_level(2) == ["y1", "y2"]
    for g in s2.h2_model:
        assert apply_d(s2.diff, g.rep).is_zero()
    assert kappa(s2).cokernel.is_trivial()


def test_stage_cap_over_Z():
    pc = presentation_complex(borromean_presentation(2))
    reps = dual_reps(pc, Z)
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    assert not s2.complete
    with pytest.raises(StageCapError):
        extend_stage(s2)


def test_kappa_stage1_torus_trivial():
    pc, stages = model_for(torus_presentation(), h1_gens=("g1", "g2"))
    k1 = kappa(stages[0])
    assert k1.cokernel.is_trivial()


def test_kappa_cyclic_stage1():
    # <g | g^k>: H^1 = 0, stage 1 empty, coker H^2(rho_1) = H^2 = Z_k.
    pc = presentation_complex(cyclic_presentation(4))
    s1 = stage1(pc.delta, Z)
    assert s1.h1_names == []
    k1 = kappa(s1)
    assert k1.cokernel == AbelianInvariants(0, (4,))
    assert k1.torsion == AbelianInvariants(0, (4,))


# -- group realization ---------------------------------------------------------


def test_realize_group_heisenberg_symbolic():
    pc = presentation_complex(heisenberg_presentation(3))
    reps = dual_reps(pc, Z, ("g1", "g2"))
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    gr = realize_group(s2)
    # law of Eq-style (a1, a2, a12)*(a1', a2', a12'):
    # third coordinate a12 + a12' + k a1 a2'
    assert gr.law_rendered["x1"] == "1 * z(x1,1) + 1 * z(x1',1)"
    assert gr.law_rendered["y1"] == ("1 * z(y1,1) + 1 * z(y1',1) "
                                     "+ 3 * z(x1,1)*z(x2',1)")
    assert gr.law.apply((1, 2, 3), (4, 5, 6)) == (5, 7, 3 + 6 + 3 * 1 * 5)
    assert gr.tower == [(2, ["y1"])]
    assert gr.audit["central_tower"] is True


def test_realize_group_zp_exhaustive():
    # Heisenberg stage shape over Z_3: exhaustive axioms on 27 elements.
    s2 = synthetic_stage2(RingSpec.Zp(3), 1)
    gr = realize_group(s2)
    assert gr.audit["associativity"] == "admissible"
    assert gr.audit["order"] == 27
    assert gr.audit["unit"] is True
    assert gr.audit["inverses"] is True


def test_realize_group_zp_builds_one_finite_magma(monkeypatch):
    from cupone.delta import MagmaLaw
    built = []
    to_finite = MagmaLaw.to_finite_magma

    def counted(self):
        built.append(len(self.gens))
        return to_finite(self)

    monkeypatch.setattr(MagmaLaw, "to_finite_magma", counted)
    gr = realize_group(synthetic_stage2(RingSpec.Zp(3), 1))
    assert gr.audit["associativity"] == "admissible"
    assert built == [3]


@pytest.mark.parametrize("pg, ring", [(borromean_presentation(2), Z),
                                      (torus_presentation(),
                                       RingSpec.Zp(3))],
                         ids=["borromean_n2-Z", "torus-Zp3"])
def test_kappa_reads_the_images_of_compute_kernel(pg, ring, monkeypatch):
    # _compute_kernel pushed every H^2(M_n) generator through rho; kappa
    # reads those images off the stage instead of pushing them again.
    from cupone import model
    stage = minimal_model(presentation_complex(pg).delta, ring, 2)[-1]
    assert len(stage.h2_image) == len(stage.h2_model)
    want = kappa(stage)

    def refuse(*args):
        raise AssertionError("kappa pushed a generator again")

    monkeypatch.setattr(model, "rho_push", refuse)
    assert kappa(stage) == want


def test_realize_group_d0_is_addition():
    pc, stages = model_for(wedge_presentation(3), stages=1)
    gr = realize_group(stages[0])
    assert gr.law.apply((1, 2, 3), (4, 5, 6)) == (5, 7, 9)
    for g, text in gr.law_rendered.items():
        assert text == f"1 * z({g},1) + 1 * z({g}',1)"


# -- homotopy construction ------------------------------------------------------


def subdivided_wedge(n):
    cells = {0: ["v"], 1: [], 2: [], 3: []}
    faces = {}
    for i in range(n):
        w = f"w{i}"
        cells[0].append(w)
        cells[1] += [f"a{i}", f"b{i}"]
        faces[f"a{i}"] = (w, "v")
        faces[f"b{i}"] = ("v", w)
    return DeltaSet(cells, faces)


def test_construct_homotopy():
    X = subdivided_wedge(2)
    ring = Z
    names = ["x1", "x2"]
    phi0 = {
        "x1": Cochain(1, ring, {"a0": 1, "b0": 1}),
        "x2": Cochain(1, ring, {"a1": 1, "b1": 1}),
    }
    shift = Cochain(0, ring, {"w0": 2, "w1": -1})
    phi1 = {g: phi0[g] + coboundary(X, shift) if g == "x1" else phi0[g]
            for g in names}
    wit = construct_homotopy(X, ring, names, phi0, phi1)
    assert wit.audit == {"cocycle": True, "endpoints": True,
                         "zeta": True, "cup1": True}
    # c(x1) solves delta c = phi0 - phi1 = -delta(shift)
    assert coboundary(X, wit.c["x1"]) == phi0["x1"] - phi1["x1"]


def test_construct_homotopy_equal_maps_zero_c():
    X = subdivided_wedge(1)
    phi = {"x1": Cochain(1, Z, {"a0": 1, "b0": 1})}
    wit = construct_homotopy(X, Z, ["x1"], phi, dict(phi))
    assert wit.c["x1"].is_zero()


def test_construct_homotopy_rejects_unequal_classes():
    X = subdivided_wedge(2)
    phi0 = {"x1": Cochain(1, Z, {"a0": 1, "b0": 1})}
    phi1 = {"x1": Cochain(1, Z, {"a1": 1, "b1": 1})}
    with pytest.raises(PreconditionError):
        construct_homotopy(X, Z, ["x1"], phi0, phi1)


from cupone.differential import GeneratorSet as GeneratorSet_mod


def test_h2_stage2_Z_no_second_level_generators():
    # With no level-2 generators, Lambda^2 is unchanged (all free).
    from cupone.differential import build_differential
    from cupone.model import ModelStage, h2_stage2_Z
    gens = GeneratorSet_mod(["x1", "x2", "x3"], {"x1": 1, "x2": 1, "x3": 1})
    stage = ModelStage(n=2, ring=Z, gens=gens,
                       diff=build_differential(gens, {}, Z),
                       target=DeltaSet({0: ["v"]}, {}), rho={},
                       h1_names=["x1", "x2", "x3"], h2x=None)
    gens_out = h2_stage2_Z(stage)
    assert [g.order for g in gens_out] == [0, 0, 0]


def test_minimality_audit_dy_maps_to_zero():
    # rho(dy) is a coboundary: its class in H^2(X) vanishes.
    pc = presentation_complex(heisenberg_presentation(3))
    reps = dual_reps(pc, Z, ("g1", "g2"))
    s2 = minimal_model(pc.delta, Z, 2, reps)[-1]
    for y in s2.gens.at_level(2):
        pushed = rho_push(s2, s2.diff.tau[y])
        coords = s2.h2x.class_coords(pushed.vector(s2.target.cells[2]))
        assert not any(coords)


def test_h1_stability_of_stages_mod_p():
    # H^1(M_n) stays of dimension |X_1| after extension (Z_3 torus).
    from zp_oracle import t_cohomology_Zp
    ring = RingSpec.Zp(3)
    pc = presentation_complex(torus_presentation())
    s2 = minimal_model(pc.delta, ring, 2)[-1]
    assert s2.n == 2
    data, _, _ = t_cohomology_Zp(s2.gens.names, ring, 1, s2.diff)
    assert len(data.generators) == len(s2.h1_names)


def test_borromean_stage_diff_d_squared_weight4():
    pc = presentation_complex(borromean_presentation(2))
    s2 = minimal_model(pc.delta, Z, 2, dual_reps(pc, Z))[-1]
    assert check_d_squared(s2.diff, weight_cap=4).passed


def test_psi_iso_for_realized_heisenberg_group_mod3():
    """Dual route: H^2 of the Heisenberg stage-2 model over Z_3 matches
    H^2 of the classifying complex of the realized order-27 group, and
    psi carries a basis to a basis (the structural quasi-isomorphism)."""
    from cupone.delta import (delta_from_magma, magma_from_tau,
                              psi_embed, segment_cohomology)
    from cupone.differential import build_differential
    from cupone.linalg import ZpEliminator
    from cupone.model import ModelStage, h2_stage_Zp

    ring = RingSpec.Zp(3)
    gens = GeneratorSet_mod(["x1", "x2", "y1"],
                            {"x1": 1, "x2": 1, "y1": 2})
    tau = {"y1": cup(TensorElem.gen(ring, "x1"),
                     TensorElem.gen(ring, "x2")).scale(-1)}
    diff = build_differential(gens, tau, ring)
    law = magma_from_tau(gens.names, tau, ring)
    mc = delta_from_magma(law.to_finite_magma(), 3)
    bar_h2 = segment_cohomology(mc.delta, ring, 2)
    stage = ModelStage(n=2, ring=ring, gens=gens, diff=diff,
                       target=DeltaSet({0: ["v"]}, {}), rho={},
                       h1_names=["x1", "x2"], h2x=None)
    model_h2 = h2_stage_Zp(stage)
    assert len(model_h2) == len(bar_h2.generators) == 4
    elim = ZpEliminator(3, len(model_h2), len(bar_h2.generators))
    for g in model_h2:
        c = psi_embed(g.rep, mc, gens.names, deg=2)
        coords = bar_h2.class_coords(c.vector(mc.delta.cells[2]))
        assert elim.insert({i: v for i, v in enumerate(coords) if v})


def test_h2_free_d0_surface():
    from cupone.model import h2_free_d0
    data = h2_free_d0(["x1", "x2", "x3"], Z)
    assert data.basis == [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]
    assert data.coords(word_pair("x2", "x1", Z)) == [-1, 0, 0]
    for rep in data.reps:
        assert apply_d(zero_differential_mod(data.names), rep).is_zero()
    with pytest.raises(Exception):
        h2_free_d0(["x"], RingSpec.Zp(2))


def zero_differential_mod(names):
    from cupone.differential import zero_differential
    return zero_differential(GeneratorSet_mod(names), Z)


def stage_diff(fixture: str, p: int, n: int = 2):
    """The stage-n differential the CLI builds for a fixture over Z_p,
    without computing the H^2 of stage n itself."""
    import pathlib
    from cupone.cli import LoadedInput
    from cupone.differential import build_differential
    path = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    inp = LoadedInput(str(path / f"{fixture}.pres"), f"Zp:{p}")
    if n == 1:
        s1 = inp.build_model(1)[-1]
        return s1.gens.names, s1.diff
    prev = inp.build_model(n - 1)[-1]
    prefix = "y" if n == 2 else f"t{n}_"
    ys = [f"{prefix}{i + 1}" for i in range(len(prev.ker_basis))]
    gens = prev.gens.extend(ys, n)
    tau = dict(prev.diff.tau)
    tau.update({y: rep.scale(-1) for y, rep in zip(ys, prev.ker_basis)})
    return gens.names, build_differential(gens, tau, prev.ring)


def stage2_diff(fixture: str, p: int):
    return stage_diff(fixture, p, 2)


def test_t_cohomology_Zp_frozen():
    # Generators, representatives and class coordinates of the brute-force
    # Z_p cohomology, pinned: every Z_p model report is read off them.
    import hashlib
    from zp_oracle import t_cohomology_Zp
    cases = []
    for p in (2, 3, 5):
        for k in (1, 2, 3):
            names = [f"x{i + 1}" for i in range(k)]
            # Z_p:5 on three names has 15,376 dense degree-2 generators.
            for degree in (1, 2) if (p, k) != (5, 3) else (1,):
                cases.append((names, RingSpec.Zp(p), degree, None))
    for fixture, p, degrees in (("torus", 2, (1, 2)), ("torus", 3, (1, 2)),
                                ("heisenberg_k2", 2, (1, 2)),
                                ("heisenberg_k2", 3, (1,))):
        names, diff = stage2_diff(fixture, p)
        cases += [(names, RingSpec.Zp(p), d, diff) for d in degrees]
    h = hashlib.sha256()
    for names, ring, degree, diff in cases:
        data, basis, reps = t_cohomology_Zp(names, ring, degree, diff)
        h.update(repr(data.generators).encode())
        h.update(repr([sorted(r.terms.items(), key=repr)
                       for r in reps]).encode())
        h.update(repr([data.class_coords(v)
                       for _, v in data.generators]).encode())
    assert h.hexdigest() == \
        "47beca378211940c8979241b3c78196b8d11537ca0d14af59701280e4179e276"


def assert_matches_oracle(names, ring, diff=None):
    """The resolution route against the brute force: same dimensions,
    cocycle representatives of full rank in the brute force's classes."""
    from cupone.differential import zero_differential
    from cupone.linalg import ZpEliminator
    from cupone.model import resolution_cohomology_Zp
    from zp_oracle import t_cohomology_Zp
    diff = diff or zero_differential(GeneratorSet_mod(names), ring)
    h1, h2 = resolution_cohomology_Zp(names, ring, diff)
    for degree, reps in ((1, h1), (2, h2)):
        data, basis, _ = t_cohomology_Zp(names, ring, degree, diff)
        assert len(reps) == len(data.generators)
        index = {w: i for i, w in enumerate(basis)}
        elim = ZpEliminator(ring.p, len(reps), len(reps))
        for rep in reps:
            assert apply_d(diff, rep).is_zero()
            vec = [0] * len(basis)
            for w, c in rep.terms.items():
                vec[index[w]] = c
            coords = data.class_coords(vec)
            assert elim.insert({i: v for i, v in enumerate(coords) if v})


# Every fixture stage whose brute force finishes within a few seconds;
# heisenberg_k2 and wedge2 at Zp:3, stage 2, take about a minute each.
@pytest.mark.parametrize("fixture, p, n", [
    ("torus", 2, 1), ("torus", 2, 2), ("torus", 2, 3),
    ("torus", 3, 1), ("torus", 3, 2), ("torus", 5, 1),
    ("heisenberg_k1", 2, 1), ("heisenberg_k1", 2, 2),
    ("heisenberg_k2", 2, 1), ("heisenberg_k2", 2, 2),
    ("heisenberg_k2", 3, 1), ("wedge2", 3, 1),
    ("cyclic4", 2, 1), ("cyclic4", 2, 2), ("borromean_n1", 2, 1),
])
def test_resolution_matches_brute_force(fixture, p, n):
    names, diff = stage_diff(fixture, p, n)
    assert_matches_oracle(names, RingSpec.Zp(p), diff)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                  (5, 1), (5, 2)])
def test_resolution_matches_brute_force_on_d0(p, k):
    # The H^1 and H^2 that psi_cohomology_comparison maps into B(Z_p^k).
    assert_matches_oracle([f"x{i + 1}" for i in range(k)], RingSpec.Zp(p))


# The stage size guard bounds n1 = p^k - 1, so T^2 has at most n1^2 words.
@pytest.mark.parametrize("k, p, refused", [
    (8, 2, False),  # heisenberg_k1, Zp:2, stage 3: n1 = 255
    (5, 3, False),  # heisenberg_k1, Zp:3, stage 2: n1 = 242
    (9, 2, False),  # borromean_n1, Zp:2, stage 2: n1 = 511
    (4, 5, False),  # torus, Zp:5, stage 2: n1 = 624
    (5, 5, True),   # heisenberg_k1, Zp:5, stage 2: n1 = 3,124
    (9, 3, True),   # borromean_n1, Zp:3, stage 2: n1 = 19,682
])
def test_t2_word_limit(monkeypatch, k, p, refused):
    from cupone import model

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    # The guard runs before any basis is built; stop right there.
    monkeypatch.setattr(model, "iter_indices", reached)
    names = [f"x{i + 1}" for i in range(k)]
    with pytest.raises(PreconditionError if refused else Reached) as exc:
        model.resolution_cohomology_Zp(names, RingSpec.Zp(p))
    if refused:
        assert f"{k} generators over Z_{p} give T^1 of dimension " \
            f"n1 = {p ** k - 1:,}" in str(exc.value)
