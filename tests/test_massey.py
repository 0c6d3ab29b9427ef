import random
from itertools import product

import pytest

from cupone.delta import Cochain, coboundary
from cupone.massey import (
    MAGNUS_MASSEY_SIGN,
    MagnusSeries,
    MasseyContext,
    cross_validate,
    magnus_expand,
    magnus_gate,
    magnus_pairings,
)
from cupone.presentation import (
    PresentedGroup,
    borromean_presentation,
    commutator,
    inverse_word,
    power,
    presentation_complex,
    torus_presentation,
    wedge_presentation,
    word,
)
from cupone.rings import RingSpec

Z = RingSpec.Z()
GENS = ("a", "b", "c")


def rand_word(rng, length):
    return tuple((rng.choice(GENS), rng.choice((1, -1)))
                 for _ in range(length))


def test_magnus_letter_frozen():
    s = magnus_expand(word(["a"]), GENS)
    assert s.coefficient(()) == 1 and s.coefficient((1,)) == 1
    inv = magnus_expand(word(["a^-1"]), GENS)
    assert inv == MagnusSeries(3, {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1})


def test_magnus_commutator():
    s = magnus_expand(commutator(word(["a"]), word(["b"])), GENS)
    assert s.coefficient((1, 2)) == 1
    assert s.coefficient((2, 1)) == -1
    assert s.coefficient((1,)) == 0 and s.coefficient((2,)) == 0


def test_magnus_power_binomial():
    # relator g^k: coefficient of X^2 is C(k, 2)
    for k in (2, 3, 5):
        s = magnus_expand(power(word(["a"]), k), GENS)
        assert s.coefficient((1, 1)) == k * (k - 1) // 2


def test_magnus_double_commutator_eps2_zero():
    w = commutator(word(["a"]), commutator(word(["c^-1"]), word(["b"])))
    s = magnus_expand(w, GENS)
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert s.coefficient((i, j)) == 0


def test_magnus_multiplicative():
    rng = random.Random(0)
    for _ in range(30):
        v = rand_word(rng, rng.randint(1, 4))
        w = rand_word(rng, rng.randint(1, 4))
        assert magnus_expand(v + w, GENS) == \
            magnus_expand(v, GENS).mul(magnus_expand(w, GENS))


def test_magnus_inverse():
    rng = random.Random(1)
    one = MagnusSeries.one()
    for _ in range(30):
        w = rand_word(rng, rng.randint(1, 5))
        assert magnus_expand(w + inverse_word(w), GENS) == one


def test_magnus_pairings_commutator_relator():
    pg = torus_presentation()
    pair = magnus_pairings(pg)
    assert pair.eps2[0] == {(1, 2): 1, (2, 1): -1}


def test_triple_massey_borromean_values():
    pg = borromean_presentation(3)
    pc = presentation_complex(pg)
    duals = [pc.dual_cochain(g, Z) for g in pg.generators]
    ctx = MasseyContext(pc.delta, Z, duals)
    r = ctx.triple_massey(duals[0], duals[1], duals[2])
    cycles = [pc.relator_cycle(i) for i in range(2)]
    assert [r.representative.pair_with_chain(c) for c in cycles] == [0, -3]
    r2 = ctx.triple_massey(duals[0], duals[2], duals[1])
    assert [r2.representative.pair_with_chain(c) for c in cycles] == [3, 0]
    # repeated indices map to zero
    for t in ((0, 0, 1), (1, 1, 2), (0, 2, 2)):
        rr = ctx.triple_massey(duals[t[0]], duals[t[1]], duals[t[2]])
        assert not any(rr.coords)


def test_borromean_job_factors_delta1_at_most_twice(monkeypatch):
    # minimal_model, kappa and all 27 Massey triples on X(7) share the
    # H^1 and H^2 of one Delta-set: delta^1 is factored for ker delta^1
    # (H^1) and for im delta^1 (H^2, whose preimage serves every rho-lift
    # and Massey solve), and nowhere else.
    from cupone import linalg, model
    from cupone.delta import coboundary_matrix
    pc = presentation_complex(borromean_presentation(7))
    d1 = coboundary_matrix(pc.delta, 1)
    factored = []
    snf = linalg.smith_normal_form

    def counted(rows, *args, **kwargs):
        if rows == d1:
            factored.append(kwargs)
        return snf(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    monkeypatch.setattr(model, "smith_normal_form", counted)
    duals = [pc.dual_cochain(g, Z) for g in pc.group.generators]
    stage = model.minimal_model(pc.delta, Z, 2, duals)[-1]
    assert model.kappa(stage).torsion.render() == "Z/7 + Z/7"
    ctx = MasseyContext(pc.delta, Z, duals)
    for t in product(range(3), repeat=3):
        ctx.triple_massey(*(duals[i] for i in t))
    assert 0 < len(factored) <= 2


def test_triple_massey_undefined_when_cup_nonzero():
    pg = torus_presentation()
    pc = presentation_complex(pg)
    u1 = pc.dual_cochain("g1", Z)
    u2 = pc.dual_cochain("g2", Z)
    ctx = MasseyContext(pc.delta, Z, [u1, u2])
    with pytest.raises(ValueError, match="undefined"):
        ctx.triple_massey(u1, u2, u1)


def test_massey_indeterminacy_under_rerun():
    # Changing the particular solution c12 by a cocycle moves the result
    # within the indeterminacy submodule only.
    pg = borromean_presentation(2)
    pc = presentation_complex(pg)
    X = pc.delta
    duals = [pc.dual_cochain(g, Z) for g in pg.generators]
    ctx = MasseyContext(X, Z, duals)
    from cupone.delta import cup_cochain
    u1, u2, u3 = duals
    base = ctx.triple_massey(u1, u2, u3)
    rng = random.Random(2)
    orders = [o for o, _ in ctx.h2.generators]
    for _ in range(5):
        shift = duals[rng.randrange(3)].scale(rng.randint(-2, 2))
        c12 = ctx.solve_coboundary(cup_cochain(X, u1, u2)) + shift
        c23 = ctx.solve_coboundary(cup_cochain(X, u2, u3))
        rep = cup_cochain(X, u1, c23) + cup_cochain(X, c12, u3)
        assert coboundary(X, rep).is_zero()
        coords = ctx.h2_coords(rep)
        delta = [a - b for a, b in zip(coords, base.coords)]
        assert base.indeterminacy_contains(delta, orders)


def test_cross_validate_signs():
    cv = cross_validate(torus_presentation())
    assert cv.ok and cv.sign2 == 1
    cv = cross_validate(borromean_presentation(1))
    assert cv.ok and cv.sign3 == MAGNUS_MASSEY_SIGN == -1
    cv = cross_validate(wedge_presentation(2))
    assert cv.ok
    assert all(v == (0, 0) for v in cv.cup_table.values())


def test_magnus_gate():
    for n in (1, 2, 3, 4):
        assert magnus_gate(borromean_presentation(n), n).ok
    # wrong n fails
    assert not magnus_gate(borromean_presentation(2), 3).ok
    # a nearby candidate family fails the single-cell-support condition
    x1 = word(["x1"])
    x2 = word(["x2"])
    x3 = word(["x3"])
    r_a = commutator(x1, power(commutator(word(["x3^-1"]), x2), 2))
    r_b = commutator(x2, power(commutator(word(["x1^-1"]), x3), 2))
    cand = PresentedGroup(("x1", "x2", "x3"), (r_a, r_b))
    assert not magnus_gate(cand, 2).ok


def test_cross_validate_requires_zero_exponent_sums():
    from cupone.presentation import cyclic_presentation
    with pytest.raises(ValueError):
        cross_validate(cyclic_presentation(3))
