import pytest

from cupone.delta import coboundary, segment_cohomology
from cupone.linalg import AbelianInvariants
from cupone.presentation import (
    PresentedGroup,
    borromean_presentation,
    cyclic_presentation,
    heisenberg_presentation,
    presentation_complex,
    torus_presentation,
    wedge_presentation,
    word,
)
from cupone.rings import RingSpec

Z = RingSpec.Z()


def cohomology(delta, ring, k):
    return segment_cohomology(delta, ring, k).invariants


def test_torus_complex_counts_and_cohomology():
    pc = presentation_complex(torus_presentation())
    X = pc.delta
    # chi = 1 - 7 + 6 = 0, H^1 = Z^2, H^2 = Z.
    assert len(X.cells[0]) == 1
    assert len(X.cells[1]) == 7
    assert len(X.cells[2]) == 6
    assert X.euler_characteristic() == 0
    assert cohomology(X, Z, 1) == AbelianInvariants(2, ())
    assert cohomology(X, Z, 2) == AbelianInvariants(1, ())


def test_cyclic_complex_cohomology():
    for k in (2, 3, 6):
        pc = presentation_complex(cyclic_presentation(k))
        assert cohomology(pc.delta, Z, 1) == AbelianInvariants(0, ())
        assert cohomology(pc.delta, Z, 2) == AbelianInvariants(0, (k,))


def test_wedge_complex():
    pc = presentation_complex(wedge_presentation(2))
    assert cohomology(pc.delta, Z, 1) == AbelianInvariants(2, ())
    assert cohomology(pc.delta, Z, 2) == AbelianInvariants(0, ())


def test_fan_boundary_audit():
    # Alternating face sum of each fan cell matches declared faces.
    pg = heisenberg_presentation(2)
    pc = presentation_complex(pg)
    X = pc.delta
    for ri, rel in enumerate(pg.relators):
        fan = pc.relator_fan_cells[ri]
        assert len(fan) == max(len(rel) - 1, 1)
        # chain boundary of the fan = sum of letters - z
        boundary = {}
        for cell in fan:
            fs = X.faces[2][X.cells[2].index(cell)]
            for i, f in enumerate(X.cells[1][f] for f in fs):
                boundary[f] = boundary.get(f, 0) + (1 if i % 2 == 0 else -1)
        expect = {}
        for name, e in rel:
            edge = name if e == 1 else pc.bar_edges[name]
            expect[edge] = expect.get(edge, 0) + 1
        expect["z"] = expect.get("z", 0) - 1
        assert {k: v for k, v in boundary.items() if v} == \
               {k: v for k, v in expect.items() if v}


def test_dual_hints_are_cocycles_iff_zero_exponent_sums():
    pg = heisenberg_presentation(3)
    pc = presentation_complex(pg)
    X = pc.delta
    for g in ("g1", "g2"):
        u = pc.dual_cochain(g, Z)
        assert coboundary(X, u).is_zero()
    assert not pc.dual_hints["g12"].is_cocycle
    with pytest.raises(ValueError):
        pc.dual_cochain("g12", Z)


def test_dual_hints_form_h1_basis_on_borromean():
    pg = borromean_presentation(2)
    pc = presentation_complex(pg)
    X = pc.delta
    assert pg.all_zero_exponent_sums()
    data = segment_cohomology(X, Z, 1)
    assert data.invariants == AbelianInvariants(3, ())
    coords = [data.class_coords(pc.dual_cochain(g, Z).vector(X.cells[1]))
              for g in pg.generators]
    from cupone.linalg import smith_normal_form
    snf = smith_normal_form(coords, 3)
    assert snf.diag == [1, 1, 1]


def test_borromean_h2_free_rank_2():
    for n in (1, 3):
        pc = presentation_complex(borromean_presentation(n))
        assert cohomology(pc.delta, Z, 1) == AbelianInvariants(3, ())
        assert cohomology(pc.delta, Z, 2) == AbelianInvariants(2, ())


def test_relator_cycles_are_cycles():
    pg = borromean_presentation(2)
    pc = presentation_complex(pg)
    X = pc.delta
    for i in range(2):
        cyc = pc.relator_cycle(i)
        boundary = {}
        for cell, mult in cyc.items():
            fs = X.faces[2][X.cells[2].index(cell)]
            for j, f in enumerate(X.cells[1][f] for f in fs):
                boundary[f] = boundary.get(f, 0) + mult * (1 if j % 2 == 0 else -1)
        assert all(v == 0 for v in boundary.values())


def test_relator_cycle_requires_zero_exponent_sums():
    pc = presentation_complex(heisenberg_presentation(2))
    with pytest.raises(ValueError):
        pc.relator_cycle(0)
    # torus relators [g1,g12], [g2,g12] do carry cycles
    for i in (1, 2):
        assert pc.relator_cycle(i)


def test_single_letter_relator():
    pg = PresentedGroup(("a",), (word(["a"]),))
    pc = presentation_complex(pg)
    assert cohomology(pc.delta, Z, 1) == AbelianInvariants(0, ())
    assert cohomology(pc.delta, Z, 2) == AbelianInvariants(0, ())


def test_torus_cup_product_pairing():
    # [u1 cup u2] generates H^2(torus) and evaluates to +-1 on the cycle.
    from cupone.delta import cup_cochain
    pg = torus_presentation()
    pc = presentation_complex(pg)
    X = pc.delta
    u1 = pc.dual_cochain("g1", Z)
    u2 = pc.dual_cochain("g2", Z)
    c = cup_cochain(X, u1, u2)
    assert coboundary(X, c).is_zero() if c.dim == 2 else True
    val = c.pair_with_chain(pc.relator_cycle(0))
    assert val in (1, -1)
    data = segment_cohomology(X, Z, 2)
    assert data.class_coords(c.vector(X.cells[2])) in ([1], [-1])
