"""The pushforward of tensor elements into cochains and the zeta_I
evaluator, against the per-cell loops they replace.

``psi_embed`` is the pushforward along the coordinate cochains; the
oracle below evaluates every word of u on every cell, slot by slot, as
psi did before it went through ``push_tensor``.  ``push_oracle`` keeps
the pushforward as it was before it grouped words by prefix: on model
stages, on psi and on random elements the two give equal cochains.
"""
import pathlib
import random
from itertools import product

import pytest

import push_oracle
from cupone.cli import LoadedInput
from cupone.delta import (
    Cochain,
    bar_construction,
    cyclic_group_magma,
    delta_from_magma,
    psi_embed,
    push_tensor,
)
from cupone.magma import MagmaLaw
from cupone.model import resolution_cohomology_Zp, rho_push
from cupone.rings import MultiIndex, PreconditionError, RingSpec, binom_of
from cupone.tensor import TensorElem, cup
from test_generator_rows import heisenberg_law, transformation_monoid_3

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

RINGS = {"Z": RingSpec.Z(), "Zp2": RingSpec.Zp(2), "Zp3": RingSpec.Zp(3),
         "Zp5": RingSpec.Zp(5)}


def coordinate_complex(name):
    """(magma complex at dimension 3, generator names of its coordinates)."""
    if name == "heis2":
        law = heisenberg_law(2)
        return delta_from_magma(law.to_finite_magma(), 3), law.gens
    moduli = {"Z4xZ2": (4, 2), "Z2^2": (2, 2), "Z3^2": (3, 3),
              "Z5": (5,)}[name]
    gens = [f"x{i}" for i in range(len(moduli))]
    return bar_construction(cyclic_group_magma(moduli), 3), gens


def psi_oracle(u, mc, gens, deg=None):
    """Per cell and per word, the product of the slotwise values of zeta_I
    at the coordinates of the cell's entries."""
    ring = u.ring
    if u.is_zero():
        return {}, (1 if deg is None else deg)
    deg = u.degree()
    if deg == 0:
        return {c: ring.normalize(u.terms[()])
                for c in mc.delta.cells[0]}, 0
    out = {}
    # The deg-cells list the deg-tuples of elements in order.
    elems = product(mc.magma.elements, repeat=deg)
    for cell, elem in zip(mc.delta.cells[deg], elems):
        points = [dict(zip(gens, t)) for t in elem]
        total = 0
        for word, c in u.terms.items():
            v = c
            for slot, idx in enumerate(word):
                for name, e in idx.entries:
                    v *= binom_of(points[slot].get(name, 0), e, ring)
            total += v
        if ring.normalize(total):
            out[cell] = ring.normalize(total)
    return out, deg


def random_element(rng, ring, gens, deg):
    if deg == 0:
        return TensorElem(ring, {(): rng.randint(1, 4)})
    top = ring.max_zeta or 3
    terms = {}
    for _ in range(rng.randint(1, 3)):
        word = []
        for _ in range(deg):
            idx = MultiIndex((g, rng.randint(0, top)) for g in gens)
            if idx.is_unit:
                idx = MultiIndex.single(rng.choice(gens), rng.randint(1, top))
            word.append(idx)
        terms[tuple(word)] = rng.randint(-3, 3)
    return TensorElem(ring, terms)


@pytest.mark.parametrize("complex_name",
                         ["Z4xZ2", "Z2^2", "Z3^2", "Z5", "heis2"])
@pytest.mark.parametrize("ring_name", list(RINGS))
def test_psi_matches_the_per_cell_loop(complex_name, ring_name):
    ring = RINGS[ring_name]
    mc, gens = coordinate_complex(complex_name)
    rng = random.Random(f"{complex_name}/{ring_name}")
    for deg in range(4):
        for _ in range(6):
            u = random_element(rng, ring, gens, deg)
            got = psi_embed(u, mc, gens, deg=deg)
            want, want_deg = psi_oracle(u, mc, gens, deg)
            assert (got.dim, got.ring, got.terms) == (want_deg, ring, want)
        zero = TensorElem(ring, {})
        got = psi_embed(zero, mc, gens, deg=deg)
        assert (got.dim, got.terms) == (deg, {})
    assert psi_embed(TensorElem(ring, {}), mc, gens).dim == 1


def f_tau_oracle(law, a, b):
    pa, pb = dict(zip(law.gens, a)), dict(zip(law.gens, b))
    out = []
    for g in law.gens:
        t = law.tau.get(g)
        total = 0
        for (i1, i2), c in (t.terms.items() if t is not None else ()):
            v = c
            for name, e in i1.entries:
                v *= binom_of(pa.get(name, 0), e, law.ring)
            for name, e in i2.entries:
                v *= binom_of(pb.get(name, 0), e, law.ring)
            total += v
        out.append(law.ring.normalize(total))
    return tuple(out)


@pytest.mark.parametrize("q", [2, 3])
def test_f_tau_matches_the_nested_loop(q):
    law = heisenberg_law(q)
    elems = law.to_finite_magma().elements
    for a in elems:
        for b in elems:
            assert law.f_tau(a, b) == f_tau_oracle(law, a, b)


def test_psi_refuses_degree_4_as_a_precondition():
    ring = RingSpec.Zp(3)
    mc, gens = coordinate_complex("Z3^2")
    x = TensorElem.gen(ring, "x0")
    with pytest.raises(PreconditionError, match="psi embeds degrees <= 3"):
        psi_embed(cup(cup(x, x), cup(x, x)), mc, gens)


def test_psi_refuses_a_complex_without_3_cells_as_a_precondition():
    ring = RingSpec.Zp(3)
    mc = bar_construction(cyclic_group_magma((3,)), 2)
    x = TensorElem.gen(ring, "x0")
    with pytest.raises(PreconditionError, match="target complex lacks"):
        psi_embed(cup(cup(x, x), x), mc, ["x0"])


def test_magma_law_refuses_tau_of_degree_1_as_a_precondition():
    ring = RingSpec.Zp(2)
    with pytest.raises(PreconditionError, match=r"tau\(y\) must have "):
        MagmaLaw(["x", "y"], {"y": TensorElem.gen(ring, "x")}, ring)


def test_magma_law_refuses_a_finite_carrier_over_z_as_a_precondition():
    law = MagmaLaw(["x"], {}, RingSpec.Z())
    with pytest.raises(PreconditionError, match="finite carrier requires"):
        law.to_finite_magma()


def test_semigroup_generators_take_the_largest_closure_first():
    # Z_3^2 x Z_2 = Z_6 x Z_3 and Z_5 x Z_2^2 = Z_10 x Z_2 need two
    # generators; T_3 needs three (two permutations and a rank-2 map).
    for moduli, rows in (((3, 3, 2), 648), ((5, 2, 2), 800)):
        X = bar_construction(cyclic_group_magma(moduli), 3).delta
        assert len(X.last_generators) == 2
        assert len(X.generator_rows(2)) == rows
    T3 = bar_construction(transformation_monoid_3(), 2).delta
    assert len(T3.last_generators) <= 3


def oracle_coords(mc, gens, ring):
    """The coordinate cochains [a] -> a_i that psi pushes along."""
    return {g: Cochain(1, ring, zip(mc.delta.cells[1], col))
            for g, col in zip(gens, zip(*mc.magma.elements))}


def shared_prefix_element(rng, ring, pool, deg):
    """Up to six words over a small pool of indices, so that words share
    prefixes and repeat factors, with coefficients of both signs."""
    if deg == 0:
        return TensorElem(ring, {(): rng.randint(-4, 4)})
    terms = {}
    for _ in range(rng.randint(1, 6)):
        terms[tuple(rng.choice(pool) for _ in range(deg))] = rng.choice(
            [-3, -2, -1, 1, 2, 3])
    return TensorElem(ring, terms)


def stage_cases():
    """(fixture, ring, stage) for stages 1-2 of every fixture; where stage
    2 is refused, stage 1 alone."""
    for path in sorted(FIXTURES.iterdir()):
        for ring in ("Z", "Zp:2", "Zp:3"):
            inp = LoadedInput(str(path), ring)
            try:
                stages = inp.build_model(2)
            except PreconditionError:
                stages = inp.build_model(1)
            for s in stages:
                yield path.name, ring, s


def test_push_matches_oracle():
    covered = 0
    # rho_push of every H^2 generator and kernel representative
    for name, ring, s in stage_cases():
        for rep in [g.rep for g in s.h2_model] + s.ker_basis:
            want = push_oracle.push_tensor(s.target, s.rho, rep, 2, {})
            assert rho_push(s, rep) == want, (name, ring, s.n, rep)
            covered += 1
    assert covered > 400
    # psi of the resolution representatives on B(Z_p^k)
    for p, k in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1)):
        ring = RingSpec.Zp(p)
        names = [f"x{i + 1}" for i in range(k)]
        mc = delta_from_magma(MagmaLaw(names, {}, ring).to_finite_magma(), 3)
        coords = oracle_coords(mc, names, ring)
        for deg, reps in enumerate(resolution_cohomology_Zp(names, ring), 1):
            assert reps
            for rep in reps:
                want = push_oracle.push_tensor(mc.delta, coords, rep, deg, {})
                assert psi_embed(rep, mc, names, deg) == want, (p, k, rep)
    # random elements along random 1-cochains, negative values over Z
    for ring in (RingSpec.Z(), RingSpec.Zp(2), RingSpec.Zp(3)):
        rng = random.Random(f"push/{ring}")
        X = bar_construction(cyclic_group_magma((3, 2)), 3).delta
        rho = {g: Cochain(1, ring, [(e, rng.randint(-3, 3))
                                    for e in X.cells[1]])
               for g in ("a", "b", "c")}
        rho["o"] = Cochain(1, ring, {})
        top = ring.max_zeta or 3
        pool = [MultiIndex.single(g, e) for g in "abco"
                for e in range(1, top + 1)]
        pool += [MultiIndex((("a", top), ("b", 1))),
                 MultiIndex((("b", 2 if top > 1 else 1), ("c", top)))]
        cache = {}
        for deg in range(4):
            for _ in range(25):
                u = shared_prefix_element(rng, ring, pool, deg)
                want = push_oracle.push_tensor(X, rho, u, deg, {})
                assert push_tensor(X, rho, u, deg, {}) == want, u
                assert push_tensor(X, rho, u, deg, cache) == want, u
            zero = TensorElem(ring, {})
            want = push_oracle.push_tensor(X, rho, zero, deg, {})
            assert push_tensor(X, rho, zero, deg, cache) == want
