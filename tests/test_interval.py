import random

from cupone.delta import (
    Cochain,
    DeltaSet,
    coboundary,
    cup1_cochain,
    cup_cochain,
    zeta_cochain,
)
from cupone.interval import Cylinder, CylEl
from cupone.rings import RingSpec

Z = RingSpec.Z()


def wedge_subdivided(n, extra_vertices=True):
    """Wedge of n circles, each circle subdivided into two edges so the
    complex has nonzero coboundaries in degree 0."""
    cells = {0: ["v"], 1: [], 2: [], 3: []}
    faces = {}
    for i in range(n):
        w = f"w{i}"
        cells[0].append(w)
        a, b = f"a{i}", f"b{i}"
        cells[1] += [a, b]
        faces[a] = (w, "v")   # a: v -> w
        faces[b] = ("v", w)   # b: w -> v
    return DeltaSet(cells, faces)


def test_cylinder_d_squared_and_product():
    X = wedge_subdivided(2)
    cyl = Cylinder(X, Z)
    rng = random.Random(0)
    for _ in range(15):
        f0 = Cochain(1, Z, {c: rng.randint(-2, 2) for c in X.cells[1]})
        f1 = Cochain(1, Z, {c: rng.randint(-2, 2) for c in X.cells[1]})
        g = Cochain(0, Z, {c: rng.randint(-2, 2) for c in X.cells[0]})
        x = CylEl(1, f0, f1, g)
        assert cyl.is_zero(cyl.d(cyl.d(x)))
        y = cyl.include(Cochain(0, Z, {"v": rng.randint(-2, 2)}), 0)
        # Leibniz on a (0,1) product.
        lhs = cyl.d(cyl.cup(y, x))
        rhs = cyl.add(cyl.cup(cyl.d(y), x), cyl.cup(y, cyl.d(x)))
        assert cyl.sub(lhs, rhs).deg == 2
        assert cyl.is_zero(cyl.sub(lhs, rhs))


def test_cylinder_d_matches_tensor_formula():
    # d(a (x) t0) = da (x) t0 + (-1)^{|a|} a (x) (-u)
    X = wedge_subdivided(1)
    cyl = Cylinder(X, Z)
    a = Cochain(1, Z, {"a0": 3, "b0": -1})
    x = CylEl(1, a, Cochain(1, Z), Cochain(0, Z))
    dx = cyl.d(x)
    assert dx.f0 == coboundary(X, a)
    assert dx.f1.is_zero()
    # (-1)^1 * (-u)-coefficient: +a
    assert dx.g == a


def test_cylinder_cup1_rules():
    X = wedge_subdivided(2)
    cyl = Cylinder(X, Z)
    rng = random.Random(1)
    for _ in range(20):
        a = Cochain(1, Z, {c: rng.randint(-2, 2) for c in X.cells[1]})
        b = Cochain(1, Z, {c: rng.randint(-2, 2) for c in X.cells[1]})
        g = Cochain(0, Z, {c: rng.randint(-2, 2) for c in X.cells[0]})
        h = Cochain(0, Z, {c: rng.randint(-2, 2) for c in X.cells[0]})
        at0 = CylEl(1, a, Cochain(1, Z), Cochain(0, Z))
        bt0 = CylEl(1, b, Cochain(1, Z), Cochain(0, Z))
        at1 = CylEl(1, Cochain(1, Z), a, Cochain(0, Z))
        gu = CylEl(1, Cochain(1, Z), Cochain(1, Z), g)
        hu = CylEl(1, Cochain(1, Z), Cochain(1, Z), h)
        # (a (x) t0) cup1 (b (x) t0) = (a cup1 b) (x) t0
        got = cyl.cup1(at0, bt0)
        assert got.f0 == cup1_cochain(X, a, b)
        assert got.f1.is_zero() and got.g.is_zero()
        # mixed-slot cup1 vanishes
        assert cyl.is_zero(cyl.cup1(at0, at1))
        assert cyl.is_zero(cyl.cup1(at0, hu))
        assert cyl.is_zero(cyl.cup1(gu, at1))
        # u-slot: (g (x) u) cup1 (h (x) u) = gh (x) (u cup1 u) = gh (x) u
        got = cyl.cup1(gu, hu)
        assert got.g == cup_cochain(X, g, h)


def test_cylinder_zeta_endpoints_and_cocycle_formula():
    # For a cocycle h in the cylinder, d zeta_k(h) = -sum zeta_l h zeta_{k-l} h,
    # and restriction commutes with zeta.
    X = wedge_subdivided(2)
    cyl = Cylinder(X, Z)
    phi0 = Cochain(1, Z, {"a0": 2, "b0": 2, "a1": -1, "b1": -1})
    # phi1 = phi0 + delta(c); the u-component of the homotopy witness is
    # -c(x) with delta(c(x)) = phi0 - phi1, i.e. +c here.
    c = Cochain(0, Z, {"w0": 1})
    phi1 = phi0 + coboundary(X, c)
    h = CylEl(1, phi0, phi1, c)
    assert cyl.is_zero(cyl.d(h))
    for k in (2, 3):
        zk = cyl.zeta(h, k)
        assert cyl.restrict(zk, 0) == zeta_cochain(X, phi0, k)
        assert cyl.restrict(zk, 1) == zeta_cochain(X, phi1, k)
        dz = cyl.d(zk)
        rhs = cyl.elem(2)
        for l in range(1, k):
            rhs = cyl.add(rhs, cyl.cup(cyl.zeta(h, l), cyl.zeta(h, k - l)))
        assert cyl.is_zero(cyl.add(dz, rhs))


def test_cylinder_zeta_scaled_interval_generator():
    # zeta_k(n * (a (x) t0)) restricts to C(n,k)-scaled values.
    X = wedge_subdivided(1)
    cyl = Cylinder(X, Z)
    a = Cochain(1, Z, {"a0": 1, "b0": 1})
    h = cyl.include(a, 1)
    z3 = cyl.zeta(cyl.scale(h, 3), 2)
    assert cyl.restrict(z3, 0) == zeta_cochain(X, a.scale(3), 2)
