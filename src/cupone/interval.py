"""The cochain algebra of the interval and the homotopy cylinder
C*(X;R) (x) C*(I;R).

C*(I;R) has degree-0 generators t0, t1 (the endpoints) and degree-1
generator u, with d t0 = -u, d t1 = u, t_i t_j = delta_ij t_i,
t0 u = u t1 = u, u t0 = t1 u = 0, and unit t0 + t1.

Cylinder elements are stored componentwise as (f0 (x) t0, f1 (x) t1,
g (x) u) with cochains f_i of degree d and g of degree d - 1; the
differential and products follow the Koszul rules of the tensor-product
dga, and the cup-one product of degree-1 elements obeys the slotwise
rules with vanishing mixed terms.
"""
from __future__ import annotations

from math import factorial

from .delta import Cochain, DeltaSet, coboundary, cup1_cochain, cup_cochain
from .rings import PreconditionError, RingSpec


class IntervalAlgebra:
    def __init__(self, delta: DeltaSet, ring: RingSpec, t0: Cochain,
                 t1: Cochain, u: Cochain):
        self.delta, self.ring = delta, ring
        self.t0, self.t1, self.u = t0, t1, u


def interval_algebra(ring: RingSpec) -> IntervalAlgebra:
    delta = DeltaSet({0: ["0", "1"], 1: ["01"]}, {"01": ("1", "0")})
    return IntervalAlgebra(
        delta=delta,
        ring=ring,
        t0=Cochain(0, ring, {"0": 1}),
        t1=Cochain(0, ring, {"1": 1}),
        u=Cochain(1, ring, {"01": 1}),
    )


# ---------------------------------------------------------------------------
# the cylinder

class CylEl:
    """Homogeneous element f0 (x) t0 + f1 (x) t1 + g (x) u of degree d."""

    __slots__ = ("deg", "f0", "f1", "g")

    def __init__(self, deg: int, f0, f1, g):
        self.deg = deg
        self.f0 = f0
        self.f1 = f1
        self.g = g  # degree deg - 1; None in degree 0

    def __eq__(self, other):
        return (isinstance(other, CylEl) and self.deg == other.deg
                and self.f0 == other.f0 and self.f1 == other.f1
                and self.g == other.g)

    def __repr__(self):
        return (f"CylEl(deg={self.deg}, t0={self.f0!r}, t1={self.f1!r}, "
                f"u={self.g!r})")


class Cylinder:
    """The binomial cup-one dga C*(X; R) (x) C*(I; R)."""

    def __init__(self, X: DeltaSet, ring: RingSpec):
        self.X = X
        self.ring = ring

    def elem(self, deg: int, f0=None, f1=None, g=None) -> CylEl:
        ring = self.ring
        return CylEl(deg,
                     f0 if f0 is not None else Cochain(deg, ring),
                     f1 if f1 is not None else Cochain(deg, ring),
                     g if g is not None
                     else (Cochain(deg - 1, ring) if deg else None))

    def include(self, a, deg: int) -> CylEl:
        """a (x) (t0 + t1), the cylinder inclusion of C*(X; R)."""
        return self.elem(deg, f0=a, f1=a)

    def add(self, x: CylEl, y: CylEl) -> CylEl:
        if x.deg != y.deg:
            raise PreconditionError("degree mismatch")
        g = None
        if x.deg:
            g = x.g + y.g
        return CylEl(x.deg, x.f0 + y.f0, x.f1 + y.f1, g)

    def scale(self, x: CylEl, c: int) -> CylEl:
        return CylEl(x.deg, x.f0.scale(c), x.f1.scale(c),
                     x.g.scale(c) if x.deg else None)

    def sub(self, x: CylEl, y: CylEl) -> CylEl:
        return self.add(x, self.scale(y, -1))

    def is_zero(self, x: CylEl) -> bool:
        parts = [x.f0, x.f1] + ([x.g] if x.deg else [])
        return all(p.is_zero() for p in parts)

    def d(self, x: CylEl) -> CylEl:
        """d(f (x) t_i) = df (x) t_i -+ (-1)^{|f|} f (x) u; d(g (x) u) = dg (x) u."""
        X = self.X
        sign = -1 if x.deg % 2 else 1
        upart = x.f1.scale(sign) + x.f0.scale(-sign)
        if x.deg:
            upart = upart + coboundary(X, x.g)
        return CylEl(x.deg + 1, coboundary(X, x.f0), coboundary(X, x.f1),
                     upart)

    def cup(self, x: CylEl, y: CylEl) -> CylEl:
        """Koszul product; u-part f0 g' + (-1)^{deg y} g f1'."""
        X = self.X
        f0 = cup_cochain(X, x.f0, y.f0)
        f1 = cup_cochain(X, x.f1, y.f1)
        g = None
        if x.deg + y.deg:
            terms = []
            if y.deg:
                terms.append(cup_cochain(X, x.f0, y.g))
            if x.deg:
                t = cup_cochain(X, x.g, y.f1)
                terms.append(t.scale(-1) if y.deg % 2 else t)
            g = terms[0]
            for t in terms[1:]:
                g = g + t
        return CylEl(x.deg + y.deg, f0, f1, g)

    def cup1(self, x: CylEl, y: CylEl) -> CylEl:
        """Degree-1 cup-one: slotwise with vanishing mixed terms."""
        if x.deg != 1 or y.deg != 1:
            raise PreconditionError("cylinder cup1 supports degree (1,1)")
        X = self.X
        return CylEl(1, cup1_cochain(X, x.f0, y.f0),
                     cup1_cochain(X, x.f1, y.f1), cup_cochain(X, x.g, y.g))

    def zeta(self, x: CylEl, k: int) -> CylEl:
        """zeta_k in the binomial ring R + (C*(X) (x) C*(I))^1.

        Computed as the falling factorial over k!; pairs (r, h) with
        r in R track the scalar part of h - i along the product.
        """
        if x.deg != 1:
            raise PreconditionError(
                "zeta applies to degree-1 cylinder elements")
        if self.ring.is_modular and k > self.ring.max_zeta:
            raise PreconditionError("zeta index exceeds p-1")
        if k == 0:
            raise PreconditionError(
                "zeta_0 of a cylinder element is the scalar 1")
        acc_r, acc_h = 1, self.elem(1)
        for i in range(k):
            # (acc_r, acc_h) * (-i, x) in the ring R + (C*(X) (x) C*(I))^1
            new_h = self.add(self.scale(x, acc_r), self.scale(acc_h, -i))
            new_h = self.add(new_h, self.cup1(acc_h, x))
            acc_r, acc_h = acc_r * (-i), new_h
        if acc_r:
            raise ArithmeticError(
                "constant part of a falling factorial must vanish at 0")
        f = factorial(k)
        return CylEl(1, acc_h.f0.divide(f), acc_h.f1.divide(f),
                     acc_h.g.divide(f))

    def restrict(self, x: CylEl, end: int):
        """Endpoint restriction id (x) eta_end."""
        return x.f0 if end == 0 else x.f1

