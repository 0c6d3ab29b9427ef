"""The cochain algebra of the interval and the homotopy cylinder A (x) C*(I;R).

C*(I;R) has degree-0 generators t0, t1 (the endpoints) and degree-1
generator u, with d t0 = -u, d t1 = u, t_i t_j = delta_ij t_i,
t0 u = u t1 = u, u t0 = t1 u = 0, and unit t0 + t1.

Cylinder elements over an algebra backend A are stored componentwise as
(f0 (x) t0, f1 (x) t1, g (x) u) with f_i of degree d and g of degree
d - 1; the differential and products follow the Koszul rules of the
tensor-product dga, and the cup-one product of degree-1 elements obeys
the slotwise rules with vanishing mixed terms.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .delta import (
    Cochain,
    DeltaSet,
    coboundary,
    cup1_cochain,
    cup_cochain,
    zeta_cochain,
)
from .differential import Differential, apply_d
from .rings import RingSpec
from .tensor import TensorElem, cup, cup1_deg1, zeta_apply


@dataclass
class IntervalAlgebra:
    delta: DeltaSet
    ring: RingSpec
    t0: Cochain
    t1: Cochain
    u: Cochain


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
# algebra adapters (cochain algebras of a Delta-set, free dgas)

class CochainAlgebraOps:
    """Operation bundle for C*(X; R)."""

    def __init__(self, X: DeltaSet, ring: RingSpec):
        self.X = X
        self.ring = ring

    def zero(self, deg: int):
        return Cochain(deg, self.ring, {})

    def deg(self, a) -> int:
        return a.dim

    def d(self, a):
        return coboundary(self.X, a)

    def cup(self, a, b):
        return cup_cochain(self.X, a, b)

    def cup1(self, a, b):
        return cup1_cochain(self.X, a, b)

    def zeta(self, a, k: int):
        return zeta_cochain(self.X, a, k)

    def is_zero(self, a) -> bool:
        return a.is_zero()


class FreeDgaOps:
    """Operation bundle for (T_R(X), d)."""

    def __init__(self, diff: Differential):
        self.diff = diff
        self.ring = diff.ring

    def zero(self, deg: int):
        return TensorElem.zero(self.ring)

    def deg(self, a) -> int:
        return a.degree()

    def d(self, a):
        return apply_d(self.diff, a)

    def cup(self, a, b):
        return cup(a, b)

    def cup1(self, a, b):
        return cup1_deg1(a, b)

    def zeta(self, a, k: int):
        return zeta_apply(a, k)

    def is_zero(self, a) -> bool:
        return a.is_zero()


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
    """The binomial cup-one dga A (x) C*(I; R) over an ops backend."""

    def __init__(self, ops):
        self.ops = ops
        self.ring = ops.ring

    def elem(self, deg: int, f0=None, f1=None, g=None) -> CylEl:
        z = self.ops.zero
        return CylEl(deg,
                     f0 if f0 is not None else z(deg),
                     f1 if f1 is not None else z(deg),
                     g if g is not None else (z(deg - 1) if deg else None))

    def include(self, a, deg: int) -> CylEl:
        """a (x) (t0 + t1), the cylinder inclusion of A."""
        return self.elem(deg, f0=a, f1=a)

    def add(self, x: CylEl, y: CylEl) -> CylEl:
        if x.deg != y.deg:
            raise ValueError("degree mismatch")
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
        return all(self.ops.is_zero(p) for p in parts)

    def d(self, x: CylEl) -> CylEl:
        """d(f (x) t_i) = df (x) t_i -+ (-1)^{|f|} f (x) u; d(g (x) u) = dg (x) u."""
        ops = self.ops
        sign = -1 if x.deg % 2 else 1
        upart = x.f1.scale(sign) + x.f0.scale(-sign)
        if x.deg:
            upart = upart + ops.d(x.g)
        return CylEl(x.deg + 1, ops.d(x.f0), ops.d(x.f1), upart)

    def cup(self, x: CylEl, y: CylEl) -> CylEl:
        """Koszul product; u-part f0 g' + (-1)^{deg y} g f1'."""
        ops = self.ops
        f0 = ops.cup(x.f0, y.f0)
        f1 = ops.cup(x.f1, y.f1)
        g = None
        if x.deg + y.deg:
            terms = []
            if y.deg:
                terms.append(ops.cup(x.f0, y.g))
            if x.deg:
                t = ops.cup(x.g, y.f1)
                terms.append(t.scale(-1) if y.deg % 2 else t)
            g = terms[0]
            for t in terms[1:]:
                g = g + t
        return CylEl(x.deg + y.deg, f0, f1, g)

    def cup1(self, x: CylEl, y: CylEl) -> CylEl:
        """Degree-1 cup-one: slotwise with vanishing mixed terms."""
        if x.deg != 1 or y.deg != 1:
            raise ValueError("cylinder cup1 supports degree (1,1)")
        ops = self.ops
        return CylEl(1, ops.cup1(x.f0, y.f0), ops.cup1(x.f1, y.f1),
                     ops.cup(x.g, y.g))

    def zeta(self, x: CylEl, k: int) -> CylEl:
        """zeta_k in the binomial ring R + (A (x) C)^1.

        Computed as the falling factorial over k!; pairs (r, h) with
        r in R track the scalar part of h - i along the product.
        """
        if x.deg != 1:
            raise ValueError("zeta applies to degree-1 cylinder elements")
        if self.ring.is_modular and k > self.ring.max_zeta:
            raise ValueError("zeta index exceeds p-1")
        if k == 0:
            raise ValueError("zeta_0 of a cylinder element is the scalar 1")
        acc_r, acc_h = 1, self.elem(1)
        for i in range(k):
            # (acc_r, acc_h) * (-i, x) in the ring R + (A (x) C)^1
            new_h = self.add(self.scale(x, acc_r), self.scale(acc_h, -i))
            new_h = self.add(new_h, self.cup1(acc_h, x))
            acc_r, acc_h = acc_r * (-i), new_h
        if acc_r:
            raise ArithmeticError(
                "constant part of a falling factorial must vanish at 0")
        f = factorial(k)
        if self.ring.is_modular:
            return self.scale(acc_h, self.ring.inv(f % self.ring.p))
        return CylEl(1, _divide_exact(acc_h.f0, f),
                     _divide_exact(acc_h.f1, f), _divide_exact(acc_h.g, f))

    def restrict(self, x: CylEl, end: int):
        """Endpoint restriction id (x) eta_end."""
        return x.f0 if end == 0 else x.f1


def _divide_exact(part, m: int):
    if isinstance(part, Cochain):
        out = {}
        for cell, v in part.values.items():
            q, r = divmod(v, m)
            if r:
                raise ArithmeticError("inexact division in cylinder zeta")
            out[cell] = q
        return Cochain(part.dim, part.ring, out)
    out = {}
    for w, v in part.terms.items():
        q, r = divmod(v, m)
        if r:
            raise ArithmeticError("inexact division in cylinder zeta")
        out[w] = q
    return TensorElem(part.ring, out)


def cylinder_over_complex(X: DeltaSet, ring: RingSpec) -> Cylinder:
    return Cylinder(CochainAlgebraOps(X, ring))


def cylinder_over_dga(diff: Differential) -> Cylinder:
    return Cylinder(FreeDgaOps(diff))
