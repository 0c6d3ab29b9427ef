"""The dense, labeled route to the cohomology of a Delta-set that
``segment_cohomology`` and ``linalg.cohomology_at`` replaced, kept as
their test oracle.

``segment_at`` copies the cell names of C^{k-1}, C^k and C^{k+1} into a
``ComplexSegment`` beside the dense rows of delta^{k-1} and delta^k, and
multiplies B A to check that they form a complex.  ``cohomology_at``
factors that one segment on its own: over Z a fresh Smith factor of B
(or of A without an upper term) read by ``cohomology_Z``, over GF(p)
dict columns of the dense rows on every (k+1)-cell, fed to
``linalg.cohomology_sparse_zp``.  The code is the library's as it was,
except that ``CohomologyData`` no longer takes the names of C^k.
"""
from cupone.linalg import (
    AbelianInvariants,
    CohomologyData,
    SNFResult,
    cohomology_sparse_zp,
    identity,
    mat_mul,
    mat_vec,
    smith_normal_form,
)
from cupone.delta import DeltaSet, coboundary_matrix
from cupone.rings import PreconditionError, RingSpec


class ComplexSegment:
    """C^{k-1} --A--> C^k --B--> C^{k+1} with labeled bases, B A = 0."""

    def __init__(self, ring: RingSpec, lower: list, mid: list, upper: list,
                 A: list[list[int]], B: list[list[int]]):
        self.ring = ring
        self.lower, self.mid, self.upper = list(lower), list(mid), list(upper)
        self.A = A  # len(mid) rows x len(lower) cols
        self.B = B  # len(upper) rows x len(mid) cols
        prod = mat_mul(B, A) if (upper and lower) else []
        if any(any(ring.normalize(x) for x in row) for row in prod):
            raise PreconditionError("B*A != 0: not a complex segment")


def segment_at(X: DeltaSet, ring: RingSpec, k: int):
    lower = X.cells[k - 1] if k >= 1 else []
    mid = X.cells[k]
    upper = X.cells[k + 1] if k + 1 <= 3 else []
    A = coboundary_matrix(X, k - 1) if k >= 1 else [[] for _ in mid]
    B = coboundary_matrix(X, k) if upper else []
    return ComplexSegment(ring, lower, mid, upper, A, B)


def cohomology_Z(seg: ComplexSegment, kernel: SNFResult | None,
                 image: SNFResult | None) -> CohomologyData:
    """H^k = ker B / im A over Z from Smith factors built by the caller.

    With an upper term, ``kernel`` is the factor of B: ker B is read off
    V and coordinates on it off Vinv, and im A is factored here in those
    coordinates.  Without one, ker B is everything, and ``image`` is the
    factor of A itself.
    """
    nm, nl = len(seg.mid), len(seg.lower)
    K = kernel.kernel() if seg.upper else None
    k = nm if K is None else len(K)
    if k == 0:
        # ker B = 0, so only the zero vector is a coboundary.
        return CohomologyData(seg.ring, AbelianInvariants(0, ()), [],
                              lambda v: [],
                              lambda v: None if any(v) else [0] * nl)
    # Coordinates on ker B in the basis K (None off ker B); without an
    # upper term K is the identity.
    to_kernel = from_kernel = list
    if K is not None:
        Krows = [[v[i] for v in K] for i in range(nm)]
        # The coordinates must invert the basis, which a basis that is
        # not primitive does not allow.
        if [kernel.kernel_coords(v) for v in K] != identity(k):
            diag = smith_normal_form(Krows, k).diag
            raise ArithmeticError(
                f"kernel basis is not primitive: Smith normal form "
                f"diagonal {diag}" if diag != [1] * k else
                "kernel coordinates do not invert the kernel basis")
        to_kernel = kernel.kernel_coords

        def from_kernel(w):
            return mat_vec(Krows, w)

        cols = [to_kernel([seg.A[i][j] for i in range(nm)])
                for j in range(nl)]
        image = smith_normal_form([[c[i] for c in cols] for i in range(k)],
                                  nl)
    order_slots = [(i, d) for i, d in enumerate(image.diag) if d > 1]
    order_slots += [(i, 0) for i in range(image.rank, k)]
    gens = [(d, from_kernel(image.uinv_column(i))) for i, d in order_slots]
    inv = AbelianInvariants(rank=k - image.rank,
                            torsion=tuple(d for _, d in order_slots if d))
    slot_rows = [image.u_row(i) for i, _ in order_slots]

    def coord_fn(vec):
        y = to_kernel(vec)
        if y is None:
            raise PreconditionError("vector is not a cocycle")
        c = [sum(u * x for u, x in zip(row, y)) for row in slot_rows]
        return [x % d if d else x for x, (_, d) in zip(c, order_slots)]

    def preimage_fn(vec):
        # K is injective, so A x = vec exactly when C x = K^-1 vec.
        y = to_kernel(vec)
        return None if y is None else image.solve(y).solution

    return CohomologyData(seg.ring, inv, gens, coord_fn, preimage_fn)


def _cohomology_Zp(seg: ComplexSegment) -> CohomologyData:
    p = seg.ring.p
    nm = len(seg.mid)
    b_cols = None
    if seg.upper:
        b_cols = [{} for _ in range(nm)]
        for i, row in enumerate(seg.B):
            for j, v in enumerate(row):
                if v % p:
                    b_cols[j][i] = v
    a_cols = [{i: seg.A[i][j] for i in range(nm) if seg.A[i][j] % p}
              for j in range(len(seg.lower))]
    return cohomology_sparse_zp(seg.ring, nm, a_cols, b_cols)


def cohomology_at(seg: ComplexSegment) -> CohomologyData:
    """H^k of a segment, with its own factors (over Z, ``cohomology_Z``
    on the Smith factor of B, or of A without an upper term)."""
    if seg.ring.is_modular:
        return _cohomology_Zp(seg)
    if seg.upper:
        return cohomology_Z(seg, smith_normal_form(seg.B, len(seg.mid)), None)
    return cohomology_Z(seg, None, smith_normal_form(seg.A, len(seg.lower)))
