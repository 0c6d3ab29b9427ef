"""The per-site kernel, cokernel, basis and membership code that
``cupone.linalg.ClassSpan`` replaced, kept as its test oracle.

Each function is the code one call site ran on its own before the sites
shared one factored span of classes in H = R^m / (o_i e_i):

- ``relations``: the kernel step of ``model._compute_kernel``, with
  ``kernel_into_presented``, the source-torsion filter and
  ``lattice_basis`` over Z and the ``kernel_mod_p`` relations over GF(p);
- ``cokernel``: ``model.kappa``, a Smith factor of [rel | img] over Z;
- ``is_h1_basis``: the H^1 representative check of ``model.stage1``;
- ``psi_iso``: the ``iso`` test of ``model.psi_cohomology_comparison``;
- ``contains``: ``MasseyResult.indeterminacy_contains`` over Z.
"""
from __future__ import annotations

from cupone.linalg import (
    AbelianInvariants,
    ZpEliminator,
    lattice_basis,
    smith_normal_form,
    solve_Z,
)
from dict_rows_oracle import kernel_mod_p


def relation_cols(orders: list[int]) -> list[list[int]]:
    m = len(orders)
    cols = []
    for i, order in enumerate(orders):
        if order:
            col = [0] * m
            col[i] = order
            cols.append(col)
    return cols


def kernel_into_presented(img_cols: list[list[int]],
                          rel_cols: list[list[int]],
                          dim: int) -> list[list[int]]:
    """Basis of {v in Z^s : sum_i v_i img_i lies in the lattice of relations}.

    ``img_cols`` and ``rel_cols`` are columns in Z^dim.
    """
    s, r = len(img_cols), len(rel_cols)
    if s == 0:
        return []
    rows = [[col[i] for col in img_cols] + [col[i] for col in rel_cols]
            for i in range(dim)]
    combined = smith_normal_form(rows, s + r).kernel()
    projected = [v[:s] for v in combined]
    # Relation columns may be dependent; the projection still spans the
    # solution lattice, so re-extract a basis.
    return lattice_basis(projected, s)


def relations(ring, orders, img, src_orders) -> list[list[int]]:
    m = len(orders)
    if ring.is_modular:
        rels = kernel_mod_p(
            ring.p, [{i: v for i, v in enumerate(col) if v} for col in img],
            m)
        return [[rel.get(i, 0) for i in range(len(src_orders))]
                for rel in rels]
    cols = [list(v) for v in img]
    sol = kernel_into_presented(cols, relation_cols(orders), m) \
        if cols else []
    # Quotient by the torsion of the source generators: a solution
    # vector is trivial when each coordinate dies in the source.
    keep = []
    for v in sol:
        if all((o and x % o == 0) or (not o and x == 0)
               for x, o in zip(v, src_orders)):
            continue
        keep.append(v)
    return lattice_basis(keep, len(src_orders)) if keep else []


def cokernel(ring, orders, img) -> AbelianInvariants:
    m = len(orders)
    if ring.is_modular:
        elim = ZpEliminator(ring.p, m)
        for col in img:
            elim.insert({i: v for i, v in enumerate(col) if v})
        dim = m - elim.rank
        return AbelianInvariants(0, tuple(ring.p for _ in range(dim)))
    cols = relation_cols(orders) + [list(v) for v in img]
    if not cols:
        return AbelianInvariants(m, ())
    rows = [[c[i] for c in cols] for i in range(m)]
    snf = smith_normal_form(rows, len(cols))
    return AbelianInvariants.from_coker(snf.diag, m)


def is_h1_basis(ring, coords, k) -> bool:
    """Assumes what stage1 had checked before: k coordinate vectors of a
    free H^1 of rank k."""
    if ring.is_modular:
        elim = ZpEliminator(ring.p, k)
        for v in coords:
            elim.insert({i: x for i, x in enumerate(v) if x % ring.p})
        return elim.rank == k
    snf = smith_normal_form(coords, k)
    return snf.diag == [1] * k


def psi_iso(p, coords, m) -> bool:
    elim = ZpEliminator(p, m)
    full = True
    for v in coords:
        if not elim.insert({i: x for i, x in enumerate(v) if x}):
            full = False
    return full and len(coords) == m


def contains(indeterminacy, delta_coords, orders) -> bool:
    if not any(delta_coords):
        return True
    m = len(delta_coords)
    cols = [list(v) for v in indeterminacy]
    for i, o in enumerate(orders):
        if o:
            col = [0] * m
            col[i] = o
            cols.append(col)
    if not cols:
        return False
    rows = [[c[i] for c in cols] for i in range(m)]
    factor = smith_normal_form(rows, len(cols))
    return solve_Z(factor, list(delta_coords)) is not None
