"""GF(p) bar cohomology stays packed from the faces to the quotient.

For p <= 13 ``segment_cohomology`` writes the generator-row columns of
delta^k as packed eliminator rows (``coboundary_cols_packed``), and the
kernel relations leave the eliminator as packed rows that enter the
quotient without a dict in between.  These tests hold it to the dict
path on all rows (``dict_rows_oracle``): generators, orders, class
coordinates and preimages, on bar complexes of groups and of a monoid,
at p = 2, 3, 5, 7, 13 and, on dict rows, 17.
"""
import pathlib
import random

import pytest

from cupone.delta import (
    bar_construction,
    coboundary_cols_packed,
    coboundary_cols_sparse,
    coboundary_matrix,
    cyclic_group_magma,
    delta_from_magma,
    segment_cohomology,
)
from cupone.formats import detect_and_parse
from cupone.interval import interval_algebra
from cupone.linalg import ZpEliminator, mat_vec
from cupone.presentation import presentation_complex
from cupone.rings import InternalError, PreconditionError, RingSpec
from dict_rows_oracle import dict_cohomology
from test_generator_rows import (
    heisenberg_law,
    max_monoid_4,
    seeded_cocycles,
    symmetric_group_3,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
GROUPS = {
    "Z3": lambda: cyclic_group_magma((3,)),
    "Z4": lambda: cyclic_group_magma((4,)),
    "Z2^4": lambda: cyclic_group_magma((2, 2, 2, 2)),
    "Z3^2xZ2": lambda: cyclic_group_magma((3, 3, 2)),
    "Z5xZ2^2": lambda: cyclic_group_magma((5, 2, 2)),
    "Z7xZ2": lambda: cyclic_group_magma((7, 2)),
    "S3": symmetric_group_3,
    "max4": max_monoid_4,
}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 17])
@pytest.mark.parametrize("name", list(GROUPS))
def test_packed_pipeline_matches_dict_path(name, p):
    X = bar_construction(GROUPS[name](), 3).delta
    ring = RingSpec.Zp(p)
    rng = random.Random(f"{name}-{p}")
    for k in (1, 2):
        data, ref = segment_cohomology(X, ring, k), dict_cohomology(X, ring, k)
        assert data.generators == ref.generators
        assert data.orders == ref.orders
        cocycles = seeded_cocycles(rng, X, ref, ring, k)
        for vec in cocycles:
            assert data.class_coords(vec) == ref.class_coords(vec)
        A, n_low = coboundary_matrix(X, k - 1), len(X.cells[k - 1])
        boundaries = [mat_vec(A, [rng.randint(-2, 2) for _ in range(n_low)])
                      for _ in range(3)]
        for vec in boundaries + cocycles:
            x = data.preimage(vec)
            assert x == ref.preimage(vec)
            if vec in boundaries:
                assert [v % p for v in mat_vec(A, x)] == \
                    [v % p for v in vec]
        off = [rng.randint(0, p - 1) for _ in X.cells[k]]
        try:
            want = ref.class_coords(off)
        except PreconditionError:
            with pytest.raises(PreconditionError, match="not a cocycle"):
                data.class_coords(off)
        else:
            assert data.class_coords(off) == want


def complexes():
    out = [(name, bar_construction(make(), 3).delta)
           for name, make in GROUPS.items()]
    out.append(("heis2", delta_from_magma(
        heisenberg_law(2).to_finite_magma(), 3).delta))
    out.append(("interval", interval_algebra(RingSpec.Z()).delta))
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        out.append((path.name, parsed[0] if kind == "delta"
                    else presentation_complex(parsed).delta))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_packed_columns_equal_packed_dict_columns(p):
    # Bit for bit, on the generator rows and on all rows.
    for name, X in complexes():
        for k in range(3):
            if not X.cells[k + 1]:
                continue
            gen_rows = X.generator_rows(k)
            for rows in [None] if gen_rows is None else [None, gen_rows]:
                width = len(X.faces[k + 1] if rows is None else rows)
                elim = ZpEliminator(p, width)
                want = [elim._pack(col)
                        for col in coboundary_cols_sparse(X, k, p, rows)]
                assert coboundary_cols_packed(X, k, p, rows) == want, \
                    (name, k, rows is None)


def test_packed_columns_refuse_rows_outside_the_cells():
    X = bar_construction(cyclic_group_magma((3,)), 2).delta
    for rows in ([-1], [0, 9], [9]):
        with pytest.raises(InternalError, match="rows outside 0..8"):
            coboundary_cols_packed(X, 1, 3, rows)


@pytest.mark.parametrize("p", [2, 3])
def test_packed_rows_are_width_checked(p):
    elim = ZpEliminator(p, 4)
    wide = 1 << 4 if p == 2 else [1 << 4, 1 << 4, 0]
    negative = -1 if p == 2 else [-1, -1, 0]
    for row in (wide, negative):
        with pytest.raises(InternalError, match="packed row spans"):
            elim.insert(row, tag=0)
    row = 0b101 if p == 2 else [0b101, 0b1, 0b100]
    assert elim.insert(row, tag=0)
    assert row == (0b101 if p == 2 else [0b101, 0b1, 0b100])  # not mutated
    assert elim.insert_relation(row, tag=1) == {0: p - 1, 1: 1}
