"""The 3-cell faces of a magma complex, written from the product table
when read (``cupone.delta._TripleFaces``), against the eager writer they
replaced (``faces_oracle``); which reads write which faces; and the
checks that every read face still passes."""
import pytest

from cupone.delta import (
    _TripleFaces,
    bar_construction,
    coboundary_cols_packed,
    coboundary_cols_sparse,
    cyclic_group_magma,
    delta_from_magma,
    segment_cohomology,
)
from cupone.magma import MagmaLaw
from cupone.rings import InternalError, RingSpec
from faces_oracle import three_cell_faces

GROUPS = ((3,), (4,), (2, 2), (3, 3, 2), (2, 2, 2, 2), (5, 2, 2))


def complexes():
    """(name, MagmaComplex) at dimension 3: bar complexes of the groups
    and the psi complex of Z_3^2."""
    out = [(f"bar{m}", bar_construction(cyclic_group_magma(m), 3))
           for m in GROUPS]
    law = MagmaLaw(["x", "y"], {}, RingSpec.Zp(3))
    out.append(("psi3^2", delta_from_magma(law.to_finite_magma(), 3)))
    return out


def read_all(faces, how):
    n = len(faces)
    if how == "index":
        return [faces[i] for i in range(n)]
    if how == "negative":
        return [faces[i - n] for i in range(n)]
    if how == "slice":
        return faces[:]
    return list(faces)


@pytest.mark.parametrize("how", ["index", "negative", "slice", "iter"])
def test_lazy_faces_equal_the_eager_writer(how):
    # Each read runs on a fresh complex, so it is the one that writes.
    for (name, mc), (_, fresh) in zip(complexes(), complexes()):
        eager = three_cell_faces(mc.magma.prod)
        lazy = fresh.delta.faces[3]
        assert isinstance(lazy, _TripleFaces) and lazy._column is None
        assert len(lazy) == len(eager), name
        assert read_all(lazy, how) == eager, name
        assert lazy == eager and eager == lazy and not lazy != eager
        assert lazy != eager[:-1] and lazy != eager[::-1]
        for cut in (slice(5, 17, 3), slice(None, None, -7), slice(-4, None)):
            assert lazy[cut] == eager[cut], name
        for i in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                lazy[i]


def test_rows_write_the_eager_rows():
    for name, mc in complexes():
        X = mc.delta
        eager = three_cell_faces(mc.magma.prod)
        for rows in (X.generator_rows(2), [0, len(eager) - 1, 7, 7], []):
            assert X.faces[3].rows(rows) == [eager[r] for r in rows], name
        assert X.faces[3]._column is None


@pytest.fixture
def written(monkeypatch):
    """The number of 3-cell faces that lazy faces write."""
    count = [0]
    rows = _TripleFaces.rows

    def counted(self, picks):
        out = rows(self, picks)
        count[0] += len(out)
        return out

    monkeypatch.setattr(_TripleFaces, "rows", counted)
    return count


@pytest.mark.parametrize("p, dims", [(2, (2, 3)), (3, (0, 0)), (5, (1, 1)),
                                     (17, (0, 0))])
def test_gf_p_cohomology_writes_only_the_generator_rows(written, p, dims):
    X = bar_construction(cyclic_group_magma((5, 2, 2)), 3).delta
    ring = RingSpec.Zp(p)
    h = [segment_cohomology(X, ring, k) for k in (1, 2)]
    assert tuple(len(c.generators) for c in h) == dims
    assert written[0] == len(X.generator_rows(2)) == 20 * 20 * 2
    assert X.faces[3]._column is None


def test_bar_construction_writes_no_3_cell_face(written):
    X = bar_construction(cyclic_group_magma((2,) * 5), 3).delta
    assert isinstance(X.faces[3], _TripleFaces)
    assert written[0] == 0 and X.faces[3]._column is None


def corrupted_z4():
    """B(Z/4) at dimension 3 with 0 * 0 set to 1 after it was built: the
    2-cell faces still hold 0 * 0 = 0, the 3-cell faces read 1."""
    mc = bar_construction(cyclic_group_magma((4,)), 3)
    mc.magma.prod[0][0] = 1
    return mc.delta


@pytest.mark.parametrize("cols", [coboundary_cols_packed,
                                  coboundary_cols_sparse])
def test_corrupted_table_fails_when_rows_are_read(cols):
    X = corrupted_z4()
    assert X.generator_rows(2)[0] == 1  # [0|0|1]
    with pytest.raises(InternalError) as err:
        cols(X, 2, 3, X.generator_rows(2))
    assert str(err.value) == ("face identity fails on '[0|0|1]': "
                              "d_1 d_2 != d_1 d_1")


@pytest.mark.parametrize("read", [list, lambda faces: faces[5]])
def test_corrupted_table_fails_on_a_full_read(read):
    X = corrupted_z4()
    with pytest.raises(InternalError) as err:
        read(X.faces[3])
    assert str(err.value) == ("face identity fails on '[0|0|0]': "
                              "d_0 d_2 != d_1 d_0")
    assert X.faces[3]._column is None


def test_rows_outside_the_cells_are_refused():
    X = bar_construction(cyclic_group_magma((3,)), 3).delta
    for cols in (coboundary_cols_packed, coboundary_cols_sparse):
        for rows in ([-1], [0, 27]):
            with pytest.raises(InternalError, match="rows outside 0..26"):
                cols(X, 2, 3, rows)


def test_full_read_shares_the_2_cell_positions():
    # B(Z_2^5) has 32,768 3-cells.  Sharing one int per 2-cell position,
    # a full read peaks at 3.0 MiB (Python 3.11); a fresh int per face
    # position would add about 3.5 MiB.
    import tracemalloc
    X = bar_construction(cyclic_group_magma((2,) * 5), 3).delta
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        X.faces[3][0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20, f"{peak / 2 ** 20:.2f} MiB"
