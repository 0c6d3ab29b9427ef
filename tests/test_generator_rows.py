"""Bar-complex cocycles tested on generator rows.

On the complex of an associative magma generated by S, a k-cochain is a
cocycle once delta^k vanishes on the (k+1)-cells whose last entry lies
in S.  Over GF(p), ``segment_cohomology`` reads ker delta^k from those
rows only; these tests hold its results to the ones all rows give.
"""
import hashlib
import pathlib
import random
from itertools import permutations, product

import pytest

from cupone.delta import (
    FiniteMagma,
    _semigroup_generators,
    bar_construction,
    coboundary_cols_sparse,
    coboundary_matrix,
    cyclic_group_magma,
    delta_from_magma,
    segment_cohomology,
)
from cupone.formats import detect_and_parse
from cupone.linalg import cohomology_sparse_zp, mat_vec
from cupone.magma import MagmaLaw
from cupone.presentation import presentation_complex
from cupone.rings import PreconditionError, RingSpec
from cupone.tensor import TensorElem, cup
from dict_rows_oracle import kernel_mod_p

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def compose(f, g):
    """f after g, for maps given as tuples of images."""
    return tuple(f[x] for x in g)


def symmetric_group_3():
    elems = list(permutations(range(3)))
    return FiniteMagma(elems, compose, unit=(0, 1, 2),
                       name_fn=lambda e: "".join(map(str, e)))


def quaternion_group():
    # (sign, unit) with i j = k, j k = i, k i = j and i^2 = j^2 = k^2 = -1.
    units = {("1", u): (1, u) for u in "1ijk"}
    units.update({(u, "1"): (1, u) for u in "1ijk"})
    for u in "ijk":
        units[(u, u)] = (-1, "1")
    for a, b, c in ("ijk", "jki", "kij"):
        units[(a, b)] = (1, c)
        units[(b, a)] = (-1, c)
    elems = [(s, u) for s in (1, -1) for u in "1ijk"]

    def mul(x, y):
        s, u = units[(x[1], y[1])]
        return (x[0] * y[0] * s, u)

    return FiniteMagma(elems, mul, unit=(1, "1"),
                       name_fn=lambda e: ("-" if e[0] < 0 else "") + e[1])


def transformation_monoid_3():
    elems = list(product(range(3), repeat=3))
    return FiniteMagma(elems, compose, unit=(0, 1, 2),
                       name_fn=lambda e: "".join(map(str, e)))


def max_monoid_4():
    return FiniteMagma(range(4), max, unit=0)


def heisenberg_law(q):
    """mu_tau with tau(y) = -x1 x2 over Z_q: the Heisenberg group mod q."""
    ring = RingSpec.Zp(q)
    tau = {"y": cup(TensorElem.gen(ring, "x1"),
                    TensorElem.gen(ring, "x2")).scale(-1)}
    return MagmaLaw(["x1", "x2", "y"], tau, ring)


def seeded_cocycles(rng, X, data, ring, k, count=3):
    """Random combinations of the generators plus random coboundaries."""
    A = coboundary_matrix(X, k - 1)
    n_low = len(X.cells[k - 1])
    out = []
    for _ in range(count):
        vec = mat_vec(A, [rng.randint(-2, 2) for _ in range(n_low)])
        for _, rep in data.generators:
            c = rng.randint(0, ring.p - 1)
            vec = [x + c * r for x, r in zip(vec, rep)]
        out.append([ring.normalize(x) for x in vec])
    return out


MAGMAS = {
    "Z3": lambda: cyclic_group_magma((3,)),
    "Z4": lambda: cyclic_group_magma((4,)),
    "Z2^4": lambda: cyclic_group_magma((2, 2, 2, 2)),
    "Z3^2xZ2": lambda: cyclic_group_magma((3, 3, 2)),
    "Z5xZ2^2": lambda: cyclic_group_magma((5, 2, 2)),
    "S3": symmetric_group_3,
    "Q8": quaternion_group,
    "T3": transformation_monoid_3,
    "max4": max_monoid_4,
}


def test_bar_cohomology_mod_p_frozen():
    # H^1, H^2 generators and the class coordinates of seeded cocycles on
    # B(Z_2^4), B(Z_3^2 x Z_2), B(Z_5 x Z_2^2) and B(S_3), byte for byte.
    rng = random.Random(1701)
    h = hashlib.sha256()
    for name, p in [("Z2^4", 2), ("Z3^2xZ2", 3), ("Z5xZ2^2", 5), ("S3", 2),
                    ("S3", 3)]:
        X = bar_construction(MAGMAS[name](), 3).delta
        ring = RingSpec.Zp(p)
        for k in (1, 2):
            data = segment_cohomology(X, ring, k)
            h.update(repr((name, p, k, data.generators)).encode())
            for vec in seeded_cocycles(rng, X, data, ring, k):
                h.update(repr(data.class_coords(vec)).encode())
    assert h.hexdigest() == \
        "4deebc24b952efafde5dc3672c56f860463d3693d4ed0526cd2c7285b8a9b440"


def z_digest_complexes():
    """The 13 fixtures and B(Z/3), B(Z/4), B(Z_2^2), B(Z_3^2) up to
    3-cells, by name."""
    out = []
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        out.append((path.name, parsed[0] if kind == "delta"
                    else presentation_complex(parsed).delta))
    for mods in ((3,), (4,), (2, 2), (3, 3)):
        out.append((mods, bar_construction(cyclic_group_magma(mods), 3).delta))
    return out


def test_cohomology_Z_frozen():
    # H^0, H^1, H^2 over Z, each read off a Smith factor: invariants,
    # generators, the class coordinates of seeded cocycles and the
    # preimages of seeded coboundaries, byte for byte.
    rng = random.Random(2901)
    h = hashlib.sha256()
    ring = RingSpec.Z()
    for name, X in z_digest_complexes():
        for k in (0, 1, 2):
            if not X.cells[k]:
                continue
            data = segment_cohomology(X, ring, k)
            h.update(repr((name, k, data.invariants,
                           data.generators)).encode())
            n_low = len(X.cells[k - 1]) if k else 0
            A = coboundary_matrix(X, k - 1) if k else []
            for _ in range(3):
                x = [rng.randint(-2, 2) for _ in range(n_low)]
                cob = mat_vec(A, x) if k else [0] * len(X.cells[k])
                h.update(repr(data.preimage(cob)).encode())
                vec = cob
                for _, rep in data.generators:
                    c = rng.randint(-2, 2)
                    vec = [a + c * r for a, r in zip(vec, rep)]
                h.update(repr(data.class_coords(vec)).encode())
    assert h.hexdigest() == \
        "3ad10dc04dd6e2b3ece5b34df53f2a396b1d03024cc49fd04edce896e34cabeb"


def all_rows_cohomology(X, ring, k):
    p = ring.p
    return cohomology_sparse_zp(ring, len(X.cells[k]),
                                coboundary_cols_sparse(X, k - 1, p),
                                coboundary_cols_sparse(X, k, p))


def assert_rows_agree(X, p):
    ring = RingSpec.Zp(p)
    rng = random.Random(p)
    for k in (1, 2):
        full = coboundary_cols_sparse(X, k, p)
        rows = X.generator_rows(k)
        if rows is None:
            part, width = full, len(X.cells[k + 1])
        else:
            part, width = coboundary_cols_sparse(X, k, p, rows), len(rows)
            # The same columns, restricted to the rows and renumbered.
            at = {r: i for i, r in enumerate(rows)}
            assert part == [{at[r]: x for r, x in col.items() if r in at}
                            for col in full]
        assert kernel_mod_p(p, part, width) == \
            kernel_mod_p(p, full, len(X.cells[k + 1]))
        data = segment_cohomology(X, ring, k)
        ref = all_rows_cohomology(X, ring, k)
        assert data.generators == ref.generators
        for vec in seeded_cocycles(rng, X, ref, ring, k):
            assert data.class_coords(vec) == ref.class_coords(vec)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
@pytest.mark.parametrize("name", list(MAGMAS))
def test_generator_rows_match_all_rows_on_bar_complexes(name, p):
    magma = MAGMAS[name]()
    X = bar_construction(magma, 3).delta
    n = len(magma)
    gens = X.last_generators
    assert gens and len(X.generator_rows(2)) == n * n * len(gens)
    assert_rows_agree(X, p)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_generator_rows_match_all_rows_on_a_magma_law(p):
    X = delta_from_magma(heisenberg_law(2).to_finite_magma(), 3).delta
    assert len(X.generator_rows(2)) < len(X.cells[3])
    assert_rows_agree(X, p)


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_delta_fixture_keeps_all_rows(p):
    _, parsed = detect_and_parse((FIXTURES / "bar_z2.delta").read_text(),
                                 "bar_z2.delta")
    X = parsed[0]
    assert X.last_generators is None
    assert all(X.generator_rows(k) is None for k in range(3))
    assert_rows_agree(X, p)


# (x y) z != x (y z) at (0, 0, 0): 1 * 0 = 0 but 0 * 1 = 1.
NON_ASSOCIATIVE = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0}


def test_non_associative_magma_keeps_all_rows():
    m = FiniteMagma([0, 1], NON_ASSOCIATIVE)
    assert m.associativity_counterexample() == (0, 0, 0)
    X = delta_from_magma(m, 2).delta
    assert X.last_generators is None and X.generator_rows(1) is None
    # Why: 0 alone generates, but on the rows [a|0] delta^1 has a kernel
    # that all rows do not, so H^1 would come out wrong.
    assert _semigroup_generators([[1, 1], [0, 0]], None) == [0]
    X.last_generators = [0]
    rows = X.generator_rows(1)
    assert rows == [0, 2]
    assert kernel_mod_p(2, coboundary_cols_sparse(X, 1, 2), 4) == []
    assert len(kernel_mod_p(2, coboundary_cols_sparse(X, 1, 2, rows),
                            len(rows))) == 1


def test_monoid_generators_need_the_unit_last():
    # A finite group never picks its unit; max on {0..3} must.
    assert bar_construction(cyclic_group_magma((6,)), 2).delta \
        .last_generators == [1]
    assert bar_construction(max_monoid_4(), 2).delta \
        .last_generators == [0, 1, 2, 3]


def test_non_associative_magma_refused_at_dimension_3():
    m = FiniteMagma([0, 1], NON_ASSOCIATIVE)
    with pytest.raises(PreconditionError,
                       match="dimension 3 requires an associative magma"):
        delta_from_magma(m, 3)


def test_bar_construction_refuses_a_non_monoid():
    m = FiniteMagma([0, 1], NON_ASSOCIATIVE, unit=0)
    with pytest.raises(PreconditionError, match="requires a finite monoid"):
        bar_construction(m, 2)
