import random

import pytest

from cupone import linalg
from cupone.linalg import (
    AbelianInvariants,
    ComplexSegment,
    ZpEliminator,
    cohomology_at,
    cohomology_sparse_zp,
    identity,
    kernel_basis_Z,
    kernel_into_presented,
    lattice_basis,
    map_analysis,
    mat_mul,
    mat_vec,
    rank_over_Q,
    smith_normal_form,
    solve_Z,
    solve_mod_p,
)
from cupone.rings import RingSpec

Z = RingSpec.Z()
Z5 = RingSpec.Zp(5)


def random_matrix(rng, r, c, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def is_unimodular(m):
    snf = smith_normal_form(m, len(m))
    return snf.rank == len(m) and all(d == 1 for d in snf.diag)


def test_snf_frozen_cases():
    assert smith_normal_form([[2, 0], [0, 3]], 2).diag == [1, 6]
    assert smith_normal_form([[4, 0], [0, 4]], 2).diag == [4, 4]
    assert smith_normal_form([[0, 0], [0, 0]], 2).diag == []


def test_snf_transforms_exact():
    rng = random.Random(42)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, r, c)
        snf = smith_normal_form(m, c, want_u=True, want_v=True,
                                want_uinv=True, want_vinv=True)
        d = mat_mul(mat_mul(snf.U, m), snf.V)
        for i in range(r):
            for j in range(c):
                expect = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert d[i][j] == expect
        assert is_unimodular(snf.U)
        assert is_unimodular(snf.V)
        assert mat_mul(snf.U, snf.Uinv) == identity(r)
        assert mat_mul(snf.V, snf.Vinv) == identity(c)


def test_snf_divisibility_chain():
    rng = random.Random(9)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(2, 5), rng.randint(2, 5), -9, 9)
        diag = smith_normal_form(m, len(m[0])).diag
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0


def test_kernel_basis():
    rng = random.Random(1)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        m = random_matrix(rng, r, c)
        for v in kernel_basis_Z(m, c):
            assert all(x == 0 for x in mat_vec(m, v))
        rank = smith_normal_form(m, c).rank
        assert len(kernel_basis_Z(m, c)) == c - rank
        assert rank == rank_over_Q(m)


def test_solve_in_image_frozen():
    assert solve_Z([[2]], [4], 1) == [2]
    assert solve_Z([[2]], [3], 1) is None
    assert solve_mod_p([{0: 2}], {0: 3}, 5) == [4]


def test_solve_random():
    rng = random.Random(2)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        x0 = [rng.randint(-4, 4) for _ in range(c)]
        b = mat_vec(m, x0)
        x = solve_Z(m, b, c)
        assert x is not None
        assert mat_vec(m, x) == b


def test_map_analysis_frozen():
    ma = map_analysis([[3]], 1, 1)
    assert ma.kernel == []
    assert ma.cokernel == AbelianInvariants(0, (3,))
    ma = map_analysis([[2, 0], [0, 2]], 2, 2)
    assert ma.cokernel == AbelianInvariants(0, (2, 2))
    ma = map_analysis([[1, 2]], 1, 2)
    assert len(ma.kernel) == 1
    assert mat_vec([[1, 2]], ma.kernel[0]) == [0]


def test_cokernel_stable_under_permutation():
    rng = random.Random(4)
    for _ in range(10):
        m = random_matrix(rng, 4, 3)
        base = map_analysis(m, 4, 3).cokernel
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(3))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert map_analysis(shuffled, 4, 3).cokernel == base


def test_lattice_basis_and_presented_kernel():
    # Kernel of Z^2 -> Z/4 x Z, v |-> (v1 + 2 v2 mod 4, 0).
    img = [[1, 0], [2, 0]]
    rel = [[4, 0]]
    basis = kernel_into_presented(img, rel, 2)
    got = sorted(tuple(v) for v in basis)
    # Lattice {(a, b): a + 2b = 0 mod 4} has index 4 in Z^2.
    lat = lattice_basis(basis, 2)
    dets = smith_normal_form([[v[i] for v in lat] for i in range(2)], 2).diag
    assert dets[0] * dets[1] == 4
    for v in got:
        assert (v[0] + 2 * v[1]) % 4 == 0


def test_abelian_invariants_render():
    assert AbelianInvariants(0, ()).render() == "0"
    assert AbelianInvariants(1, ()).render() == "Z"
    assert AbelianInvariants(2, (2, 2)).render() == "Z^2 + Z/2 + Z/2"
    assert AbelianInvariants(0, (3,)).to_json() == {"rank": 0, "torsion": [3]}


def circle_segment():
    # One vertex, one edge: 0 -> Z -> Z -> 0 with zero maps.
    return ComplexSegment(Z, ["v"], ["e"], [], [[0]], [])


def test_cohomology_circle():
    data = cohomology_at(circle_segment())
    assert data.invariants == AbelianInvariants(1, ())
    assert data.generators[0][0] == 0
    assert data.class_coords([3]) == [3]


def test_cohomology_torsion():
    # <g | g^k>: relator matrix [k] in degree 2.
    for k in (2, 6):
        seg = ComplexSegment(Z, ["e"], ["r"], [], [[k]], [])
        data = cohomology_at(seg)
        assert data.invariants == AbelianInvariants(0, (k,))
        assert data.class_coords([1]) == [1]
        assert data.class_coords([k]) == [0]


def test_cohomology_with_upper_term():
    # Z^2 --B--> Z with B = [1, 1]; A = 0. Kernel is rank 1.
    seg = ComplexSegment(Z, [], ["a", "b"], ["c"], [], [[1, 1]])
    data = cohomology_at(seg)
    assert data.invariants == AbelianInvariants(1, ())
    rep = data.generators[0][1]
    assert rep[0] + rep[1] == 0
    with pytest.raises(ValueError):
        data.class_coords([1, 0])


def test_cohomology_random_consistency():
    # ker B / im A invariants: free rank matches rank computations over Q.
    rng = random.Random(6)
    for _ in range(15):
        mid = rng.randint(1, 5)
        low = rng.randint(0, 4)
        up = rng.randint(0, 4)
        B = random_matrix(rng, up, mid) if up else []
        # Build A with columns inside ker B.
        kb = kernel_basis_Z(B, mid) if up else identity(mid)
        cols = []
        for _ in range(low):
            v = [0] * mid
            for kvec in kb:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, kvec)]
            cols.append(v)
        A = [[cols[j][i] for j in range(low)] for i in range(mid)]
        seg = ComplexSegment(Z, list(range(low)), list(range(mid)),
                             list(range(up)), A, B)
        data = cohomology_at(seg)
        dim_ker = mid - (rank_over_Q(B) if up else 0)
        rank_im = rank_over_Q([list(r) for r in A]) if low and mid else 0
        assert data.invariants.rank == dim_ker - rank_im
        # Every generator is a cocycle with the advertised coordinates.
        for gi, (order, rep) in enumerate(data.generators):
            coords = data.class_coords(rep)
            assert coords[gi] == 1 % (order if order else 10**9)
            if up:
                assert all(x == 0 for x in mat_vec(B, rep))


def make_eliminator(p, vectors, width, packed, monkeypatch):
    """A ZpEliminator in the requested row format (dict rows by a zero
    packing limit)."""
    if not packed:
        monkeypatch.setattr(linalg, "PACK_LIMIT_BYTES", 0)
    elim = ZpEliminator(p, vectors, width)
    monkeypatch.undo()
    assert elim.packed == packed
    return elim


def test_zp_eliminator_express(monkeypatch):
    for packed in (False, True):
        elim = make_eliminator(5, 2, 4, packed, monkeypatch)
        elim.insert({0: 1, 1: 2}, tag="a")
        elim.insert({1: 1, 2: 1}, tag="b")
        combo = elim.express({0: 2, 1: 4, 2: 0})
        assert combo == {"a": 2}
        combo = elim.express({0: 1, 1: 3, 2: 1})
        assert combo == {"a": 1, "b": 1}
        # (0, 0, 1) = a (1, 2, 0) + b (0, 1, 1) needs a = 0, b = 0, b = 1.
        assert elim.express({2: 1}) is None
        assert elim.express({0: 0, 3: 1}) is None


def random_sparse_vectors(rng, p, count, width):
    density = rng.choice([0.05, 0.2, 0.6])
    vecs = []
    for _ in range(count):
        if vecs and rng.random() < 0.3:
            # A combination of earlier vectors, so some inserts are useless.
            vec: dict = {}
            for src in rng.sample(vecs, min(len(vecs), 3)):
                c = rng.randrange(p)
                for j, x in src.items():
                    vec[j] = vec.get(j, 0) + c * x
        else:
            vec = {j: rng.randrange(-p, 2 * p) for j in range(width)
                   if rng.random() < density}
        vecs.append(vec)
    return vecs


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_zp_eliminator_formats_agree(p, monkeypatch):
    rng = random.Random(4000 + p)
    for _ in range(40):
        count, width = rng.randint(1, 14), rng.randint(1, 40)
        vecs = random_sparse_vectors(rng, p, count, width)
        tags = [i if rng.random() < 0.7 else None for i in range(count)]
        elims = [make_eliminator(p, count, width, packed, monkeypatch)
                 for packed in (False, p < 17)]
        untagged = make_eliminator(p, count, width, False, monkeypatch)
        for vec, tag in zip(vecs, tags):
            assert len({e.insert(vec, tag) for e in elims}) == 1
            assert len({e.rank for e in elims}) == 1
            if tag is None:
                untagged.insert(vec)
        queries = random_sparse_vectors(rng, p, 10, width)
        queries += vecs
        for q in queries:
            combo, other = (e.express(q) for e in elims)
            assert combo == other
            if combo is None:
                continue
            # q = sum c_t vecs[t] modulo the span of the untagged vectors.
            residual = {j: x % p for j, x in q.items()}
            for t, c in combo.items():
                for j, x in vecs[t].items():
                    residual[j] = (residual.get(j, 0) - c * x) % p
            assert untagged.express(residual) == {}


def test_zp_eliminator_pack_rule():
    # 16 MiB of fields: 1 bit each for p = 2, one byte for 3 <= p <= 13.
    assert ZpEliminator(2, 16384, 8192).packed
    assert not ZpEliminator(2, 16384, 8193).packed
    assert ZpEliminator(3, 2048, 8192).packed
    assert not ZpEliminator(3, 2048, 8193).packed
    assert ZpEliminator(13, 1, 1).packed
    assert not ZpEliminator(17, 1, 1).packed
    # H^2(B(Z_3^3); Z_3): 729 cochains, 19683 upper cells.
    assert ZpEliminator(3, 729, 19683).packed


def test_packed_rows_reject_negative_columns():
    # A negative index would wrap around the packing buffer silently.
    for p in (2, 3):
        elim = ZpEliminator(p, 2, 4)
        with pytest.raises(ValueError):
            elim.insert({-1: 1, 2: 1})


@pytest.mark.parametrize("p", [2, 3])
def test_cohomology_sparse_zp_on_each_side_of_pack_rule(p, monkeypatch):
    rng = random.Random(70 + p)
    ring = RingSpec.Zp(p)
    mid, up, low = 24, 16, 6
    B = [[rng.choice([0, 0, 1, p - 1]) for _ in range(mid)]
         for _ in range(up - 1)]
    B.append([1] * mid)  # a nonzero last row: the eliminator is up wide
    kb = ZpEliminator(p, mid, up)
    basis = []
    for j in range(mid):  # kernel of B from dependent columns
        col = {i: B[i][j] for i in range(up) if B[i][j] % p}
        combo = kb.express(col)
        if combo is None:
            kb.insert(col, tag=j)
        else:
            vec = {j: 1}
            vec.update({t: -c for t, c in combo.items()})
            basis.append(vec)
    b_cols = [{i: B[i][j] for i in range(up) if B[i][j]} for j in range(mid)]
    a_cols = []
    for _ in range(low):
        col: dict = {}
        for vec in rng.sample(basis, min(2, len(basis))):
            for i, x in vec.items():
                col[i] = (col.get(i, 0) + x) % p
        a_cols.append(col)

    made = []

    class Recording(ZpEliminator):
        def __init__(self, *shape):
            super().__init__(*shape)
            made.append(self)

    monkeypatch.setattr(linalg, "ZpEliminator", Recording)
    dense_bytes = mid * up * (1 if p == 2 else 8) // 8
    results = []
    for limit, packed in ((dense_bytes, True), (dense_bytes - 1, False)):
        monkeypatch.setattr(linalg, "PACK_LIMIT_BYTES", limit)
        made.clear()
        data = cohomology_sparse_zp(ring, mid, a_cols, b_cols)
        assert made[0].packed == packed
        sums = [[sum(c * rep[i] for c, (_, rep) in
                     zip(coeffs, data.generators)) for i in range(mid)]
                for coeffs in ([1] * len(data.generators),
                               list(range(len(data.generators))))]
        results.append((data.generators, [data.class_coords(v) for v in sums]))
    assert results[0] == results[1]
    n = len(results[0][0])
    assert results[0][1] == [[1] * n, [i % p for i in range(n)]]
    image = ZpEliminator(p, low, mid)
    for col in a_cols:
        image.insert(col)
    assert n == len(basis) - image.rank > 0


def test_cohomology_zp():
    ring = RingSpec.Zp(5)
    # Z5^2 --B--> Z5, B = [1, 1]; A = column (2, 3) with B*A = 0.
    seg = ComplexSegment(ring, ["f"], ["a", "b"], ["c"], [[2], [3]], [[1, 1]])
    data = cohomology_at(seg)
    assert data.invariants.rank == 0
    assert data.invariants.torsion == ()
    seg2 = ComplexSegment(ring, [], ["a", "b"], ["c"], [], [[1, 1]])
    data2 = cohomology_at(seg2)
    assert data2.invariants.torsion == (5,)
    rep = data2.generators[0][1]
    assert (rep[0] + rep[1]) % 5 == 0
    assert data2.class_coords([r * 2 for r in rep]) == [2]


def test_cohomology_mod_p_dimension_oracle():
    # dim H over Z_p equals dim ker - rank im computed independently.
    rng = random.Random(13)
    p = 5
    ring = RingSpec.Zp(p)
    for _ in range(10):
        mid = rng.randint(1, 5)
        up = rng.randint(0, 4)
        low = rng.randint(0, 4)
        B = random_matrix(rng, up, mid) if up else []
        kb = kernel_basis_Z(B, mid) if up else identity(mid)
        cols = []
        for _ in range(low):
            v = [0] * mid
            for kvec in kb:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, kvec)]
            cols.append(v)
        A = [[cols[j][i] for j in range(low)] for i in range(mid)]
        seg = ComplexSegment(ring, list(range(low)), list(range(mid)),
                             list(range(up)), A, B)
        data = cohomology_at(seg)
        elim_b = ZpEliminator(p, up, mid)
        for row in (B or []):
            elim_b.insert({j: v % p for j, v in enumerate(row) if v % p})
        dim_ker = mid - elim_b.rank
        elim_a = ZpEliminator(p, low, mid)
        for col in cols:
            elim_a.insert({i: v % p for i, v in enumerate(col) if v % p})
        assert len(data.generators) == dim_ker - elim_a.rank


def test_solve_in_image_certificates():
    from cupone.linalg import solve_in_image
    res = solve_in_image([[2]], [4], 1)
    assert res.ok and res.solution == [2]
    res = solve_in_image([[2]], [3], 1)
    assert not res.ok
    assert res.certificate == {"index": 0, "divisor": 2, "residue": 1}
    res = solve_in_image([[2]], [3], 1, RingSpec.Zp(5))
    assert res.ok and res.solution == [4]
    # unsolvable beyond the rank: b outside the column space
    res = solve_in_image([[1], [0]], [0, 5], 1)
    assert not res.ok and res.certificate["divisor"] == 0
