import hashlib
import os
import pathlib
import random
import subprocess
import sys

import pytest

from cupone import linalg
from cupone.delta import coboundary_matrix, segment_at
from cupone.formats import detect_and_parse
from cupone.linalg import (
    AbelianInvariants,
    ComplexSegment,
    ZpEliminator,
    cohomology_at,
    cohomology_sparse_zp,
    identity,
    kernel_basis_Z,
    kernel_into_presented,
    kernel_mod_p,
    lattice_basis,
    mat_mul,
    mat_vec,
    rank_over_Q,
    smith_normal_form,
    solve_in_image,
    solve_Z,
)
from cupone.presentation import presentation_complex
from cupone.rings import RingSpec

Z = RingSpec.Z()
Z5 = RingSpec.Zp(5)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def random_matrix(rng, r, c, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def factor(m, c):
    return smith_normal_form(m, c, want_u=True, want_v=True)


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


def test_snf_transforms_frozen():
    # Generators and class coordinates are read off U, V and Uinv, so the
    # exact transforms, not only D, are part of every report; this digest
    # pins every entry of them.
    rng = random.Random(31)
    h = hashlib.sha256()
    for _ in range(100):
        r, c, lo = rng.randint(2, 9), rng.randint(2, 9), rng.choice((1, 2, 9))
        m = [[rng.randint(-lo, lo) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(m, c, want_u=True, want_v=True,
                                want_uinv=True, want_vinv=True,
                                carry=[[1] * r])
        h.update(repr((snf.diag, snf.U, snf.V, snf.Uinv, snf.Vinv,
                       snf.carry)).encode())
    assert h.hexdigest() == \
        "83c900ef7e63db53c79d11936de9b4c4c9e17b282b559928ad4509f207d6c4fe"


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
    assert solve_Z(factor([[2]], 1), [4]) == [2]
    assert solve_Z(factor([[2]], 1), [3]) is None
    assert solve_in_image([[2]], [3], 1, Z5).solution == [4]


def test_solve_random():
    rng = random.Random(2)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, r, c)
        x0 = [rng.randint(-4, 4) for _ in range(c)]
        b = mat_vec(m, x0)
        x = solve_Z(factor(m, c), b)
        assert x is not None
        assert mat_vec(m, x) == b


def fixture_complexes():
    out = []
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        out.append(parsed[0] if kind == "delta"
                   else presentation_complex(parsed).delta)
    return out


def random_test_matrices(rng):
    """Seeded integer matrices: generic, torsion, rank-deficient, and with a
    zero row and a zero column."""
    out = []
    for _ in range(20):
        out.append(random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7)))
    for _ in range(10):
        m = random_matrix(rng, rng.randint(2, 6), rng.randint(2, 6), -2, 2)
        out.append([[rng.choice((2, 3, 4)) * x for x in row] for row in m])
    for _ in range(10):
        r, c, k = rng.randint(2, 7), rng.randint(2, 7), rng.randint(1, 2)
        out.append(mat_mul(random_matrix(rng, r, k, -3, 3),
                           random_matrix(rng, k, c, -3, 3)))
    for _ in range(10):
        r, c = rng.randint(2, 6), rng.randint(2, 6)
        m = random_matrix(rng, r, c)
        m[rng.randrange(r)] = [0] * c
        j = rng.randrange(c)
        for row in m:
            row[j] = 0
        out.append(m)
    return out


def one_shot_solve(m, b, ncols):
    """Reference solve: a fresh SNF per right-hand side, carrying b
    through the elimination, then dense V."""
    snf = smith_normal_form(m, ncols, want_v=True, carry=[b])
    c = snf.carry[0]
    y = [0] * ncols
    for i, d in enumerate(snf.diag):
        q, r = divmod(c[i], d)
        if r:
            return None
        y[i] = q
    if any(c[snf.rank:]):
        return None
    return [sum(row[j] * y[j] for j in range(ncols)) for row in snf.V]


def test_smith_factor_matches_one_shot_solve():
    rng = random.Random(2024)
    mats = [(m, len(m[0])) for m in random_test_matrices(rng)]
    for X in fixture_complexes():
        for k in (0, 1):
            mats.append((coboundary_matrix(X, k), len(X.cells[k])))
    for m, c in mats:
        fac = factor(m, c)
        assert fac.rank == rank_over_Q(m)
        inside = [mat_vec(m, [rng.randint(-3, 3) for _ in range(c)])
                  for _ in range(3)]
        anywhere = [[rng.randint(-3, 3) for _ in m] for _ in range(3)]
        for b in inside + anywhere:
            x = solve_Z(fac, b)
            assert x == one_shot_solve(m, b, c)
            if b in inside:
                assert x is not None
            if x is not None:
                assert mat_vec(m, x) == b


def dense_cohomology(seg):
    """Reference generators and class coordinates: dense U and V
    throughout, the identity kernel basis factored too."""
    def dense_mat_vec(mat, v):
        return [sum(r[j] * v[j] for j in range(len(v))) for r in mat]

    nm, nl = len(seg.mid), len(seg.lower)
    K = kernel_basis_Z(seg.B, nm) if seg.upper else identity(nm)
    k = len(K)
    ksnf = smith_normal_form([[K[j][i] for j in range(k)] for i in range(nm)],
                             k, want_u=True, want_v=True)

    def in_kernel(vec):
        c = dense_mat_vec(ksnf.U, vec)
        assert not any(c[k:])
        return dense_mat_vec(ksnf.V, c[:k])

    cols = [in_kernel([seg.A[i][j] for i in range(nm)]) for j in range(nl)]
    csnf = smith_normal_form([[cols[j][i] for j in range(nl)]
                              for i in range(k)], nl,
                             want_u=True, want_uinv=True)
    slots = [(i, d) for i, d in enumerate(csnf.diag) if d > 1]
    slots += [(i, 0) for i in range(csnf.rank, k)]
    gens = [(d, [sum(K[j][r] * csnf.Uinv[j][i] for j in range(k))
                 for r in range(nm)]) for i, d in slots]

    def coords(vec):
        c = dense_mat_vec(csnf.U, in_kernel(vec))
        return [c[i] % d if d else c[i] for i, d in slots]

    return gens, coords


def random_segment(rng):
    mid, low, up = rng.randint(1, 6), rng.randint(0, 4), rng.randint(0, 4)
    B = random_matrix(rng, up, mid, -3, 3) if up else []
    kb = kernel_basis_Z(B, mid) if up else identity(mid)
    cols = []
    for _ in range(low):  # columns in ker B, some scaled for torsion
        v = [0] * mid
        for kvec in kb:
            c = rng.randint(-2, 2)
            v = [a + c * b for a, b in zip(v, kvec)]
        scale = rng.choice((1, 2, 3))
        cols.append([scale * x for x in v])
    A = [[cols[j][i] for j in range(low)] for i in range(mid)]
    return ComplexSegment(Z, list(range(low)), list(range(mid)),
                          list(range(up)), A, B)


def test_class_coords_match_dense_computation():
    rng = random.Random(77)
    segs = [random_segment(rng) for _ in range(30)]
    segs += [segment_at(X, Z, k) for X in fixture_complexes()
             for k in (0, 1, 2)]
    for seg in segs:
        data = cohomology_at(seg)
        gens, coords = dense_cohomology(seg)
        assert data.generators == gens
        nm, nl = len(seg.mid), len(seg.lower)
        for _ in range(4):
            # a random cocycle: generators plus a coboundary
            vec = mat_vec(seg.A, [rng.randint(-3, 3) for _ in range(nl)]) \
                if nl else [0] * nm
            for _, rep in gens:
                c = rng.randint(-3, 3)
                vec = [a + c * b for a, b in zip(vec, rep)]
            assert data.class_coords(vec) == coords(vec)


def test_internal_checks_survive_optimize():
    # python -O strips assert statements; the unimodular-kernel check of
    # the Z cohomology and the n!-divisibility check of binom_of must
    # still raise.
    script = (
        "from cupone import linalg, rings\n"
        "from cupone.rings import RingSpec\n"
        "basis = linalg.kernel_basis_Z\n"
        "linalg.kernel_basis_Z = lambda rows, n: "
        "[[2 * x for x in v] for v in basis(rows, n)]\n"
        "seg = linalg.ComplexSegment(RingSpec.Z(), [], ['a', 'b'], ['c'], "
        "[], [[1, 1]])\n"
        "rings.factorial = lambda n: 7\n"
        "print('debug', __debug__)\n"
        "for check in (lambda: linalg.cohomology_at(seg),\n"
        "              lambda: rings.binom_of(5, 2)):\n"
        "    try:\n"
        "        check()\n"
        "    except ArithmeticError as e:\n"
        "        print('ArithmeticError:', e)\n")
    src = pathlib.Path(linalg.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    r = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "debug False"
    assert lines[1].startswith("ArithmeticError: kernel basis")
    assert lines[2] == ("ArithmeticError: falling factorial must be "
                        "divisible by n!")


def coker(m, nrows, ncols):
    return AbelianInvariants.from_coker(smith_normal_form(m, ncols).diag,
                                        nrows)


def test_snf_kernel_and_cokernel_frozen():
    assert smith_normal_form([[3]], 1, want_v=True).kernel() == []
    assert coker([[3]], 1, 1) == AbelianInvariants(0, (3,))
    assert coker([[2, 0], [0, 2]], 2, 2) == AbelianInvariants(0, (2, 2))
    kernel = smith_normal_form([[1, 2]], 2, want_v=True).kernel()
    assert len(kernel) == 1
    assert mat_vec([[1, 2]], kernel[0]) == [0]


def test_cokernel_stable_under_permutation():
    rng = random.Random(4)
    for _ in range(10):
        m = random_matrix(rng, 4, 3)
        base = coker(m, 4, 3)
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(3))
        rng.shuffle(cols)
        shuffled = [[row[j] for j in cols] for row in rows]
        assert coker(shuffled, 4, 3) == base


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
            rels = [e.insert_relation(vec, tag) for e in elims]
            assert rels[0] == rels[1]
            assert len({e.rank for e in elims}) == 1
            if rels[0] is not None:
                # vec (coefficient 1, under its tag) + sum c_t vecs[t] lies
                # in the span of the untagged vectors.
                rel = dict(rels[0])
                if tag is not None:
                    assert rel.pop(tag) == 1
                residual = {j: x % p for j, x in vec.items()}
                for t, c in rel.items():
                    for j, x in vecs[t].items():
                        residual[j] = (residual.get(j, 0) + c * x) % p
                assert untagged.express(residual) == {}
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


def rank_mod_p(rows, p):
    """Rank over GF(p) by dense Gaussian elimination (test oracle)."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        hit = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if hit is None:
            continue
        rows[rank], rows[hit] = rows[hit], rows[rank]
        inv = pow(rows[rank][j], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("packed", [False, True])
def test_kernel_mod_p_relations(packed, monkeypatch):
    made = []

    class Recording(ZpEliminator):
        def __init__(self, *shape):
            super().__init__(*shape)
            made.append(self)

    monkeypatch.setattr(linalg, "ZpEliminator", Recording)
    if not packed:
        monkeypatch.setattr(linalg, "PACK_LIMIT_BYTES", 0)
    rng = random.Random(5100 + packed)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7, 13))
        ncols, width = rng.randint(1, 14), rng.randint(1, 12)
        cols = random_sparse_vectors(rng, p, ncols, width)
        made.clear()
        ker = kernel_mod_p(p, cols, width)
        assert made[0].packed == packed
        for rel in ker:
            j = max(rel)  # the dependent column, after the earlier ones
            assert rel[j] == 1
            assert all(0 < c < p for c in rel.values())
            for i in range(width):
                assert sum(c * cols[t].get(i, 0)
                           for t, c in rel.items()) % p == 0
        assert len({max(rel) for rel in ker}) == len(ker)
        dense = [[cols[t].get(i, 0) for t in range(ncols)]
                 for i in range(width)]
        assert len(ker) == ncols - rank_mod_p(dense, p)


@pytest.mark.parametrize("ring", [Z, RingSpec.Zp(2), RingSpec.Zp(3)],
                         ids=str)
def test_preimage_matches_fresh_factor(ring):
    # preimage reads the factor of im delta^{k-1} that H^k builds; a fresh
    # Smith normal form (over Z) or tagged eliminator (over GF(p)) of the
    # same coboundary must agree on solvability, and every returned x
    # must solve delta^{k-1} x = v exactly.
    from cupone.delta import segment_cohomology
    rng = random.Random(41)
    p = ring.p
    for X in fixture_complexes():
        for k in (1, 2):
            A = coboundary_matrix(X, k - 1)
            nl, nm = len(X.cells[k - 1]), len(X.cells[k])
            data = segment_cohomology(X, ring, k)
            if p is None:
                snf = smith_normal_form(A, nl, want_u=True, want_v=True)
                fresh = lambda v: snf.solve(v).ok
            else:
                elim = ZpEliminator(p, nl, nm)
                for j in range(nl):
                    elim.insert({i: row[j] for i, row in enumerate(A)
                                 if row[j] % p}, tag=j)
                fresh = lambda v: elim.express(
                    {i: x for i, x in enumerate(v) if x % p}) is not None
            vecs = [mat_vec(A, [rng.randint(-3, 3) for _ in range(nl)])
                    for _ in range(4)]
            vecs += [[rng.randint(-2, 2) for _ in range(nm)]
                     for _ in range(4)]
            # cocycles outside the image, and multiples that fall into it
            for order, rep in data.generators:
                vecs.append(rep)
                vecs.append([(order or 2) * x for x in rep])
            for v in vecs:
                x = data.preimage(v)
                assert (x is not None) == fresh(v)
                if x is not None:
                    assert len(x) == nl
                    assert all(ring.normalize(a - b) == 0
                               for a, b in zip(mat_vec(A, x), v))
