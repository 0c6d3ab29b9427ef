import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

from cupone import linalg
from cupone.delta import coboundary_matrix
from cupone.formats import detect_and_parse
from cupone.linalg import (
    AbelianInvariants,
    ClassSpan,
    ZpEliminator,
    cohomology_at,
    cohomology_sparse_zp,
    identity,
    lattice_basis,
    mat_mul,
    mat_vec,
    smith_normal_form,
    solve_in_image,
    solve_Z,
)
from cupone.presentation import presentation_complex
from cupone.rings import InternalError, PreconditionError, RingSpec
from dict_rows_oracle import DictRowsOracle, kernel_mod_p
from q_oracle import rank_over_Q
from snf_dense import dense

Z = RingSpec.Z()
Z5 = RingSpec.Zp(5)
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def random_matrix(rng, r, c, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)]


def factor(m, c):
    return smith_normal_form(m, c)


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
        snf = smith_normal_form(m, c)
        U, V, Uinv, Vinv = dense(snf)
        d = mat_mul(mat_mul(U, m), V)
        for i in range(r):
            for j in range(c):
                expect = snf.diag[i] if i == j and i < len(snf.diag) else 0
                assert d[i][j] == expect
        assert is_unimodular(U)
        assert is_unimodular(V)
        assert mat_mul(U, Uinv) == identity(r)
        assert mat_mul(V, Vinv) == identity(c)


def test_snf_transforms_frozen():
    # Generators and class coordinates are read off U, V and Uinv, so the
    # exact transforms, not only D, are part of every report; this digest
    # pins every entry of them.
    rng = random.Random(31)
    h = hashlib.sha256()
    for _ in range(100):
        r, c, lo = rng.randint(2, 9), rng.randint(2, 9), rng.choice((1, 2, 9))
        m = [[rng.randint(-lo, lo) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(m, c)
        U, V, Uinv, Vinv = dense(snf)
        h.update(repr((snf.diag, U, V, Uinv, Vinv,
                       [mat_vec(U, [1] * r)])).encode())
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
        fac = smith_normal_form(m, c)
        for v in fac.kernel():
            assert all(x == 0 for x in mat_vec(m, v))
        rank = fac.rank
        assert len(fac.kernel()) == c - rank
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


def delta_segment(X, k):
    """A, B and the width of A, as ``cohomology_at`` takes them, for H^k
    of a Delta-set: the dense rows of delta^{k-1} and delta^k."""
    nl = len(X.cells[k - 1]) if k >= 1 else 0
    A = coboundary_matrix(X, k - 1) if k >= 1 else [[] for _ in X.cells[k]]
    B = coboundary_matrix(X, k) if k < 3 and X.cells[k + 1] else []
    return A, B, nl


def oracle_matrices():
    """Smith inputs with their widths: delta^0..delta^2 of the fixtures, of
    the presentation complexes of Borromean X(1..7) and Heisenberg k = 1..6
    and of bar complexes up to 3-cells; diag(2, 3) and diag(4, 6), which
    need the divisibility fix-up; a zero matrix; and seeded random
    matrices, about 40% zeros, whose pivots leave remainders."""
    from cupone.delta import bar_construction, cyclic_group_magma
    from cupone.presentation import (borromean_presentation,
                                     heisenberg_presentation)
    complexes = fixture_complexes()
    complexes += [presentation_complex(borromean_presentation(n)).delta
                  for n in range(1, 8)]
    complexes += [presentation_complex(heisenberg_presentation(k)).delta
                  for k in range(1, 7)]
    complexes += [bar_construction(cyclic_group_magma(mods), 3).delta
                  for mods in ((3,), (4,), (2, 2), (6,), (3, 3), (2, 2, 2))]
    for X in complexes:
        for k in (0, 1, 2):
            if X.cells[k] and X.cells[k + 1]:
                yield coboundary_matrix(X, k), len(X.cells[k])
    yield [[2, 0], [0, 3]], 2
    yield [[4, 0], [0, 6]], 2
    yield [[0] * 4 for _ in range(3)], 4
    rng = random.Random(2902)
    for _ in range(2000):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        yield [[0 if rng.random() < 0.4 else rng.randint(-9, 9)
                for _ in range(c)] for _ in range(r)], c


def test_smith_matches_oracle():
    # The one-pass elimination against the one it replaced
    # (tests/snf_oracle.py), operation for operation: every query replays
    # these logs, so equal logs mean equal answers everywhere.
    from snf_oracle import smith_normal_form as oracle_snf
    count = 0
    for m, c in oracle_matrices():
        new, old = smith_normal_form(m, c), oracle_snf(m, c)
        assert new.diag == old.diag
        assert new.rank == old.rank == rank_over_Q(m)
        assert new.row_ops == old.row_ops
        assert new.col_ops == old.col_ops
        count += 1
    assert count > 2000


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
    snf = smith_normal_form(m, ncols)
    U, V, _, _ = dense(snf)
    c = mat_vec(U, b)
    y = [0] * ncols
    for i, d in enumerate(snf.diag):
        q, r = divmod(c[i], d)
        if r:
            return None
        y[i] = q
    if any(c[snf.rank:]):
        return None
    return [sum(row[j] * y[j] for j in range(ncols)) for row in V]


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


def dense_cohomology(A, B, nl):
    """Reference generators and class coordinates: dense U and V
    throughout, the identity kernel basis factored too."""
    def dense_mat_vec(mat, v):
        return [sum(r[j] * v[j] for j in range(len(v))) for r in mat]

    nm = len(A)
    K = smith_normal_form(B, nm).kernel() if B else identity(nm)
    k = len(K)
    kU, kV, _, _ = dense(smith_normal_form(
        [[K[j][i] for j in range(k)] for i in range(nm)], k))

    def in_kernel(vec):
        c = dense_mat_vec(kU, vec)
        assert not any(c[k:])
        return dense_mat_vec(kV, c[:k])

    cols = [in_kernel([A[i][j] for i in range(nm)]) for j in range(nl)]
    csnf = smith_normal_form([[cols[j][i] for j in range(nl)]
                              for i in range(k)], nl)
    cU, _, cUinv, _ = dense(csnf)
    slots = [(i, d) for i, d in enumerate(csnf.diag) if d > 1]
    slots += [(i, 0) for i in range(csnf.rank, k)]
    gens = [(d, [sum(K[j][r] * cUinv[j][i] for j in range(k))
                 for r in range(nm)]) for i, d in slots]

    def coords(vec):
        c = dense_mat_vec(cU, in_kernel(vec))
        return [c[i] % d if d else c[i] for i, d in slots]

    return gens, coords


def random_segment(rng):
    mid, low, up = rng.randint(1, 6), rng.randint(0, 4), rng.randint(0, 4)
    B = random_matrix(rng, up, mid, -3, 3) if up else []
    kb = smith_normal_form(B, mid).kernel() if up else identity(mid)
    cols = []
    for _ in range(low):  # columns in ker B, some scaled for torsion
        v = [0] * mid
        for kvec in kb:
            c = rng.randint(-2, 2)
            v = [a + c * b for a, b in zip(v, kvec)]
        scale = rng.choice((1, 2, 3))
        cols.append([scale * x for x in v])
    A = [[cols[j][i] for j in range(low)] for i in range(mid)]
    return A, B, low


def test_class_coords_match_dense_computation():
    rng = random.Random(77)
    segs = [random_segment(rng) for _ in range(30)]
    segs += [delta_segment(X, k) for X in fixture_complexes()
             for k in (0, 1, 2)]
    for A, B, nl in segs:
        data = cohomology_at(Z, A, B, nl)
        gens, coords = dense_cohomology(A, B, nl)
        assert data.generators == gens
        nm = len(A)
        for _ in range(4):
            # a random cocycle: generators plus a coboundary
            vec = mat_vec(A, [rng.randint(-3, 3) for _ in range(nl)]) \
                if nl else [0] * nm
            for _, rep in gens:
                c = rng.randint(-3, 3)
                vec = [a + c * b for a, b in zip(vec, rep)]
            assert data.class_coords(vec) == coords(vec)


def shared_factor_complexes():
    """The fixtures (bar_z2.delta has 3-cells, so its H^2 has an upper
    term) and bar complexes of Z/3 and Z/4 up to 3-cells, with torsion in
    H^2 over Z."""
    from cupone.delta import bar_construction, cyclic_group_magma
    return fixture_complexes() + [
        bar_construction(cyclic_group_magma((n,)), 3).delta for n in (3, 4)]


def test_shared_factors_match_fresh_cohomology():
    # segment_cohomology factors each coboundary once per Delta-set and
    # shares it between H^k (kernel) and H^{k+1} (image, without an upper
    # term); cohomology_at builds its own factors for one segment.
    from cupone.delta import segment_cohomology
    rng = random.Random(14)
    for X in shared_factor_complexes():
        for k in (0, 1, 2):
            shared = segment_cohomology(X, Z, k)
            A, B, nl = delta_segment(X, k)
            fresh = cohomology_at(Z, A, B, nl)
            assert shared.invariants == fresh.invariants
            assert shared.generators == fresh.generators
            nm = len(A)
            for _ in range(4):
                x = [rng.randint(-3, 3) for _ in range(nl)]
                cob = mat_vec(A, x) if nl else [0] * nm
                y = shared.preimage(cob)
                assert y == fresh.preimage(cob)
                assert y is not None and mat_vec(A, y) == cob
                vec = cob
                for _, rep in shared.generators:
                    c = rng.randint(-3, 3)
                    vec = [a + c * b for a, b in zip(vec, rep)]
                assert shared.class_coords(vec) == fresh.class_coords(vec)
            for _, rep in shared.generators:
                assert shared.preimage(rep) is None
                assert fresh.preimage(rep) is None


def dense_route_complexes():
    """The fixtures, the interval, and B(Z/3), B(Z/4) and B(Z/2 x Z/2) up
    to 3-cells."""
    from cupone.delta import bar_construction, cyclic_group_magma
    from cupone.interval import interval_algebra
    return fixture_complexes() + [interval_algebra(Z).delta] + [
        bar_construction(cyclic_group_magma(mods), 3).delta
        for mods in ((3,), (4,), (2, 2))]


@pytest.mark.parametrize("ring", [Z, RingSpec.Zp(2), RingSpec.Zp(3),
                                  RingSpec.Zp(17)], ids=str)
def test_cohomology_matches_dense_segment_route(ring):
    # segment_cohomology against the labeled, dense route it replaced
    # (tests/segment_oracle.py): a segment of cell names and dense rows,
    # with fresh factors per segment and, over GF(p), all rows of
    # delta^k as dict columns.
    from cupone.delta import segment_cohomology
    from segment_oracle import cohomology_at as dense_cohomology_at
    from segment_oracle import segment_at
    rng = random.Random(2500 + (ring.p or 0))
    complexes = dense_route_complexes()
    assert len(complexes) == 13 + 1 + 3
    for X in complexes:
        for k in range(4):
            if not X.cells[k]:
                continue
            new = segment_cohomology(X, ring, k)
            old = dense_cohomology_at(segment_at(X, ring, k))
            assert new.invariants == old.invariants
            assert new.generators == old.generators
            A, _, nl = delta_segment(X, k)
            for _ in range(4):
                cob = mat_vec(A, [rng.randint(-3, 3) for _ in range(nl)])
                assert new.preimage(cob) == old.preimage(cob)
                vec = cob
                for _, rep in new.generators:
                    c = rng.randint(-3, 3)
                    vec = [a + c * b for a, b in zip(vec, rep)]
                assert new.class_coords(vec) == old.class_coords(vec)
                assert new.preimage(vec) == old.preimage(vec)


def frozen_random_matrices():
    # The draws of test_snf_transforms_frozen, one for one.
    rng = random.Random(31)
    for _ in range(100):
        r, c, lo = rng.randint(2, 9), rng.randint(2, 9), rng.choice((1, 2, 9))
        yield [[rng.randint(-lo, lo) for _ in range(c)] for _ in range(r)], c


def column(m, j):
    return [row[j] for row in m]


def check_replays(m, c, rng):
    """Each query of the factor of m, which replays an operation log,
    against the dense transform it stands for.  The digest above pins
    the dense transforms; here they must also give U M V = D and invert
    each other."""
    snf = smith_normal_form(m, c)
    r, rank = len(m), snf.rank
    U, V, Uinv, Vinv = dense(snf)
    assert mat_mul(mat_mul(U, m), V) == [
        [snf.diag[i] if i == j and i < rank else 0 for j in range(c)]
        for i in range(r)]
    assert mat_mul(U, Uinv) == identity(r)
    assert mat_mul(V, Vinv) == identity(c)
    inside = [mat_vec(m, [rng.randint(-3, 3) for _ in range(c)])
              for _ in range(3)]
    anywhere = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(3)]
    for b in inside + anywhere:
        assert snf.u_times(b) == mat_vec(U, b)  # forward
    for i in range(r):
        assert snf.u_row(i) == U[i]  # backward, transposed
        assert snf.uinv_column(i) == column(Uinv, i)  # backward, inverted
    kernel = snf.kernel()
    assert kernel == [column(V, j) for j in range(rank, c)]  # backward
    vecs = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(3)]
    if kernel:
        vecs += [mat_vec([list(t) for t in zip(*kernel)],
                         [rng.randint(-3, 3) for _ in kernel])
                 for _ in range(3)]
    for v in vecs:
        w = mat_vec(Vinv, v)  # forward, inverted
        assert snf.kernel_coords(v) == (None if any(w[:rank]) else w[rank:])
    for b in inside + anywhere:
        u = mat_vec(U, b)
        ok = (all(u[i] % d == 0 for i, d in enumerate(snf.diag))
              and not any(u[rank:]))
        y = [u[i] // d for i, d in enumerate(snf.diag)] + [0] * (c - rank)
        assert snf.solve(b).solution == (mat_vec(V, y) if ok else None)
        assert ok or b not in inside


def test_replays_match_dense_transforms():
    # The frozen random matrices (four take the divisibility fix-up) and
    # every coboundary of the fixtures and of the Z/3 and Z/4 bar
    # complexes, which carry torsion.
    rng = random.Random(5)
    mats = list(frozen_random_matrices())
    for X in shared_factor_complexes():
        mats += [(coboundary_matrix(X, k), len(X.cells[k]))
                 for k in range(3) if X.cells[k + 1]]
    # delta^0..2 of bar_z2.delta and of both bars, delta^0 and delta^1 of
    # the 11 .pres fixtures, delta^0 of interval.delta
    assert len(mats) == 100 + 3 * 3 + 2 * 11 + 1
    for m, c in mats:
        check_replays(m, c, rng)


def replay_matrices():
    """Seeded integer matrices whose factors take swaps, negations and
    non-unit pivots, and the delta^1 of Borromean X(5) and X(7)."""
    from cupone.presentation import borromean_presentation
    rng = random.Random(3501)
    for _ in range(150):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        lo = rng.choice((2, 5, 12))
        yield [[0 if rng.random() < 0.3 else rng.choice((-1, 1))
                * rng.randint(2, lo) for _ in range(c)]
               for _ in range(r)], c
    for n in (5, 7):
        X = presentation_complex(borromean_presentation(n)).delta
        yield coboundary_matrix(X, 1), len(X.cells[1])


def test_block_replays_match_flat_replays():
    # Every query of a factor replays its block logs; the oracle's flat
    # logs, replayed one operation at a time, and the dense transforms
    # must give the same answers.
    from snf_oracle import flat_smith
    rng = random.Random(3502)
    seen = set()
    for m, c in replay_matrices():
        snf, flat = smith_normal_form(m, c), flat_smith(m, c)
        r, rank = len(m), snf.rank
        assert (snf.diag, rank) == (flat.diag, flat.rank)
        U, V, Uinv, Vinv = dense(snf)
        for b in [[rng.randint(-4, 4) for _ in range(r)] for _ in range(3)] \
                + [mat_vec(m, [rng.randint(-2, 2) for _ in range(c)])]:
            assert snf.u_times(b) == flat.u_times(b) == mat_vec(U, b)
            assert snf.solve(b).solution == flat.solve(b)
        for i in range(r):
            assert snf.u_row(i) == flat.u_row(i) == U[i]
            assert snf.uinv_column(i) == flat.uinv_column(i) \
                == column(Uinv, i)
        assert snf.kernel() == flat.kernel() \
            == [column(V, j) for j in range(rank, c)]
        for v in [[rng.randint(-3, 3) for _ in range(c)] for _ in range(3)] \
                + snf.kernel():
            w = mat_vec(Vinv, v)
            assert snf.kernel_coords(v) == flat.kernel_coords(v) \
                == (None if any(w[:rank]) else w[rank:])
        kinds = {"swap" if i != t else "negation"
                 for i, t, q in flat.row_ops if not q}
        # the divisibility fix-up adds column i + 1 to column i
        kinds |= {"fix-up" for t, j, q in flat.col_ops if q and t > j}
        kinds |= {"non-unit pivot" for d in snf.diag if d > 1}
        seen |= kinds
    assert seen == {"swap", "negation", "fix-up", "non-unit pivot"}


def test_delta1_is_factored_once_for_h1_and_h2(monkeypatch):
    from cupone.delta import segment_cohomology
    path = FIXTURES / "borromean_n2.pres"
    X = presentation_complex(detect_and_parse(path.read_text(),
                                              str(path))[1]).delta
    delta1 = coboundary_matrix(X, 1)
    seen = []
    snf = linalg.smith_normal_form

    def counting(rows, *args, **kwargs):
        seen.append(rows == delta1)
        return snf(rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "smith_normal_form", counting)
    h1 = segment_cohomology(X, Z, 1)
    h2 = segment_cohomology(X, Z, 2)
    assert h1.invariants == AbelianInvariants(3, ())
    assert h2.invariants.rank == 2
    assert seen.count(True) == 1


def test_internal_checks_survive_optimize():
    # python -O strips assert statements; the unimodular-kernel check of
    # the Z cohomology and the n!-divisibility check of binom_of must
    # still raise.
    script = (
        "from cupone import linalg, rings\n"
        "from cupone.rings import RingSpec\n"
        "kernel = linalg.SNFResult.kernel\n"
        "linalg.SNFResult.kernel = lambda self: "
        "[[2 * x for x in v] for v in kernel(self)]\n"
        "seg = (RingSpec.Z(), [[], []], [[1, 1]], 0)\n"
        "rings.factorial = lambda n: 7\n"
        "print('debug', __debug__)\n"
        "for check in (lambda: linalg.cohomology_at(*seg),\n"
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
    assert smith_normal_form([[3]], 1).kernel() == []
    assert coker([[3]], 1, 1) == AbelianInvariants(0, (3,))
    assert coker([[2, 0], [0, 2]], 2, 2) == AbelianInvariants(0, (2, 2))
    kernel = smith_normal_form([[1, 2]], 2).kernel()
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
    basis = ClassSpan(Z, [4, 0], [[1, 0], [2, 0]]).relations([0, 0])
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
    return Z, [[0]], [], 1


def test_cohomology_circle():
    data = cohomology_at(*circle_segment())
    assert data.invariants == AbelianInvariants(1, ())
    assert data.generators[0][0] == 0
    assert data.class_coords([3]) == [3]


def test_cohomology_torsion():
    # <g | g^k>: relator matrix [k] in degree 2.
    for k in (2, 6):
        data = cohomology_at(Z, [[k]], [], 1)
        assert data.invariants == AbelianInvariants(0, (k,))
        assert data.class_coords([1]) == [1]
        assert data.class_coords([k]) == [0]


def test_cohomology_with_upper_term():
    # Z^2 --B--> Z with B = [1, 1]; A = 0. Kernel is rank 1.
    data = cohomology_at(Z, [[], []], [[1, 1]], 0)
    assert data.invariants == AbelianInvariants(1, ())
    rep = data.generators[0][1]
    assert rep[0] + rep[1] == 0
    with pytest.raises(ValueError):
        data.class_coords([1, 0])


def test_non_complex_segment_is_a_precondition_error():
    with pytest.raises(PreconditionError, match="B\\*A != 0"):
        cohomology_at(Z, [[1], [0]], [[1, 1]], 1)


@pytest.mark.parametrize("ring", [Z, Z5], ids=str)
def test_non_cocycle_coords_are_a_precondition_error(ring):
    # Z goes through cohomology_Z, GF(p) through cohomology_sparse_zp.
    data = cohomology_at(ring, [[], []], [[1, 1]], 0)
    with pytest.raises(PreconditionError, match="not a cocycle"):
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
        kb = smith_normal_form(B, mid).kernel() if up else identity(mid)
        cols = []
        for _ in range(low):
            v = [0] * mid
            for kvec in kb:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, kvec)]
            cols.append(v)
        A = [[cols[j][i] for j in range(low)] for i in range(mid)]
        data = cohomology_at(Z, A, B, low)
        dim_ker = mid - (rank_over_Q(B) if up else 0)
        rank_im = rank_over_Q([list(r) for r in A]) if low and mid else 0
        assert data.invariants.rank == dim_ker - rank_im
        # Every generator is a cocycle with the advertised coordinates.
        for gi, (order, rep) in enumerate(data.generators):
            coords = data.class_coords(rep)
            assert coords[gi] == 1 % (order if order else 10**9)
            if up:
                assert all(x == 0 for x in mat_vec(B, rep))


class DictRows(ZpEliminator):
    """The dict-row format that p >= 17 uses, at any p: the reference the
    one-hot rows are tested against."""

    def __init__(self, p, width):
        super().__init__(p, width)
        self.packed = False


def test_zp_eliminator_express():
    for elim in (DictRows(5, 4), ZpEliminator(5, 4)):
        assert elim.packed == (type(elim) is ZpEliminator)
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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17])
def test_zp_eliminator_formats_agree(p):
    rng = random.Random(4000 + p)
    for _ in range(40):
        count, width = rng.randint(1, 14), rng.randint(1, 40)
        vecs = random_sparse_vectors(rng, p, count, width)
        tags = [i if rng.random() < 0.7 else None for i in range(count)]
        elims = [DictRows(p, width), ZpEliminator(p, width)]
        untagged = DictRows(p, width)
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
    # The row format follows p alone: one-hot rows for every p <= 13 at
    # any width, the delta^3 widths of B(Z_3^3), B(Z_7^2) and B(Z_2^6)
    # among them; dict rows from p = 17 on.
    for p in (2, 3, 5, 7, 11, 13):
        for width in (1, 8192, 8193, 10922, 10923, 19683, 117649, 262144):
            assert ZpEliminator(p, width).packed
    for p in (17, 19):
        for width in (1, 8193):
            assert not ZpEliminator(p, width).packed


def test_packed_rows_reject_negative_columns():
    # A column outside 0..width-1 would wrap around the packing buffer or
    # land among the combination bits (one-hot rows), or become a pivot
    # outside the space (dict rows), silently.  Only a caller's defect
    # makes one, so both formats raise InternalError, which exits 3.
    for p in (2, 3, 17):
        for bad in (-1, 4):
            elim = ZpEliminator(p, 4)
            msg = f"column index {bad} outside 0..3"
            with pytest.raises(InternalError, match=msg):
                elim.insert({bad: 1, 2: 1}, tag="a")
            with pytest.raises(InternalError, match=msg):
                elim.insert_relation({0: 1, bad: 1})
            with pytest.raises(InternalError, match=msg):
                elim.express({bad: 1})
            assert elim.rank == 0
            assert len(elim.annihilator(4)) == 4


@pytest.mark.parametrize("p", [2, 3, 5, 17])
def test_packed_reduction_without_progress_raises(p):
    # A pivot row that cannot clear its lead (the row stored under column
    # 0 replaced by the one under column 1) must raise, not loop forever,
    # on one-hot rows and (p = 17) on dict rows alike.
    elim = ZpEliminator(p, 4)
    assert elim.packed == (p <= linalg.PACKED_MAX_P)
    elim.insert({0: 1, 2: 1}, tag="a")
    elim.insert({1: 1}, tag="b")
    elim.pivots[0] = elim.pivots[1]
    with pytest.raises(ArithmeticError, match="did not clear lead 0"):
        elim.express({0: 1})
    with pytest.raises(ArithmeticError, match="did not clear lead 0"):
        elim.insert_relation({0: 1, 3: 1}, tag="c")


@pytest.mark.parametrize("p", [17, 19, 23, 31, 101])
def test_dict_rows_match_the_oracle(p):
    # Dict rows keep their combination in tag slots above the width; the
    # oracle keeps it in a second dict.  Operation by operation they must
    # give the same relations, expressions, ranks, pivot columns, stored
    # rows and annihilators.
    rng = random.Random(7300 + p)
    for _ in range(40):
        count, width = rng.randint(1, 16), rng.randint(1, 40)
        vecs = random_sparse_vectors(rng, p, count, width)
        elim, oracle = ZpEliminator(p, width), DictRowsOracle(p, width)
        assert not elim.packed
        for i, vec in enumerate(vecs):
            tag = rng.choice([None, i, f"t{i % 4}"])
            assert elim.insert_relation(vec, tag) == \
                oracle.insert_relation(vec, tag)
            assert elim.rank == oracle.rank
            assert elim.pivots.keys() == oracle.pivots.keys()
            for lead, (row, expr) in oracle.pivots.items():
                assert dict(elim._columns(elim.pivots[lead])) == row
                assert {elim._tags[t]: c for t, c in
                        elim._high(elim.pivots[lead]).items()} == expr
            for q in rng.sample(vecs, min(3, len(vecs))) + \
                    random_sparse_vectors(rng, p, 2, width):
                assert elim.express(q) == oracle.express(q)
        for dim in (width, width + 2):
            assert elim.annihilator(dim) == oracle.annihilator(dim)
        for bad in ({-1: 1}, {width: 2}):
            for e in (elim, oracle):
                with pytest.raises(InternalError, match="column index"):
                    e.express(bad)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_annihilator_formats_agree(p):
    rng = random.Random(6100 + p)
    for _ in range(30):
        count, width = rng.randint(1, 12), rng.randint(1, 30)
        vecs = random_sparse_vectors(rng, p, count, width)
        elims = [DictRows(p, width), ZpEliminator(p, width)]
        for i, vec in enumerate(vecs):
            tag = i if rng.random() < 0.5 else None
            for e in elims:
                e.insert(vec, tag)
        # Past the announced width every column is free.
        for dim in (width, width + 3):
            funcs = [e.annihilator(dim) for e in elims]
            assert funcs[0] == funcs[1]
            assert len(funcs[0]) == dim - elims[0].rank
            for phi in funcs[0]:
                for vec in vecs:
                    assert sum(c * vec.get(j, 0)
                               for j, c in phi.items()) % p == 0


@pytest.mark.parametrize("mods, p", [((3, 3, 2), 3), ((5, 2, 2), 5),
                                     ((3, 3, 3), 3), ((13, 2), 13)], ids=str)
def test_bar_delta2_kernel_closed_form(mods, p):
    # The delta^2 kernel that H^2 of B(G) reads, for G = Z_p^r x H with p
    # not dividing |H|, checked by facts no eliminator supplies: every
    # relation vanishes on the columns; each is 1 at its own greatest
    # column and those columns differ, so the relations are independent;
    # and they number dim Z^2 = dim B^2 + dim H^2 = |G| - dim H^1 +
    # dim H^2, where dim H^k(G; F_p) = C(r + k - 1, k).
    from cupone.delta import (bar_construction, coboundary_cols_sparse,
                              cyclic_group_magma)
    X = bar_construction(cyclic_group_magma(mods), 3).delta
    order, r = math.prod(mods), mods.count(p)
    assert len(X.cells[1]) == order
    cols = coboundary_cols_sparse(X, 2, p)
    ker = kernel_mod_p(p, cols, len(X.cells[3]))
    for rel in ker:
        assert rel[max(rel)] == 1
        image: dict = {}
        for t, c in rel.items():
            for i, x in cols[t].items():
                image[i] = (image.get(i, 0) + c * x) % p
        assert not any(image.values())
    assert len({max(rel) for rel in ker}) == len(ker)
    assert len(ker) == order - math.comb(r, 1) + math.comb(r + 1, 2)


@pytest.mark.parametrize("p", [2, 3, 17])
def test_cohomology_sparse_zp_on_each_side_of_pack_rule(p):
    rng = random.Random(70 + p)
    ring = RingSpec.Zp(p)
    mid, up, low = 24, 16, 6
    B = [[rng.choice([0, 0, 1, p - 1]) for _ in range(mid)]
         for _ in range(up - 1)]
    B.append([1] * mid)  # a nonzero last row: the eliminator is up wide
    kb = ZpEliminator(p, up)
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
    # One-hot rows at p = 2, 3 and dict rows at p = 17, each checked
    # against the rank of im A.
    data = cohomology_sparse_zp(ring, mid, a_cols, b_cols)
    n = len(data.generators)
    for _, rep in data.generators:
        assert all(sum(x * y for x, y in zip(row, rep)) % p == 0
                   for row in B)
    sums = [[sum(c * rep[i] for c, (_, rep) in zip(coeffs, data.generators))
             for i in range(mid)]
            for coeffs in ([1] * n, list(range(n)))]
    assert [data.class_coords(v) for v in sums] == \
        [[1] * n, [i % p for i in range(n)]]
    image = ZpEliminator(p, mid)
    for col in a_cols:
        image.insert(col)
    assert n == len(basis) - image.rank > 0


def test_cohomology_zp():
    ring = RingSpec.Zp(5)
    # Z5^2 --B--> Z5, B = [1, 1]; A = column (2, 3) with B*A = 0.
    data = cohomology_at(ring, [[2], [3]], [[1, 1]], 1)
    assert data.invariants.rank == 0
    assert data.invariants.torsion == ()
    data2 = cohomology_at(ring, [[], []], [[1, 1]], 0)
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
        kb = smith_normal_form(B, mid).kernel() if up else identity(mid)
        cols = []
        for _ in range(low):
            v = [0] * mid
            for kvec in kb:
                c = rng.randint(-2, 2)
                v = [a + c * b for a, b in zip(v, kvec)]
            cols.append(v)
        A = [[cols[j][i] for j in range(low)] for i in range(mid)]
        data = cohomology_at(ring, A, B, low)
        elim_b = ZpEliminator(p, mid)
        for row in (B or []):
            elim_b.insert({j: v % p for j, v in enumerate(row) if v % p})
        dim_ker = mid - elim_b.rank
        elim_a = ZpEliminator(p, mid)
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
    # The row format follows p: one-hot rows for p <= 13, dict rows for
    # p >= 17.  The dense rank_mod_p is the oracle for both.
    made = []

    class Recording(ZpEliminator):
        def __init__(self, *shape):
            super().__init__(*shape)
            made.append(self)

    monkeypatch.setattr(linalg, "ZpEliminator", Recording)
    primes = (2, 3, 5, 7, 13) if packed else (17, 19, 23)
    rng = random.Random(5100 + packed)
    for _ in range(60):
        p = rng.choice(primes)
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
                snf = smith_normal_form(A, nl)
                fresh = lambda v: snf.solve(v).ok
            else:
                elim = ZpEliminator(p, nm)
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
