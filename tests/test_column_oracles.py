"""The column check of ``DeltaSet.validate`` and the one-pass
``ZpEliminator._pack`` against the per-cell code they replaced
(``column_oracle``)."""
import pathlib
import random
from itertools import combinations
from itertools import product as iproduct
from operator import ne

import pytest

import column_oracle
from cupone.delta import DeltaSet, bar_construction, cyclic_group_magma
from cupone.formats import detect_and_parse
from cupone.interval import interval_algebra
from cupone.linalg import ZpEliminator
from cupone.presentation import presentation_complex
from cupone.rings import InternalError, RingSpec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
BAR_GROUPS = ((3,), (4,), (2, 2), (3, 3, 2))


def twin_complex():
    """Ordered simplices on the vertices {0, 1} with two parallel copies
    of every edge: a k-simplex is its vertex tuple and one twin bit per
    pair of vertices, and d_k drops vertex k.  Here two (k-1)-cells can
    differ in a single face, so one moved face can break a single face
    identity, which no bar complex allows."""
    def face(simplex, k):
        vs, ts = simplex
        pairs = combinations(range(len(vs)), 2)
        return (vs[:k] + vs[k + 1:],
                tuple(t for ij, t in zip(pairs, ts) if k not in ij))

    cells, faces, index = {}, [], {}
    for d in range(4):
        simplices = list(iproduct(iproduct(range(2), repeat=d + 1),
                                  iproduct(range(2), repeat=d * (d + 1) // 2)))
        index[d] = {s: i for i, s in enumerate(simplices)}
        cells[d] = [f"{d}:{vs}{ts}" for vs, ts in simplices]
        faces.append([tuple(index[d - 1][face(s, k)] for k in range(d + 1))
                      if d else () for s in simplices])
    return DeltaSet.from_positions(cells, faces)


def mutation_complexes():
    """(name, Delta-set): bar complexes at dimension 3, the twin complex,
    every fixture's complex and the interval."""
    out = [(f"bar{m}", bar_construction(cyclic_group_magma(m), 3).delta)
           for m in BAR_GROUPS]
    out.append(("twins", twin_complex()))
    for path in sorted(FIXTURES.iterdir()):
        kind, parsed = detect_and_parse(path.read_text(), str(path))
        out.append((path.name, parsed[0] if kind == "delta"
                    else presentation_complex(parsed).delta))
    out.append(("interval", interval_algebra(RingSpec.Z()).delta))
    return out


def single_face_mutations(X, rng, count):
    """``count`` copies of X's faces, each with one face of one cell moved
    to another position in range: every other one, where there is such a
    cell, to one that differs from the old face in a single face."""
    sites = [(d, c) for d in range(1, 4) for c in range(len(X.cells[d]))
             if len(X.cells[d - 1]) > 1]
    out = []
    for m in range(count if sites else 0):
        d, c = rng.choice(sites)
        fs = list(X.faces[d][c])
        i = rng.randrange(d + 1)
        lower = X.faces[d - 1]
        others = [f for f in range(len(lower)) if f != fs[i]]
        near = [f for f in others
                if sum(map(ne, lower[f], lower[fs[i]])) == 1]
        fs[i] = rng.choice(near if near and m % 2 else others)
        faces = list(X.faces)
        faces[d] = list(faces[d])
        faces[d][c] = tuple(fs)
        out.append(faces)
    return out


def oracle_message(cells, faces):
    try:
        column_oracle.validate(cells, faces)
    except ValueError as e:
        return str(e)
    return None


def validate_message(cells, faces):
    try:
        DeltaSet.from_positions(cells, faces)
    except InternalError as e:
        return str(e)
    return None


def test_validate_matches_per_cell_scan_on_single_face_mutations():
    rng = random.Random(2301)
    verdicts = {"fails": 0, "passes": 0}
    for name, X in mutation_complexes():
        # Faces of 2-cells on one vertex always agree, so a presentation
        # complex or the interval only ever passes.
        count = 30 if name.startswith(("bar(", "twins")) else 6
        for faces in single_face_mutations(X, rng, count):
            want = oracle_message(X.cells, faces)
            assert validate_message(X.cells, faces) == want, name
            verdicts["fails" if want else "passes"] += 1
    assert sum(verdicts.values()) >= 200
    assert verdicts["fails"] >= 100 and verdicts["passes"] >= 50, verdicts


def test_valid_complexes_never_enter_the_per_cell_scans(monkeypatch):
    def scan(self, d, pairs):
        raise AssertionError(f"per-cell scan entered at dimension {d}")

    monkeypatch.setattr(DeltaSet, "_scan", scan)
    mutation_complexes()  # each constructor validates
    bar_construction(cyclic_group_magma((5, 2, 2)), 3)  # two blocks


def test_column_failure_that_no_cell_shows_is_internal(monkeypatch):
    # The column check and the per-cell scan disagree only on a defect.
    X = bar_construction(cyclic_group_magma((3,)), 3).delta
    faces = list(X.faces)
    faces[3] = [fs[:1] + (fs[0],) + fs[2:] for fs in faces[3]]
    monkeypatch.setattr(DeltaSet, "_scan", lambda self, d, pairs: None)
    with pytest.raises(InternalError, match="face columns of dimension 3 "
                       "fail a check that no 3-cell fails"):
        DeltaSet.from_positions(X.cells, faces)


def random_entry(rng, p):
    kind = rng.randrange(4)
    if kind == 0:
        return -rng.randrange(1, 3 * p)       # negative
    if kind == 1:
        return p * rng.randrange(-2, 3)       # 0 mod p
    if kind == 2:
        return rng.randrange(p, 4 * p)        # >= p
    return rng.randrange(1, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_pack_matches_bytearray_packer(p):
    rng = random.Random(2310 + p)
    for width in (1, 63, 64, 65, 1000, 24576):
        new, old = ZpEliminator(p, width), ZpEliminator(p, width)
        columns = list(range(width))
        vecs = [{}, {width - 1: 1}, {0: p}, {0: -1, width - 1: 2 * p - 1}]
        if width <= 1000:
            vecs.append({j: random_entry(rng, p) for j in columns})
        for _ in range(12):
            picks = rng.sample(columns, rng.randint(1, min(width, 60)))
            vecs.append({j: random_entry(rng, p) for j in picks})
        for k, vec in enumerate(vecs):
            for tag in (None, f"t{k % 5}"):
                want = column_oracle.pack(old, vec, tag)
                assert new._pack(vec, tag) == want, (width, vec, tag)
        assert new._tags == old._tags and new._slots == old._slots
