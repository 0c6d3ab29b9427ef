"""``ClassSpan`` against the per-site code it replaced (``span_oracle``).

The span is compared on random presented modules H = R^m / (o_i e_i),
with orders mixing 0 and d > 1, over Z and over GF(p) for p = 2, 3, 5
(packed rows) and 17 (dict rows), and on the H^2 images of every stage
the CLI builds for the fixtures over Z, Zp:2 and Zp:3 (heisenberg_k3 and
heisenberg_k6 over Zp:3 left out, at about 2 s each).  Relation vectors
must be equal and in the same order.
"""
import pathlib
import random

import pytest

import span_oracle
from cupone.cli import LoadedInput
from cupone.delta import segment_cohomology
from cupone.linalg import AbelianInvariants, ClassSpan
from cupone.model import kappa
from cupone.rings import PreconditionError, RingSpec

Z = RingSpec.Z()
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ORDERS = (0, 0, 0, 2, 3, 4, 6)


def random_module(rng, ring):
    """Orders of H, spanning columns and source orders; some columns are
    zero, a multiple of an earlier one or a sum of two, so that relations
    occur."""
    m = rng.randint(0, 4)
    orders = [rng.choice(ORDERS) for _ in range(m)]
    hi = ring.p - 1 if ring.is_modular else 6
    lo = 0 if ring.is_modular else -6
    cols = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if cols and kind < 0.2:
            c = rng.randint(-3, 3)
            cols.append([c * x for x in rng.choice(cols)])
        elif len(cols) > 1 and kind < 0.35:
            a, b = rng.sample(cols, 2)
            cols.append([x + y for x, y in zip(a, b)])
        elif kind < 0.45:
            cols.append([0] * m)
        else:
            cols.append([rng.randint(lo, hi) for _ in range(m)])
    src_orders = [rng.choice(ORDERS) for _ in cols]
    return orders, cols, src_orders


def members(rng, orders, cols, m):
    """A random vector and a combination of the columns and relations."""
    vec = [rng.randint(-6, 6) for _ in range(m)]
    comb = [0] * m
    for col in cols + span_oracle.relation_cols(orders):
        c = rng.randint(-2, 2)
        comb = [x + c * y for x, y in zip(comb, col)]
    return [vec, comb, [0] * m]


@pytest.mark.parametrize("ring", [Z, RingSpec.Zp(2), RingSpec.Zp(3),
                                  RingSpec.Zp(5), RingSpec.Zp(17)],
                         ids=["Z", "Zp2", "Zp3", "Zp5", "Zp17"])
def test_class_span_matches_per_site_code(ring):
    rng = random.Random(22 + (ring.p or 0))
    for _ in range(300):
        orders, cols, src_orders = random_module(rng, ring)
        m, s = len(orders), len(cols)
        span = ClassSpan(ring, orders, cols)
        assert span.relations(src_orders) == \
            span_oracle.relations(ring, orders, cols, src_orders)
        assert span.cokernel == span_oracle.cokernel(ring, orders, cols)
        if ring.is_modular:
            assert span.is_basis == span_oracle.psi_iso(ring.p, cols, m)
            # over GF(p) every order is p, so the span is the Z span mod p
            mod_p = [ring.p] * m
        else:
            mod_p = orders
            if any(orders) or s != m:
                # a torsion module has no basis; stage1 refused a wrong count
                assert not span.is_basis
        if s == m and (ring.is_modular or not any(orders)):
            assert span.is_basis == span_oracle.is_h1_basis(ring, cols, m)
        for vec in members(rng, mod_p, cols, m):
            assert span.contains(vec) == \
                span_oracle.contains(cols, vec, mod_p)


def test_class_span_relations_over_torsion():
    # Z^2 -> Z/4 + Z, v |-> (v1 + 2 v2 mod 4, 0): onto Z/4, so the
    # cokernel is Z, and the relations are {v : v1 + 2 v2 = 0 mod 4}.
    span = ClassSpan(Z, [4, 0], [[1, 0], [2, 0]])
    assert span.cokernel == AbelianInvariants(1, ())
    assert not span.is_basis
    assert span.contains([2, 0]) and not span.contains([1, 1])
    rels = span.relations([2, 0])
    assert all((v[0] + 2 * v[1]) % 4 == 0 for v in rels)
    assert rels == span_oracle.relations(Z, [4, 0], [[1, 0], [2, 0]], [2, 0])


def fixture_runs():
    for path in sorted(FIXTURES.iterdir()):
        for ring in ("Z", "Zp:2", "Zp:3"):
            if ring == "Zp:3" and path.stem in ("heisenberg_k3",
                                                "heisenberg_k6"):
                continue
            yield path, ring


@pytest.mark.parametrize("path, ring", list(fixture_runs()),
                         ids=lambda x: getattr(x, "stem", x))
def test_class_span_matches_per_site_code_on_fixture_stages(path, ring):
    inp = LoadedInput(str(path), ring)
    reps = inp.h1_reps()
    if reps is not None:
        h1 = segment_cohomology(inp.delta, inp.ring, 1)
        if not any(inp.ring.normalize(o) for o in h1.orders):
            coords = [h1.class_coords(r.vector(inp.delta.cells[1]))
                      for r in reps]
            assert ClassSpan(inp.ring, h1.orders, coords).is_basis == \
                span_oracle.is_h1_basis(inp.ring, coords, len(coords))
    try:
        stages = inp.build_model(2)
    except PreconditionError:
        return  # a refused run builds no stage
    for stage in stages:
        orders = stage.h2x.orders
        images = stage.h2_span.cols
        src_orders = [g.order for g in stage.h2_model]
        assert stage.h2_span.relations(src_orders) == \
            span_oracle.relations(inp.ring, orders, images, src_orders)
        assert kappa(stage).cokernel == \
            span_oracle.cokernel(inp.ring, orders, images)
