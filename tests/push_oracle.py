"""The pushforward of tensor elements into cochains as it was before it
grouped words by prefix and walked the front index, kept as the oracle
of ``delta.push_zeta`` and ``delta.push_tensor``.

``push_zeta`` evaluates zeta_I cell by cell through a point dict, and
``push_tensor`` cups the factors of each word in turn with
``cup_cochain`` and adds the words one at a time.  ``eval_index`` is the
per-point evaluator of that time, so that a fault in the library's
evaluator shows here as a difference.
"""
from cupone.delta import Cochain, DeltaSet, cup_cochain
from cupone.rings import ZZ, MultiIndex, RingSpec, binom_of
from cupone.tensor import TensorElem


def eval_index(idx: MultiIndex, point, ring: RingSpec = ZZ) -> int:
    """zeta_I at a point: the product of C(point[x], e) over the entries
    (x, e) of I; generators the point does not set are 0."""
    v = 1
    for name, e in idx.entries:
        v *= binom_of(point.get(name, 0), e, ring)
        if not v:
            return 0
    return ring.normalize(v)


def push_zeta(X: DeltaSet, rho: dict[str, Cochain], idx: MultiIndex,
              ring: RingSpec) -> Cochain:
    """The image of zeta_I, I not the unit: on each 1-cell e, zeta_I at
    the point x -> rho[x](e).  C(0, k) = 0 for k >= 1, so only the cells
    where the first generator of I has a value can be nonzero."""
    vals = [(name, rho[name].terms) for name in idx.support]
    first = vals[0][1]
    out = {}
    for e in X.cells[1]:
        if e in first:
            v = eval_index(idx, {name: f.get(e, 0) for name, f in vals},
                           ring)
            if v:
                out[e] = v
    return Cochain(1, ring, out)


def push_tensor(X: DeltaSet, rho: dict[str, Cochain], t: TensorElem,
                deg: int, cache: dict) -> Cochain:
    """The map T(X) -> C*(X) that sends each generator x to the 1-cochain
    rho[x]: zeta_I goes to ``push_zeta`` (once per I, kept in ``cache``),
    a word to the cup product of its factors, and a constant to the
    constant on the 0-cells.  ``deg`` is the degree of a zero ``t``."""
    ring = t.ring
    if t.terms:
        deg = t.degree()
    if deg == 0:
        c = t.terms.get((), 0)
        return Cochain(0, ring, {v: c for v in X.cells[0]})
    acc = Cochain(deg, ring, {})
    for word, c in t.terms.items():
        cur = None
        for idx in word:
            f = cache.get(idx)
            if f is None:
                f = cache[idx] = push_zeta(X, rho, idx, ring)
            cur = f if cur is None else cup_cochain(X, cur, f)
        acc = acc + cur.scale(c)
    return acc
