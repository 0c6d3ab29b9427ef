"""The Z and GF(p) cohomology kernels against each other.

By the universal-coefficient theorem (Hatcher, *Algebraic Topology*,
Theorem 3.2), for a complex of free modules C and a prime p,

    dim H^k(C; F_p) = rank H^k(C; Z) + #{torsion orders of H^k(C; Z)
                      divisible by p} + #{same for H^{k+1}(C; Z)}.

The left side comes from GF(p) elimination, the right from Smith normal
forms over Z, so a fault in either kernel that changes a dimension or a
torsion order shows as a mismatch.  The complexes are the fixtures, the
bar complexes of six small abelian groups, and the presentation complex
of Z/2 x Z/3, whose relation matrix diag(2, 3) needs Smith's
divisibility fix-up to give the torsion Z/6.
"""
import pathlib

import pytest

from cupone.delta import bar_construction, cyclic_group_magma, \
    segment_cohomology
from cupone.formats import detect_and_parse
from cupone.presentation import presentation_complex
from cupone.rings import RingSpec

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PRIMES = (2, 3, 5, 17)
BAR_GROUPS = {"Z3": (3,), "Z4": (4,), "Z2^2": (2, 2), "Z6": (6,),
              "Z3^2": (3, 3), "Z2^3": (2, 2, 2)}


Z2_X_Z3 = "gens: a b\nrel: a a\nrel: b b b\nrel: a b a^-1 b^-1\n"


def parsed_complex(text, path):
    kind, parsed = detect_and_parse(text, path)
    return parsed[0] if kind == "delta" else presentation_complex(parsed).delta


COMPLEXES = {p.name: lambda p=p: parsed_complex(
    p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.iterdir())}
COMPLEXES["Z2xZ3.pres"] = lambda: parsed_complex(Z2_X_Z3, "Z2xZ3.pres")
COMPLEXES.update({f"B({name})": lambda m=m: bar_construction(
    cyclic_group_magma(m), 3).delta for name, m in BAR_GROUPS.items()})


@pytest.mark.parametrize("name", COMPLEXES)
def test_dim_over_fp_matches_integral_invariants(name):
    X = COMPLEXES[name]()
    top = X.max_dim()
    over_z = [segment_cohomology(X, RingSpec.Z(), k).invariants
              for k in range(top + 1)]
    for h in over_z:
        # The invariant factors: a divisibility chain, each order > 1.
        assert all(d > 1 for d in h.torsion), h
        assert all(b % a == 0 for a, b in zip(h.torsion, h.torsion[1:])), h
    checked = 0
    for p in PRIMES:
        for k in range(top + 1):
            h, tors = over_z[k], list(over_z[k].torsion)
            if k < top:
                tors += over_z[k + 1].torsion
            want = h.rank + sum(1 for d in tors if d % p == 0)
            got = len(segment_cohomology(X, RingSpec.Zp(p), k).generators)
            assert got == want, (p, k, got, want)
            checked += 1
    assert checked == len(PRIMES) * (top + 1)
