"""The written-out GF(3) and GF(5) row operations of ``rings.onehot_sub``
agree with the loop ``_add_onehot``, which serves p = 7 to 13.

A one-hot row over GF(p) is a list of p masks: entry c, 0 < c < p, holds
the indices of value c and entry 0 their OR, the support.  Indices at and
above WIDTH stand for the tag slots of ``ZpEliminator``, which every row
operation updates like any column.
"""
import random

import pytest

from cupone import rings
from cupone.linalg import ZpEliminator

WIDTH = 24
SLOTS = 8


def pack(p: int, values: dict[int, int]) -> list[int]:
    """The one-hot row of index -> value, zero values dropped."""
    row = [0] * p
    for j, c in values.items():
        if c % p:
            row[c % p] |= 1 << j
    for c in range(1, p):
        row[0] |= row[c]
    return row


def random_values(rng, p: int, indices) -> dict[int, int]:
    return {j: rng.randrange(1, p) for j in indices if rng.random() < 0.5}


def cases(p: int, rng):
    """(v, h) as index -> value dicts: random overlap, disjoint supports,
    full and partial cancellation, and pairs that meet only in the slots."""
    every = range(WIDTH + SLOTS)
    for _ in range(40):
        h = random_values(rng, p, every)
        yield random_values(rng, p, every), h
        yield (random_values(rng, p, range(0, WIDTH + SLOTS, 2)),
               random_values(rng, p, range(1, WIDTH + SLOTS, 2)))
        for f in range(1, p):
            yield {j: f * c % p for j, c in h.items()}, h
            part = {j: f * c % p for j, c in h.items() if rng.random() < 0.5}
            part.update(random_values(rng, p, set(every) - set(h)))
            yield part, h
        yield (random_values(rng, p, range(WIDTH + SLOTS)),
               random_values(rng, p, range(WIDTH, WIDTH + SLOTS)))


@pytest.mark.parametrize("p", [3, 5])
def test_written_out_rows_match_the_loop(p):
    sub = rings.onehot_sub(p)
    assert sub is {3: rings._sub3, 5: rings._sub5}[p]
    rng = random.Random(3400 + p)
    seen = set()
    for v, h in cases(p, rng):
        for f in range(1, p):
            want = {j: (v.get(j, 0) - f * h.get(j, 0)) % p
                    for j in set(v) | set(h)}
            minus_fh = pack(p, {j: -f * c for j, c in h.items()})
            loop = rings._add_onehot(p, pack(p, v), minus_fh)
            got = sub(pack(p, v), pack(p, h), f)
            assert got == loop == pack(p, want), (v, h, f)
            cancelled = [j for j in set(v) & set(h) if not want[j]]
            seen.add((f, not set(v) & set(h), bool(cancelled),
                      bool(want) and not any(want.values())))
    for f in range(1, p):
        # disjoint, some cancellation, and a row that cancels to zero
        assert {(f, True, False, False), (f, False, True, False),
                (f, False, True, True)} <= seen


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_the_loop_serves_p_from_7(p, monkeypatch):
    loop, calls = rings._add_onehot, []

    def counted(q, v, w):
        calls.append(q)
        return loop(q, v, w)

    monkeypatch.setattr(rings, "_add_onehot", counted)
    elim = ZpEliminator(p, 3)
    assert elim.insert({0: 1, 1: 2}, tag="a")
    assert elim.insert({0: 2, 2: 1}, tag="b")
    assert elim.express({0: 3, 1: 2, 2: 1}) == {"a": 1, "b": 1}
    assert set(calls) == ({p} if p > 5 else set())
