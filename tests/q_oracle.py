"""Rank over the rationals, the independent oracle for integer ranks.

The library reads integer ranks off its Smith normal form, which cannot
check itself, so the tests compare them against plain Gaussian
elimination on exact fractions.
"""
from __future__ import annotations

from fractions import Fraction


def rank_over_Q(rows: list[list[int]]) -> int:
    """Independent rank oracle: Gaussian elimination over the rationals."""
    work = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        inv = 1 / prow[col]
        work[rank] = [x * inv for x in prow]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank
