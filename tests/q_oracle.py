"""Rank over the rationals, the independent oracle for integer ranks.

The library reads integer ranks off its Smith normal form, which cannot
check itself, so the tests compare them against plain Gaussian
elimination on exact fractions.
"""
from __future__ import annotations

from fractions import Fraction


def rank_over_Q(rows: list[list[int]]) -> int:
    """Independent rank oracle: Gaussian elimination over the rationals.

    Rows are kept sparse (column -> Fraction).  Each row in turn is
    reduced at its leading column by the pivot row stored there, until it
    vanishes or leads a column of its own and becomes that pivot row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for r in rows:
        row = {j: Fraction(x) for j, x in enumerate(r) if x}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                break
            f = row[lead] / prow[lead]
            for j, v in prow.items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
    return len(pivots)
