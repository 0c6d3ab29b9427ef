"""The per-cell face-identity scan and the bytearray row packer that
``DeltaSet.validate``'s column check and ``ZpEliminator._pack``'s one-pass
packer replaced, kept verbatim as test oracles.

- ``validate(cells, faces)``: the body of ``DeltaSet.validate`` before it
  compared whole face columns; it raises ValueError on the first failing
  cell of the lowest failing dimension.
- ``pack(elim, vec, tag)``: the body of ``ZpEliminator._pack`` before it
  packed in one pass; it reads and extends ``elim``'s tag slots.
"""
from __future__ import annotations


def validate(cells, faces):
    """d_i d_j = d_{j-1} d_i for i < j on every 2- and 3-cell."""
    for d in range(2, 4):
        lower = faces[d - 1]
        pairs = [(i, j) for j in range(1, d + 1) for i in range(j)]
        for c, fs in zip(cells[d], faces[d]):
            ffs = [lower[f] for f in fs]
            for i, j in pairs:
                if ffs[j][i] != ffs[i][j - 1]:
                    raise ValueError(
                        f"face identity fails on {c!r}: "
                        f"d_{i} d_{j} != d_{j - 1} d_{i}")


def pack(elim, vec: dict[int, int], tag=None):
    """The packed row of vec, with the combination bit of tag set."""
    p, width = elim.p, elim.width
    bufs: dict[int, bytearray] = {}
    if vec:
        size = (elim._top_column(vec) >> 3) + 1
        for j, x in vec.items():
            x %= p
            if x:
                buf = bufs.get(x)
                if buf is None:
                    buf = bufs[x] = bytearray(size)
                buf[j >> 3] |= 1 << (j & 7)
    bit = 0
    if tag is not None:
        slot = elim._slots.get(tag)
        if slot is None:
            slot = elim._slots[tag] = len(elim._tags)
            elim._tags.append(tag)
        bit = 1 << (width + slot)
    if p == 2:
        return int.from_bytes(bufs[1], "little") | bit if bufs else bit
    row = [bit, bit] + [0] * (p - 2)
    for x, buf in bufs.items():
        row[x] |= int.from_bytes(buf, "little")
        row[0] |= row[x]
    return row
