"""The eager writer of the 3-cell faces of a magma complex that the lazy
``cupone.delta._TripleFaces`` replaced, kept as its test oracle.

The code is the library's as it was, inside the magma complex builder:
[a|b|c] -> (b|c, ab|c, a|bc, a|b).  For each a these run over all b|c in
order, the block ab|. for each b, a|bc along the flat table, and each a|b
n times; zip builds the tuples in C from one shared int per 2-cell
position.
"""
from itertools import chain, repeat


def three_cell_faces(prod: list[list[int]]) -> list[tuple[int, ...]]:
    """The face positions of every 3-cell [a_i|a_j|a_k], cell (i n + j) n
    + k, of the complex of the magma with product table ``prod``."""
    n = len(prod)
    faces: list[tuple[int, ...]] = []
    pos = list(range(n * n))
    flat = [bc for row in prod for bc in row]
    for i, row in enumerate(prod):
        mine = pos[i * n:i * n + n]
        faces.extend(zip(
            pos,
            chain.from_iterable([pos[ab * n:ab * n + n] for ab in row]),
            map(mine.__getitem__, flat),
            chain.from_iterable(map(repeat, mine, repeat(n, n)))))
    return faces
