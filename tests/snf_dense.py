"""The dense transforms of a Smith factor, built from its operation logs.

``SNFResult`` keeps U, V and their inverses only as the logs that its
queries replay on one vector each.  Tests compare those queries, and pin
the factors, against the dense matrices built here: column j of each is
the replay on e_j, with the direction and inverse that the
``SNFResult`` docstring gives.
"""
from cupone.linalg import _replay, _unit


def _matrix(ops, n, backward=False, inverse=False):
    """The dense n x n matrix whose column j is the replay on e_j."""
    cols = [_replay(ops, _unit(n, j), backward, inverse=inverse)
            for j in range(n)]
    return [list(r) for r in zip(*cols)]


def dense(snf):
    """(U, V, Uinv, Vinv) of a factor U M V = D."""
    return (_matrix(snf.row_ops, snf.nrows),
            _matrix(snf.col_ops, snf.ncols, backward=True),
            _matrix(snf.row_ops, snf.nrows, backward=True, inverse=True),
            _matrix(snf.col_ops, snf.ncols, inverse=True))
