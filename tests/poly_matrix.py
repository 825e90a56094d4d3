"""Both sides of Ind^l Res^l = f_l(Ind Res) as sparse matrices, built by
matrix products: the tests' reference for the packed checks the suites run."""

from itertools import accumulate

from charcol.sparse import SparseMatrix
from dense import transpose


def identity(n: int) -> SparseMatrix:
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def scaled(matrix: SparseMatrix, c) -> SparseMatrix:
    return SparseMatrix(matrix.nrows, matrix.ncols, {rc: c * v for rc, v in matrix.data.items()})


def shift_diagonal(matrix: SparseMatrix, c) -> SparseMatrix:
    """matrix + c*I (square matrices only)."""
    if matrix.nrows != matrix.ncols:
        raise ValueError("diagonal shift needs a square matrix")
    data = dict(matrix.data)
    for i in range(matrix.nrows):
        data[(i, i)] = data.get((i, i), 0) + c
    return SparseMatrix(matrix.nrows, matrix.ncols, data)


def poly_matrix(poly, x_matrix: SparseMatrix) -> SparseMatrix:
    out = scaled(identity(x_matrix.nrows), poly.leading)
    for root in poly.roots:
        out = shift_diagonal(x_matrix, -root) @ out
    return out


def brute_indl_resl(chain, n: int):
    """Literal Ind^l Res^l at level n for l = 1, ..., n - min_n, each restricting
    once more than the last: an iterator of matrix products."""
    if n <= chain.min_n:
        raise ValueError(f"level {n} has no level below it in chain {chain.id}")
    steps = range(n - 1, chain.min_n, -1)
    downs = accumulate(steps, lambda down, j: chain.res_operator(j).matrix @ down,
                       initial=chain.res_operator(n).matrix)
    return (transpose(down) @ down for down in downs)
