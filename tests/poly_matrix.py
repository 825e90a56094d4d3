"""f_l(X) as a sparse matrix, built factor by factor: the tests' reference for
the polynomial side of Ind^l Res^l = f_l(Ind Res)."""

from charcol.sparse import SparseMatrix


def poly_matrix(poly, x_matrix: SparseMatrix) -> SparseMatrix:
    out = SparseMatrix.identity(x_matrix.nrows).scaled(poly.leading)
    for root in poly.roots:
        out = x_matrix.shift_diagonal(-root) @ out
    return out
