"""Vectors {label: coefficient} over a chain's level-n basis as dense lists and
back: the tests' bridge between the dicts that lifting and ``apply_res`` use
and the lists that sparse matrices multiply; a sparse matrix, or an operator's
entries {(row, col): v}, as dense rows; a sparse matrix's transpose, the
reference X = Res^T @ Res that the chains' X, counted along Res's edges, is
checked against; and the equality of two sparse matrices."""

from charcol.chain import normalized
from charcol.sparse import SparseMatrix


def to_dense(chain, n, vec):
    index = chain.basis_index(n)
    out = [0] * len(index)
    for label, c in vec.items():
        out[index[label]] = c
    return out


def from_dense(chain, n, values):
    return normalized(dict(zip(chain.basis(n), values)))


def entry_rows(entries, nrows, ncols=None):
    """Entries {(row, col): v}, such as ``ReducedOperator.entries``, as a list of
    dense rows; square unless ``ncols`` is given."""
    rows = [[0] * (nrows if ncols is None else ncols) for _ in range(nrows)]
    for (r, c), v in entries.items():
        rows[r][c] = v
    return rows


def matrix_rows(matrix):
    """A ``SparseMatrix`` as a list of dense rows."""
    return entry_rows(matrix.data, matrix.nrows, matrix.ncols)


def same_matrix(a, b):
    """Whether two ``SparseMatrix`` objects have one shape and the same nonzero entries."""
    return (a.nrows, a.ncols, a.data) == (b.nrows, b.ncols, b.data)


def transpose(matrix):
    """A ``SparseMatrix`` transposed."""
    return SparseMatrix(matrix.ncols, matrix.nrows, {(c, r): v for (r, c), v in matrix.data.items()})
