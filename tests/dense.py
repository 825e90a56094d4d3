"""Vectors {label: coefficient} over a chain's level-n basis as dense lists and
back: the tests' bridge between the dicts that lifting and ``apply_res`` use
and the lists that sparse matrices multiply; and a sparse matrix as its dense
rows."""

from charcol.chain import normalized


def to_dense(chain, n, vec):
    index = chain.basis_index(n)
    out = [0] * len(index)
    for label, c in vec.items():
        out[index[label]] = c
    return out


def from_dense(chain, n, values):
    return normalized(dict(zip(chain.basis(n), values)))


def matrix_rows(matrix):
    """A ``SparseMatrix`` as a list of dense rows."""
    rows = [[0] * matrix.ncols for _ in range(matrix.nrows)]
    for (r, c), v in matrix.data.items():
        rows[r][c] = v
    return rows
