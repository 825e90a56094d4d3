"""Vectors {label: coefficient} over a chain's level-n basis as dense lists and
back: the tests' bridge between the dicts that lifting and ``apply_res`` use
and the lists that sparse matrices multiply."""

from charcol.chain import normalized


def to_dense(chain, n, vec):
    index = chain.basis_index(n)
    out = [0] * len(index)
    for label, c in vec.items():
        out[index[label]] = c
    return out


def from_dense(chain, n, values):
    return normalized(dict(zip(chain.basis(n), values)))
