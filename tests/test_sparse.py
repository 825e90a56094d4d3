import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from charcol.chain import normalized
from charcol.sparse import PackedIdentity, SparseMatrix
from charcol.verify import row_rank
from dense import matrix_rows, same_matrix, transpose
from poly_matrix import identity, scaled, shift_diagonal


def dense_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


@st.composite
def matrix_strategy(draw, rows=4, cols=4):
    data = {}
    for _ in range(draw(st.integers(0, 10))):
        r = draw(st.integers(0, rows - 1))
        c = draw(st.integers(0, cols - 1))
        data[(r, c)] = draw(st.integers(-5, 5))
    return SparseMatrix(rows, cols, data)


@given(matrix_strategy(), matrix_strategy())
def test_matmul_matches_dense(a, b):
    assert matrix_rows(a @ b) == dense_mul(matrix_rows(a), matrix_rows(b))


@given(matrix_strategy())
def test_transpose_involution(a):
    assert same_matrix(transpose(transpose(a)), a)


@given(matrix_strategy(), st.lists(st.integers(-4, 4), min_size=4, max_size=4))
def test_matvec_matches_dense(a, vec):
    dense = matrix_rows(a)
    expect = [sum(row[j] * vec[j] for j in range(4)) for row in dense]
    assert a.matvec(vec) == expect


@given(matrix_strategy(), matrix_strategy())
def test_packed_rows_are_equal_exactly_when_the_matrices_are(a, b):
    packed = PackedIdentity(4, 5)  # matrix_strategy's entries are within 5
    rows = a.matvec(packed.rows)
    assert [packed.slots(row, 4) for row in rows] == matrix_rows(a)
    assert (rows == b.matvec(packed.rows)) == same_matrix(a, b)


def test_packed_identity_round_trips_entries_at_the_bound():
    # every row of -bound, 0 and bound, so each slot borrows from the slots
    # below it in every way a row can
    bound = 7
    patterns = [list(row) for row in itertools.product((-bound, 0, bound), repeat=4)]
    matrix = SparseMatrix(len(patterns), 4, {(r, c): v for r, row in enumerate(patterns)
                                             for c, v in enumerate(row)})
    packed = PackedIdentity(4, bound)
    rows = matrix.matvec(packed.rows)
    assert [packed.slots(row, 4) for row in rows] == patterns
    # the lower slots alone, whatever the slots above them hold
    assert [packed.slots(row, count) for row in rows for count in range(5)] == [
        pattern[:count] for pattern in patterns for count in range(5)]
    assert len(set(rows)) == len(patterns)
    assert packed.width == 5 and packed.rows == [1, 1 << 5, 1 << 10, 1 << 15]


def test_shape_checks():
    a = SparseMatrix(2, 3, {(0, 0): 1})
    b = SparseMatrix(2, 3, {(1, 2): 1})
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a.matvec([1, 2])


def test_identity_and_shift():
    eye = identity(3)
    assert eye.data == {(i, i): 1 for i in range(3)}
    assert same_matrix(shift_diagonal(eye, 2), scaled(eye, 3))
    assert same_matrix(shift_diagonal(eye, -1), SparseMatrix(3, 3))
    assert not same_matrix(SparseMatrix(3, 3, {(0, 1): 1}), SparseMatrix(3, 3))


def test_normalisation_keeps_exact_types():
    normal = normalized({(2,): Fraction(4, 2), (1, 1): Fraction(1, 2), (): Fraction(0)})
    assert normal == {(2,): 2, (1, 1): Fraction(1, 2)}
    assert type(normal[(2,)]) is int and type(normal[(1, 1)]) is Fraction


def test_row_rank():
    full = [(0, 0, 1), (1, 1, 2)]
    assert row_rank(2, full) == 2
    deficient = [(0, 0, 1), (1, 0, 2)]
    assert row_rank(2, deficient) == 1
    assert row_rank(2, []) == 0


def reference_rank(nrows, ncols, entries):
    """Rank over Q by Gaussian elimination on a dense Fraction copy."""
    rows = [[Fraction(0)] * ncols for _ in range(nrows)]
    for r, c, v in entries:
        rows[r][c] = Fraction(v)
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def seeded_matrices(seed, count=200):
    """Small integer matrices as (nrows, ncols, entries), many rank-deficient
    (a product through an inner dimension below both sides), with zero rows
    and columns left in place."""
    rng = random.Random(seed)

    def entry():
        return rng.randint(-4, 4)

    for _ in range(count):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            inner = rng.randint(0, min(nrows, ncols))
            left = SparseMatrix(nrows, inner, {
                (r, c): entry() for r in range(nrows) for c in range(inner)
            })
            right = SparseMatrix(inner, ncols, {
                (r, c): entry() for r in range(inner) for c in range(ncols)
            })
            matrix = left @ right
        else:
            matrix = SparseMatrix(nrows, ncols, {
                (r, c): entry()
                for r in range(nrows) for c in range(ncols) if rng.random() < 0.5
            })
        if rng.random() < 0.5:  # clear one row and one column
            zero_row, zero_col = rng.randrange(nrows), rng.randrange(ncols)
            matrix = SparseMatrix(nrows, ncols, {
                (r, c): v for (r, c), v in matrix.data.items() if r != zero_row and c != zero_col
            })
        yield nrows, ncols, [(r, c, v) for (r, c), v in matrix.data.items()]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_rank_matches_dense_fraction_elimination(seed):
    ranks = set()
    for nrows, ncols, entries in seeded_matrices(seed):
        rank = row_rank(nrows, entries)
        assert rank == reference_rank(nrows, ncols, entries), (nrows, ncols, entries)
        assert rank == row_rank(ncols, [(c, r, v) for r, c, v in entries])
        ranks.add((rank, rank < min(nrows, ncols)))
    assert (0, True) in ranks and any(deficient and rank for rank, deficient in ranks)
