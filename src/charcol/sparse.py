"""Sparse matrices over exact scalars (Python ints and Fractions).

Everything downstream of the branching operators is exact integer or
rational arithmetic; floats never appear. Matrices are small (the largest
bases in practice have a few dozen labels), so clarity wins over asymptotics:
storage is a dict keyed by (row, col) holding nonzero entries only.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = int | Fraction


def _norm(value: Scalar) -> Scalar:
    """Collapse integral Fractions back to int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


class SparseMatrix:
    """Exact sparse matrix; zero entries are absent from ``data``."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.data: dict[tuple[int, int], Scalar] = {}
        if data:
            for (r, c), v in data.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                    self.data[(r, c)] = _norm(v)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_triplets(cls, nrows: int, ncols: int, triplets) -> "SparseMatrix":
        data: dict[tuple[int, int], Scalar] = {}
        for r, c, v in triplets:
            if v:
                data[(r, c)] = data.get((r, c), 0) + v
        return cls(nrows, ncols, data)

    def __getitem__(self, rc: tuple[int, int]) -> Scalar:
        return self.data.get(rc, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.data == other.data

    def __hash__(self):
        raise TypeError("SparseMatrix is not hashable")

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.data)})"

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.ncols, self.nrows, {(c, r): v for (r, c), v in self.data.items()})

    def _check_same_shape(self, other: "SparseMatrix"):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError(
                f"shape mismatch {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_same_shape(other)
        data = dict(self.data)
        for rc, v in other.data.items():
            data[rc] = data.get(rc, 0) + v
        return SparseMatrix(self.nrows, self.ncols, data)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + other.scaled(-1)

    def scaled(self, c: Scalar) -> "SparseMatrix":
        return SparseMatrix(self.nrows, self.ncols, {rc: c * v for rc, v in self.data.items()})

    def shift_diagonal(self, c: Scalar) -> "SparseMatrix":
        """Return self + c*I (square matrices only)."""
        if self.nrows != self.ncols:
            raise ValueError("diagonal shift needs a square matrix")
        data = dict(self.data)
        for i in range(self.nrows):
            data[(i, i)] = data.get((i, i), 0) + c
        return SparseMatrix(self.nrows, self.ncols, data)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        by_col: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, k), v in self.data.items():
            by_col.setdefault(k, []).append((r, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (k, c), bv in other.data.items():
            for r, av in by_col.get(k, ()):
                rc = (r, c)
                acc[rc] = acc.get(rc, 0) + av * bv
        return SparseMatrix(self.nrows, other.ncols, acc)

    def matvec(self, vec: list[Scalar]) -> list[Scalar]:
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != ncols {self.ncols}")
        out: list[Scalar] = [0] * self.nrows
        for (r, c), v in self.data.items():
            x = vec[c]
            if x:
                out[r] = out[r] + v * x
        return [_norm(x) if isinstance(x, Fraction) else x for x in out]

    def triplets(self) -> list[tuple[int, int, Scalar]]:
        """Entries as (row, col, value), sorted by (col, row) -- storage order."""
        return [(r, c, self.data[(r, c)]) for (c, r) in sorted((c, r) for (r, c) in self.data)]

    def triplets_rowcol(self) -> list[tuple[int, int, Scalar]]:
        """Entries as (row, col, value), sorted by (row, col) -- dump order."""
        return [(r, c, self.data[(r, c)]) for (r, c) in sorted(self.data)]

    def to_dense(self) -> list[list[Scalar]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.data.items():
            rows[r][c] = v
        return rows

    def equals_scaled_identity(self, c: Scalar) -> bool:
        if self.nrows != self.ncols:
            return False
        expect = {(i, i): _norm(c) for i in range(self.nrows)} if c else {}
        return self.data == expect

    def row_rank(self) -> int:
        """Exact rank over Q by Gaussian elimination on a dense Fraction copy."""
        rows = [[Fraction(v) for v in row] for row in self.to_dense()]
        rank = 0
        col = 0
        while rank < len(rows) and col < self.ncols:
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
