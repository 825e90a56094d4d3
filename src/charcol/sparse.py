"""Sparse matrices over exact scalars.

Res and X = Res^T Res, the operators ``chain`` builds as matrices, are integer
maps, applied to integer vectors, so entries are kept as given and as the
arithmetic makes them, with no pass over their types. Floats never appear.
Storage is a dict keyed by (row, col) holding nonzero entries only. Bases
reach thousands of labels (S_28 has 3,718, Z2 wr S_20 has 24,842), but Res has
at most one entry per removable box of a label, so Res and X stay sparse. X's
entries are counted along Res's edges (``Chain.ind_res``), so the package
multiplies no two matrices; ``@`` is the tests' reference product, and the
benchmark's tracing counts its calls. The suites check operator identities on
a ``PackedIdentity``, one int per row, so X's ``matvec`` (or Res's edges) acts
on every column at once.
"""

from __future__ import annotations


class SparseMatrix:
    """Exact sparse matrix; zero entries are absent from ``data``."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: dict | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.data: dict[tuple[int, int], int] = {}
        if data:
            for (r, c), v in data.items():
                if v:
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                    self.data[(r, c)] = v

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.data == other.data

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={len(self.data)})"

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (r, k), v in self.data.items():
            by_col.setdefault(k, []).append((r, v))
        acc: dict[tuple[int, int], int] = {}
        for (k, c), bv in other.data.items():
            for r, av in by_col.get(k, ()):
                rc = (r, c)
                acc[rc] = acc.get(rc, 0) + av * bv
        out = SparseMatrix(self.nrows, other.ncols)  # entries from valid ones: no bounds check
        out.data = {rc: v for rc, v in acc.items() if v}
        return out

    def matvec(self, vec: list[int]) -> list[int]:
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != ncols {self.ncols}")
        out: list[int] = [0] * self.nrows
        for (r, c), v in self.data.items():
            x = vec[c]
            if x:
                out[r] = out[r] + v * x
        return out


class PackedIdentity:
    """The size x size identity as ``size`` ints: int j is row j, its slot i
    (``width`` bits) holds column i, and a matvec on the rows packs the product.
    ``bound`` is a proven bound on every entry compared, such as a product of
    infinity norms, so each difference of two entries is below 2^width in
    absolute value: packed rows are equal exactly when their entries are."""

    def __init__(self, size: int, bound: int):
        self.width = (2 * bound).bit_length() + 1
        self.rows = [1 << self.width * i for i in range(size)]

    def column(self, rows: list[int], i: int) -> list[int]:
        """The signed entry in slot i of each row; the lower slots sum to under
        half of slot i's unit."""
        low, half, unit = self.width * i, 1 << self.width - 1, 1 << self.width
        lower_half = 1 << low >> 1
        return [(((row + lower_half) >> low) + half) % unit - half for row in rows]

    def slots(self, row: int, count: int) -> list[int]:
        """The signed entries in slots 0..count-1 of one row, in one pass: half
        a unit added to each of those slots makes every one of them
        nonnegative and below a unit, so no slot borrows from the next."""
        width, half, mask = self.width, 1 << self.width - 1, (1 << self.width) - 1
        row += half * ((1 << width * count) - 1) // mask
        return [(row >> low & mask) - half for low in range(0, width * count, width)]
