"""Character-column computation by falling-factorial polynomials of Ind Res.

A column for a class whose support lives at level k is obtained by lifting
the level-k character data to level n and applying
X(X-M)(X-2M)...(X-(n-k-1)M), where M is the chain's commutator scaling (1
for symmetric groups, |H| for wreath products). For odd permutations of the
symmetric chain, the same product in the reduced operator Y on one irrep of
each conjugate pair gives the column's positive part, and sign pairing
reconstructs the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chain import Chain, ReprVector, get_chain, require_symmetric
from .hgroup import GroupTable
from .lifting import lift_column_input
from .partitions import Partition, conjugate, content_sum, is_odd_class
from .sparse import SparseMatrix


@dataclass(frozen=True)
class FallingFactorialPoly:
    """The product X(X-M)(X-2M)...(X-(factors-1)M); factors=0 is the identity."""

    factors: int
    scaling: int

    def roots(self) -> tuple[int, ...]:
        return tuple(j * self.scaling for j in range(self.factors))

    def value(self, x):
        out = 1
        for r in self.roots():
            out *= x - r
        return out

    def apply(self, x_matrix: SparseMatrix, vec: list) -> list:
        """Apply to a dense vector as successive matvec-and-subtract passes,
        shifts ascending: (X - (l-1)M)...(X - M) X v."""
        out = list(vec)
        for shift in self.roots():
            nxt = x_matrix.matvec(out)
            if shift:
                out = [a - shift * b for a, b in zip(nxt, out)]
            else:
                out = nxt
        return out

    def matrix(self, x_matrix: SparseMatrix) -> SparseMatrix:
        out = SparseMatrix.identity(x_matrix.nrows)
        for root in self.roots():
            out = x_matrix.shift_diagonal(-root) @ out
        return out


def apply_falling_factorial(x_matrix: SparseMatrix, l: int, scaling: int, vec: ReprVector,
                            chain: Chain) -> ReprVector:
    """f_l(X) applied to a basis-labelled vector at the matching level."""
    if x_matrix.nrows != len(chain.basis(vec.level)):
        raise ValueError(
            f"operator size {x_matrix.nrows} does not match level {vec.level} basis"
        )
    if l < 0:
        raise ValueError("l must be non-negative")
    dense = FallingFactorialPoly(l, scaling).apply(x_matrix, chain.to_dense(vec))
    return chain.from_dense(vec.level, dense).normalized()


@dataclass
class CharacterColumn:
    """A full character-table column delta_h as a vector over the irrep basis."""

    chain_id: str
    level: int
    class_core: object
    class_label: object  # the same class embedded at ``level``
    coeffs: dict
    plus_part: dict | None = None

    def entries(self, chain: Chain) -> list[tuple[object, int]]:
        return [(label, self.coeffs.get(label, 0)) for label in chain.basis(self.level)]

    def dense(self, chain: Chain) -> list[int]:
        return [value for _, value in self.entries(chain)]

    def norm_squared(self) -> int:
        return sum(v * v for v in self.coeffs.values())


def normalize_class(chain: Chain, cls, n: int):
    """Strip fixed points, returning (core class, core level k >= 1)."""
    core, k = chain.strip_class(cls)
    if k > n:
        raise ValueError(f"class {cls} does not fit inside level {n}")
    if k == 0:
        return chain.identity_class(1), 1
    return core, k


def character_column(chain: Chain, cls, n: int, max_order: int | None = None,
                     table: GroupTable | None = None) -> CharacterColumn:
    """delta for the class at level n: f_{n-k}(X) applied to the lifted
    level-k column input. Exact; the column-norm identity is asserted."""
    core, k = normalize_class(chain, cls, n)
    if table is None:
        table = chain.small_table(k, max_order)
    vec = lift_column_input(chain, table, core, n)
    out = apply_falling_factorial(
        chain.ind_res(n), n - k, chain.heisenberg_scaling, vec, chain
    )
    assert out.is_integral(), f"non-integral column for {cls} at level {n}"
    column = CharacterColumn(chain.id, n, core, chain.embed_class(core, n), out.coeffs)
    assert column.coeffs.get(chain.trivial_label(n)) == 1
    class_size = chain.class_size_at(core, n)
    expected = chain.group_order(n) // class_size
    assert column.norm_squared() == expected, (
        f"column norm {column.norm_squared()} != |G|/|class| = {expected}"
    )
    return column


@dataclass(frozen=True)
class ReducedOperator:
    """Y = pr_+(t-s) Ind Res on the span of one irrep from each conjugate pair:
    Y(x, y) = X(x, y) - X(x, conjugate(y))."""

    level: int
    plus_basis: tuple[Partition, ...]
    matrix: SparseMatrix


@lru_cache(maxsize=None)
def reduced_operator(n: int) -> ReducedOperator:
    """Symmetric chain only; n >= 2 so that a transposition exists."""
    if n < 2:
        raise ValueError("reduced_operator needs n >= 2")
    chain = get_chain("sym")
    # chi_lambda at a transposition has the sign of lambda's content sum, and
    # conjugation negates both: keep the diagram with the positive character,
    # or the larger diagram of a pair whose character there vanishes.
    plus = tuple(
        lam for lam in chain.basis(n)
        if (content_sum(lam), lam) > (content_sum(conjugate(lam)), conjugate(lam))
    )
    x_matrix = chain.ind_res(n)
    index = chain.basis_index(n)
    entries = {}
    for i, row in enumerate(plus):
        for j, col in enumerate(plus):
            value = x_matrix[index[row], index[col]] - x_matrix[index[row], index[conjugate(col)]]
            if value:
                entries[(i, j)] = value
    return ReducedOperator(n, plus, SparseMatrix(len(plus), len(plus), entries))


def odd_column(tau, n: int, chain: Chain | None = None, max_order: int | None = None,
               table: GroupTable | None = None) -> CharacterColumn:
    """Column of an odd class via the reduced operator.

    Computes pr_+ delta with Y(Y-1)...(Y-(n-k)+1), then fills the rest of the
    column by sign pairing: the entry at a conjugate diagram is the negative,
    and self-conjugate diagrams get zero.
    """
    chain = chain or get_chain("sym")
    require_symmetric(chain, "odd_column")
    core, k = normalize_class(chain, tau, n)
    if not is_odd_class(core):
        raise ValueError(f"class {core} is even; odd_column needs an odd permutation")
    if table is None:
        table = chain.small_table(k, max_order)
    full = lift_column_input(chain, table, core, n)
    red = reduced_operator(n)
    half = Fraction(1, 2)
    plus_in = [
        half * (full.coefficient(lam) - full.coefficient(conjugate(lam)))
        for lam in red.plus_basis
    ]
    plus_out = FallingFactorialPoly(n - k, 1).apply(red.matrix, plus_in)
    plus_values = {}
    for lam, value in zip(red.plus_basis, plus_out):
        value = Fraction(value)
        assert value.denominator == 1
        plus_values[lam] = int(value)
    coeffs = {}
    for lam in chain.basis(n):
        if lam in plus_values:
            coeffs[lam] = plus_values[lam]
        elif conjugate(lam) in plus_values:
            coeffs[lam] = -plus_values[conjugate(lam)]
        else:
            assert conjugate(lam) == lam  # guaranteed by reduced_operator
            coeffs[lam] = 0
    coeffs = {lam: v for lam, v in coeffs.items() if v}
    column = CharacterColumn(
        chain.id, n, core, chain.embed_class(core, n), coeffs, plus_part=plus_values
    )
    assert column.coeffs.get(chain.trivial_label(n)) == 1
    class_size = chain.class_size_at(core, n)
    assert column.norm_squared() == chain.group_order(n) // class_size
    return column
