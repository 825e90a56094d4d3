"""Character-column computation by falling-factorial polynomials of Ind Res.

A column for a class whose support lives at level k is obtained by lifting
the level-k character data to level n and applying the chain's f_{n-k}, the
falling factorial X(X-M)(X-2M)...(X-(n-k-1)M), where M is the chain's
commutator scaling (1 for symmetric groups, |H| for wreath products). The
lifted input, a dict {label: coefficient}, is scattered into a dense vector
through ``basis_index(n)``; each factor multiplies it by X = Ind Res along
Res's edges, so a column builds no X.
For odd permutations of the symmetric chain, the same polynomial in the
reduced operator Y on one irrep of each conjugate pair gives the column's
positive part, and sign pairing reconstructs the rest. ``reduced_operator(n)``
is memoized per process and built from ``get_chain("sym")``'s X, whichever
symmetric chain ``odd_column`` is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chain import Chain, FallingFactorialPoly, get_chain, normalized, require_symmetric  # noqa: F401
from .hgroup import GroupTable
from .lifting import InvariantError, lift_column_input
from .partitions import Partition, conjugate, content_sum, is_odd_class
from .sparse import SparseMatrix


@dataclass
class CharacterColumn:
    """A full character-table column delta_h as a vector over the irrep basis."""

    chain_id: str
    level: int
    class_label: object  # the class, embedded at ``level``
    coeffs: dict
    plus_part: dict | None = None

    def norm_squared(self) -> int:
        return sum(v * v for v in self.coeffs.values())


def normalize_class(chain: Chain, cls, n: int):
    """Strip fixed points, returning (core class, core level k); k = 0 for the identity."""
    core, k = chain.strip_class(cls)
    if k > n:
        raise ValueError(f"class {chain.format_class(cls)!r} does not fit inside level {n}")
    return core, k


def character_column(chain: Chain, cls, n: int, max_order: int | None = None,
                     table: GroupTable | None = None) -> CharacterColumn:
    """delta at level n: f_{n-k}(X), with X v as Ind(Res v) along Res's edges,
    applied to the lifted level-k input. Exact; the column's invariants are checked."""
    core, k = normalize_class(chain, cls, n)
    if table is None:
        table = chain.small_table(k, max_order)
    index = chain.basis_index(n)
    dense = [0] * len(index)
    for label, c in lift_column_input(chain, table, core, n).items():
        dense[index[label]] = c
    if n > k:  # level 0 has no Res
        dense = chain.poly(n - k).apply(chain.res_operator(n).times_x, dense)
    coeffs = normalized(dict(zip(chain.basis(n), dense)))
    if any(type(v) is not int for v in coeffs.values()):
        raise InvariantError(f"non-integral column for {cls} at level {n}")
    return _checked_column(chain, n, core, k, coeffs)


def _checked_column(chain: Chain, n: int, core, k: int, coeffs: dict,
                    plus_part: dict | None = None) -> CharacterColumn:
    """The column at level n of the class ``core`` at level k, after the checks
    every column passes: the trivial irrep's entry is 1 and the norm is |G|/|class|;
    a broken one raises InvariantError."""
    column = CharacterColumn(chain.id, n, chain.embed_class(core, n), coeffs, plus_part)
    trivial = column.coeffs.get(chain.trivial_label(n), 0)
    if trivial != 1:
        raise InvariantError(f"column's trivial-irrep entry is {trivial}, not 1")
    expected = chain.group_order(n) // chain.class_size_from(core, k, n)
    if column.norm_squared() != expected:
        raise InvariantError(f"column norm {column.norm_squared()} != |G|/|class| = {expected}")
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
    basis = chain.basis(n)
    # chi_lambda at a transposition has the sign of lambda's content sum, and
    # conjugation negates both: keep the diagram with the positive character,
    # or the larger diagram of a pair whose character there vanishes.
    plus = tuple(
        lam for lam in basis
        if (content_sum(lam), lam) > (content_sum(conjugate(lam)), conjugate(lam))
    )
    position = {lam: i for i, lam in enumerate(plus)}
    entries = {}
    # one pass over the nonzeros X(x, y) with x in plus
    for (r, c), value in chain.ind_res(n).data.items():
        row, col = basis[r], basis[c]
        if row not in position:
            continue
        if col not in position:  # -X(x, y) goes to Y(x, conjugate(y))
            col, value = conjugate(col), -value
            if col not in position:  # y is self-conjugate
                continue
        key = (position[row], position[col])
        entries[key] = entries.get(key, 0) + value
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
    # f is linear, so it runs on the integer differences and halves once
    twice_in = [full.get(lam, 0) - full.get(conjugate(lam), 0) for lam in red.plus_basis]
    twice_out = chain.poly(n - k).apply(red.matrix.matvec, twice_in)
    plus_values, coeffs = {}, {}
    for lam, value in zip(red.plus_basis, twice_out):
        if type(value) is not int or value % 2:
            raise InvariantError(f"odd or non-integral entry at {lam}")
        plus_values[lam] = value // 2
        if value:  # plus_basis has one diagram of each pair and no self-conjugate one
            coeffs[lam], coeffs[conjugate(lam)] = value // 2, -(value // 2)
    return _checked_column(chain, n, core, k, coeffs, plus_values)
