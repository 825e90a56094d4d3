"""Character-column computation by falling-factorial polynomials of Ind Res.

A column for a class whose support lives at level k is obtained by lifting
the level-k character data to level n and applying the chain's f_{n-k}, the
falling factorial X(X-M)(X-2M)...(X-(n-k-1)M), where M is the chain's
commutator scaling (1 for symmetric groups, |H| for wreath products).
``character_columns`` runs one f_{n-k} pass per core level k for many classes:
each irrep's lift enters with its characters packed into one int, a slot per
class (``sparse.PackedIdentity``), times the lifts' common denominator D (wreath
lifts carry 1/dim), so each multiplication by X = Ind Res along Res's edges
serves every class, and no X is built. The slot width covers ||D input||_inf
times prod (||X|| + |r|) over f's roots, with ||X|| <= ||Ind|| ||Res||: a bound
on what the pass computes, right or wrong. ``character_column`` is one class.
For odd permutations of the symmetric chain, the same polynomial in the
reduced operator Y on one irrep of each conjugate pair gives the column's
positive part, and sign pairing reconstructs the rest. ``reduced_operator(n)``
is memoized per process and built from ``get_chain("sym")``'s X, whichever
symmetric chain ``odd_column`` is given; it carries its plus basis's conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm, prod

from . import lifting
from .chain import Chain, FallingFactorialPoly, get_chain, require_symmetric  # noqa: F401
from .hgroup import GroupTable
from .lifting import InvariantError, lift_column_input
from .partitions import Partition, conjugate, content_sum, is_odd_class
from .sparse import PackedIdentity, SparseMatrix


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


def character_column(chain: Chain, cls, n: int, max_order: int | None = None,
                     table: GroupTable | None = None) -> CharacterColumn:
    """delta at level n: ``character_columns`` for the one class."""
    return character_columns(chain, (cls,), n, max_order, table)[cls]


def character_columns(chain: Chain, classes, n: int, max_order: int | None = None,
                      table: GroupTable | None = None) -> dict:
    """{class: its column at level n}, in the order given, from one f_{n-k} pass
    per core level k: irrep i's lift, times D, carries P_i = sum_c chi_i(c) 2^(W c),
    a W-bit slot per class. Exact; each column's invariants are checked. A
    supplied ``table`` is the level-k table of the classes' one core level k."""
    columns, cores = dict.fromkeys(classes), {}  # cores: level k -> core -> its classes
    for cls in columns:
        core, k = chain.fit_class(cls, n)
        cores.setdefault(k, {}).setdefault(core, []).append(cls)
    if table is not None and len(cores) > 1:
        raise ValueError(f"one table serves one core level, not levels {sorted(cores)}")
    index, basis = chain.basis_index(n), chain.basis(n)
    for k, level in cores.items():
        at_k = table if table is not None else chain.small_table(k, max_order)
        cols = [lifting.class_column(chain, at_k, core) for core in level]
        lifts = [(chis, lifting.lift(chain, chain.parse_label(label), n))
                 for label, _, values in at_k.irreps if any(chis := [values[c] for c in cols])]
        scale = lcm(*(v.denominator for _, vec in lifts for v in vec.values()))
        poly, res = chain.poly(n - k), chain.res_operator(n) if n > k else None  # no Res at 0
        entries = sum(max(map(abs, chis)) * int(scale * max(map(abs, vec.values())))
                      for chis, vec in lifts)  # bounds every entry of D times an input
        growth = prod(res.x_norm_bound + abs(r) for r in poly.roots)  # bounds ||f(X)||_inf
        packed = PackedIdentity(len(cols), entries * growth)
        dense = [0] * len(basis)
        for chis, vec in lifts:
            slots = sum(chi * unit for chi, unit in zip(chis, packed.rows))
            for label, v in vec.items():
                dense[index[label]] += int(scale * v) * slots
        if n > k:
            dense = poly.apply(res.times_x, dense)
        for slot, (core, given) in enumerate(level.items()):
            values = packed.column(dense, slot)
            if scale > 1 and any(v % scale for v in values):
                raise InvariantError(f"non-integral column for {given[0]} at level {n}")
            coeffs = {label: v // scale for label, v in zip(basis, values) if v}
            columns.update(dict.fromkeys(given, _checked_column(chain, n, core, k, coeffs)))
    return columns


def _checked_column(chain: Chain, n: int, core, k: int, coeffs: dict,
                    plus_part: dict | None = None) -> CharacterColumn:
    """The column at level n of the class ``core`` at level k, after the checks
    every column passes: the trivial irrep's entry is 1 and the norm is |G|/|class|;
    a broken one raises InvariantError."""
    column = CharacterColumn(chain.id, n, chain.pad_core(core, k, n), coeffs, plus_part)
    trivial = column.coeffs.get(chain.trivial_label(n), 0)
    if trivial != 1:
        raise InvariantError(f"column's trivial-irrep entry is {trivial}, not 1")
    expected = chain.group_order(n) // chain.class_size(column.class_label)
    if column.norm_squared() != expected:
        raise InvariantError(f"column norm {column.norm_squared()} != |G|/|class| = {expected}")
    return column


@dataclass(frozen=True)
class ReducedOperator:
    """Y = pr_+(t-s) Ind Res on the span of one irrep from each conjugate pair:
    Y(x, y) = X(x, y) - X(x, conjugate(y)). It carries the conjugation that
    defines it: ``plus_conjugates[i]`` is the conjugate of ``plus_basis[i]``."""

    level: int
    plus_basis: tuple[Partition, ...]
    plus_conjugates: tuple[Partition, ...]
    matrix: SparseMatrix


@lru_cache(maxsize=None)
def reduced_operator(n: int) -> ReducedOperator:
    """Symmetric chain only; n >= 2 so that a transposition exists."""
    if n < 2:
        raise ValueError("reduced_operator needs n >= 2")
    chain = get_chain("sym")
    basis = chain.basis(n)
    conj = {lam: conjugate(lam) for lam in basis}  # the one conjugation of the level
    # chi_lambda at a transposition has the sign of lambda's content sum, and
    # conjugation negates both: keep the diagram with the positive character,
    # or the larger diagram of a pair whose character there vanishes.
    plus = tuple(
        lam for lam in basis if (content_sum(lam), lam) > (content_sum(conj[lam]), conj[lam])
    )
    position = {lam: i for i, lam in enumerate(plus)}
    entries = {}
    # one pass over the nonzeros X(x, y) with x in plus
    for (r, c), value in chain.ind_res(n).data.items():
        row, col = basis[r], basis[c]
        if row not in position:
            continue
        if col not in position:  # -X(x, y) goes to Y(x, conjugate(y))
            col, value = conj[col], -value
            if col not in position:  # y is self-conjugate
                continue
        key = (position[row], position[col])
        entries[key] = entries.get(key, 0) + value
    return ReducedOperator(n, plus, tuple(conj[lam] for lam in plus),
                           SparseMatrix(len(plus), len(plus), entries))


def odd_column(tau, n: int, chain: Chain | None = None, max_order: int | None = None,
               table: GroupTable | None = None) -> CharacterColumn:
    """Column of an odd class via the reduced operator.

    Computes pr_+ delta with Y(Y-1)...(Y-(n-k)+1), then fills the rest of the
    column by sign pairing: the entry at a conjugate diagram is the negative,
    and self-conjugate diagrams get zero.
    """
    chain = chain or get_chain("sym")
    require_symmetric(chain, "odd_column")
    core, k = chain.fit_class(tau, n)
    if not is_odd_class(core):
        raise ValueError(
            f"class {chain.format_class(tau)!r} is even; odd_column needs an odd permutation")
    if table is None:
        table = chain.small_table(k, max_order)
    full = lift_column_input(chain, table, core, n)
    red = reduced_operator(n)
    # f is linear, so it runs on the integer differences and halves once
    pairs = tuple(zip(red.plus_basis, red.plus_conjugates))  # conjugated once per level
    twice_in = [full.get(lam, 0) - full.get(lam_c, 0) for lam, lam_c in pairs]
    twice_out = chain.poly(n - k).apply(red.matrix.matvec, twice_in)
    plus_values, coeffs = {}, {}
    for (lam, lam_c), value in zip(pairs, twice_out):
        if type(value) is not int or value % 2:
            raise InvariantError(f"odd or non-integral entry at {lam}")
        plus_values[lam] = value // 2
        if value:  # plus_basis has one diagram of each pair and no self-conjugate one
            coeffs[lam], coeffs[lam_c] = value // 2, -(value // 2)
    return _checked_column(chain, n, core, k, coeffs, plus_values)
