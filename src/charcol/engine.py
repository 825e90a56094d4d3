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
depends on n alone: it is built from Young's lattice, with no chain and no X,
memoized per process, applies Y = F^T (I - T) F along the edges of its fold F,
and carries its plus basis's conjugates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lcm, prod

from . import lifting, partitions
from .chain import BranchingOperator, Chain, FallingFactorialPoly, get_chain, require_symmetric  # noqa: F401
from .hgroup import GroupTable
from .lifting import InvariantError, lift_column_input
from .partitions import Partition, conjugate, content_sum, is_odd_class
from .sparse import PackedIdentity


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
        poly, res = chain.poly(n - k), chain.res_operator(n) if n > k else None  # f_0 needs no X
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
    Y(x, y) = X(x, y) - X(x, y') = sum_mu Res(mu, x) (Res(mu, y) - Res(mu', y)),
    so Y = F^T (I - T) F: F = ``fold`` is Res from ``plus_basis`` onto level n-1,
    T its conjugation, position i to ``mirror[i]``; self-conjugate mu cancel.
    ``plus_conjugates[i]`` is the conjugate of ``plus_basis[i]``."""

    level: int
    plus_basis: tuple[Partition, ...]
    plus_conjugates: tuple[Partition, ...]
    fold: BranchingOperator
    mirror: tuple[int, ...]

    def times_y(self, vec: list) -> list:
        """Y v = F^T (F v - T F v)."""
        down = self.fold.down(vec)
        return self.fold.up([d - down[j] for d, j in zip(down, self.mirror)])

    @cached_property
    def entries(self) -> dict:
        """Y's nonzeros {(i, j): v}: paths i -> mu -> j minus paths i -> mu with mu' below j."""
        counts, parents = Counter(), self.fold.parents
        for i, below in enumerate(self.fold.children):
            counts.update((i, j) for mu in below for j in parents[mu])
            counts.subtract((i, j) for mu in below for j in parents[self.mirror[mu]])
        return {key: v for key, v in counts.items() if v}


@lru_cache(maxsize=None)
def reduced_operator(n: int) -> ReducedOperator:
    """Y at level n of the symmetric chain, from Young's lattice alone."""
    level = partitions.enumerate_partitions(n)
    below = partitions.enumerate_partitions(n - 1) if n else ()  # level 0 has no child
    conj = {lam: conjugate(lam) for lam in level + below}  # the one conjugation of each level
    # chi_lambda at a transposition has the sign of lambda's content sum, and
    # conjugation negates both: keep the diagram with the positive character,
    # or the larger diagram of a pair whose character there vanishes.
    plus = tuple(lam for lam in level
                 if (content_sum(lam), lam) > (content_sum(conj[lam]), conj[lam]))
    position = {mu: i for i, mu in enumerate(below)}
    fold = BranchingOperator(n, plus, below, tuple(
        tuple(position[mu] for mu in partitions.remove_one_box(lam)) for lam in plus))
    return ReducedOperator(n, plus, tuple(conj[lam] for lam in plus), fold,
                           tuple(position[conj[mu]] for mu in below))


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
        name = chain.format_class(tau) if tau else "e"  # the identity as typed
        raise ValueError(f"class {name!r} is even; odd_column needs an odd permutation")
    if table is None:
        table = chain.small_table(k, max_order)
    full = lift_column_input(chain, table, core, n)
    red = reduced_operator(n)
    # f is linear, so it runs on the integer differences and halves once
    pairs = tuple(zip(red.plus_basis, red.plus_conjugates))  # conjugated once per level
    twice_in = [full.get(lam, 0) - full.get(lam_c, 0) for lam, lam_c in pairs]
    twice_out = chain.poly(n - k).apply(red.times_y, twice_in)
    plus_values, coeffs = {}, {}
    for (lam, lam_c), value in zip(pairs, twice_out):
        if type(value) is not int or value % 2:
            raise InvariantError(f"odd or non-integral entry at {lam}")
        plus_values[lam] = value // 2
        if value:  # plus_basis has one diagram of each pair and no self-conjugate one
            coeffs[lam], coeffs[lam_c] = value // 2, -(value // 2)
    return _checked_column(chain, n, core, k, coeffs, plus_values)
