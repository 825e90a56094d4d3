"""Character-column computation by falling-factorial polynomials of Ind Res.

A column for a class whose support lives at level k is obtained by lifting
the level-k character data to level n and applying the chain's f_{n-k}, the
falling factorial X(X-M)(X-2M)...(X-(n-k-1)M), where M is the chain's
commutator scaling (1 for symmetric groups, |H| for wreath products).
``character_columns`` runs one f_{n-k} pass per core level k for many classes:
each class's lifted input fills one slot of a packed int (``sparse.PackedIdentity``),
times the lifts' common denominator D, and X = Ind Res acts along the edges of
the chain's ``sign_fold`` (one label of each pair of twins) when the classes
share one sign, or of Res. The slot width covers ||D input||_inf, doubled on a
fold, times prod (||X|| + |r|) over f's roots: a bound on what the pass
computes, right or wrong. One loop over the kept labels reads each slot out:
it checks, halves and divides each entry, mirrors it onto its twin and sums
the norm; one class's slot is the whole int. The fold of sign -1 is the
paper's reduced operator Y; ``odd_column`` reads a column's plus part off
``reduced_operator(n)``, Y's entries on the plus basis, memoized per process.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from contextlib import suppress
from functools import lru_cache
from itertools import repeat
from math import lcm, prod

from .chain import Chain, FallingFactorialPoly, SymmetricChain, get_chain, require_symmetric  # noqa: F401
from .hgroup import GroupTable
from .lifting import InvariantError, lift_column_input
from .partitions import content_sum
from .sparse import PackedIdentity


class CharacterColumn(namedtuple("CharacterColumn", "class_label coeffs plus_part", defaults=(None,))):
    """A full character-table column delta_h as a vector ``coeffs`` over the irrep basis of
    ``class_label``'s level, the class embedded there; ``odd_column`` sets ``plus_part``."""


def _checked_class(chain: Chain, cls):
    """cls, if it is its own text read back, as the command line reads every class."""
    with suppress(IndexError):  # an H-class index past H's table is not a class
        if chain.parse_class(chain.format_class(cls)) == cls:
            return cls
    raise ValueError(f"{cls!r} is not a class of chain {chain.id!r}")


def character_column(chain: Chain, cls, n: int, max_order: int | None = None,
                     table: GroupTable | None = None) -> CharacterColumn:
    """delta at level n: ``character_columns`` for the one class."""
    return character_columns(chain, (cls,), n, max_order, table)[cls]


def character_columns(chain: Chain, classes, n: int, max_order: int | None = None,
                      table: GroupTable | None = None) -> dict:
    """{class: its column at level n}, in the order given, from one f_{n-k} pass per
    core level k: class c's input, times D, fills a W-bit slot 2^(W c). Classes of one
    sign s run on the chain's ``sign_fold``, where f(X) on u + s T u is twice their
    columns; classes of both signs share Res, as two half passes cost what one full
    pass does. Exact, with each column's invariants checked. A supplied ``table`` is
    the level-k table of the classes' one core level k."""
    columns, cores = dict.fromkeys(classes), {}  # cores: level k -> core -> its classes
    for cls in columns:
        core, k = chain.fit_class(_checked_class(chain, cls), n)
        cores.setdefault(k, {}).setdefault(core, []).append(cls)
    if table is not None and len(cores) > 1:
        raise ValueError(f"one table serves one core level, not levels {sorted(cores)}")
    signs = {chain.class_sign(core) for level in cores.values() for core in level}
    sign = signs.pop() if len(signs) == 1 else 0
    for k, level in cores.items():
        op = chain.sign_fold(n, sign) if sign else chain.res_operator(n)
        at_k = table if table is not None else chain.small_table(k, max_order)
        inputs = lift_column_input(chain, at_k, list(level), n)  # {core: its input}
        scale = lcm(*{v.denominator for vec in inputs.values() for v in vec.values()})
        div = scale * (1 + abs(sign))  # a fold's pass yields twice the columns
        vec, *rest = (part if scale == 1 else {label: (scale * v).numerator for label, v in part.items()}
                      for part in inputs.values())  # at D = 1 they are ints already, and fresh dicts
        entries = max(max(map(abs, part.values()), default=0) for part in (vec, *rest))
        poly = chain.poly(n - k)  # ||f(X)||_inf <= prod (||X||_inf + |r|)
        packed = PackedIdentity(len(level), (1 + abs(sign)) * entries * prod(
            op.x_norm_bound + abs(r) for r in poly.roots))
        for unit, part in zip(packed.rows[1:], rest):  # D times the inputs, a slot each; slot 0's unit is 1
            for label, v in part.items():
                vec[label] = vec.get(label, 0) + v * unit
        dense = ([vec.get(lam, 0) + sign * vec.get(t, 0) for lam, t in zip(op.kept, op.twins)] if sign
                 else list(map(vec.get, op.kept, repeat(0))))  # u, and u + sign T u on a fold
        if n > k:
            dense = poly.apply(op.times_x, dense)
        for slot, (core, given) in enumerate(level.items()):
            values = dense if len(level) == 1 else packed.column(dense, slot)  # one slot: the whole int
            coeffs, norm = {}, 0  # each entry read once; a twin apart from its label counts twice
            for lam, twin, v in zip(op.kept, op.twins, values):
                if v:
                    q = v // div  # halved on a fold, over D
                    if q * div != v:
                        if sign and v % 2:
                            raise InvariantError(f"odd or non-integral entry at {chain.format_label(lam)}")
                        raise InvariantError(f"non-integral column of {chain.format_class(given[0])} "
                                             f"at level {n}")
                    coeffs[twin], coeffs[lam], norm = sign * q, q, norm + (q * q << (twin != lam))
            column = CharacterColumn(chain.pad_core(core, k, n), coeffs)
            if (trivial := coeffs.get(chain.trivial_label(n), 0)) != 1:
                raise InvariantError(f"column's trivial-irrep entry is {trivial}, not 1")
            if norm != (expected := chain.group_order(n) // chain.class_size(column.class_label)):
                raise InvariantError(f"column norm {norm} != |G|/|class| = {expected}")
            columns.update(dict.fromkeys(given, column))
    return columns


class ReducedOperator(namedtuple("ReducedOperator", "plus_basis entries")):
    """Y = pr_+(t-s) Ind Res on the span of one irrep from each conjugate pair:
    the plus basis, a tuple of partitions, and Y's nonzeros {(i, j): v} with
    Y(x, y) = X(x, y) - X(x, y')."""


@lru_cache(maxsize=None)
def reduced_operator(n: int) -> ReducedOperator:
    """Y at level n of the symmetric chain, read off a fresh chain's sign-odd fold
    S, whose kept diagrams it re-signs to the plus basis: Y = S^T S."""
    fold = SymmetricChain().sign_fold(n, -1)
    # chi_lambda at a transposition has the sign of lambda's content sum, which conjugation
    # negates: keep the positive one, or the larger diagram of a pair where it vanishes
    plus = [max(pair, key=lambda lam: (content_sum(lam), lam)) for pair in zip(fold.kept, fold.twins)]
    flip = [1 if lam == kept else -1 for lam, kept in zip(plus, fold.kept)]
    at = {j: i for i, j in enumerate(sorted(range(len(plus)), key=plus.__getitem__, reverse=True))}
    counts, minus = Counter(), dict(fold.up_minus)
    for i, above in enumerate(fold.parents):  # S(mu, x) = +1 or -1 for the kept x above mu
        column = [(at[j], flip[j]) for j in above] + [(at[j], -flip[j]) for j in minus.get(i, ())]
        counts.update({(x, y): a * b for x, a in column for y, b in column})
    return ReducedOperator(tuple(sorted(plus, reverse=True)),  # in the basis order, descending
                           {key: v for key, v in counts.items() if v})


def odd_column(tau, n: int, chain: Chain | None = None, max_order: int | None = None,
               table: GroupTable | None = None) -> CharacterColumn:
    """``character_column`` of an odd class, whose pass runs on the sign-odd
    fold, with its entries on ``reduced_operator(n).plus_basis`` as ``plus_part``."""
    chain = chain or get_chain("sym")
    require_symmetric(chain, "odd_column")
    if chain.class_sign(chain.fit_class(_checked_class(chain, tau), n)[0]) != -1:
        name = chain.format_class(tau) if tau else "e"  # the identity as typed
        raise ValueError(f"class {name!r} is even; odd_column needs an odd permutation")
    column = character_column(chain, tau, n, max_order, table)
    plus_part = {lam: column.coeffs.get(lam, 0) for lam in reduced_operator(n).plus_basis}
    return column._replace(plus_part=plus_part)
