"""Character-column computation by falling-factorial polynomials of Ind Res: a class's column
at level n is f_{n-k}(X) of its core level k's character data lifted to level n (README,
"character_columns"). ``reduced_operator(n)``, the symmetric Y on the plus basis, memoized
per process, serves mckay --reduced and column --odd.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import lcm

from .chain import Chain, FallingFactorialPoly, SymmetricChain, get_chain  # noqa: F401
from .hgroup import GroupTable
from .lifting import InvariantError, lift_column_input
from .partitions import content_sum


class CharacterColumn(namedtuple("CharacterColumn", "class_label coeffs")):
    """A full character-table column delta_h as a vector ``coeffs`` over the irrep basis of
    ``class_label``'s level, the class embedded there."""


def character_column(chain: Chain, cls, n: int, max_order: int | None = None,
                     table: GroupTable | None = None) -> CharacterColumn:
    """delta at level n: ``character_columns`` for the one class."""
    return character_columns(chain, (cls,), n, max_order, table)[cls]


def character_columns(chain: Chain, classes, n: int, max_order: int | None = None,
                      table: GroupTable | None = None) -> dict:
    """{class: its column at level n}, in the order given: for each fitted core (level k, sign s)
    one lift of its column input from the level-k table (the ``twin_table`` for s != 0 below n),
    then one f_{n-k} pass on the chain's ``sign_fold``, where f(X) on u + s T u is twice its column
    (on Res for s = 0). Exact, with each column's invariants checked. A supplied ``table`` is the
    whole level-k table of the classes' one core level k, read for every sign."""
    columns, cores = dict.fromkeys(classes), {}  # cores: (core, level k) -> its classes
    for cls in columns:
        cores.setdefault(chain.fit_class(chain.check_class(cls), chain.check_level(n)), []).append(cls)
    if table is not None and cores:  # a supplied table is the whole table of one core level k
        if len(levels := sorted({k for _, k in cores})) > 1:
            raise ValueError(f"one table serves one core level, not levels {levels}")
        if {chain.parse_label(w) for w, _, _ in table.irreps} != set(chain.basis(levels[0])):
            raise ValueError(f"table {table.name} does not list the level-{levels[0]} irreps of chain {chain.id!r}")
    for (core, k), given in cores.items():  # a signed class lifts one irrep of each twin pair
        sign = chain.class_sign(core)
        at_k = table if table is not None else (chain.twin_table(k, sign, max_order) if sign and n > k
                                                else chain.small_table(k, max_order))
        vec = lift_column_input(chain, at_k, core, n)
        op = chain.sign_fold(n, sign) if sign else chain.res_operator(n)
        scale = lcm(*{v.denominator for v in vec.values()})
        div = scale * (1 + abs(sign))  # a fold's pass yields twice the column
        if scale != 1:  # at D = 1 the entries are ints already
            vec = {label: (scale * v).numerator for label, v in vec.items()}
        dense = [vec.get(lam, 0) + sign * vec.get(t, 0) for lam, t in zip(op.kept, op.twins)]  # u + sign T u
        if n > k:
            dense = chain.poly(n - k).apply(op.times_x, dense)
        coeffs, norm = {}, 0  # each entry read once; a twin apart from its label counts twice
        for lam, twin, v in zip(op.kept, op.twins, dense):
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
    """``character_column`` of a class of sign -1, whose pass runs on the chain's sign-odd fold."""
    chain = chain or get_chain("sym")
    chain.twin_pairs(n, 1)  # the memoized pairing the fold reads: refuses a chain without twins, or a missing level
    if chain.class_sign(chain.fit_class(chain.check_class(tau), n)[0]) != -1:
        name = chain.format_class(tau) if tau else "e"  # the identity as typed
        raise ValueError(f"class {name!r} is even; odd_column needs an odd permutation")
    return character_column(chain, tau, n, max_order, table)
