"""Lifts along restriction: given an irrep w of G_k, a vector at level n that
restricts back to w exactly.

The first row is padded (scaled by 1/dim^pad on a wreath chain) and the recursively
lifted lower terms are subtracted; the recursion never revisits a label whose lift is
still waiting, checked at run time, which is what makes it end. Every lift is memoized
in ``chain.lift_memo`` under (label, n), read before its label is checked, and makes
two ``Chain.apply_res(vec, n - k)`` sweeps: the padding's and its verification's.
"""

from __future__ import annotations

from fractions import Fraction

from .chain import Chain, normalized
from .hgroup import GroupTable
from .partitions import InvariantError


def lift(chain: Chain, label, n: int, _waiting=frozenset()) -> dict:
    """Lift an irrep label from its own level k up to level n.

    ``_waiting`` holds the labels further up the recursion whose lifts to
    level n are not finished; the recursion refuses to enter one of them again.
    """
    key = (label, n)
    cached = chain.lift_memo.get(key)  # only a key that passed the checks below is memoized
    if cached is not None:
        return cached
    k = chain.label_level(label)
    if n < k:
        raise ValueError(f"cannot lift a level-{k} label to level {n}")
    if label not in chain.basis_index(k):
        raise ValueError(f"label {label} not in level-{k} basis of chain {chain.id}")
    if n == k:
        vector = chain.lift_memo[key] = {label: 1}
        return vector

    padded, scale = chain.pad_first_row(label, n)
    down = chain.apply_res({padded: 1}, n - k)
    expected = 1 if scale == 1 else 1 / Fraction(scale)
    if down.get(label, 0) != expected:
        raise InvariantError(f"padding of {label} at level {n} restricts with coefficient "
                             f"{down.get(label, 0)}, expected {expected}")

    coeffs = {padded: scale}
    waiting = _waiting | {label}
    for other, mult in sorted(down.items()):
        if other == label:
            continue
        lifted = chain.lift_memo.get((other, n))
        if lifted is None:
            if other in waiting:
                raise InvariantError(f"lifting {label} to level {n} revisits {other}, whose lift is still waiting")
            lifted = lift(chain, other, n, waiting)
        c = -(scale * mult)
        for w, v in lifted.items():
            coeffs[w] = coeffs.get(w, 0) + c * v
    vector = normalized(coeffs)

    check = chain.apply_res(vector, n - k)
    if check != {label: 1}:
        raise InvariantError(f"lift of {label} to level {n} fails Res^{n - k} verification: {check}")
    chain.lift_memo[key] = vector
    return vector


def lift_column_input(chain: Chain, table: GroupTable, cls, n: int) -> dict:
    """The vector sum over the rows w of ``table`` of chi_w(cls) times the lift of w to level n.

    ``table`` holds ``cls``'s column at its own level k: the character table, or a
    ``Chain.twin_table``, one row per twin pair; its row labels must parse as level-k labels.
    """
    col, coeffs = table.class_index(chain.format_class(cls)), {}
    for label, _, values in table.irreps:
        if chi := values[col]:
            for w, v in lift(chain, chain.parse_label(label), n).items():
                coeffs[w] = coeffs.get(w, 0) + chi * v
    return normalized(coeffs)
