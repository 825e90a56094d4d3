"""Lifts along restriction: given an irrep w of G_k, a vector at level n that
restricts back to w exactly.

The construction pads the first row of the first listed diagram, scales by
the inverse dimension power for wreath chains, and subtracts recursively
lifted lower terms. The recursion never revisits a label whose lift is still
waiting, checked at runtime: each level has finitely many labels, so that is
what makes it end. Every lift, a dict {label: coefficient} at level n, is
verified by restricting it n - k times before it is returned and memoized in
``chain.lift_memo`` under (label, n). ``Chain.apply_res`` restricts label by
label along the vector's support, so lifting builds no Res matrix, and
memoizes each label's children on the chain.
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
    k = chain.label_level(label)
    if n < k:
        raise ValueError(f"cannot lift a level-{k} label to level {n}")
    key = (label, n)
    cached = chain.lift_memo.get(key)
    if cached is not None:
        return cached
    if label not in chain.basis_index(k):
        raise ValueError(f"label {label} not in level-{k} basis of chain {chain.id}")
    if n == k:
        vector = chain.lift_memo[key] = {label: 1}
        return vector

    padded, scale = chain.pad_first_row(label, n)
    down = {padded: 1}
    for _ in range(n - k):
        down = chain.apply_res(down)
    expected = 1 if scale == 1 else 1 / Fraction(scale)
    if down.get(label, 0) != expected:
        raise InvariantError(
            f"padding of {label} at level {n} restricts with coefficient "
            f"{down.get(label, 0)}, expected {expected}"
        )

    coeffs = {padded: scale}
    waiting = _waiting | {label}
    for other, mult in sorted(down.items()):
        if other == label:
            continue
        if other in waiting:
            raise InvariantError(
                f"lifting {label} to level {n} revisits {other}, whose lift is still waiting"
            )
        c = -(scale * mult)
        for w, v in lift(chain, other, n, waiting).items():
            coeffs[w] = coeffs.get(w, 0) + c * v
    vector = normalized(coeffs)

    check = vector
    for _ in range(n - k):
        check = chain.apply_res(check)
    if check != {label: 1}:
        raise InvariantError(
            f"lift of {label} to level {n} fails Res^{n - k} verification: {check}"
        )
    chain.lift_memo[key] = vector
    return vector


def lift_column_input(chain: Chain, table: GroupTable, classes: list, n: int) -> dict:
    """{class: the vector sum over irreps w of chi_w(class) times the lift of w}.

    ``table`` is the character table at the classes' own level k; its irrep
    labels must parse as level-k labels of the chain.
    """
    inputs = {}
    for c in classes:
        col, coeffs = table.class_index(chain.format_class(c)), {}
        for label, _, values in table.irreps:
            if chi := values[col]:
                for w, v in lift(chain, chain.parse_label(label), n).items():
                    coeffs[w] = coeffs.get(w, 0) + chi * v
        inputs[c] = normalized(coeffs)
    return inputs
