"""Lifts along restriction: given an irrep w of G_k, a vector at level n that
restricts back to w exactly.

The construction pads the first row of the first listed diagram, scales by
the inverse dimension power for wreath chains, and subtracts recursively
lifted lower terms; recursion strictly descends a partial order on labels
(boxes below the first row, then box counts in the remaining slots), asserted
at runtime. Every lift is verified by restricting it n - k times before it is
returned or memoized. ``Chain.apply_res`` restricts label by label along the
vector's support, so lifting builds no Res matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chain import Chain, ReprVector
from .hgroup import GroupTable


@dataclass(frozen=True)
class LiftRecord:
    chain_id: str
    source: object
    source_level: int
    level: int
    vector: ReprVector


def lift(chain: Chain, label, n: int) -> LiftRecord:
    """Lift an irrep label from its own level k up to level n."""
    k = chain.label_level(label)
    if n < k:
        raise ValueError(f"cannot lift a level-{k} label to level {n}")
    key = (label, n)
    cached = chain.lift_memo.get(key)
    if cached is not None:
        return cached
    if n == k:
        record = LiftRecord(chain.id, label, k, n, chain.unit_vector(n, label))
        chain.lift_memo[key] = record
        return record

    padded, scale, pad_slot = chain.pad_first_row(label, n)
    down = chain.unit_vector(n, padded)
    for _ in range(n - k):
        down = chain.apply_res(down)
    expected = 1 if scale == 1 else 1 / Fraction(scale)
    assert down.coefficient(label) == expected, (
        f"padding of {label} at level {n} restricts with coefficient "
        f"{down.coefficient(label)}, expected {expected}"
    )

    vector = ReprVector(chain.id, n, {padded: scale})
    for other, mult in sorted(down.coeffs.items()):
        if other == label:
            continue
        assert chain.lift_order_less(other, label, pad_slot), (
            f"recursion would not descend: {other} is not below {label}"
        )
        correction = lift(chain, other, n).vector
        vector = vector.add_scaled(correction, -(scale * mult))
    vector = vector.normalized()

    check = vector
    for _ in range(n - k):
        check = chain.apply_res(check)
    assert check.normalized().coeffs == {label: 1}, (
        f"lift of {label} to level {n} fails Res^{n - k} verification: {check.coeffs}"
    )
    record = LiftRecord(chain.id, label, k, n, vector)
    chain.lift_memo[key] = record
    return record


def lift_column_input(chain: Chain, table: GroupTable, cls, n: int) -> ReprVector:
    """The vector sum over irreps w of chi_w(class) times the lift of w.

    ``table`` is the character table at the class's own level k; its irrep
    labels must parse as level-k labels of the chain.
    """
    class_text = chain.format_class(cls)
    try:
        col = table.class_index(class_text)
    except KeyError:
        available = [lab for lab, _ in table.classes]
        raise ValueError(
            f"class {class_text!r} not present in table {table.name}; classes: {available}"
        )
    out = ReprVector(chain.id, n, {})
    for irrep_label, _, values in table.irreps:
        chi = values[col]
        if not chi:
            continue
        w = chain.parse_label(irrep_label)
        out = out.add_scaled(lift(chain, w, n).vector, chi)
    return out.normalized()
