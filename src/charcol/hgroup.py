"""Finite-group data: base groups H, and explicit small-group character tables.

Two independent construction routes live here:

* ``symmetric_group_table`` builds S_k character tables from Young-subgroup
  permutation characters plus exact orthogonalization. The character xi_nu of
  S_nu's cosets at cycle type rho is the coefficient of m_nu in the power sum
  p_rho (Macdonald I.6, the matrix M(p, m)), so one expansion of p_rho gives a
  whole class column: p_c m_mu adds c to one part of mu (or to a new part 0),
  and each result lam counts the parts of lam equal to the part that grew.
  The expansions are memoized on rho, so every suffix of a cycle type is
  expanded once per process, whichever class and k it came from. It
  deliberately does not touch the border-strip oracle in ``partitions``; the
  two are cross-checked against each other in the test suite. The
  orthogonalization's inner products, like ``GroupTable.validate``'s row
  orthonormality, compare packed rows (``sparse.PackedIdentity``), one slot
  per row, whose widths come from proven bounds: a stored row has norm |G|,
  so no entry above sqrt(|G|), and the Young characters' bound is read off
  them as computed; validate bounds each slot by sum |size| * max|chi|^2.
* ``wreath_column`` is one class column of H wr S_k, from H's table alone, by
  the wreath Murnaghan-Nakayama rule (Macdonald, Symmetric Functions and Hall
  Polynomials, 2nd ed., I, Appendix B): a cycle of length r and H-class c is
  taken off as an r-rim hook of one slot's partition (``partitions.rim_hooks``,
  the S_k oracle's border strips), weighted by that slot's H-character at c.
  It is memoized by class, and ``wreath_char_table`` is the columns of the
  colored cycle types, listed and sized by formula. Nothing enumerates the
  group, and any H with integer characters, built in or from a file, gets a table.

Wreath irrep labels and conjugacy-class labels are nested tuples
``((index, partition), ...)`` sorted by index with nonempty partitions; the
index namespace is H's irrep list for irrep labels and H's class list for
class labels (colored cycle types).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import namedtuple
from functools import lru_cache
from math import factorial, isqrt
from operator import mul

from .partitions import (
    InvariantError,
    Partition,
    class_size,
    dim_irrep,
    enumerate_partitions,
    format_partition,
    parse_partition,
    rim_hooks,
)
from .sparse import PackedIdentity

DEFAULT_MAX_ORDER = 10_000
MAX_ORDER_ENV = "CHARCOL_MAX_ORDER"

WreathLabel = tuple[tuple[int, Partition], ...]  # irrep arrays and colored cycle types


class TableValidationError(ValueError):
    """A character table failed one of its exact consistency relations."""


class SizeBoundError(RuntimeError):
    """A group is above the configured order bound.

    The bound refuses every group whose table or classes are built: wreath
    tables and classes, S_k tables and border-strip reference columns, though
    none of them enumerates the group.
    """

    def __init__(self, order: int, bound: int, what: str):
        super().__init__(
            f"{what} has order {order}, above the bound {bound}; raise it via "
            f"--max-order / {MAX_ORDER_ENV} or supply the table as GroupTable JSON"
        )


def check_order(order: int, max_order: int | None, what: str) -> None:
    """SizeBoundError if a group of this order is above ``order_bound(max_order)``."""
    bound = order_bound(max_order)
    if order > bound:
        raise SizeBoundError(order, bound, what)


def order_bound(max_order: int | None) -> int:
    """The group-order bound: max_order, else CHARCOL_MAX_ORDER, else 10000.
    A bound that is not an integer, or is negative, is a ValueError that names
    where it came from."""
    env = os.environ.get(MAX_ORDER_ENV)
    where, given, bound = None, None, DEFAULT_MAX_ORDER
    if max_order is not None:
        where, given = "max_order", max_order
        bound = max_order if type(max_order) is int else None
    elif env:
        where, given = MAX_ORDER_ENV, env
        try:
            bound = int(env)
        except ValueError:
            bound = None
    if bound is None:
        raise ValueError(f"{where} must be an integer, not {given!r}")
    if bound < 0:
        raise ValueError(f"{where} must be non-negative, not {given!r}")
    return bound


def _typed(value, kind: type, what: str):
    """A JSON integer, string or list as given: a bool, float or string is never
    truncated to an integer, nor a number turned into a label."""
    if type(value) is not kind:
        article = {int: "an integer", str: "a string", list: "a list"}[kind]
        raise TypeError(f"{what} must be {article}, not {value!r}")
    return value


# ---------------------------------------------------------------------------
# Character tables as plain data


class GroupTable(namedtuple("GroupTable", "name order classes irreps")):
    """Conjugacy classes, class sizes, and integer irreducible characters:
    ``classes`` holds (label, size) pairs, ``irreps`` (label, dim, values) rows.

    ``classes[0]`` is the identity class (size 1), so ``values[0] == dim >= 1``
    for every irrep row, and one row is all 1s (the trivial character). All
    character values are rational integers by design.
    """

    def validate(self) -> "GroupTable":
        if sum(size for _, size in self.classes) != self.order:
            raise TableValidationError(
                f"{self.name}: class sizes sum to {sum(s for _, s in self.classes)}, not {self.order}"
            )
        if len(self.irreps) != len(self.classes):
            raise TableValidationError(
                f"{self.name}: {len(self.irreps)} irreps vs {len(self.classes)} classes"
            )
        if len({label for label, _ in self.classes}) != len(self.classes):
            raise TableValidationError(f"{self.name}: duplicate class labels")
        if len({label for label, _, _ in self.irreps}) != len(self.irreps):
            raise TableValidationError(f"{self.name}: duplicate irrep labels")
        for label, dim, values in self.irreps:
            if len(values) != len(self.classes):
                raise TableValidationError(f"{self.name}: row {label} has wrong length")
            if values[0] != dim:
                raise TableValidationError(
                    f"{self.name}: row {label} has values[0]={values[0]} != dim={dim}"
                )
        # Row orthonormality on packed ints: column c is packed over the rows,
        # so row i's weighted sum of columns holds <chi_i, chi_j> in slot j.
        # Each slot is at most sum |size| * max|chi|^2. So is |order| = |sum
        # size|, unless every value is 0, when every slot is 0.
        sizes = [size for _, size in self.classes]
        most = max((abs(a) for _, _, values in self.irreps for a in values), default=0)
        packed = PackedIdentity(len(self.irreps), sum(map(abs, sizes)) * most * most)
        columns = [sum(map(mul, column, packed.rows))
                   for column in zip(*(values for _, _, values in self.irreps))]
        for i, (lu, _, u) in enumerate(self.irreps):
            inner = sum(map(mul, map(mul, sizes, u), columns))
            if inner == self.order * packed.rows[i]:
                continue
            # rows before i matched in every slot, so slots below i match too
            values = packed.slots(inner, len(self.irreps))
            for j, (lw, _, _) in enumerate(self.irreps[i:], i):
                value, expect = values[j], self.order if i == j else 0
                if value != expect:
                    raise TableValidationError(
                        f"{self.name}: row orthogonality fails for ({lu},{lw}): "
                        f"sum size*chi*chi = {value}, expected {expect}"
                    )
        if [size for _, size in self.classes[:1]] != [1]:
            raise TableValidationError(f"{self.name}: first class must be the identity (size 1)")
        for label, dim, _ in (row for row in self.irreps if row[1] < 1):
            raise TableValidationError(f"{self.name}: row {label} has dim={dim}, below 1")
        if not any(set(values) == {1} for _, _, values in self.irreps):
            raise TableValidationError(f"{self.name}: no row is the trivial character (all values 1)")
        return self

    def class_index(self, label: str) -> int:
        """The position of a class in the table; ValueError, listing the table's classes, if absent."""
        for i, (lab, _) in enumerate(self.classes):
            if lab == label:
                return i
        available = [lab for lab, _ in self.classes]
        raise ValueError(f"class {label!r} not present in table {self.name}; classes: {available}")

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "order": self.order,
            "classes": [{"label": lab, "size": size} for lab, size in self.classes],
            "irreps": [
                {"label": lab, "dim": dim, "values": list(values)}
                for lab, dim, values in self.irreps
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroupTable":
        try:
            table = cls(
                name=str(obj["name"]),
                order=_typed(obj["order"], int, "order"),
                classes=tuple((_typed(c["label"], str, "label"), _typed(c["size"], int, "size"))
                              for c in obj["classes"]),
                irreps=tuple(
                    (_typed(r["label"], str, "label"), _typed(r["dim"], int, "dim"),
                     tuple(_typed(v, int, "a character value") for v in r["values"]))
                    for r in obj["irreps"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TableValidationError(f"malformed GroupTable JSON: {exc}") from exc
        return table.validate()


def read_json(path: str, malformed):
    """The JSON value in the file at path; ``malformed(detail)`` is raised for a
    file that is not JSON, not text, or nested too deep."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise malformed(str(exc)) from exc


def load_table(path: str) -> GroupTable:
    return GroupTable.from_json_dict(
        read_json(path, lambda detail: TableValidationError(f"malformed GroupTable JSON: {detail}")))


# Validated once here; builtin_table hands out these immutable tables as they are.
_TRIVIAL = GroupTable("trivial", 1, (("e", 1),), (("1", 1, (1,)),)).validate()
_Z2 = GroupTable(
    "Z2", 2, (("1", 1), ("-1", 1)), (("1", 1, (1, 1)), ("-1", 1, (1, -1)))
).validate()


BUILTIN_TABLES = {"trivial": _TRIVIAL, "Z2": _Z2}


def builtin_table(name: str) -> GroupTable:
    """A built-in base-group table by name; a table file is read by ``load_table``."""
    if name not in BUILTIN_TABLES:
        raise ValueError(f"unknown group {name!r}: expected one of {', '.join(BUILTIN_TABLES)}")
    return BUILTIN_TABLES[name]


# ---------------------------------------------------------------------------
# Symmetric-group tables from Young-subgroup permutation characters


@lru_cache(maxsize=None)
def _young_column(rho: Partition) -> dict[Partition, int]:
    """``{nu: xi_nu(rho)}`` for a descending rho: p_rho in the monomial basis.

    ``p_c m_mu`` adds c to one part v of mu, or to a new part v = 0, and
    the result lam = mu - v + (v + c) gets the coefficient of m_mu times
    the number of parts of lam equal to v + c. Each suffix of rho is one
    memo entry, shared across classes and across k; the dict returned is the
    memo's own, to be read and never changed.
    """
    if not rho:
        return {(): 1}
    c, rest = rho[0], rho[1:]
    column: dict[Partition, int] = {}
    for mu, a in _young_column(rest).items():
        parts = mu + (0,)
        for i, v in enumerate(parts):
            if i and parts[i - 1] == v:
                continue  # grow the first part of each size only
            grown = v + c
            j = i  # lam stays descending: grown moves left past the parts below it
            while j and mu[j - 1] < grown:
                j -= 1
            lam = mu[:j] + (grown,) + mu[j:i] + mu[i + 1:]
            column[lam] = column.get(lam, 0) + a * lam.count(grown)
    return column


@lru_cache(maxsize=None)
def _symmetric_table(k: int) -> GroupTable:
    """S_k's table, its irreducible characters by exact orthogonalization of Young characters.

    Permutation characters are processed in descending lexicographic order of
    the subgroup shape; each one contains the matching irreducible character
    once plus previously-extracted characters, so subtracting projections
    leaves exactly the new irreducible row (with its standard label).

    Each class column is packed over the rows so far, so ``sum_c size_c xi(c)
    column_c`` holds ``|G| <xi, chi_j>`` in slot j for every row j at once;
    the multiples are subtracted from xi packed over the classes, where the
    new row is decoded.
    """
    identity = (1,) * k
    classes = (identity,) + tuple(mu for mu in enumerate_partitions(k) if mu != identity)
    sizes = [class_size(mu) for mu in classes]
    order = factorial(k)
    expansions = [_young_column(mu) for mu in classes]
    young = [(nu, [col.get(nu, 0) for col in expansions]) for nu in enumerate_partitions(k)]
    root = isqrt(order)
    # slot j holds sum_c size_c xi(c) chi_j(c), so |G| |m_j| is at most this
    inner_bound = max(sum(s * abs(a) for s, a in zip(sizes, xi)) for _, xi in young) * root
    by_row = PackedIdentity(len(classes), inner_bound)
    # xi(c) - sum_j m_j chi_j(c), over at most p(k) rows
    by_class = PackedIdentity(len(classes), max(abs(a) for _, xi in young for a in xi)
                              + len(classes) * (inner_bound // order) * root)
    columns = [0] * len(classes)
    packed_rows: list[int] = []
    irreps: list[tuple[str, int, tuple[int, ...]]] = []
    for nu, xi in young:
        inner = sum(map(mul, map(mul, sizes, xi), columns))
        vec = sum(map(mul, xi, by_class.rows))
        for packed, product in zip(packed_rows, by_row.slots(inner, len(packed_rows))):
            m, rem = divmod(product, order)
            if rem:
                raise InvariantError(f"orthogonalization failed at {nu}")
            if m:
                vec -= m * packed
        row = tuple(by_class.slots(vec, len(classes)))
        if sum(map(mul, sizes, map(mul, row, row))) != order or row[0] <= 0:
            raise InvariantError(f"orthogonalization failed at {nu}")
        unit = by_row.rows[len(irreps)]
        columns = [column + a * unit for column, a in zip(columns, row)]
        packed_rows.append(vec)
        irreps.append((format_partition(nu), row[0], row))
    table = GroupTable(f"S{k}", order, tuple(zip(map(format_partition, classes), sizes)), tuple(irreps))
    return table.validate()


def symmetric_group_table(k: int, max_order: int | None = None) -> GroupTable:
    """Character table of S_k with partition/cycle-type text labels.

    The order bound applies on every call; each table is built and validated
    once per process.
    """
    check_order(factorial(k), max_order, f"S_{k}")
    return _symmetric_table(k)


# ---------------------------------------------------------------------------
# Wreath products H^k x| S_k: classes by formula


class WreathClass(namedtuple("WreathClass", "label size")):
    """A conjugacy class: its colored cycle type and its size."""


def wreath_classes(h_table: GroupTable, k: int, max_order: int | None = None) -> tuple[WreathClass, ...]:
    """The identity class, then every other colored cycle type (a partition
    per H-class, of total size k) in sorted order, sized by
    ``wreath_class_size_formula``; nothing is enumerated."""
    check_wreath_order(h_table, k, max_order)
    return _wreath_classes_cached(h_table, k)


def check_wreath_order(h_table: GroupTable, k: int, max_order: int | None) -> None:
    """``check_order`` on H wr S_k, of order |H|^k k!, with no class listed."""
    check_order(h_table.order**k * factorial(k), max_order, f"{h_table.name} wr S_{k}")


@lru_cache(maxsize=None)
def _wreath_classes_cached(h_table: GroupTable, k: int) -> tuple[WreathClass, ...]:
    identity = ((0, (1,) * k),) if k else ()  # k fixed points of H's identity class
    others = sorted(label for label in enumerate_wreath_labels(len(h_table.classes), k) if label != identity)
    return tuple(WreathClass(label, wreath_class_size_formula(h_table, label)) for label in [identity, *others])


def wreath_class_size_formula(h_table: GroupTable, colored: WreathLabel) -> int:
    """Class size by the centralizer-order product; no element enumeration.

    Centralizer order of a colored cycle type is
    prod over (H-class c, length i with multiplicity m): m! * (i*|C_H(c)|)^m.
    """
    k = sum(sum(p) for _, p in colored)
    centralizer = 1
    for cls_idx, part in colored:
        cent_h = h_table.order // h_table.classes[cls_idx][1]
        for length in set(part):
            m = list(part).count(length)
            centralizer *= factorial(m) * (length * cent_h) ** m
    order = h_table.order**k * factorial(k)
    size, rem = divmod(order, centralizer)
    if rem:
        raise InvariantError(f"centralizer order of {colored} does not divide {order}")
    return size


# ---------------------------------------------------------------------------
# Wreath irrep labels (array notation) and the character table


@lru_cache(maxsize=None)
def enumerate_wreath_labels(num_h_irreps: int, n: int) -> tuple[WreathLabel, ...]:
    """Level-n array labels, built once per (number of H-irreps, n) in order:
    supports (ascending H-irrep indices) lexicographically, then each slot's
    partition descending lexicographically, a prefix before its extensions."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    supports = sorted(c for size in range(1, n + 1) for c in itertools.combinations(range(num_h_irreps), size))
    return tuple(tuple(zip(support, parts)) for support in supports
                 for parts in _slot_partitions(n, len(support)))


def _slot_partitions(n: int, slots: int) -> list:
    """Tuples of ``slots`` nonempty partitions of total size n, in label order."""
    if slots == 1:
        return [(part,) for part in enumerate_partitions(n)]
    # sorted by negated parts: descending lexicographically, a prefix before its extensions
    firsts = sorted((part for size in range(1, n - slots + 2) for part in enumerate_partitions(size)),
                    key=lambda part: [-p for p in part])
    return [(part,) + rest for part in firsts for rest in _slot_partitions(n - sum(part), slots - 1)]


def wreath_irrep_dim(h_table: GroupTable, label: WreathLabel) -> int:
    n = sum(sum(p) for _, p in label)
    dim = factorial(n)
    for idx, part in label:
        dim = dim * h_table.irreps[idx][1] ** sum(part) * dim_irrep(part) // factorial(sum(part))
    return dim


def wreath_char_table(h_table: GroupTable, k: int, max_order: int | None = None) -> GroupTable:
    """Character table of H^k x| S_k from H's table by the wreath
    Murnaghan-Nakayama rule (Macdonald, Symmetric Functions and Hall
    Polynomials, 2nd ed., I, Appendix B).

    Rows are array labels in canonical enumeration order; columns are colored
    cycle types, identity first. Exact row orthogonality, and each row's
    identity value against its dimension, are validated.
    """
    check_wreath_order(h_table, k, max_order)
    return _wreath_char_table_cached(h_table, k)


@lru_cache(maxsize=None)
def wreath_column(h_table: GroupTable, cls: WreathLabel) -> dict[WreathLabel, int]:
    """``{label: chi^label(cls)}`` over the labels of cls's level, zeros dropped:
    a longest cycle (length r, H-class c) is taken off as an r-rim hook xi of
    some slot (i, lambda), so chi^label(cls) = sum_i chi_i(c) sum_xi (-1)^ht(xi)
    chi^(label - xi)(cls less the cycle). Each class met on the way is one memo
    entry, shared across classes and levels; the dict returned is the memo's
    own, to be read and never changed."""
    if not cls:
        return {(): 1}
    r, c = max((part[0], c) for c, part in cls)
    rest = wreath_column(h_table, tuple((d, p) for d, part in cls if (p := part[1:] if d == c else part)))
    column = {}
    for label in enumerate_wreath_labels(len(h_table.irreps), sum(sum(p) for _, p in cls)):
        total = 0
        for slot, (i, part) in enumerate(label):
            if chi := h_table.irreps[i][2][c]:
                head, tail = label[:slot], label[slot + 1:]
                total += chi * sum(sign * rest.get(head + ((i, less),) + tail if less else head + tail, 0)
                                   for sign, less in rim_hooks(part, r))
        if total:
            column[label] = total
    return column


@lru_cache(maxsize=None)
def _wreath_char_table_cached(h_table: GroupTable, k: int) -> GroupTable:
    classes = _wreath_classes_cached(h_table, k)
    columns = [wreath_column(h_table, cls.label) for cls in classes]
    irrep_names = [lab for lab, _, _ in h_table.irreps]
    class_names = [lab for lab, _ in h_table.classes]
    table = GroupTable(
        name=f"{h_table.name}_wr_S{k}",
        order=h_table.order**k * factorial(k),
        classes=tuple((format_wreath_label(class_names, cls.label), cls.size) for cls in classes),
        irreps=tuple((format_wreath_label(irrep_names, label), wreath_irrep_dim(h_table, label),
                      tuple(column.get(label, 0) for column in columns))
                     for label in enumerate_wreath_labels(len(h_table.irreps), k)),
    )
    return table.validate()


# ---------------------------------------------------------------------------
# Text form for wreath labels: "1:[2];-1:[1,1]"


def format_wreath_label(names: list[str] | tuple[str, ...], label: WreathLabel) -> str:
    if not label:
        return "e"
    return ";".join(f"{names[idx]}:{format_partition(part)}" for idx, part in label)


@lru_cache(maxsize=None)
def parse_wreath_label(names: tuple[str, ...], text: str) -> WreathLabel:
    s = text.strip()
    if s in ("e", "", "[]", "()"):
        return ()
    entries = []
    for piece in s.split(";"):
        name, _, part_text = piece.rpartition(":")
        if not name:
            raise ValueError(f"cannot parse wreath label {text!r}: missing ':' in {piece!r}")
        try:
            idx = list(names).index(name.strip())
        except ValueError:
            raise ValueError(f"unknown component {name.strip()!r}; expected one of {list(names)}")
        part = parse_partition(part_text)
        if not part:
            raise ValueError(f"empty partition in wreath label {text!r}")
        entries.append((idx, part))
    entries.sort()
    if len({idx for idx, _ in entries}) != len(entries):
        raise ValueError(f"duplicate component in wreath label {text!r}")
    return tuple(entries)
