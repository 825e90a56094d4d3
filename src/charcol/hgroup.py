"""Finite-group data: base groups H, and explicit small-group character tables.

Two independent construction routes live here:

* ``symmetric_group_table`` builds S_k character tables from Young-subgroup
  permutation characters plus exact orthogonalization. The character of S_nu's
  cosets at cycle type rho counts the ways to put each cycle of rho into a
  row of nu so that every row is filled exactly. It deliberately does not
  touch the border-strip oracle in ``partitions``; the two are cross-checked
  against each other in the test suite.
* ``wreath_char_table`` builds H wr S_k tables by explicit brute force over
  enumerated group elements: each array label is induced from a block
  subgroup where its character is a product of block characters and base
  characters along cycles.

Wreath irrep labels and conjugacy-class labels are nested tuples
``((index, partition), ...)`` sorted by index with nonempty partitions; the
index namespace is H's irrep list for irrep labels and H's class list for
class labels (colored cycle types).
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import (
    InvariantError,
    Partition,
    class_size,
    dim_irrep,
    enumerate_partitions,
    format_partition,
    parse_partition,
)

DEFAULT_MAX_ORDER = 10_000
MAX_ORDER_ENV = "CHARCOL_MAX_ORDER"

WreathLabel = tuple[tuple[int, Partition], ...]  # irrep arrays and colored cycle types


class TableValidationError(ValueError):
    """A character table failed one of its exact consistency relations."""


class SizeBoundError(RuntimeError):
    """A brute-force computation would exceed the configured group-order bound."""

    def __init__(self, order: int, bound: int, what: str):
        self.order = order
        self.bound = bound
        super().__init__(
            f"{what} has order {order}, above the bound {bound}; raise it via "
            f"--max-order / {MAX_ORDER_ENV} or supply the table as GroupTable JSON"
        )


def check_order(order: int, max_order: int | None, what: str) -> None:
    """SizeBoundError if a group of this order is above the bound: max_order,
    else CHARCOL_MAX_ORDER, else 10000."""
    env = os.environ.get(MAX_ORDER_ENV)
    bound = int(max_order) if max_order is not None else int(env) if env else DEFAULT_MAX_ORDER
    if order > bound:
        raise SizeBoundError(order, bound, what)


def _typed(value, kind: type, what: str):
    """A JSON integer, string or list as given: a bool, float or string is never
    truncated to an integer, nor a number turned into a label."""
    if type(value) is not kind:
        article = {int: "an integer", str: "a string", list: "a list"}[kind]
        raise TypeError(f"{what} must be {article}, not {value!r}")
    return value


# ---------------------------------------------------------------------------
# Character tables as plain data


@dataclass(frozen=True)
class GroupTable:
    """Conjugacy classes, class sizes, and integer irreducible characters.

    ``classes[0]`` is the identity class, so ``values[0] == dim`` for every
    irrep row. All character values are rational integers by design.
    """

    name: str
    order: int
    classes: tuple[tuple[str, int], ...]
    irreps: tuple[tuple[str, int, tuple[int, ...]], ...]

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
        sizes = [size for _, size in self.classes]
        for i, (lu, _, u) in enumerate(self.irreps):
            for j, (lw, _, w) in enumerate(self.irreps[i:], i):
                inner = sum(s * a * b for s, a, b in zip(sizes, u, w))
                expect = self.order if i == j else 0
                if inner != expect:
                    raise TableValidationError(
                        f"{self.name}: row orthogonality fails for ({lu},{lw}): "
                        f"sum size*chi*chi = {inner}, expected {expect}"
                    )
        return self

    def class_index(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.classes):
            if lab == label:
                return i
        raise KeyError(f"class {label!r} not in table {self.name}")

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


def load_table(path: str) -> GroupTable:
    with open(path) as fh:
        return GroupTable.from_json_dict(json.load(fh))


# Validated once here; builtin_table hands out these immutable tables as they are.
_TRIVIAL = GroupTable("trivial", 1, (("e", 1),), (("1", 1, (1,)),)).validate()
_Z2 = GroupTable(
    "Z2", 2, (("1", 1), ("-1", 1)), (("1", 1, (1, 1)), ("-1", 1, (1, -1)))
).validate()


def builtin_table(name: str) -> GroupTable:
    """Built-in base-group table by name, or a validated JSON file by path."""
    if name == "trivial":
        return _TRIVIAL
    if name == "Z2":
        return _Z2
    if os.path.exists(name):
        return load_table(name)
    raise ValueError(f"unknown group {name!r}: expected 'trivial', 'Z2', or a JSON path")


# ---------------------------------------------------------------------------
# Concrete multiplication for the built-in base groups (brute force needs it)


@dataclass(frozen=True)
class ConcreteGroup:
    """Explicit multiplication table aligned with a GroupTable's class order."""

    table: GroupTable
    mult: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    class_of: tuple[int, ...]  # element index -> class index in table.classes

    @property
    def size(self) -> int:
        return len(self.mult)


_CONCRETE = {
    "trivial": ConcreteGroup(_TRIVIAL, ((0,),), (0,), (0,)),
    "Z2": ConcreteGroup(_Z2, ((0, 1), (1, 0)), (0, 1), (0, 1)),
}


def concrete_base(table: GroupTable) -> ConcreteGroup:
    group = _CONCRETE.get(table.name)
    if group is None or group.table != table:
        raise ValueError(
            f"no explicit multiplication available for group {table.name!r}; "
            "brute-force wreath computations support the built-in base groups only "
            "(supply precomputed wreath tables as GroupTable JSON instead)"
        )
    return group


# ---------------------------------------------------------------------------
# Symmetric-group tables from Young-subgroup permutation characters


@lru_cache(maxsize=None)
def _placements(cycles: tuple[int, ...], rows: tuple[int, ...]) -> int:
    """Ways to put each cycle into a row so that every row is filled exactly.

    Both tuples are descending. The largest cycle goes into each distinct row
    size that fits it, counted once per row of that size.
    """
    if not cycles:
        return 1
    first, rest = cycles[0], cycles[1:]
    total = 0
    for i, size in enumerate(rows):
        if size >= first and (i == 0 or rows[i - 1] != size):
            left = tuple(sorted(rows[:i] + (size - first,) + rows[i + 1 :], reverse=True))
            total += rows.count(size) * _placements(rest, left)
    return total


def young_permutation_character(nu: Partition, rho: Partition) -> int:
    """Character of the permutation module on cosets of S_nu, at cycle type rho."""
    if sum(nu) != sum(rho):
        raise ValueError("nu and rho must partition the same n")
    return _placements(tuple(sorted(rho, reverse=True)), tuple(sorted(nu, reverse=True)))


def _sym_class_order(k: int) -> tuple[Partition, ...]:
    identity = (1,) * k
    return (identity,) + tuple(mu for mu in enumerate_partitions(k) if mu != identity)


@lru_cache(maxsize=None)
def _symmetric_table_rows(k: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """Irreducible S_k characters by exact orthogonalization of Young characters.

    Permutation characters are processed in descending lexicographic order of
    the subgroup shape; each one contains the matching irreducible character
    once plus previously-extracted characters, so subtracting projections
    leaves exactly the new irreducible row (with its standard label).
    """
    classes = _sym_class_order(k)
    sizes = [class_size(mu) for mu in classes]
    order = factorial(k)
    rows: list[tuple[Partition, tuple[int, ...]]] = []
    for nu in enumerate_partitions(k):
        vec = [young_permutation_character(nu, mu) for mu in classes]
        for _, chi in rows:
            m = sum(s * a * b for s, a, b in zip(sizes, vec, chi))
            m, rem = divmod(m, order)
            if rem:
                raise InvariantError(f"orthogonalization failed at {nu}")
            if m:
                vec = [a - m * b for a, b in zip(vec, chi)]
        norm = sum(s * a * a for s, a in zip(sizes, vec))
        if norm != order or vec[0] <= 0:
            raise InvariantError(f"orthogonalization failed at {nu}")
        rows.append((nu, tuple(vec)))
    return tuple(rows)


def _sym_value(lam: Partition, rho: Partition) -> int:
    rows = dict(_symmetric_table_rows(sum(lam)))
    classes = _sym_class_order(sum(lam))
    return rows[lam][classes.index(tuple(sorted(rho, reverse=True)))]


def symmetric_group_table(k: int, max_order: int | None = None) -> GroupTable:
    """Character table of S_k with partition/cycle-type text labels.

    The order bound applies on every call; each table is built and validated
    once per process.
    """
    check_order(factorial(k), max_order, f"S_{k}")
    return _symmetric_group_table_cached(k)


@lru_cache(maxsize=None)
def _symmetric_group_table_cached(k: int) -> GroupTable:
    classes = _sym_class_order(k)
    table = GroupTable(
        name=f"S{k}",
        order=factorial(k),
        classes=tuple((format_partition(mu), class_size(mu)) for mu in classes),
        irreps=tuple(
            (format_partition(lam), row[0], row) for lam, row in _symmetric_table_rows(k)
        ),
    )
    return table.validate()


# ---------------------------------------------------------------------------
# Wreath products H^k x| S_k: elements, classes, labels


def wreath_mult(group: ConcreteGroup, x, y):
    """(a, s)(b, r) = (a * s.b, s o r) where (s.b)_i = b_{s^-1(i)}."""
    (bx, px), (by, py) = x, y
    k = len(px)
    pinv = [0] * k
    for i, img in enumerate(px):
        pinv[img] = i
    base = tuple(group.mult[bx[i]][by[pinv[i]]] for i in range(k))
    perm = tuple(px[py[i]] for i in range(k))
    return (base, perm)


def wreath_inverse(group: ConcreteGroup, x):
    bx, px = x
    k = len(px)
    pinv = [0] * k
    for i, img in enumerate(px):
        pinv[img] = i
    base = tuple(group.inverse[bx[px[i]]] for i in range(k))
    return (base, tuple(pinv))


def wreath_elements(group: ConcreteGroup, k: int):
    for base in itertools.product(range(group.size), repeat=k):
        for perm in itertools.permutations(range(k)):
            yield (base, perm)


def _perm_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        cycles.append(cyc)
    return cycles


def colored_cycle_type(group: ConcreteGroup, elem) -> WreathLabel:
    """Class label of a wreath element: each cycle length, colored by the
    H-class of the product of its base entries taken along the cycle."""
    base, perm = elem
    colored: dict[int, list[int]] = {}
    for cyc in _perm_cycles(perm):
        prod = 0
        for i in cyc:
            prod = group.mult[base[i]][prod]
        colored.setdefault(group.class_of[prod], []).append(len(cyc))
    return tuple(
        (cls, tuple(sorted(lengths, reverse=True))) for cls, lengths in sorted(colored.items())
    )


def identity_colored_type(k: int) -> WreathLabel:
    return (((0, (1,) * k),)) if k else ()


def _wreath_generators(group: ConcreteGroup, k: int):
    gens = []
    idp = tuple(range(k))
    if k >= 1:
        for h in range(1, group.size):
            gens.append(((h,) + (0,) * (k - 1), idp))
    if k >= 2:
        gens.append(((0,) * k, (1, 0) + tuple(range(2, k))))
        gens.append(((0,) * k, tuple(range(1, k)) + (0,)))
    return gens


@dataclass(frozen=True)
class WreathClass:
    label: WreathLabel
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def representative(self):
        return self.members[0]


@lru_cache(maxsize=None)
def _wreath_classes_cached(name: str, k: int) -> tuple[WreathClass, ...]:
    group = _CONCRETE[name]
    gens = _wreath_generators(group, k)
    inv_gens = [wreath_inverse(group, g) for g in gens]
    assigned: dict[tuple, int] = {}
    classes: list[WreathClass] = []
    for elem in wreath_elements(group, k):
        if elem in assigned:
            continue
        orbit = {elem}
        frontier = [elem]
        while frontier:
            x = frontier.pop()
            for g, gi in zip(gens, inv_gens):
                y = wreath_mult(group, wreath_mult(group, g, x), gi)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        label = colored_cycle_type(group, elem)
        if any(colored_cycle_type(group, y) != label for y in orbit):
            raise InvariantError(f"conjugation orbit of {elem} spans several colored cycle types")
        idx = len(classes)
        classes.append(WreathClass(label, tuple(sorted(orbit))))
        for y in orbit:
            assigned[y] = idx
    if len({c.label for c in classes}) != len(classes):
        raise InvariantError(f"two conjugation orbits of {name} wr S_{k} share a colored type")
    identity = identity_colored_type(k)
    ordered = [c for c in classes if c.label == identity]
    ordered += sorted((c for c in classes if c.label != identity), key=lambda c: c.label)
    return tuple(ordered)


def wreath_classes(h_table: GroupTable, k: int, max_order: int | None = None) -> tuple[WreathClass, ...]:
    group = concrete_base(h_table)
    check_order(group.size**k * factorial(k), max_order, f"{h_table.name} wr S_{k}")
    return _wreath_classes_cached(h_table.name, k)


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
# Wreath irrep labels (array notation) and the brute-force character table


@lru_cache(maxsize=None)
def enumerate_wreath_labels(num_h_irreps: int, n: int) -> tuple[WreathLabel, ...]:
    """Deterministic enumeration of level-n array labels, built once per
    (number of H-irreps, n).

    Ordered lexicographically by ascending support of H-irrep indices, then by
    per-slot partitions in canonical (descending lexicographic) order.
    """
    if n == 0:
        return ((),)
    labels: list[WreathLabel] = []
    indices = range(num_h_irreps)
    for r in range(1, min(num_h_irreps, n) + 1):
        for support in itertools.combinations(indices, r):
            for sizes in _compositions(n, r):
                for parts in itertools.product(
                    *(enumerate_partitions(size) for size in sizes)
                ):
                    labels.append(tuple(zip(support, parts)))
    labels.sort(
        key=lambda lab: (
            tuple(i for i, _ in lab),
            tuple(tuple(-x for x in p) for _, p in lab),
        )
    )
    return tuple(labels)


def _compositions(n: int, r: int):
    """Compositions of n into r positive parts (any order; caller re-sorts)."""
    if r == 1:
        yield (n,)
        return
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            yield (first,) + rest


def wreath_irrep_dim(h_table: GroupTable, label: WreathLabel) -> int:
    n = sum(sum(p) for _, p in label)
    dim = factorial(n)
    for idx, part in label:
        dim = dim * h_table.irreps[idx][1] ** sum(part) * dim_irrep(part) // factorial(sum(part))
    return dim


def _block_character(group: ConcreteGroup, label: WreathLabel, elem) -> int | None:
    """Character of the un-induced block representation at a block subgroup
    element, or None if the permutation does not preserve the blocks.

    On block j carrying (U, lambda): chi = chi_lambda(sigma_j) * prod over
    cycles of chi_U(cycle product).
    """
    base, perm = elem
    offsets = []
    start = 0
    for _, part in label:
        offsets.append((start, start + sum(part)))
        start += sum(part)
    value = 1
    for (irrep_idx, part), (lo, hi) in zip(label, offsets):
        block = range(lo, hi)
        if any(not (lo <= perm[i] < hi) for i in block):
            return None
        rel = tuple(perm[i] - lo for i in block)
        cycles = _perm_cycles(rel)
        rho = tuple(sorted((len(c) for c in cycles), reverse=True))
        value *= _sym_value(part, rho)
        if value == 0:
            return 0
        for cyc in cycles:
            prod = 0
            for i in cyc:
                prod = group.mult[base[lo + i]][prod]
            value *= group.table.irreps[irrep_idx][2][group.class_of[prod]]
            if value == 0:
                return 0
    return value


def _induced_value(group: ConcreteGroup, label: WreathLabel, cls: WreathClass, order: int) -> int:
    """Induced-character value at a class: the naive sum (1/|K|) sum_x
    chi.(x g x^-1), folded over the class members with the centralizer weight
    |C_G(g)| = |G|/|[g]| (each member appears that many times as x varies)."""
    block_sizes = [sum(p) for _, p in label]
    if len(block_sizes) == 1:
        chi = _block_character(group, label, cls.representative)
        if chi is None:
            raise InvariantError(f"{label} has no block character at {cls.representative}")
        return chi
    k = sum(block_sizes)
    k_order = group.size**k
    for size in block_sizes:
        k_order *= factorial(size)
    total = 0
    for y in cls.members:
        chi = _block_character(group, label, y)
        if chi:
            total += chi
    value = Fraction(total * (order // cls.size), k_order)
    if value.denominator != 1:
        raise InvariantError(f"non-integral induced character {value} of {label}")
    return int(value)


def wreath_char_table(h_table: GroupTable, k: int, max_order: int | None = None) -> GroupTable:
    """Brute-force character table of H^k x| S_k for a built-in base group H.

    Rows are array labels in canonical enumeration order; columns are colored
    cycle types, identity first. Exact row orthogonality, and each row's
    identity value against its dimension, are validated.
    """
    wreath_classes(h_table, k, max_order)  # applies the order bound
    return _wreath_char_table_cached(h_table, k)


@lru_cache(maxsize=None)
def _wreath_char_table_cached(h_table: GroupTable, k: int) -> GroupTable:
    group = concrete_base(h_table)
    classes = _wreath_classes_cached(h_table.name, k)
    order = group.size**k * factorial(k)
    irrep_names = [lab for lab, _, _ in h_table.irreps]
    class_names = [lab for lab, _ in h_table.classes]
    rows = []
    for label in enumerate_wreath_labels(len(h_table.irreps), k):
        values = tuple(_induced_value(group, label, cls, order) for cls in classes)
        dim = wreath_irrep_dim(h_table, label)
        rows.append((format_wreath_label(irrep_names, label), dim, values))
    table = GroupTable(
        name=f"{h_table.name}_wr_S{k}",
        order=order,
        classes=tuple(
            (format_wreath_label(class_names, cls.label), cls.size) for cls in classes
        ),
        irreps=tuple(rows),
    )
    return table.validate()


# ---------------------------------------------------------------------------
# Text form for wreath labels: "1:[2];-1:[1,1]"


def format_wreath_label(names: list[str] | tuple[str, ...], label: WreathLabel) -> str:
    if not label:
        return "e"
    return ";".join(f"{names[idx]}:{format_partition(part)}" for idx, part in label)


def parse_wreath_label(names: list[str] | tuple[str, ...], text: str) -> WreathLabel:
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
