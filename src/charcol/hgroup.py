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
* ``wreath_char_table`` builds H wr S_k tables by explicit brute force over
  enumerated group elements: each array label is induced from a block
  subgroup K = prod_j H wr S_{s_j}, where its character is a product of block
  characters and base characters along cycles. Every element of K is
  enumerated once per block-size composition and tallied by its class in G
  and its block signature (per block, the cycle type and the sorted H-classes
  of the cycle products), which fixes every such label's value there. A
  single block, K = G, is tallied from the class list instead. The classes
  are conjugation orbits under the generators, each conjugation done in one
  pass, and are checked against the colored cycle types.

Wreath irrep labels and conjugacy-class labels are nested tuples
``((index, partition), ...)`` sorted by index with nonempty partitions; the
index namespace is H's irrep list for irrep labels and H's class list for
class labels (colored cycle types).
"""

from __future__ import annotations

import itertools
import json
import os
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial, isqrt
from operator import itemgetter, mul

from .partitions import (
    InvariantError,
    Partition,
    class_size,
    dim_irrep,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .sparse import PackedIdentity

DEFAULT_MAX_ORDER = 10_000
MAX_ORDER_ENV = "CHARCOL_MAX_ORDER"

WreathLabel = tuple[tuple[int, Partition], ...]  # irrep arrays and colored cycle types


class TableValidationError(ValueError):
    """A character table failed one of its exact consistency relations."""


class SizeBoundError(RuntimeError):
    """A group is above the configured order bound.

    The bound refuses every group whose table or classes are built: brute-force
    wreath tables and classes, and also S_k tables and border-strip reference
    columns, though neither enumerates the group.
    """

    def __init__(self, order: int, bound: int, what: str):
        self.order = order
        self.bound = bound
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
        bound = max_order if isinstance(max_order, int) else None
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

    ``classes[0]`` is the identity class, so ``values[0] == dim`` for every
    irrep row. All character values are rational integers by design.
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
# Concrete multiplication for the built-in base groups (brute force needs it)


class ConcreteGroup(namedtuple("ConcreteGroup", "table mult inverse class_of")):
    """Explicit multiplication table aligned with a GroupTable's class order:
    ``mult[a][b]``, ``inverse[a]`` and ``class_of[a]``, the index in
    ``table.classes`` of element a's class."""

    @property
    def size(self) -> int:
        return len(self.mult)


_CONCRETE = {
    "trivial": ConcreteGroup(_TRIVIAL, ((0,),), (0,), (0,)),
    "Z2": ConcreteGroup(_Z2, ((0, 1), (1, 0)), (0, 1), (0, 1)),
}


def has_multiplication(table: GroupTable) -> bool:
    """Whether the table is a built-in group's, whose multiplication brute force can use."""
    return table.name in _CONCRETE and _CONCRETE[table.name].table == table


def concrete_base(table: GroupTable) -> ConcreteGroup:
    if not has_multiplication(table):
        raise ValueError(
            f"no explicit multiplication available for group {table.name!r}; "
            "brute-force wreath computations support the built-in base groups only "
            "(supply precomputed wreath tables as GroupTable JSON instead)"
        )
    return _CONCRETE[table.name]


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

    Each class column is packed over the rows so far, so ``sum_c size_c xi(c)
    column_c`` holds ``|G| <xi, chi_j>`` in slot j for every row j at once;
    the multiples are subtracted from xi packed over the classes, where the
    new row is decoded.
    """
    classes = _sym_class_order(k)
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
    rows: list[tuple[Partition, tuple[int, ...]]] = []
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
        unit = by_row.rows[len(rows)]
        columns = [column + a * unit for column, a in zip(columns, row)]
        packed_rows.append(vec)
        rows.append((nu, row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _sym_lookup(k: int) -> tuple[dict, dict]:
    """S_k's rows by label and its classes' positions, read once per k."""
    positions = {mu: i for i, mu in enumerate(_sym_class_order(k))}
    return dict(_symmetric_table_rows(k)), positions


def _sym_value(lam: Partition, rho: Partition) -> int:
    rows, positions = _sym_lookup(sum(lam))
    return rows[lam][positions[tuple(sorted(rho, reverse=True))]]


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
#
# An element is (base, perm), base in H^k and perm in S_k, and
# (a, s)(b, r) = (a * s.b, s o r) where (s.b)_i = b_{s^-1(i)}.


def wreath_elements(group: ConcreteGroup, k: int):
    for base in itertools.product(range(group.size), repeat=k):
        for perm in itertools.permutations(range(k)):
            yield (base, perm)


@lru_cache(maxsize=None)
def _perm_cycles(perm: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """The cycles of a permutation, each from its least point, with their
    lengths; one memo entry per permutation, read and never changed."""
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
        cycles.append(tuple(cyc))
    return tuple(cycles), tuple(map(len, cycles))


def _cycle_colors(group: ConcreteGroup, base, cycles) -> tuple[int, ...]:
    """The H-class of the product of the base entries along each cycle."""
    colors = []
    for cyc in cycles:
        prod = 0
        for i in cyc:
            prod = group.mult[base[i]][prod]
        colors.append(group.class_of[prod])
    return tuple(colors)


@lru_cache(maxsize=None)
def _colored_type(lengths: tuple[int, ...], colors: tuple[int, ...]) -> WreathLabel:
    """The colored cycle type of cycles of these lengths and H-classes."""
    colored: dict[int, list[int]] = {}
    for length, color in zip(lengths, colors):
        colored.setdefault(color, []).append(length)
    return tuple(
        (cls, tuple(sorted(part, reverse=True))) for cls, part in sorted(colored.items())
    )


def colored_cycle_type(group: ConcreteGroup, elem) -> WreathLabel:
    """Class label of a wreath element: each cycle length, colored by the
    H-class of the product of its base entries taken along the cycle."""
    base, perm = elem
    cycles, lengths = _perm_cycles(perm)
    return _colored_type(lengths, _cycle_colors(group, base, cycles))


def identity_colored_type(k: int) -> WreathLabel:
    return (((0, (1,) * k),)) if k else ()


def _conjugations(group: ConcreteGroup, k: int) -> list:
    """``x -> g x g^-1`` in one pass, for each generator g of H wr S_k in
    turn: ``((h, e, ..., e), id)`` for each h other than the identity e of H
    (element 0), then the pure permutations (0 1) and i -> i + 1 (mod k)."""
    conjugations = []
    if k >= 1:
        for h in range(1, group.size):
            conjugations.append(partial(_conjugate_by_base, group.mult, h, group.inverse[h]))
    if k >= 2:
        for sigma in ((1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)):
            inverse = [0] * k
            for i, img in enumerate(sigma):
                inverse[img] = i
            conjugations.append(partial(_conjugate_by_perm, sigma, itemgetter(*inverse)))
    return conjugations


def _conjugate_by_base(mult, h: int, h_inverse: int, x):
    """g x g^-1 for g = ((h, e, ..., e), id): b_0 becomes h b_0, then
    b_pi(0) becomes b_pi(0) h^-1; the permutation is unchanged."""
    base, perm = x
    b = list(base)
    b[0] = mult[h][b[0]]
    j = perm[0]
    b[j] = mult[b[j]][h_inverse]
    return tuple(b), perm


def _conjugate_by_perm(sigma: tuple[int, ...], reindex, x):
    """g x g^-1 for g = (1, sigma): base b_{sigma^-1(i)} and permutation
    sigma pi sigma^-1, where ``reindex`` picks positions sigma^-1(0), ...,
    sigma^-1(k-1)."""
    base, perm = x
    return reindex(base), tuple(map(sigma.__getitem__, reindex(perm)))


class WreathClass(namedtuple("WreathClass", "label size")):
    """A conjugacy class: its colored cycle type and its size."""


@lru_cache(maxsize=None)
def _wreath_classes_cached(name: str, k: int) -> tuple[WreathClass, ...]:
    group = _CONCRETE[name]
    conjugations = _conjugations(group, k)
    seen: set[tuple] = set()
    classes: list[WreathClass] = []
    for elem in wreath_elements(group, k):
        if elem in seen:
            continue
        orbit = {elem}
        frontier = [elem]
        while frontier:
            x = frontier.pop()
            for conjugate in conjugations:
                y = conjugate(x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        label = colored_cycle_type(group, elem)
        if any(colored_cycle_type(group, y) != label for y in orbit):
            raise InvariantError(f"conjugation orbit of {elem} spans several colored cycle types")
        classes.append(WreathClass(label, len(orbit)))
        seen |= orbit
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
    """Level-n array labels, built once per (number of H-irreps, n) in order:
    supports (ascending H-irrep indices) lexicographically, then each slot's
    partition descending lexicographically, a prefix before its extensions."""
    if n == 0:
        return ((),)
    return tuple(tuple(zip(support, parts)) for support in _supports(0, num_h_irreps, n)
                 for parts in _slot_partitions(n, len(support)))


def _supports(start: int, stop: int, most: int) -> list:
    """Nonempty increasing tuples of at most ``most`` indices in [start, stop)."""
    return [(i,) + rest for i in range(start, stop)
            for rest in [()] + (_supports(i + 1, stop, most - 1) if most > 1 else [])]


def _slot_partitions(n: int, slots: int) -> list:
    """Tuples of ``slots`` nonempty partitions of total size n, in label order."""
    if slots == 1:
        return [(part,) for part in enumerate_partitions(n)]
    return [(part,) + rest for part in _partitions_upto(n - slots + 1, n)
            for rest in _slot_partitions(n - sum(part), slots - 1)]


@lru_cache(maxsize=None)
def _partitions_upto(high: int, top: int) -> tuple[Partition, ...]:
    """Nonempty partitions of size at most ``high`` with parts at most ``top``,
    in descending lexicographic order, each before its extensions."""
    return tuple(itertools.chain.from_iterable(
        [(a,)] + [(a,) + rest for rest in _partitions_upto(high - a, a)]
        for a in range(min(top, high), 0, -1)))


def wreath_irrep_dim(h_table: GroupTable, label: WreathLabel) -> int:
    n = sum(sum(p) for _, p in label)
    dim = factorial(n)
    for idx, part in label:
        dim = dim * h_table.irreps[idx][1] ** sum(part) * dim_irrep(part) // factorial(sum(part))
    return dim


def _block_signature(block_of: tuple[int, ...], blocks: int, cycles, lengths, colors) -> tuple:
    """Per block of a block-preserving element: the cycle type of its
    permutation there, and the sorted H-classes of its cycle products."""
    rhos: list[list[int]] = [[] for _ in range(blocks)]
    hues: list[list[int]] = [[] for _ in range(blocks)]
    for cyc, length, color in zip(cycles, lengths, colors):
        j = block_of[cyc[0]]
        rhos[j].append(length)
        hues[j].append(color)
    return tuple((tuple(sorted(rho, reverse=True)), tuple(sorted(hue)))
                 for rho, hue in zip(rhos, hues))


def _block_value(h_table: GroupTable, label: WreathLabel, signature: tuple) -> int:
    """The un-induced block character at an element of this block signature:
    on block j carrying (U, lambda), chi_lambda(rho_j) * prod over its cycles
    of chi_U(cycle product)."""
    value = 1
    for (irrep_idx, part), (rho, hue) in zip(label, signature):
        value *= _sym_value(part, rho)
        chi = h_table.irreps[irrep_idx][2]
        for color in hue:
            value *= chi[color]
    return value


def _block_subgroup_tally(group: ConcreteGroup, sizes: tuple[int, ...]) -> tuple[int, dict]:
    """|K| and every element of the block subgroup K = prod_j H wr S_{s_j},
    tallied as ``{colored cycle type in G: {block signature: count}}``.

    Block j holds positions s_1 + ... + s_{j-1} onward. The elements sharing a
    permutation share its cycles, so their base entries are tallied by the
    colors of those cycles first."""
    block_of = tuple(j for j, size in enumerate(sizes) for _ in range(size))
    block_perms, start = [], 0
    for size in sizes:
        block_perms.append(list(itertools.permutations(range(start, start + size))))
        start += size
    bases = list(itertools.product(range(group.size), repeat=start))
    k_order = 0
    tally: dict[WreathLabel, dict[tuple, int]] = {}
    for parts in itertools.product(*block_perms):
        cycles, lengths = _perm_cycles(tuple(itertools.chain.from_iterable(parts)))
        colorings = Counter(_cycle_colors(group, base, cycles) for base in bases)
        for colors, count in colorings.items():
            by_signature = tally.setdefault(_colored_type(lengths, colors), {})
            signature = _block_signature(block_of, len(sizes), cycles, lengths, colors)
            by_signature[signature] = by_signature.get(signature, 0) + count
        k_order += len(bases)
    return k_order, tally


def _induced_value(h_table: GroupTable, label: WreathLabel, cls: WreathClass, order: int,
                   tallies: dict) -> int:
    """Induced-character value at a class C: the naive sum (1/|K|) sum_x
    chi(x g x^-1) over x in G, where each member of C appears |C_G(g)| =
    |G|/|C| times as x varies, so it is |G|/(|C| |K|) times the sum of chi over
    the elements of K in C. Those are counted by block signature in
    ``tallies[block sizes]``, one tally for every label of the same block
    sizes; a single block is K = G, whose tally is the class list."""
    k_order, tally = tallies[tuple(sum(p) for _, p in label)]
    total = sum(count * _block_value(h_table, label, signature)
                for signature, count in tally.get(cls.label, {}).items())
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
    labels = enumerate_wreath_labels(len(h_table.irreps), k)
    # K = G for one block: a class's members share its cycle type and sorted colors
    whole = {}
    for c in classes:
        rho = tuple(sorted((x for _, p in c.label for x in p), reverse=True))
        whole[c.label] = {((rho, tuple(i for i, p in c.label for _ in p)),): c.size}
    tallies = {(k,): (order, whole)}
    for label in labels:
        sizes = tuple(sum(p) for _, p in label)
        if sizes not in tallies:
            tallies[sizes] = _block_subgroup_tally(group, sizes)
    rows = []
    for label in labels:
        values = tuple(_induced_value(h_table, label, cls, order, tallies) for cls in classes)
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
