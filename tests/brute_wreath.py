"""Brute-force character tables and classes of H wr S_k, from H's multiplication:
the tests' reference for ``hgroup.wreath_char_table`` and ``wreath_classes``,
which build both from H's character table alone.

An element is (base, perm), base in H^k and perm in S_k, and
(a, s)(b, r) = (a * s.b, s o r) where (s.b)_i = b_{s^-1(i)}. The classes are
conjugation orbits under the generators, each conjugation done in one pass,
and are checked against the colored cycle types. Each array label is induced
from a block subgroup K = prod_j H wr S_{s_j}, where its character is a
product of block characters and base characters along cycles. Every element
of K is enumerated once per block-size composition and tallied by its class
in G and its block signature (per block, the cycle type and the sorted
H-classes of the cycle products), which fixes every such label's value there.
A single block, K = G, is tallied from the class list instead.
"""

import itertools
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from operator import itemgetter

from charcol.hgroup import (
    GroupTable,
    WreathClass,
    builtin_table,
    enumerate_wreath_labels,
    format_wreath_label,
    wreath_irrep_dim,
    _symmetric_table,
)
from charcol.partitions import InvariantError, parse_partition


class ConcreteGroup(namedtuple("ConcreteGroup", "table mult inverse class_of")):
    """Explicit multiplication table aligned with a GroupTable's class order:
    ``mult[a][b]``, ``inverse[a]`` and ``class_of[a]``, the index in
    ``table.classes`` of element a's class. Element 0 is the identity."""

    @property
    def size(self) -> int:
        return len(self.mult)


CONCRETE = {
    "trivial": ConcreteGroup(builtin_table("trivial"), ((0,),), (0,), (0,)),
    "Z2": ConcreteGroup(builtin_table("Z2"), ((0, 1), (1, 0)), (0, 1), (0, 1)),
}


def permutation_product(x: tuple, y: tuple) -> tuple:
    """x after y, permutations of 0..n-1 as tuples of images."""
    return tuple(x[i] for i in y)


def by_closure(table: GroupTable, compose, representatives) -> ConcreteGroup:
    """The group generated by one representative of each class of the table,
    in the table's class order (the identity first), under ``compose``; each
    element's class is the conjugation orbit of the representative it meets,
    and the orbits must have the table's class sizes."""
    elements = [representatives[0]]
    for x in elements:  # grows while it is walked: the closure under the representatives
        for g in representatives:
            if (y := compose(x, g)) not in elements:
                elements.append(y)
    index = {x: i for i, x in enumerate(elements)}
    mult = tuple(tuple(index[compose(x, y)] for y in elements) for x in elements)
    inverse = tuple(row.index(0) for row in mult)
    class_of = [None] * len(elements)
    for c, rep in enumerate(representatives):
        orbit = {mult[mult[g][index[rep]]][inverse[g]] for g in range(len(elements))}
        if len(orbit) != table.classes[c][1] or any(class_of[x] is not None for x in orbit):
            raise InvariantError(f"{table.name}: class {table.classes[c][0]} is not an orbit of its size")
        for x in orbit:
            class_of[x] = c
    if len(elements) != table.order:
        raise InvariantError(f"{table.name}: the closure has {len(elements)} elements")
    return ConcreteGroup(table, mult, inverse, tuple(class_of))


def wreath_elements(group: ConcreteGroup, k: int):
    for base in itertools.product(range(group.size), repeat=k):
        for perm in itertools.permutations(range(k)):
            yield (base, perm)


@lru_cache(maxsize=None)
def perm_cycles(perm: tuple) -> tuple:
    """The cycles of a permutation, each from its least point, with their lengths."""
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


def cycle_colors(group: ConcreteGroup, base, cycles) -> tuple:
    """The H-class of the product of the base entries along each cycle."""
    colors = []
    for cyc in cycles:
        prod = 0
        for i in cyc:
            prod = group.mult[base[i]][prod]
        colors.append(group.class_of[prod])
    return tuple(colors)


@lru_cache(maxsize=None)
def colored_type(lengths: tuple, colors: tuple) -> tuple:
    """The colored cycle type of cycles of these lengths and H-classes."""
    colored: dict = {}
    for length, color in zip(lengths, colors):
        colored.setdefault(color, []).append(length)
    return tuple((cls, tuple(sorted(part, reverse=True))) for cls, part in sorted(colored.items()))


def identity_colored_type(k: int) -> tuple:
    """The identity's colored cycle type: k fixed points of H's identity class."""
    return ((0, (1,) * k),) if k else ()


def colored_cycle_type(group: ConcreteGroup, elem) -> tuple:
    """Class label of a wreath element: each cycle length, colored by the
    H-class of the product of its base entries taken along the cycle."""
    base, perm = elem
    cycles, lengths = perm_cycles(perm)
    return colored_type(lengths, cycle_colors(group, base, cycles))


def conjugations(group: ConcreteGroup, k: int) -> list:
    """``x -> g x g^-1`` in one pass, for each generator g of H wr S_k in
    turn: ``((h, e, ..., e), id)`` for each h other than the identity e of H
    (element 0), then the pure permutations (0 1) and i -> i + 1 (mod k)."""
    maps = []
    if k >= 1:
        for h in range(1, group.size):
            maps.append(partial(conjugate_by_base, group.mult, h, group.inverse[h]))
    if k >= 2:
        for sigma in ((1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)):
            inverse = [0] * k
            for i, img in enumerate(sigma):
                inverse[img] = i
            maps.append(partial(conjugate_by_perm, sigma, itemgetter(*inverse)))
    return maps


def conjugate_by_base(mult, h: int, h_inverse: int, x):
    """g x g^-1 for g = ((h, e, ..., e), id): b_0 becomes h b_0, then
    b_pi(0) becomes b_pi(0) h^-1; the permutation is unchanged."""
    base, perm = x
    b = list(base)
    b[0] = mult[h][b[0]]
    j = perm[0]
    b[j] = mult[b[j]][h_inverse]
    return tuple(b), perm


def conjugate_by_perm(sigma: tuple, reindex, x):
    """g x g^-1 for g = (1, sigma): base b_{sigma^-1(i)} and permutation
    sigma pi sigma^-1, where ``reindex`` picks positions sigma^-1(0), ...,
    sigma^-1(k-1)."""
    base, perm = x
    return reindex(base), tuple(map(sigma.__getitem__, reindex(perm)))


@lru_cache(maxsize=None)
def wreath_classes(group: ConcreteGroup, k: int) -> tuple:
    """The conjugation orbits, identity first and then by colored cycle type."""
    maps = conjugations(group, k)
    seen: set = set()
    classes = []
    for elem in wreath_elements(group, k):
        if elem in seen:
            continue
        orbit = {elem}
        frontier = [elem]
        while frontier:
            x = frontier.pop()
            for conjugate in maps:
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
        raise InvariantError(f"two conjugation orbits of {group.table.name} wr S_{k} share a colored type")
    identity = identity_colored_type(k)
    ordered = [c for c in classes if c.label == identity]
    ordered += sorted((c for c in classes if c.label != identity), key=lambda c: c.label)
    return tuple(ordered)


@lru_cache(maxsize=None)
def sym_lookup(k: int) -> tuple:
    """S_k's rows by label, from Young characters, and its classes' positions."""
    table = _symmetric_table(k)
    return ({parse_partition(lab): values for lab, _, values in table.irreps},
            {parse_partition(lab): i for i, (lab, _) in enumerate(table.classes)})


def sym_value(lam: tuple, rho: tuple) -> int:
    rows, positions = sym_lookup(sum(lam))
    return rows[lam][positions[tuple(sorted(rho, reverse=True))]]


def block_signature(block_of: tuple, blocks: int, cycles, lengths, colors) -> tuple:
    """Per block of a block-preserving element: the cycle type of its
    permutation there, and the sorted H-classes of its cycle products."""
    rhos: list = [[] for _ in range(blocks)]
    hues: list = [[] for _ in range(blocks)]
    for cyc, length, color in zip(cycles, lengths, colors):
        j = block_of[cyc[0]]
        rhos[j].append(length)
        hues[j].append(color)
    return tuple((tuple(sorted(rho, reverse=True)), tuple(sorted(hue))) for rho, hue in zip(rhos, hues))


def block_value(h_table: GroupTable, label, signature: tuple) -> int:
    """The un-induced block character at an element of this block signature:
    on block j carrying (U, lambda), chi_lambda(rho_j) * prod over its cycles
    of chi_U(cycle product)."""
    value = 1
    for (irrep_idx, part), (rho, hue) in zip(label, signature):
        value *= sym_value(part, rho)
        chi = h_table.irreps[irrep_idx][2]
        for color in hue:
            value *= chi[color]
    return value


def block_subgroup_tally(group: ConcreteGroup, sizes: tuple) -> tuple:
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
    tally: dict = {}
    for parts in itertools.product(*block_perms):
        cycles, lengths = perm_cycles(tuple(itertools.chain.from_iterable(parts)))
        colorings = Counter(cycle_colors(group, base, cycles) for base in bases)
        for colors, count in colorings.items():
            by_signature = tally.setdefault(colored_type(lengths, colors), {})
            signature = block_signature(block_of, len(sizes), cycles, lengths, colors)
            by_signature[signature] = by_signature.get(signature, 0) + count
        k_order += len(bases)
    return k_order, tally


def induced_value(h_table: GroupTable, label, cls: WreathClass, order: int, tallies: dict) -> int:
    """Induced-character value at a class C: the naive sum (1/|K|) sum_x
    chi(x g x^-1) over x in G, where each member of C appears |C_G(g)| =
    |G|/|C| times as x varies, so it is |G|/(|C| |K|) times the sum of chi over
    the elements of K in C. Those are counted by block signature in
    ``tallies[block sizes]``, one tally for every label of the same block
    sizes; a single block is K = G, whose tally is the class list."""
    k_order, tally = tallies[tuple(sum(p) for _, p in label)]
    total = sum(count * block_value(h_table, label, signature)
                for signature, count in tally.get(cls.label, {}).items())
    value = Fraction(total * (order // cls.size), k_order)
    if value.denominator != 1:
        raise InvariantError(f"non-integral induced character {value} of {label}")
    return int(value)


@lru_cache(maxsize=None)
def wreath_char_table(group: ConcreteGroup, k: int) -> GroupTable:
    """The validated character table of H wr S_k, laid out as
    ``hgroup.wreath_char_table`` lays it out."""
    h_table = group.table
    classes = wreath_classes(group, k)
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
            tallies[sizes] = block_subgroup_tally(group, sizes)
    rows = []
    for label in labels:
        values = tuple(induced_value(h_table, label, cls, order, tallies) for cls in classes)
        rows.append((format_wreath_label(irrep_names, label), wreath_irrep_dim(h_table, label), values))
    table = GroupTable(
        name=f"{h_table.name}_wr_S{k}",
        order=order,
        classes=tuple((format_wreath_label(class_names, cls.label), cls.size) for cls in classes),
        irreps=tuple(rows),
    )
    return table.validate()
