"""Irrep bases per level and the branching operators Res, Ind, X = Ind Res.

Two chains are built in: the symmetric-group chain (labels are partitions)
and wreath-product chains over a base group H (labels are arrays pairing
distinct H-irreps with partitions). Ind is the transpose of Res throughout,
so X at level n is Res^T Res, a symmetric sparse integer matrix.

Operators are built level by level on demand and memoized per chain
instance; they are immutable after construction, so concurrent reads are
safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from . import hgroup, partitions
from .hgroup import GroupTable, WreathLabel
from .partitions import Partition
from .sparse import SparseMatrix


@dataclass(frozen=True)
class BranchingOperator:
    """Sparse matrix of Res at one level: rows index level n-1, cols level n."""

    level: int
    domain: tuple
    codomain: tuple
    matrix: SparseMatrix


@dataclass
class ReprVector:
    """Exact rational coefficient vector over the level-n irrep basis."""

    chain_id: str
    level: int
    coeffs: dict

    def coefficient(self, label):
        return self.coeffs.get(label, 0)

    def add_scaled(self, other: "ReprVector", c) -> "ReprVector":
        assert (self.chain_id, self.level) == (other.chain_id, other.level)
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c * v
        return ReprVector(self.chain_id, self.level, _drop_zeros(coeffs))

    def is_integral(self) -> bool:
        return all(Fraction(v).denominator == 1 for v in self.coeffs.values())

    def normalized(self) -> "ReprVector":
        """Reduce integral Fractions to ints and drop zeros."""
        out = {}
        for k, v in self.coeffs.items():
            if isinstance(v, Fraction) and v.denominator == 1:
                v = int(v)
            if v:
                out[k] = v
        return ReprVector(self.chain_id, self.level, out)


def _drop_zeros(coeffs: dict) -> dict:
    return {k: v for k, v in coeffs.items() if v}


class Chain:
    """Shared machinery; subclasses provide labels, branching, and class data.

    The suites need ``res_matrix`` (from which ``ind_res`` and
    ``brute_indl_resl`` are built), the level ranges, the class data, and f_l
    as ``poly_roots``/``poly_leading``; lifting needs ``label_level``,
    ``pad_first_row`` and ``lift_order_less``.
    """

    id: str
    heisenberg_scaling: int | None  # M in Res Ind - Ind Res = M Id; None: inferred
    min_n = 0  # the lowest level the chain has

    def __init__(self):
        self._res_cache: dict[int, BranchingOperator] = {}
        self._x_cache: dict[int, SparseMatrix] = {}
        self.lift_memo: dict = {}

    # -- bases ---------------------------------------------------------------

    def basis(self, n: int) -> tuple:
        raise NotImplementedError

    def basis_index(self, n: int) -> dict:
        return {label: i for i, label in enumerate(self.basis(n))}

    def vector(self, n: int, coeffs: dict) -> ReprVector:
        index = self.basis_index(n)
        for label in coeffs:
            if label not in index:
                raise ValueError(f"label {label} not in level-{n} basis of chain {self.id}")
        return ReprVector(self.id, n, _drop_zeros(dict(coeffs)))

    def unit_vector(self, n: int, label) -> ReprVector:
        return self.vector(n, {label: 1})

    def to_dense(self, vec: ReprVector) -> list:
        index = self.basis_index(vec.level)
        out = [0] * len(index)
        for label, c in vec.coeffs.items():
            out[index[label]] = c
        return out

    def from_dense(self, n: int, values) -> ReprVector:
        basis = self.basis(n)
        return ReprVector(self.id, n, _drop_zeros({basis[i]: v for i, v in enumerate(values)}))

    # -- branching -----------------------------------------------------------

    def _res_entries(self, n: int):
        """Yield (child label at n-1, parent label at n, multiplicity)."""
        raise NotImplementedError

    def res_operator(self, n: int) -> BranchingOperator:
        if n < 1:
            raise ValueError("res_operator needs n >= 1")
        if n not in self._res_cache:
            domain = self.basis(n)
            codomain = self.basis(n - 1)
            rows = {label: i for i, label in enumerate(codomain)}
            cols = {label: i for i, label in enumerate(domain)}
            matrix = SparseMatrix.from_triplets(
                len(codomain),
                len(domain),
                ((rows[child], cols[parent], m) for child, parent, m in self._res_entries(n)),
            )
            self._res_cache[n] = BranchingOperator(n, domain, codomain, matrix)
        return self._res_cache[n]

    def res_matrix(self, n: int) -> SparseMatrix:
        return self.res_operator(n).matrix

    def ind_res(self, n: int) -> SparseMatrix:
        """X = Ind Res at level n, i.e. Res^T Res; the McKay adjacency of Ind(t)."""
        if n not in self._x_cache:
            res = self.res_matrix(n)
            self._x_cache[n] = res.transpose() @ res
        return self._x_cache[n]

    def brute_indl_resl(self, n: int, l: int) -> SparseMatrix:
        """Literal Ind^l Res^l at level n as a composed matrix product.

        Used only as an oracle against the falling-factorial engine.
        """
        if not 1 <= l <= n - self.min_n:
            raise ValueError(f"need 1 <= l <= {n - self.min_n}, got l={l}, n={n}")
        down = self.res_matrix(n)
        for j in range(n - 1, n - l, -1):
            down = self.res_matrix(j) @ down
        return down.transpose() @ down

    def level_range(self, max_n: int) -> range:
        """The levels n >= 1 up to max_n at which the suites compare operators."""
        return range(1, max_n + 1)

    def heisenberg_levels(self, max_n: int) -> range:
        """The levels j whose commutator Res Ind - Ind Res the suites check."""
        return range(0, max_n)

    def poly_roots(self, l: int) -> tuple:
        """Roots of f_l, where Ind^l Res^l = f_l(Ind Res): 0, M, ..., (l-1)M."""
        return tuple(j * self.heisenberg_scaling for j in range(l))

    def poly_leading(self, l: int) -> Fraction:
        """Leading coefficient of f_l."""
        return Fraction(1)

    def apply_res(self, vec: ReprVector) -> ReprVector:
        op = self.res_operator(vec.level)
        return self.from_dense(vec.level - 1, op.matrix.matvec(self.to_dense(vec)))

    def apply_ind(self, vec: ReprVector) -> ReprVector:
        op = self.res_operator(vec.level + 1)
        return self.from_dense(vec.level + 1, op.matrix.transpose().matvec(self.to_dense(vec)))

    # -- labels and classes ----------------------------------------------------

    def label_level(self, label) -> int:
        raise NotImplementedError

    def pad_first_row(self, label, n: int):
        """The label with its first row padded to level n, the rational scale in
        front of it, and the padded slot, which ``lift_order_less`` takes."""
        raise NotImplementedError

    def lift_order_less(self, x, w, pad_slot) -> bool:
        """The lifting order: is x strictly below w?"""
        raise NotImplementedError

    def format_label(self, label) -> str:
        raise NotImplementedError

    def parse_label(self, text: str):
        raise NotImplementedError

    def format_class(self, cls) -> str:
        raise NotImplementedError

    def parse_class(self, text: str):
        raise NotImplementedError

    def group_order(self, n: int) -> int:
        raise NotImplementedError

    def small_table(self, k: int, max_order: int | None = None) -> GroupTable:
        """Character table of the level-k group, for the engine's column input."""
        raise NotImplementedError

    def strip_class(self, cls):
        """Drop fixed points: return (core class, core level)."""
        raise NotImplementedError

    def embed_class(self, cls, n: int):
        """The class of the same element at a higher level (add fixed points)."""
        raise NotImplementedError

    def class_size_at(self, cls, n: int, max_order: int | None = None) -> int:
        """Size of the embedded class at level n; 0 if the class does not meet G_n."""
        raise NotImplementedError

    def classes_at(self, n: int, max_order: int | None = None) -> tuple:
        """All class labels at level n (each at its own level, unstripped)."""
        raise NotImplementedError

    def identity_class(self, n: int):
        raise NotImplementedError

    def trivial_label(self, n: int):
        """The trivial irrep's label at level n."""
        raise NotImplementedError

    def class_size_from(self, cls, m: int, j: int) -> int:
        """|[h]_j| for a class h given at its level m; 0 if h does not meet G_j."""
        return self.class_size_at(self.strip_class(cls)[0], j)

    def ind_t_character(self, cls, m: int) -> Fraction:
        """chi_{Ind(t)} at level m for a class of G_m, via the class-ratio formula
        |G_m| |[h]_{m-1}| / (|G_{m-1}| |[h]_m|); 0 when the class misses G_{m-1}."""
        down = self.class_size_from(cls, m, m - 1)
        if down == 0:
            return Fraction(0)
        up = self.class_size_from(cls, m, m)
        return Fraction(self.group_order(m) * down, self.group_order(m - 1) * up)


class SymmetricChain(Chain):
    """The chain S_0 <= S_1 <= ...; labels and cycle types are partitions."""

    id = "sym"
    heisenberg_scaling = 1

    def basis(self, n: int) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    def _res_entries(self, n: int):
        for parent in self.basis(n):
            for child in partitions.remove_one_box(parent):
                yield child, parent, 1

    def label_level(self, label: Partition) -> int:
        return sum(label)

    def pad_first_row(self, label: Partition, n: int):
        padded = (label[0] + n - sum(label),) + label[1:] if label else (n,)
        return padded, 1, None

    def lift_order_less(self, x: Partition, w: Partition, pad_slot) -> bool:
        return partitions.below_first_row(x) < partitions.below_first_row(w)

    def format_label(self, label: Partition) -> str:
        return partitions.format_partition(label)

    def parse_label(self, text: str) -> Partition:
        return partitions.parse_partition(text)

    format_class = format_label
    parse_class = parse_label

    def group_order(self, n: int) -> int:
        return factorial(n)

    def small_table(self, k: int, max_order: int | None = None) -> GroupTable:
        return hgroup.symmetric_group_table(k, max_order)

    def strip_class(self, cls: Partition):
        core = partitions.strip_fixed_points(cls)
        return core, sum(core)

    def embed_class(self, cls: Partition, n: int) -> Partition:
        return partitions.pad_with_fixed_points(cls, n)

    def class_size_at(self, cls: Partition, n: int, max_order: int | None = None) -> int:
        if sum(cls) > n:
            return 0
        return partitions.class_size(self.embed_class(cls, n))

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    def identity_class(self, n: int) -> Partition:
        return (1,) * n

    def trivial_label(self, n: int) -> Partition:
        return (n,) if n else ()


class WreathChain(Chain):
    """The chain H^n x| S_n for a fixed base group H with integer characters."""

    def __init__(self, h_table: GroupTable, chain_id: str | None = None):
        super().__init__()
        self.h_table = h_table.validate()
        self.id = chain_id or f"wreath:{h_table.name}"
        self.heisenberg_scaling = h_table.order
        self._h_dims = tuple(dim for _, dim, _ in h_table.irreps)
        self._irrep_names = tuple(lab for lab, _, _ in h_table.irreps)
        self._class_names = tuple(lab for lab, _ in h_table.classes)

    def basis(self, n: int) -> tuple[WreathLabel, ...]:
        return hgroup.enumerate_wreath_labels(len(self._h_dims), n)

    def _res_entries(self, n: int):
        for parent in self.basis(n):
            for slot, (h_idx, part) in enumerate(parent):
                mult = self._h_dims[h_idx]
                for smaller in partitions.remove_one_box(part):
                    if smaller:
                        child = parent[:slot] + ((h_idx, smaller),) + parent[slot + 1 :]
                    else:
                        child = parent[:slot] + parent[slot + 1 :]
                    yield child, parent, mult

    def label_level(self, label: WreathLabel) -> int:
        return sum(sum(p) for _, p in label)

    def pad_first_row(self, label: WreathLabel, n: int):
        """Pads the first slot's partition, or starts slot 0 for the empty label;
        the scale is 1/dim^pad for the slot's H-irrep."""
        pad = n - self.label_level(label)
        slot, part = label[0] if label else (0, ())
        padded = ((slot, (part[0] + pad,) + part[1:] if part else (pad,)),) + label[1:]
        dim = self._h_dims[slot]
        return padded, Fraction(1, dim**pad) if dim > 1 else 1, slot

    def lift_order_less(self, x: WreathLabel, w: WreathLabel, pad_slot) -> bool:
        """Fewer boxes below the padded slot's first row, and no more boxes in
        any other slot of w, with one of the two strict."""
        bx = dict(x)
        bw = dict(w)
        if any(i != pad_slot and i not in bw for i in bx):
            return False
        first_x = partitions.below_first_row(bx.get(pad_slot, ()))
        first_w = partitions.below_first_row(bw.get(pad_slot, ()))
        strict_other = False
        for i, part in bw.items():
            if i == pad_slot:
                continue
            have = sum(bx.get(i, ()))
            want = sum(part)
            if have > want:
                return False
            strict_other = strict_other or have < want
        return first_x < first_w or (first_x == first_w and strict_other)

    def format_label(self, label: WreathLabel) -> str:
        return hgroup.format_wreath_label(self._irrep_names, label)

    def parse_label(self, text: str) -> WreathLabel:
        return hgroup.parse_wreath_label(self._irrep_names, text)

    def format_class(self, cls: WreathLabel) -> str:
        return hgroup.format_wreath_label(self._class_names, cls)

    def parse_class(self, text: str) -> WreathLabel:
        return hgroup.parse_wreath_label(self._class_names, text)

    def group_order(self, n: int) -> int:
        return self.h_table.order**n * factorial(n)

    def small_table(self, k: int, max_order: int | None = None) -> GroupTable:
        return hgroup.wreath_char_table(self.h_table, k, max_order)

    def strip_class(self, cls: WreathLabel):
        core = []
        for idx, part in cls:
            if idx == 0:
                part = partitions.strip_fixed_points(part)
            if part:
                core.append((idx, part))
        core_label = tuple(core)
        return core_label, sum(sum(p) for _, p in core_label)

    def embed_class(self, cls: WreathLabel, n: int) -> WreathLabel:
        k = sum(sum(p) for _, p in cls)
        extra = n - k
        if extra < 0:
            raise ValueError(f"class {cls} does not fit at level {n}")
        if extra == 0:
            return cls
        out = dict(cls)
        ones = out.get(0, ())
        out[0] = tuple(sorted(ones + (1,) * extra, reverse=True))
        return tuple(sorted(out.items()))

    def class_size_at(self, cls: WreathLabel, n: int, max_order: int | None = None) -> int:
        if sum(sum(p) for _, p in cls) > n:
            return 0
        return hgroup.wreath_class_size_formula(self.h_table, self.embed_class(cls, n))

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[WreathLabel, ...]:
        return tuple(c.label for c in hgroup.wreath_classes(self.h_table, n, max_order))

    def identity_class(self, n: int) -> WreathLabel:
        return hgroup.identity_colored_type(n)

    def trivial_label(self, n: int) -> WreathLabel:
        idx = next(
            i for i, (_, _, values) in enumerate(self.h_table.irreps)
            if all(v == 1 for v in values)
        )
        return ((idx, (n,)),) if n else ()


def require_symmetric(chain: Chain, what: str):
    if not isinstance(chain, SymmetricChain):
        raise ValueError(f"{what} is defined for the symmetric chain only")


@lru_cache(maxsize=None)
def get_chain(spec: str) -> Chain:
    """Chain registry: 'sym', 'z2wreath', a built-in group name, or an H JSON path."""
    if spec == "sym":
        return SymmetricChain()
    if spec == "z2wreath":
        return WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")
    return WreathChain(hgroup.builtin_table(spec))
