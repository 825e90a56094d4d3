"""Irrep bases per level, the branching operators Res, Ind, X = Ind Res, and
the polynomials f_l with Ind^l Res^l = f_l(X).

Two chains are built in: the symmetric-group chain (labels are partitions)
and wreath-product chains over a base group H (labels are arrays pairing
distinct H-irreps with partitions). Ind is the transpose of Res throughout,
so X at level n is Res^T Res, a symmetric sparse integer matrix. Every chain
hands out f_l as a ``FallingFactorialPoly``, the one type that evaluates it,
at a number or on a dense vector. A sparse vector over a level's irreps, such
as a lift or a restriction, is a plain dict {label: coefficient} of ints and
Fractions; ``normalized`` drops its zeros and turns integral Fractions into ints.

Memoized per process, because they depend only on the level: the bases
(``partitions.enumerate_partitions``, ``hgroup.enumerate_wreath_labels``) and
the small level-k tables (``hgroup.symmetric_group_table``,
``hgroup.wreath_char_table``), each validated once when it is built.
Memoized per chain instance, built level by level on demand: the basis
indices, Res (as branching-graph edges), X = Res^T Res, the lifts and the
children of each label ``apply_res`` meets. ``get_chain`` is memoized too, so
the chains it hands out keep theirs for the life of the process, and
``engine.reduced_operator`` builds on ``get_chain("sym")``'s X; a chain built
directly starts empty, and its memos go when it does. ``apply_res`` restricts
along the support, so lifting builds no matrix, and a column builds Res's
edges at its level and no sparse matrix. Only Res's ``parents`` and
``matrix`` are filled in later, on first use, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import factorial, inf

from . import hgroup, partitions
from .hgroup import GroupTable, WreathLabel
from .partitions import Partition
from .sparse import SparseMatrix, _norm


@dataclass(frozen=True)
class BranchingOperator:
    """Res at level n as branching-graph edges: ``children[j]`` lists the level-(n-1)
    positions under level-n position j, m times for multiplicity m."""

    level: int
    domain: tuple
    codomain: tuple
    children: tuple

    @cached_property
    def parents(self) -> tuple:
        parents = [[] for _ in self.codomain]
        for j, below in enumerate(self.children):
            for i in below:
                parents[i].append(j)
        return tuple(map(tuple, parents))

    @cached_property
    def matrix(self) -> SparseMatrix:
        edges = ((i, j, 1) for j, below in enumerate(self.children) for i in below)
        return SparseMatrix.from_triplets(len(self.codomain), len(self.domain), edges)

    def times_x(self, vec: list) -> list:
        """X v = Ind(Res v): scatter each nonzero coefficient down the edges, then up."""
        down = [0] * len(self.codomain)
        for c, below in zip(vec, self.children):
            if c:
                for i in below:
                    down[i] += c
        out = [0] * len(self.domain)
        for d, above in zip(down, self.parents):
            if d:
                for j in above:
                    out[j] += d
        return [x if type(x) is int else _norm(x) for x in out]


def normalized(vec: dict) -> dict:
    """A vector {label: coefficient} without its zeros, integral Fractions as ints."""
    return {label: _norm(c) for label, c in vec.items() if c}


@dataclass(frozen=True)
class FallingFactorialPoly:
    """f_l = leading * (X - r_1)...(X - r_l) over its roots r_1, ..., r_l; with
    no roots it is the constant ``leading``. The built-in chains' f_l is the
    falling factorial X(X-M)...(X-(l-1)M) with leading coefficient 1."""

    roots: tuple
    leading: Fraction | int = 1

    @property
    def factors(self) -> int:
        return len(self.roots)

    def value(self, x):
        out = self.leading
        for root in self.roots:
            out *= x - root
        return out

    def apply(self, times_x, vec: list) -> list:
        """(X - r_l)...(X - r_1) (leading * v) on a dense vector, roots in
        order, where ``times_x(v)`` returns X v as a dense list."""
        out = list(vec) if self.leading == 1 else [self.leading * v for v in vec]
        for root in self.roots:
            nxt = times_x(out)
            if root:
                out = [a - root * b for a, b in zip(nxt, out)]
            else:
                out = nxt
        return out


class Chain:
    """Shared machinery; subclasses provide labels, branching, and class data.

    The suites need ``res_matrix`` (from which ``ind_res`` and
    ``brute_indl_resl`` are built), the levels ``min_n`` to ``max_n`` and the
    ranges the suites run over, f_l as ``poly(l)``, and
    the class data: ``group_order``, ``classes_at``, ``identity_class``,
    ``format_class`` and ``class_size_from(h, m, j)`` for j above or below m,
    on which ``ind_t_character`` is built. The engine applies ``poly(l)`` and
    reads ``class_size_from`` for the column norm; lifting needs
    ``label_level`` and ``pad_first_row``, and checks at run time that its
    recursion never revisits a label whose lift is still waiting. A chain may
    declare two capabilities, or a suite needing one is skipped: ``reference``
    (``reference_columns``) for the oracle, ``has_irrep_labels`` for lifts
    and exports.
    """

    id: str
    heisenberg_scaling: int | None  # M in Res Ind - Ind Res = M Id; None: inferred
    min_n = 0  # the lowest level the chain has
    max_n = inf  # the highest; the built-in chains have no top
    reference: str | None = None  # what a passing oracle check says the engine column equals
    has_irrep_labels = False

    def __init__(self):
        self._index_cache: dict[int, dict] = {}
        self._res_cache: dict[int, BranchingOperator] = {}
        self._x_cache: dict[int, SparseMatrix] = {}
        self.lift_memo: dict = {}
        self._below: dict = {}  # label -> _children(label), for the labels apply_res has met

    # -- bases ---------------------------------------------------------------

    def basis(self, n: int) -> tuple:
        raise NotImplementedError

    def basis_index(self, n: int) -> dict:
        """Label -> position in ``basis(n)``; built once per level, read-only."""
        index = self._index_cache.get(n)
        if index is None:
            index = self._index_cache[n] = {label: i for i, label in enumerate(self.basis(n))}
        return index

    # -- branching -----------------------------------------------------------

    def _children(self, label) -> list:
        """Res of one irrep: the labels one level below, m times for multiplicity m."""
        raise NotImplementedError

    def res_operator(self, n: int) -> BranchingOperator:
        if n < 1:
            raise ValueError("res_operator needs n >= 1")
        if n not in self._res_cache:
            row = self.basis_index(n - 1).__getitem__
            children = tuple(tuple(map(row, self._children(p))) for p in self.basis(n))
            self._res_cache[n] = BranchingOperator(n, self.basis(n), self.basis(n - 1), children)
        return self._res_cache[n]

    def res_matrix(self, n: int) -> SparseMatrix:
        return self.res_operator(n).matrix

    def ind_res(self, n: int) -> SparseMatrix:
        """X = Ind Res at level n, i.e. Res^T Res; the McKay adjacency of Ind(t)."""
        if n not in self._x_cache:
            res = self.res_matrix(n)
            self._x_cache[n] = res.transpose() @ res
        return self._x_cache[n]

    def brute_indl_resl(self, n: int):
        """Literal Ind^l Res^l at level n for l = 1, ..., n - min_n, each restricting
        once more than the last: an iterator of matrix products, used only as an
        oracle against the falling-factorial engine."""
        if n <= self.min_n:
            raise ValueError(f"level {n} has no level below it in chain {self.id}")
        steps = range(n - 1, self.min_n, -1)
        downs = accumulate(steps, lambda down, j: self.res_matrix(j) @ down,
                           initial=self.res_matrix(n))
        return (down.transpose() @ down for down in downs)

    def has_level(self, n: int) -> bool:
        return self.min_n <= n <= self.max_n

    def level_range(self, top: int) -> range:
        """The levels above the lowest one, up to top and the chain's own top,
        at which the suites compare operators."""
        return range(self.min_n + 1, min(top, self.max_n) + 1)

    def heisenberg_levels(self, top: int) -> range:
        """The levels j whose commutator Res Ind - Ind Res the suites check."""
        return range(0, top)

    def poly(self, l: int) -> FallingFactorialPoly:
        """f_l, where Ind^l Res^l = f_l(Ind Res): roots 0, M, ..., (l-1)M."""
        if l < 0:
            raise ValueError("l must be non-negative")
        return FallingFactorialPoly(tuple(j * self.heisenberg_scaling for j in range(l)))

    def apply_res(self, vec: dict) -> dict:
        """Res of a vector {label: coefficient}, pushed label by label along its
        support; lifts restrict the same labels many times, so their children
        are memoized (and a label is checked to lie above level 0 once)."""
        out: dict = {}
        for label, c in vec.items():
            below = self._below.get(label)
            if below is None:
                if self.label_level(label) < 1:
                    raise ValueError("apply_res needs a vector at level >= 1")
                below = self._below[label] = self._children(label)
            for child in below:
                out[child] = out.get(child, 0) + c
        return normalized(out)

    # -- labels and classes ----------------------------------------------------

    def label_level(self, label) -> int:
        raise NotImplementedError

    def pad_first_row(self, label, n: int):
        """The label with its first row padded to level n, and the rational
        scale in front of it; its restriction to the label's own level must
        hold the label with coefficient 1 / scale."""
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

    def classes_at(self, n: int, max_order: int | None = None) -> tuple:
        """All class labels at level n (each at its own level, unstripped)."""
        raise NotImplementedError

    def reference_columns(self, n: int, max_order: int | None = None) -> dict:
        """Level n's character columns from a source independent of the engine,
        as {class: {label: value}} without zeros; SizeBoundError above the bound."""
        raise NotImplementedError

    def identity_class(self, n: int):
        """The identity's class at level n: the empty class with n fixed points."""
        return self.embed_class((), n)

    def trivial_label(self, n: int):
        """The trivial irrep's label at level n."""
        raise NotImplementedError

    def class_size_from(self, cls, m: int, j: int) -> int:
        """|[h] meet G_j| for a class h given at level m: for j >= m the size of
        h's class embedded at level j; for j < m the total size of the level-j
        classes inside [h], 0 when there are none. ValueError if h is not at level m."""
        raise NotImplementedError

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
    reference = "border-strip oracle; norm identity holds"  # the engine checks each norm
    has_irrep_labels = True

    def basis(self, n: int) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    _children = staticmethod(partitions.remove_one_box)

    def label_level(self, label: Partition) -> int:
        return sum(label)

    def pad_first_row(self, label: Partition, n: int):
        padded = (label[0] + n - sum(label),) + label[1:] if label else (n,)
        return padded, 1

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

    def class_size_from(self, cls: Partition, m: int, j: int) -> int:
        core, k = self.strip_class(cls)  # [h] meets S_j in one class, if k <= j
        if k > m:
            raise ValueError(f"class {self.format_class(cls)!r} does not fit at level {m}")
        return partitions.class_size(self.embed_class(core, j)) if k <= j else 0

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    def reference_columns(self, n: int, max_order: int | None = None) -> dict:
        hgroup.check_order(factorial(n), max_order, f"S_{n}")
        basis = self.basis(n)
        return {mu: partitions.border_strip_column(mu, basis) for mu in basis}

    def trivial_label(self, n: int) -> Partition:
        return (n,) if n else ()


class WreathChain(Chain):
    """The chain H^n x| S_n for a fixed base group H with integer characters."""

    reference = "brute-force table column"
    has_irrep_labels = True

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

    def _children(self, label: WreathLabel) -> list:
        out = []
        for slot, (h, whole) in enumerate(label):
            head, tail = label[:slot], label[slot + 1 :]
            for part in partitions.remove_one_box(whole):
                out += [head + ((h, part),) + tail if part else head + tail] * self._h_dims[h]
        return out

    def label_level(self, label: WreathLabel) -> int:
        return sum(sum(p) for _, p in label)

    def pad_first_row(self, label: WreathLabel, n: int):
        """Pads the first slot's partition, or starts slot 0 for the empty label;
        the scale is 1/dim^pad for the slot's H-irrep."""
        pad = n - self.label_level(label)
        slot, part = label[0] if label else (0, ())
        padded = ((slot, (part[0] + pad,) + part[1:] if part else (pad,)),) + label[1:]
        dim = self._h_dims[slot]
        return padded, Fraction(1, dim**pad) if dim > 1 else 1

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
            raise ValueError(f"class {self.format_class(cls)!r} does not fit at level {n}")
        if extra == 0:
            return cls
        out = dict(cls)
        ones = out.get(0, ())
        out[0] = tuple(sorted(ones + (1,) * extra, reverse=True))
        return tuple(sorted(out.items()))

    def class_size_from(self, cls: WreathLabel, m: int, j: int) -> int:
        core, k = self.strip_class(cls)  # [h] meets G_j in one class, if k <= j
        if k > m:
            raise ValueError(f"class {self.format_class(cls)!r} does not fit at level {m}")
        if k > j:
            return 0
        return hgroup.wreath_class_size_formula(self.h_table, self.embed_class(core, j))

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[WreathLabel, ...]:
        return tuple(c.label for c in hgroup.wreath_classes(self.h_table, n, max_order))

    def reference_columns(self, n: int, max_order: int | None = None) -> dict:
        table = self.small_table(n, max_order)
        rows = [(self.parse_label(lab), values) for lab, _, values in table.irreps]
        return {self.parse_class(cls): {label: values[j] for label, values in rows if values[j]}
                for j, (cls, _) in enumerate(table.classes)}

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
