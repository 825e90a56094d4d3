"""Irrep bases per level, the branching operators Res, Ind, X = Ind Res, and
the polynomials f_l with Ind^l Res^l = f_l(X).

Two chains are built in: the symmetric-group chain (labels are partitions)
and wreath-product chains over a base group H (labels are arrays pairing
distinct H-irreps with partitions). Ind is the transpose of Res throughout,
so X at level n is Res^T Res, a symmetric sparse integer matrix, counted
along Res's edges: X(a, b) is the number of paths a -> child -> b (X = UD on
the branching graph). A built-in chain's Res at level 0 maps onto the empty
lower ring, so X_0 = 0. Every chain hands out f_l as a
``FallingFactorialPoly``, the one type that evaluates it, at a number or on a
dense vector. A sparse vector over a level's irreps, such as a lift or a
restriction, is a plain dict {label: coefficient} of ints and Fractions
(wreath lifts carry 1/dim); ``normalized`` drops its zeros and turns integral
Fractions into ints. Res, Ind and X are integer maps on int vectors.

Memoized per process, because they depend only on the level: the bases
(``partitions.enumerate_partitions``, ``hgroup.enumerate_wreath_labels``) and
the small level-k tables (``hgroup.symmetric_group_table``,
``hgroup.wreath_char_table``), each validated once when it is built.
Memoized per chain instance, built level by level on demand: the basis
indices, Res (as branching-graph edges), X = Res^T Res, the lifts, the
children of each label ``apply_res`` meets and the class sizes
``class_size_from`` computes. ``get_chain`` is memoized too, so
the chains it hands out keep theirs for the life of the process; a chain built
directly starts empty, and its memos go when it does. ``apply_res`` restricts
along the support, so lifting builds no matrix, and a column builds Res's
edges at its level and no sparse matrix. Only Res's ``parents`` and
``matrix`` are filled in later, on first use, so concurrent reads are safe.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, inf, prod

from . import hgroup, partitions
from .hgroup import GroupTable, WreathLabel
from .partitions import Partition
from .sparse import SparseMatrix


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
    def x_norm_bound(self) -> int:
        """A bound on ||X||_inf, X = Res^T Res: ||Ind||_inf ||Res||_inf, the most
        children of a position times the most parents."""
        return max(map(len, self.children), default=0) * max(map(len, self.parents), default=0)

    @classmethod
    def from_entries(cls, level: int, domain: tuple, codomain: tuple,
                     entries) -> "BranchingOperator":
        """Res from its (row, col, multiplicity) entries: an entry of value v
        lists row r under column c v times."""
        children = [[] for _ in domain]
        for r, c, v in entries:
            children[c] += [r] * v
        return cls(level, domain, codomain, tuple(map(tuple, children)))

    def entries(self) -> list:
        """The (row, col, multiplicity) counts of the edges, sorted by (row, col)."""
        counts = Counter((i, j) for j, below in enumerate(self.children) for i in below)
        return [(r, c, v) for (r, c), v in sorted(counts.items())]

    @cached_property
    def matrix(self) -> SparseMatrix:
        return SparseMatrix(len(self.codomain), len(self.domain),
                            {(r, c): v for r, c, v in self.entries()})

    def down(self, vec: list) -> list:
        """Res v: scatter each nonzero level-n coefficient down its edges."""
        out = [0] * len(self.codomain)
        for c, below in zip(vec, self.children):
            if c:
                for i in below:
                    out[i] += c
        return out

    def up(self, vec: list) -> list:
        """Ind v = Res^T v: scatter each nonzero level-(n-1) coefficient up its edges."""
        out = [0] * len(self.domain)
        for d, above in zip(vec, self.parents):
            if d:
                for j in above:
                    out[j] += d
        return out

    def times_x(self, vec: list) -> list:
        """X v = Ind(Res v)."""
        return self.up(self.down(vec))


def normalized(vec: dict) -> dict:
    """A vector {label: coefficient} without its zeros, integral Fractions as ints."""
    return {label: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for label, c in vec.items() if c}


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

    def value(self, x) -> Fraction:
        """f_l(x) in integers: for x = p/q, leading * prod (p - r q) / q^l, reduced once."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        return Fraction(self.leading.numerator * prod(p - r * q for r in self.roots),
                        self.leading.denominator * q ** len(self.roots))

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

    The suites need ``res_operator`` and ``ind_res`` (built on it), the levels
    ``min_n`` to ``max_n`` and the ranges the suites run over, f_l as
    ``poly(l)``, and the class data: ``group_order``, ``classes_at``,
    ``identity_class``, ``format_class`` and ``class_size_from(h, m, j)`` for
    j above or below m, on which ``ind_t_character`` is built. ``fit_class``
    alone decides whether a class fits a level; ``class_size_from`` is built
    on it and the chain's ``class_size``. The engine fits each class once,
    applies ``poly(l)`` and reads ``class_size`` of its ``pad_core`` for the norm;
    lifting needs ``label_level`` and ``pad_first_row``, and checks at run
    time that its recursion never revisits a label whose lift is still
    waiting. A chain may declare two capabilities, or a suite needing one is
    skipped: ``reference`` (``reference_columns``) for the oracle,
    ``has_irrep_labels`` for lifts and exports.
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
        self._class_sizes: dict = {}  # (class, m, j) -> class_size_from(class, m, j)

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
        """Res at level n; at the lowest level it maps onto the empty lower ring."""
        if not self.has_level(n):
            raise ValueError(f"chain {self.id!r} has no level {n}")
        if n not in self._res_cache:
            lowest = n == self.min_n
            row = {}.__getitem__ if lowest else self.basis_index(n - 1).__getitem__  # no child at 0
            children = tuple(tuple(map(row, self._children(p))) for p in self.basis(n))
            below = () if lowest else self.basis(n - 1)
            self._res_cache[n] = BranchingOperator(n, self.basis(n), below, children)
        return self._res_cache[n]

    def ind_res(self, n: int) -> SparseMatrix:
        """X = Ind Res = Res^T Res at level n, the McKay adjacency of Ind(t):
        X(a, b) counts the paths a -> child -> b along Res's edges."""
        if n not in self._x_cache:
            res = self.res_operator(n)
            x = self._x_cache[n] = SparseMatrix(len(res.domain), len(res.domain))
            # every path joins two level-n positions, so no entry needs a bounds check
            x.data = dict(Counter((a, b) for a, below in enumerate(res.children)
                                  for i in below for b in res.parents[i]))
        return self._x_cache[n]

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
        """The class of the same element at level n: its ``fit_class`` core with fixed points."""
        return self.pad_core(*self.fit_class(cls, n), n)

    def pad_core(self, core, k: int, n: int):
        """A ``fit_class`` core of level k with n - k >= 0 fixed points; unchecked."""
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

    def class_size(self, cls) -> int:
        """The size of a class at its own level."""
        raise NotImplementedError

    def fit_class(self, cls, n: int):
        """(core class, core level k) of a class given at level n, k = 0 for the
        identity. A class has the shape of a label, so ``label_level`` is its
        level with its fixed points; ValueError if that is above n."""
        if self.label_level(cls) > n:
            name = self.format_class(cls) if cls else "e"  # the identity as typed
            raise ValueError(f"class {name!r} does not fit at level {n}")
        return self.strip_class(cls)

    def class_size_from(self, cls, m: int, j: int) -> int:
        """|[h] meet G_j| for a class h given at level m: for j >= m the size of
        h's class embedded at level j; for j < m the total size of the level-j
        classes inside [h], 0 when there are none; ValueError unless h fits at m.
        Each (h, m, j) is computed once per chain."""
        key = (cls, m, j)
        if key not in self._class_sizes:
            self._class_sizes[key] = self._class_size_from(cls, m, j)
        return self._class_sizes[key]

    def _class_size_from(self, cls, m: int, j: int) -> int:
        core, k = self.fit_class(cls, m)  # [h] meets G_j in one class, if k <= j
        return self.class_size(self.pad_core(core, k, j)) if k <= j else 0

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

    def pad_core(self, core: Partition, k: int, n: int) -> Partition:
        return core + (1,) * (n - k)

    class_size = staticmethod(partitions.class_size)

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

    def pad_core(self, core: WreathLabel, k: int, n: int) -> WreathLabel:
        if k == n:  # no fixed points to add
            return core
        out = dict(core)
        out[0] = out.get(0, ()) + (1,) * (n - k)  # 1 is the smallest part
        return tuple(sorted(out.items()))

    def class_size(self, cls: WreathLabel) -> int:
        return hgroup.wreath_class_size_formula(self.h_table, cls)

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
