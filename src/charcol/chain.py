"""Irrep bases per level, the branching operators Res, Ind, X = Ind Res, and
the polynomials f_l with Ind^l Res^l = f_l(X).

Two chains are built in: the symmetric-group chain (labels are partitions)
and wreath-product chains over a base group H (labels are arrays pairing
distinct H-irreps with partitions). Ind is the transpose of Res throughout,
so X at level n is Res^T Res, a symmetric integer matrix: X(a, b) counts the
paths a -> child -> b along Res's edges. A built-in chain's Res at level 0
maps onto the empty lower ring, so X_0 = 0. A chain with class signs folds Res
by its twins (``sign_fold``) for the columns of one sign. Every chain hands
out f_l as a ``FallingFactorialPoly``, the one type that evaluates it, at a
number (in ints at an int, if its leading coefficient is integral) or on a
dense vector. The permutation characters of ``coset_character`` are ints, and
Fractions only on a spoiled ingested chain. A sparse vector over a level's
irreps, such as a lift, is a dict {label: coefficient} of ints and Fractions
(wreath lifts carry 1/dim); ``normalized`` drops its zeros and turns integral
Fractions into ints.

Memoized per process, as they depend only on the level: the bases and the
small level-k tables, each validated once when it is built. Memoized per
chain instance, built level by level on demand: the basis indices, Res (as
branching-graph edges), its sign folds, the twin tables, the lifts, the children
of each label ``apply_res`` meets and the class sizes ``class_size_from`` computes. X is
counted along Res's edges on each ``ind_res`` call. ``get_chain`` is memoized
too, so the chains it hands out keep theirs for the life of the process; a
chain built directly starts empty, and its memos go when it does. Lifting
sweeps levels along the support (``apply_res``), and a column runs on Res's or
its fold's edges at its own level, so neither builds a sparse matrix. Only
Res's ``parents`` and ``matrix`` fill in on first use, so concurrent reads are safe.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from contextlib import suppress
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, inf, prod
from operator import add, sub

from . import hgroup, partitions
from .hgroup import GroupTable, WreathLabel
from .partitions import Partition
from .sparse import SparseMatrix


def _scatter(vec: list, edges, minus, size: int) -> list:
    """vec[j] added along the edges j -> i in ``edges[j]``, less along ``minus``'s (j, [i, ...])."""
    out = [0] * size
    for c, targets in zip(vec, edges):
        if c:
            for i in targets:
                out[i] += c
    for j, targets in minus:
        for i in targets:
            out[i] -= vec[j]
    return out


def _transpose(edges, size: int) -> list:
    """The edges (j, [i, ...]) reversed: [j, ...] for each i < size."""
    out = [[] for _ in range(size)]
    for j, targets in edges:
        for i in targets:
            out[i].append(j)
    return out


class BranchingOperator(namedtuple("BranchingOperator", "domain codomain children "
                                   "mirror minus up_edges up_minus", defaults=((), (), (), ()))):
    """Res at level n as branching-graph edges: ``children[j]`` lists the level-(n-1)
    positions under level-n position j, m times for multiplicity m. A ``sign_fold``
    is one too, on one label of each twin pair: ``twins`` (``mirror``) holds their twins,
    ``minus`` the (j, [i, ...]) edges that carry -1, and ``up_edges`` and ``up_minus``
    the way back up, which is not the children reversed. A column pass reads Res
    itself as the fold of sign 0, each label kept and its own twin."""

    kept = property(lambda self: self.domain)
    twins = property(lambda self: self.mirror or self.domain)

    @cached_property
    def parents(self) -> tuple:
        return self.up_edges or tuple(map(tuple, _transpose(enumerate(self.children), len(self.codomain))))

    @cached_property
    def x_norm_bound(self) -> int:
        """A bound on ||X||_inf of Res's X = Res^T Res: ||Ind||_inf ||Res||_inf, the
        most children of a position times the most parents."""
        return max(map(len, self.children), default=0) * max(map(len, self.parents), default=0)

    @classmethod
    def from_entries(cls, domain: tuple, codomain: tuple, entries) -> "BranchingOperator":
        """Res from its (row, col, multiplicity) entries: an entry of value v
        lists row r under column c v times."""
        children = _transpose(((r, [c] * v) for r, c, v in entries), len(domain))
        return cls(domain, codomain, tuple(map(tuple, children)))

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
        return _scatter(vec, self.children, self.minus, len(self.codomain))

    def up(self, vec: list) -> list:
        """Ind v = Res^T v: scatter each nonzero level-(n-1) coefficient up its edges."""
        return _scatter(vec, self.parents, self.up_minus, len(self.domain))

    def times_x(self, vec: list) -> list:
        """X v = Ind(Res v)."""
        return self.up(self.down(vec))


def normalized(vec: dict) -> dict:
    """A vector {label: coefficient} without its zeros, integral Fractions as ints."""
    return {label: c.numerator if type(c) is Fraction and c.denominator == 1 else c
            for label, c in vec.items() if c}


class FallingFactorialPoly(namedtuple("FallingFactorialPoly", "roots leading", defaults=(1,))):
    """f_l = leading * (X - r_1)...(X - r_l) over its roots r_1, ..., r_l, a tuple; with
    no roots it is the constant ``leading``, an int or a Fraction. The built-in chains'
    f_l is the falling factorial X(X-M)...(X-(l-1)M) with leading coefficient 1."""

    @property
    def factors(self) -> int:
        return len(self.roots)

    def value(self, x) -> int | Fraction:
        """f_l(x) = leading * prod (x - r): an int when x and the leading coefficient are."""
        return self.leading * prod(x - r for r in self.roots)

    def apply(self, times_x, vec: list) -> list:
        """(X - r_l)...(X - r_1) (leading * v) on a dense vector, roots in
        order, where ``times_x(v)`` returns X v as a dense list."""
        out = list(vec) if self.leading == 1 else [self.leading * v for v in vec]
        for root in self.roots:
            nxt = times_x(out)
            out = [a - root * b for a, b in zip(nxt, out)] if root else nxt
        return out


class Chain:
    """Shared machinery; subclasses provide labels, branching, and class data.

    The suites need ``res_operator`` and ``ind_res`` (built on it), the levels
    ``min_n`` to ``max_n`` and the ranges the suites run over, f_l as ``poly(l)``,
    and the class data: ``group_order``, ``classes_at``, ``identity_class``,
    ``format_class`` and ``class_size_from(h, m, j)`` for j above or below m, on
    which ``coset_character`` is built. ``check_class`` alone decides whether a tuple
    is a class, for the engine and each ``reference_column``; ``fit_class`` whether
    it fits a level, and ``class_size_from`` is built on it and ``class_size``. The
    engine fits each class once, applies ``poly(l)`` and reads ``class_size`` of its
    ``pad_core`` for the norm; lifting needs ``label_level`` and ``pad_first_row``.
    A chain may declare capabilities, or what needs one is skipped: ``reference``
    (``reference_column``) for the oracle, ``has_irrep_labels`` for lifts, columns,
    tables and exports, ``class_sign`` (a sign character) with ``_twin_pairs`` for
    ``sign_fold``, ``twin_table``, ``mirrored_order`` and odd columns.
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
        self._fold_cache: dict[tuple, BranchingOperator] = {}
        self._twin_tables: dict[tuple, GroupTable] = {}
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
        if n not in self._res_cache:
            lowest = self.check_level(n) == self.min_n
            row = {}.__getitem__ if lowest else self.basis_index(n - 1).__getitem__  # no child at 0
            children = tuple(tuple(map(row, self._children(p))) for p in self.basis(n))
            below = () if lowest else self.basis(n - 1)
            self._res_cache[n] = BranchingOperator(self.basis(n), below, children)
        return self._res_cache[n]

    def ind_res(self, n: int) -> SparseMatrix:
        """X = Ind Res = Res^T Res at level n, the McKay adjacency of Ind(t):
        X(a, b) counts the paths a -> child -> b along Res's edges."""
        res = self.res_operator(n)
        x = SparseMatrix(len(res.domain), len(res.domain))
        # path counts are positive, so X skips the constructor's zero filter, a third of its build
        x.data = dict(Counter((a, b) for a, below in enumerate(res.children)
                              for i in below for b in res.parents[i]))
        return x

    def has_level(self, n: int) -> bool:
        return self.min_n <= n <= self.max_n

    def check_level(self, n: int) -> int:
        """n, or the ValueError every command prints for a level the chain does not have."""
        if not self.has_level(n):
            raise ValueError(f"chain {self.id!r} has no level {n}")
        return n

    def check_class(self, cls):
        """cls, if it is its own text read back, as the command line reads every class."""
        with suppress(IndexError):  # an H-class index past H's table is not a class
            if self.parse_class(self.format_class(cls)) == cls:
                return cls
        raise ValueError(f"{cls!r} is not a class of chain {self.id!r}")

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

    def apply_res(self, vec: dict, times: int = 1) -> dict:
        """Res^times of a vector {label: coefficient}, pushed label by label along its
        support and normalized once: what ``times`` one-level calls return or raise, as
        a coefficient that cancels to 0 on the way is pushed no further. Lifts restrict
        the same labels many times, so their children are memoized (and a label is
        checked to lie above level 0 once)."""
        for step in range(times):
            out: dict = {}
            for label, c in vec.items():
                if c or not step:
                    below = self._below.get(label)
                    if below is None:
                        if self.label_level(label) < 1:
                            raise ValueError("apply_res needs a vector at level >= 1")
                        below = self._below[label] = self._children(label)
                    for child in below:
                        out[child] = out.get(child, 0) + c
            vec = out
        return normalized(vec)

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

    def reference_column(self, cls, n: int, max_order: int | None = None) -> dict:
        """The level-n column of a class given at level n or below, from a source independent
        of the engine, as {label: value} without zeros; SizeBoundError above the bound."""
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

    def coset_character(self, cls, m: int, j: int, n: int) -> int | Fraction:
        """The permutation character of G_n on the cosets of G_j, j <= n, at a
        class h given at level m: |G_n| |[h] meet G_j| / (|G_j| |[h]_n|), the
        eigenvalue of Ind^(n-j) Res^(n-j) on h's class function at level n. It
        counts fixed cosets, so it is an int; only a spoiled chain's is a Fraction."""
        inside, size = self.class_size_from(cls, m, j), self.class_size_from(cls, m, n)
        q, r = divmod(num := self.group_order(n) * inside, den := self.group_order(j) * size)
        return Fraction(num, den) if r else q

    class_sign = staticmethod(lambda cls: 0)  # a class's sign for ``sign_fold``; 0: no fold

    def check_signed(self) -> "Chain":
        """The chain, or the ValueError for one without a sign character, whose irreps have no twins."""
        if not self.class_sign(()):
            raise ValueError(f"chain {self.id!r} has no sign character, so its irreps have no twins")
        return self

    def mirrored_order(self, n: int) -> tuple:
        """Level n's labels that come no later than their twins, in basis order, then those twins reversed."""
        kept, twins = self.check_signed()._twin_pairs(self.check_level(n), 1, False)
        return (*kept, *(twin for lam, twin in zip(kept[::-1], twins[::-1]) if twin != lam))

    def twin_table(self, k: int, sign: int, max_order: int | None = None) -> GroupTable:
        """``small_table(k)`` on one label w of each twin pair, row chi_w + sign chi_Tw (chi_w if Tw = w),
        once per chain, k and sign: T commutes with Res, and a fold reads T x as sign times x."""
        table = self.small_table(self.check_level(k), max_order)  # the order bound, on every call
        if (k, sign) not in self._twin_tables:
            rows, name = {label: values for label, _, values in table.irreps}, self.format_label
            fold = add if sign > 0 else sub
            sums = [(name(w), tuple(map(fold, rows[name(w)], rows[name(t)])) if t != w else rows[name(w)])
                    for w, t in zip(*self._twin_pairs(k, 1, False))]
            self._twin_tables[k, sign] = table._replace(irreps=tuple((w, u[0], u) for w, u in sums))
        return self._twin_tables[k, sign]

    def sign_fold(self, n: int, sign: int) -> BranchingOperator:
        """Res at level n folded for sign ``sign``, once per chain, level and sign, over the
        (kept, twins) of ``_twin_pairs(m, sign, below)`` at m = n and, below, m = n - 1.
        Going down (sign +1), a self-twin child met from a label and its twin counts twice,
        and a self-twin label reaches its kept children alone, as often as each occurs;
        going up, it keeps every child."""
        if (n, sign) not in self._fold_cache:
            kept, twins = self._twin_pairs(self.check_level(n), sign, False)
            below, mirror = self._twin_pairs(n - 1, sign, True) if n > self.min_n else ((), ())
            at = {mu: i for i, mu in enumerate(below)}
            flip = {nu: i for i, (mu, nu) in enumerate(zip(below, mirror)) if nu not in (None, mu)}
            plus, minus = ({**at, **flip}, {}) if sign > 0 else (at, flip)
            down, down_minus = [], []
            for j, children in enumerate(map(self._children, kept)):
                try:
                    down.append(list(map(plus.__getitem__, children)))
                except KeyError:  # a twin, or a self-twin child dropped for sign -1
                    down.append([plus[c] for c in children if c in plus])
                    down_minus.append((j, [minus[c] for c in children if c in minus]))
            up = _transpose(enumerate(down), len(below)), _transpose(down_minus, len(below))
            for i, j in ((i, j) for i, mu in enumerate(below) if mu == mirror[i] for j in up[0][i]):
                down[j].append(i)  # a self-twin label's list is replaced next
            down = tuple(tuple(at[c] for c in self._children(lam) if c in at) if lam == twin else tuple(d)
                         for d, lam, twin in zip(down, kept, twins))
            self._fold_cache[n, sign] = BranchingOperator(
                tuple(kept), tuple(below), down, tuple(twins), tuple(down_minus),
                tuple(map(tuple, up[0])), tuple((i, tuple(js)) for i, js in enumerate(up[1]) if js))
        return self._fold_cache[n, sign]


class SymmetricChain(Chain):
    """The chain S_0 <= S_1 <= ...; labels and cycle types are partitions."""

    id = "sym"
    heisenberg_scaling = 1
    reference = "border-strip oracle; norm identity holds"  # the engine checks each norm
    has_irrep_labels = True

    def basis(self, n: int) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    _children = staticmethod(partitions.remove_one_box)

    label_level = staticmethod(sum)

    def pad_first_row(self, label: Partition, n: int):
        padded = (label[0] + n - sum(label),) + label[1:] if label else (n,)
        return padded, 1

    format_label = format_class = staticmethod(partitions.format_partition)
    parse_label = parse_class = staticmethod(partitions.parse_partition)
    group_order = staticmethod(factorial)

    def small_table(self, k: int, max_order: int | None = None) -> GroupTable:
        return hgroup.symmetric_group_table(k, max_order)

    def strip_class(self, cls: Partition):
        core = partitions.strip_fixed_points(cls)
        return core, sum(core)

    def pad_core(self, core: Partition, k: int, n: int) -> Partition:
        return core + (1,) * (n - k)

    class_size = staticmethod(partitions.class_size)
    class_sign = staticmethod(partitions.class_sign)

    def _twin_pairs(self, n: int, sign: int, below: bool) -> tuple:
        """Only a diagram whose first row exceeds its first column by ``near`` or less gets
        its conjugate as twin; other twins are None. A kept diagram's children have a first
        row at most one shorter than their first column, so only such are paired below."""
        kept, twins, paired, near = [], [], set(), 1 if below else n
        for lam in self.basis(n):
            rows, first = len(lam), lam[0] if lam else 0
            if first < rows or first == rows and lam in paired:
                continue
            twin = partitions.conjugate(lam) if first - rows <= near else None
            if first == rows:
                paired.add(twin)
            if twin != lam or sign > 0:
                kept.append(lam)
                twins.append(twin)
        return kept, twins

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[Partition, ...]:
        return partitions.enumerate_partitions(n)

    def reference_column(self, cls: Partition, n: int, max_order: int | None = None) -> dict:
        mu = self.embed_class(self.check_class(cls), n)
        hgroup.check_order(factorial(n), max_order, f"S_{n}")
        return {lam: value for lam in self.basis(n) if (value := partitions.mn_character(lam, mu))}

    def trivial_label(self, n: int) -> Partition:
        return (n,) if n else ()


class WreathChain(Chain):
    """The chain H^n x| S_n for a fixed base group H with integer characters."""

    reference = "wreath Murnaghan-Nakayama rule column"
    has_irrep_labels = True

    def __init__(self, h_table: GroupTable, chain_id: str | None = None):
        super().__init__()
        self.h_table = h_table.validate()
        self.id = chain_id or f"wreath:{h_table.name}"
        self.heisenberg_scaling = h_table.order
        self._h_dims = tuple(dim for _, dim, _ in h_table.irreps)
        self._irrep_names = tuple(lab for lab, _, _ in h_table.irreps)
        self._class_names = tuple(lab for lab, _ in h_table.classes)
        rows = [tuple(values) for _, _, values in h_table.irreps]  # psi: H's first non-trivial linear irrep
        self._psi = next((v for v, dim in zip(rows, self._h_dims) if dim == 1 and set(v) != {1}), None)
        self._tensor = self._psi and tuple(rows.index(tuple(map(prod, zip(v, self._psi)))) for v in rows)

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
        return sum([sum(p) for _, p in label])

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
        core = tuple((idx, p) for idx, part in cls  # only H's identity class has fixed points
                     if (p := partitions.strip_fixed_points(part) if idx == 0 else part))
        return core, sum(sum(p) for _, p in core)

    def pad_core(self, core: WreathLabel, k: int, n: int) -> WreathLabel:
        if k == n:  # no fixed points to add
            return core
        out = dict(core)
        out[0] = out.get(0, ()) + (1,) * (n - k)  # 1 is the smallest part
        return tuple(sorted(out.items()))

    def class_size(self, cls: WreathLabel) -> int:
        return hgroup.wreath_class_size_formula(self.h_table, cls)

    def class_sign(self, cls: WreathLabel) -> int:
        """eta(h) = prod psi(c)^(cycles of colour c); 0, so no fold, without psi."""
        return prod(self._psi[c] ** len(p) for c, p in cls) if self._psi else 0

    def _twin_pairs(self, n: int, sign: int, below: bool) -> tuple:
        """T renames each slot's H-irrep i to i (x) psi; a twin is sorted only for the
        first label of its pair."""
        kept, twins, paired = [], [], set()
        for label in self.basis(n):
            if label not in paired:
                paired.add(twin := tuple(sorted([(self._tensor[i], p) for i, p in label])))
                if twin != label or sign > 0:
                    kept.append(label)
                    twins.append(twin)
        return kept, twins

    def classes_at(self, n: int, max_order: int | None = None) -> tuple[WreathLabel, ...]:
        return tuple(c.label for c in hgroup.wreath_classes(self.h_table, n, max_order))

    def reference_column(self, cls: WreathLabel, n: int, max_order: int | None = None) -> dict:
        full = self.embed_class(self.check_class(cls), n)
        hgroup.check_wreath_order(self.h_table, n, max_order)
        return hgroup.wreath_column(self.h_table, full)

    def trivial_label(self, n: int) -> WreathLabel:
        idx = next(i for i, (_, _, values) in enumerate(self.h_table.irreps) if set(values) == {1})
        return ((idx, (n,)),) if n else ()


def require_symmetric(chain: Chain, what: str):
    if not isinstance(chain, SymmetricChain):
        raise ValueError(f"{what} is defined for the symmetric chain only")


CHAIN_NAMES = ("sym", "z2wreath", *hgroup.BUILTIN_TABLES)


@lru_cache(maxsize=None)
def get_chain(name: str) -> Chain:
    """A built-in chain by name: 'sym', 'z2wreath', or a built-in group H for H wr S_n."""
    if name == "sym":
        return SymmetricChain()
    if name == "z2wreath":
        return WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")
    return WreathChain(hgroup.builtin_table(name))
