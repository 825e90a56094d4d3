"""The rigidity-constraint suites, and the border-strip oracle column.

``oracle_column`` (``partitions.mn_character``) is the yardstick symmetric
engine columns are measured against. The suites check the exact constraints
any chain must satisfy for iterated induction-restriction to be polynomial in
Ind Res: the per-class ratio constraint, the two-term order recursion
a_n = B a_{n-1} + C, the resulting polynomial family, and the root/character
correspondence; they also compare engine columns with the chain's reference
columns, and check every lift. ``load_chain`` reads every ``--chain`` spec. A
suite or a check a chain cannot run is listed under ``skipped``, and a failed
comparison names its first differing entry by its labels.

All comparisons are exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial, prod

from . import engine, lifting
from .chain import CHAIN_NAMES, BranchingOperator, Chain, FallingFactorialPoly, WreathChain, get_chain
from .hgroup import GroupTable, SizeBoundError, _typed, read_json
from .partitions import Partition, check_partition
from .partitions import enumerate_partitions  # noqa: F401  bench/tracing.py counts its calls here
from .sparse import PackedIdentity

# ---------------------------------------------------------------------------
# Border-strip oracle


def oracle_column(mu: Partition, n: int):
    """The exact level-n column of the class with cycle type mu, by border strips alone."""
    mu, sym = check_partition(sorted(mu, reverse=True)), get_chain("sym")
    return engine.CharacterColumn(sym.embed_class(mu, n), sym.reference_column(mu, n, factorial(n)))


# ---------------------------------------------------------------------------
# Check results and suite reports


class CheckResult(namedtuple("CheckResult", "name passed detail lhs rhs", defaults=("", None, None))):
    """One named check, whether it passed, and an exact lhs and rhs where it compares two values."""

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        if self.lhs is not None:
            out["lhs"] = jsonable(self.lhs)
        if self.rhs is not None:
            out["rhs"] = jsonable(self.rhs)
        return out


def jsonable(value):
    """An exact scalar as JSON: a non-integral Fraction becomes the string
    "p/q", an integral one an int."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    return value


class SuiteReport(namedtuple("SuiteReport", "suite chain max_n checks skipped")):
    """A suite's checks on a chain up to ``max_n``, and the suites and levels that did not run."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "chain": self.chain,
            "maxN": self.max_n,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
            **({"skipped": self.skipped} if self.skipped else {}),
        }


# ---------------------------------------------------------------------------
# Two-parameter fit of the order ratios


class ChainParams(namedtuple("ChainParams", "status B C message", defaults=(None, None, ""))):
    """Fitted recursion a_n = B a_{n-1} + C over the provided order ratios, with its
    ``status``: "ok", "inconclusive", "violation" or "underdetermined" (too few orders)."""

    def poly(self, l: int) -> FallingFactorialPoly:
        """The predicted f_l: roots C(1 + B + ... + B^(j-1)) for j < l (the
        first is 0), leading coefficient B^(-l(l-1)/2), an int when that is
        +-1, so f_l(x) stays in ints; f_l = X for the constant chain."""
        if l < 0:
            raise ValueError("l must be non-negative")
        if self.status == "inconclusive":
            return FallingFactorialPoly((0,) if l else ())
        if self.status != "ok":
            raise ValueError(f"no f_l from an order fit with status {self.status}")
        roots = tuple(self.C * sum(self.B**i for i in range(j)) for j in range(l))
        leading = Fraction(1, self.B ** (l * (l - 1) // 2))
        return FallingFactorialPoly(roots, leading.numerator if leading.denominator == 1 else leading)


def fit_chain_params(orders) -> ChainParams:
    """Fit (B, C) to the ratios a_n = |G_n| / |G_{n-1}| of orders |G_0|, |G_1|, ...

    An order that is not an int or is below 1, a ratio that does not divide
    (Lagrange) or a non-integer B is a constraint violation, constant ratios are
    inconclusive (the constant chain), too few orders to fix B and C underdetermined.
    """
    orders = tuple(orders)
    if (bad := next((i for i, o in enumerate(orders) if type(o) is not int), None)) is not None:
        return ChainParams("violation", message=f"|G_{bad}| = {orders[bad]!r}: a group order is an integer")
    if (low := next((i for i, o in enumerate(orders) if o < 1), None)) is not None:
        return ChainParams("violation", message=f"|G_{low}| = {orders[low]}: every group has its identity")
    if len(orders) < 4:
        return ChainParams("underdetermined", message="need at least four consecutive group orders")
    a = []
    for i in range(1, len(orders)):
        q, rem = divmod(orders[i], orders[i - 1])
        if rem:
            return ChainParams(
                "violation",
                message=f"|G_{i}| = {orders[i]} is not divisible by |G_{i - 1}| = {orders[i - 1]}",
            )
        a.append(q)
    diffs = [a[i + 1] - a[i] for i in range(len(a) - 1)]
    if all(d == 0 for d in diffs):
        return ChainParams(
            "inconclusive",
            message="constant ratios: the constant-chain case, f_l = X for all l",
        )
    pivot = next((i for i in range(len(diffs) - 1) if diffs[i] != 0), None)
    if pivot is None:
        return ChainParams("underdetermined",
                           message="ratios change only at the last step; supply more orders")
    num, den = diffs[pivot + 1], diffs[pivot]
    if num % den:
        return ChainParams(
            "violation",
            message=f"B = {num}/{den} is not an integer; "
            "no surjective chain with the polynomial property has these orders",
        )
    b = num // den
    c = a[pivot + 1] - b * a[pivot]
    for j in range(len(a) - 1):
        if a[j + 1] != b * a[j] + c:
            return ChainParams(
                "violation", B=b, C=c,
                message=f"recursion a = {b}*a + {c} fails between ratios {a[j]} and {a[j + 1]}",
            )
    if b == 0:  # f_l's leading coefficient would be B^(-l(l-1)/2)
        return ChainParams("violation", B=b, C=c, message="B = 0 leaves f_l undefined")
    notes = [f"wreath family: C = |H| = {c}" if b == 1 and c >= 1
             else f"no known chain realizes (B, C) = ({b}, {c}); hypothesis only"]
    if any(a[i] < i + 1 for i in range(len(a))):
        notes.append("warning: some a_n < n, impossible under the polynomial property "
                     "if orders start at |G_0|")
    return ChainParams("ok", B=b, C=c, message="; ".join(notes))


# ---------------------------------------------------------------------------
# Class-ratio constraint and root/character correspondence


def jeongha_class_constraint(chain, h, n: int, l: int, poly=None) -> CheckResult:
    """The per-class constraint f_l(pi_1(h)) == pi_l(h) for a class h given at level
    n - l: pi_l, ``coset_character`` on G_n / G_{n-l}, is Ind^l Res^l's eigenvalue at h;
    ``poly``, if given, is f_l = ``chain.poly(l)``, built once for every class by the suite."""
    m = n - l
    if m < chain.min_n:
        raise ValueError(f"level n - l = {m} is below the chain's lowest level {chain.min_n}")
    chi = chain.coset_character(h, m, n - 1, n)
    lhs = (chain.poly(l) if poly is None else poly).value(chi)
    rhs = chain.coset_character(h, m, m, n)
    return CheckResult(f"class-constraint n={n} l={l} h={chain.format_class(h)}", lhs == rhs,
                       detail=f"chi_Ind(t)(h) = {chi}", lhs=lhs, rhs=rhs)


def roots_vs_characters(chain, l: int, max_order: int | None = None) -> dict:
    """Compare the roots of f_l with the non-identity character values of Ind(t)
    at the level the re-indexed statement reads: l when G_1 is nontrivial, and
    l+1 when G_1 is also trivial (the symmetric chain). The report holds that
    level's ``values``, or the ``error`` that kept them out (above the order
    bound, no class data, or no such level), and the verdict ``passed``.
    """
    if chain.group_order(0) != 1:
        raise ValueError("root/character correspondence needs G_0 trivial")
    roots = set(chain.poly(l).roots)
    m = l + (1 if chain.group_order(1) == 1 else 0)  # the preferred level
    report = {"l": l, "roots": sorted(roots), "preferred_level": m}
    try:  # chi_Ind(t) at level m is the character on the cosets of G_(m-1)
        values = {chain.coset_character(h, m, m - 1, m) for h in chain.classes_at(m, max_order)
                  if h != chain.identity_class(m)}
    except (SizeBoundError, ValueError) as exc:
        return {**report, "evaluable": False, "passed": False, "error": str(exc)}
    return {**report, "evaluable": True, "passed": values == roots, "values": sorted(values)}


# ---------------------------------------------------------------------------
# Ingestion of arbitrary chains


class IngestError(ValueError):
    pass


def _parse_level(pos: int, raw) -> tuple:
    """A level entry as (n, order, basisSize, Res entries or None, classes or None)."""
    try:
        n, order, basis_size = (_typed(raw[key], int, key) for key in ("n", "order", "basisSize"))
        if order < 1:
            raise ValueError("order must be at least 1: every group has its identity")
        if basis_size < 1:
            raise ValueError("basisSize must be at least 1: every group has its trivial irrep")
        if basis_size > order:
            raise ValueError(f"basisSize {basis_size} > order {order}: a group has no more irreps than elements")
        entries = classes = None
        if raw.get("res") is not None:
            entries = [tuple(_typed(x, int, "a Res entry") for x in (r, c, v))
                       for r, c, v in raw["res"]]
            if any(v < 1 for _, _, v in entries):
                raise ValueError("Res values must be positive")
            if len({(r, c) for r, c, _ in entries}) != len(entries):
                raise ValueError("Res lists a (row, col) pair twice")
        if raw.get("classes") is not None:
            classes = {}
            for c in raw["classes"]:
                label, size = _typed(c["label"], str, "label"), _typed(c["size"], int, "size")
                if size < 1:
                    raise ValueError(f"class {label!r} has size {size}: every class has a member")
                up = c.get("embedsTo")  # absent or null: no embedding listed
                classes[label] = (size, None if up is None else _typed(up, str, "embedsTo"))
    except (KeyError, TypeError, ValueError) as exc:
        where = raw.get("n", f"#{pos}") if isinstance(raw, dict) else f"#{pos}"
        raise IngestError(f"level {where}: malformed level entry: {exc}") from exc
    if classes is not None and len(classes) != len(raw["classes"]):
        raise IngestError(f"level {n}: duplicate class labels")
    if classes is not None and len(classes) != basis_size:
        raise IngestError(f"level {n}: basisSize {basis_size} but classes {len(classes)}: one irrep per class")
    return n, order, basis_size, entries, classes


def row_rank(nrows: int, entries) -> int:
    """Exact rank over Q of the matrix with nrows rows and the given
    (row, col, value) entries, eliminated on the listed nonzeros: each row, a
    dict {col: value}, is reduced by the kept row with the same leading column
    until its leading column is new (it is kept) or it is empty. A step
    subtracts the Fraction multiple of the kept row that clears the leading
    entry, so a row whose leading column is new is kept as it was read."""
    kept: dict[int, dict] = {}  # leading column -> reduced row
    rows: list[dict] = [{} for _ in range(nrows)]
    for r, c, v in entries:
        if v:
            rows[r][c] = v
    for row in rows:
        while row:
            lead = min(row)
            top = kept.get(lead)
            if top is None:
                kept[lead] = row
                break
            f = Fraction(row[lead], top[lead])
            for c, v in top.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(kept)


def _checked_level(parsed: tuple, below: tuple | None) -> tuple:
    """A parsed level as (order, Res, classes), checked against the level below as
    this returned it (None for the lowest level, whose Res, if listed, has no rows):
    Res's shape, rank, entry bounds and empty columns are checked on the listed entries
    before Res, positions as labels, is built; classes are {label: (size, embedsTo)} or None."""
    n, order, basis_size, entries, classes = parsed
    below_order, below_res, below_classes = below or (None, None, None)
    rows = len(below_res.domain) if below else 0
    if entries is not None and any(not (0 <= r < rows and 0 <= c < basis_size)
                                   for r, c, _ in entries):
        raise IngestError(f"Res at level {n} has entries outside its {rows}x{basis_size} shape")
    if below is not None:
        if entries is None:
            raise IngestError(f"level {n} is missing its Res matrix")
        rank = row_rank(rows, entries)
        if rank != rows:
            raise IngestError(f"not a surjective chain: Res at level {n} "
                              f"has row rank {rank} < {rows}")
        # v dim W <= dim V, and v dim V <= [G_n : G_{n-1}] dim W by Frobenius reciprocity
        for r, c, v in entries:
            if v * v * below_order > order:
                raise IngestError(
                    f"not a chain of groups: Res at level {n} has entry {v} at ({r}, {c}), "
                    f"but v^2 |G_{n - 1}| = {v * v * below_order} > |G_{n}| = {order}")
        listed = {c for _, c, _ in entries}  # its least missing column is at most len(listed)
        if (c := min(set(range(len(listed) + 1)) - listed)) < basis_size:
            raise IngestError(f"not a chain of groups: Res at level {n} lists nothing in column {c}, "
                              "but every irrep restricts to something nonzero")
    res = BranchingOperator.from_entries(tuple(range(basis_size)), tuple(range(rows)), entries or ())
    if classes is not None:
        total = sum(size for size, _ in classes.values())
        if total != order:
            raise IngestError(f"level {n}: class sizes sum to {total}, not the order {order}")
        if classes and next(iter(classes.values()))[0] != 1:
            raise IngestError(f"level {n}: first class must be the identity (size 1)")
        inside, identity = dict.fromkeys(classes, 0), next(iter(classes))  # h -> |[h] meet G_{n-1}|
        for pos, (lab, (size, embeds)) in enumerate((below_classes or {}).items()):
            if embeds is not None and embeds not in classes:
                raise IngestError(
                    f"level {n - 1}: class {lab!r} embeds to unknown class {embeds!r}")
            if pos == 0 and embeds not in (None, identity):
                raise IngestError(f"level {n - 1}: the identity {lab!r} embeds to {embeds!r}, "
                                  f"not to the identity {identity!r}")
            inside[embeds] = inside.get(embeds, 0) + size
        for lab in (lab for lab, (size, _) in classes.items() if inside[lab] > size):
            raise IngestError(f"level {n}: the classes embedding into {lab!r} hold "
                              f"{inside[lab]} elements, more than its {classes[lab][0]}")
    return order, res, classes


class IngestedChain(Chain):
    """A user-supplied surjective chain from the parsed ingestion JSON: per-level
    Res (as edges between positions), orders, and optional class data with
    explicit upward embeddings. Each level is parsed, the levels must be
    consecutive, and one upward pass checks each against the one below (IngestError).

    Convention: the first class at each level is the identity class. Class
    sizes come from the class data: upward along ``embedsTo``, downward as the
    sum over the classes one level down that embed into h. f_l comes from the
    order recursion, fitted once when the chain is built, and M is read off the
    first commutator by heisenberg; the suites check the levels whose Res
    matrices were supplied, and l only down to the lowest level.
    """

    heisenberg_scaling = None

    def __init__(self, obj):
        super().__init__()
        try:
            raw_levels = _typed(obj["levels"], list, "levels")
        except (KeyError, TypeError) as exc:
            raise IngestError(f"malformed chain JSON: {exc}") from exc
        self.id = str(obj.get("name", "ingested"))
        parsed = {}
        for entry in [_parse_level(pos, raw) for pos, raw in enumerate(raw_levels)]:
            if entry[0] in parsed:
                raise IngestError(f"level {entry[0]} is listed twice")
            parsed[entry[0]] = entry
        ns = sorted(parsed)
        if not ns:
            raise IngestError("chain has no levels")
        if ns[-1] - ns[0] + 1 != len(ns):  # distinct, so consecutive; builds no range
            raise IngestError(f"levels {ns} are not consecutive")
        self.min_n, self.max_n = ns[0], ns[-1]
        self._orders, self._class_rows, below = {}, {}, None
        for n in ns:  # each level's Res goes in the memo Chain.res_operator reads, as a built chain's
            below = _checked_level(parsed[n], below)
            self._orders[n], self._res_cache[n], self._class_rows[n] = below
        self.params = fit_chain_params(self._orders.values())

    # -- chain protocol used by the suites ----------------------------------

    def basis(self, n: int) -> tuple:
        """Positions 0, 1, ... for the irreps, whose labels the chain does not list."""
        return self._res_cache[self.check_level(n)].domain

    format_label = format_class = staticmethod(str)

    def group_order(self, n: int) -> int:
        return self._orders[self.check_level(n)]

    def heisenberg_levels(self, top: int) -> range:
        return range(self.min_n + 1, min(self.max_n, top + 1))

    def poly(self, l: int) -> FallingFactorialPoly:
        return self.params.poly(l)

    def _classes(self, n: int) -> dict:
        classes = self._class_rows[self.check_level(n)]
        if classes is None:
            raise IngestError(f"level {n} has no class data")
        return classes

    def classes_at(self, n: int, max_order=None):
        return tuple(self._classes(n))

    def identity_class(self, n: int) -> str:
        return self.classes_at(n)[0]

    def _class_entry(self, label: str, n: int):
        try:
            return self._classes(n)[label]
        except KeyError:
            raise IngestError(f"no class {label!r} at level {n}") from None

    def _class_size_from(self, label: str, m: int, j: int) -> int:
        if j < m:
            self._class_entry(label, m)  # h must be a class at level m
            below = self._classes(m - 1)
            for lab in (lab for lab, (_, up) in below.items() if up is None):
                raise IngestError(f"class {lab!r} at level {m - 1} has no embedding to level {m}")
            return sum(self.class_size_from(lab, m - 1, j) for lab, (_, up) in below.items() if up == label)
        current = label
        for level in range(m, j):
            current = self._class_entry(current, level)[1]
            if current is None:
                raise IngestError(f"class {label!r} at level {m} has no embedding to level {level + 1}")
        return self._class_entry(current, j)[0]


def ingest_chain(source) -> IngestedChain:
    """Load and check a chain from the ingestion JSON (a path or the parsed dict)."""
    if isinstance(source, str):
        source = read_json(source, lambda detail: IngestError(f"malformed chain JSON: {detail}"))
    return IngestedChain(source)


def load_chain(spec: str) -> Chain:
    """The chain a ``--chain`` spec names: a name in ``CHAIN_NAMES``, or a JSON file read
    once, whose top-level keys decide: ``levels`` is a chain (``IngestedChain``), ``irreps``
    or ``classes`` a base-group table H, for H wr S_n. Any other file is a ValueError."""
    if spec in CHAIN_NAMES:
        return get_chain(spec)
    neither = f"{spec} is neither a chain JSON ('levels') nor a base-group table JSON ('irreps', 'classes')"
    try:
        obj = read_json(spec, lambda detail: ValueError(f"{neither}: {detail}"))
    except FileNotFoundError:
        names = ", ".join(CHAIN_NAMES)
        raise ValueError(f"unknown chain {spec!r}: no such file, nor one of {names}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{neither}: it holds a JSON {type(obj).__name__}")
    if "levels" in obj:
        return IngestedChain(obj)
    if {"irreps", "classes"} & obj.keys():
        return WreathChain(GroupTable.from_json_dict(obj))
    raise ValueError(f"{neither}: its keys are {sorted(obj)}")


def export_chain(chain: Chain, max_n: int, max_order: int | None = None) -> dict:
    """Dump a built-in chain in the ingestion format: each level's Res as the
    (row, col, multiplicity) counts of its branching edges, sorted by (row, col),
    and class rows with the identity class first; levels above the order bound
    get no class rows."""
    if max_n < 0:
        raise ValueError(f"maxN must be non-negative, not {max_n}")
    levels = []
    for n in range(max_n + 1):
        entry: dict = {"n": n, "order": chain.group_order(n), "basisSize": len(chain.basis(n))}
        if n >= 1:
            entry["res"] = [list(e) for e in chain.res_operator(n).entries()]
        try:
            labels = chain.classes_at(n, max_order)
        except SizeBoundError:
            labels = ()
        if labels:
            identity = chain.identity_class(n)
            ordered = [identity] + [lab for lab in labels if lab != identity]
            entry["classes"] = [
                {"label": chain.format_class(lab), "size": chain.class_size_from(lab, n, n),
                 **({"embedsTo": chain.format_class(chain.embed_class(lab, n + 1))} if n < max_n else {})}
                for lab in ordered]
        levels.append(entry)
    return {"name": chain.id, "levels": levels}


# ---------------------------------------------------------------------------
# Suites: each is suite(chain, max_n, max_order=None) -> (checks, skipped)


def _first_difference(chain, packed: PackedIdentity, lhs: list, rhs: list, labels: tuple) -> tuple:
    """Where two packed matrices over ``labels`` first differ, rows then columns:
    ("(row, column)" by their labels, the lhs entry, the rhs entry)."""
    i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    row, other = packed.slots(lhs[i], len(labels)), packed.slots(rhs[i], len(labels))
    j = next(j for j, (a, b) in enumerate(zip(row, other)) if a != b)
    return f"({chain.format_label(labels[i])}, {chain.format_label(labels[j])})", row[j], other[j]


def heisenberg_suite(chain, max_n: int, max_order: int | None = None):
    """Res Ind - Ind Res = M Id on R(G_n), with M = |H| for built-in chains
    and a consistent inferred constant for ingested ones, checked on a packed
    identity with M read as the difference's entry (0, 0); Res Ind runs along
    Res's edges, and every entry compared is within ``x_norm_bound`` + 2 ||X||.

    A built-in chain's Res at level 0 maps onto the empty lower ring, so X is
    0 there and the commutator is Res Ind alone. Ingested chains are only
    checked at levels where both adjacent Res matrices were supplied.
    """
    checks, scaling = [], chain.heisenberg_scaling  # None: M is the first level's, then held
    for j in chain.heisenberg_levels(max_n):
        up = chain.res_operator(j + 1)
        packed = PackedIdentity(len(up.codomain),
                                up.x_norm_bound + 2 * chain.res_operator(j).x_norm_bound)
        res_ind = up.down(up.up(packed.rows))
        ind_res = chain.ind_res(j).matvec(packed.rows)
        diag = packed.slots(res_ind[0] - ind_res[0], 1)[0]
        if scaling is None:
            scaling = diag
        shifted = [v + diag * e for v, e in zip(ind_res, packed.rows)]
        detail = f"Res Ind - Ind Res = {diag} * Id"
        if diag != scaling:
            detail += f", expected {scaling} * Id"
        if res_ind != shifted:
            at, a, b = _first_difference(chain, packed, res_ind, shifted, up.codomain)
            detail = f"commutator is not scalar: Res Ind has {a} at {at}, Ind Res + {diag} * Id has {b}"
        checks.append(CheckResult(f"heisenberg level={j}", res_ind == shifted and diag == scaling,
                                  detail=detail, lhs=diag, rhs=scaling))
    return checks, []


def _fit_check(chain) -> CheckResult | None:
    """The fit-params check of a chain that takes f_l from its order fit
    a_n = B a_{n-1} + C; None when f_l is known. The checks that need f_l are
    skipped on a chain whose fit failed."""
    if chain.heisenberg_scaling is not None:
        return None
    params = chain.params
    return CheckResult(
        "fit-params", params.status in ("ok", "inconclusive"),
        detail=f"status={params.status} B={params.B} C={params.C} {params.message}".strip(),
    )


def tasyopari_suite(chain, max_n: int, max_order: int | None = None):
    """Brute Ind^l Res^l against f_l(Ind Res) = num/den (X - r_l)...(X - r_1) on
    a packed identity, den times the one against num times the other, both along
    Res's edges. For each l the brute side restricts once more and induces back
    up; the polynomial side applies X = Ind Res for each of f_l's new roots,
    starting over if they do not extend f_{l-1}'s. Entries are within prod
    ``x_norm_bound`` and prod (||X|| + |r|). A mismatch names its first entry."""
    levels = chain.level_range(max_n)
    if levels and (fit := _fit_check(chain)) is not None and not fit.passed:
        return [fit], []
    checks, res = [], chain.res_operator
    for n in levels:
        top, polys = res(n), [chain.poly(l) for l in range(1, n - chain.min_n + 1)]
        packed = PackedIdentity(len(top.domain), max(max(
            f_l.leading.denominator * prod(res(j).x_norm_bound for j in range(n - l + 1, n + 1)),
            abs(f_l.leading.numerator) * prod(top.x_norm_bound + abs(r) for r in f_l.roots),
        ) for l, f_l in enumerate(polys, 1)))
        down, product, roots = packed.rows, packed.rows, ()  # product: prod (X - r) over roots
        for l, f_l in enumerate(polys, 1):
            down = res(n - l + 1).down(down)
            brute = down
            for j in range(n - l + 1, n + 1):
                brute = res(j).up(brute)
            if f_l.roots[: len(roots)] != roots:
                roots, product = (), packed.rows
            product = FallingFactorialPoly(f_l.roots[len(roots):]).apply(top.times_x, product)
            roots = f_l.roots
            num, den = f_l.leading.numerator, f_l.leading.denominator
            lhs, rhs = [v * den for v in brute], [v * num for v in product]
            detail = "Ind^l Res^l equals the polynomial in Ind Res"
            if lhs != rhs:
                at, a, b = _first_difference(chain, packed, lhs, rhs, top.domain)
                detail = f"Ind^{l} Res^{l} has {Fraction(a, den)} at {at}, f_{l}(X) has {Fraction(b, den)}"
            checks.append(CheckResult(f"indres-power n={n} l={l}", lhs == rhs, detail=detail))
    return checks, []


def jeongha_suite(chain, max_n: int, max_order: int | None = None):
    fit = _fit_check(chain)
    if fit is not None and not fit.passed:
        return [fit], []
    checks, dropped = [], {}  # dropped: level -> why checks on its classes are skipped

    def classes(m: int) -> tuple:
        try:
            return chain.classes_at(m, max_order)
        except (SizeBoundError, IngestError) as exc:  # above the order bound, or no class data at m
            dropped.setdefault(m, str(exc))
        return ()

    # (1) per-class ratio constraints at every (n, l) with class data available
    levels = chain.level_range(max_n)
    polys = [chain.poly(l) for l in range(len(levels) + 1)]  # l <= n - min_n <= len(levels)
    for n in levels:
        for l in range(1, n - chain.min_n + 1):
            for h in classes(n - l):
                try:
                    checks.append(jeongha_class_constraint(chain, h, n, l, polys[l]))
                except IngestError as exc:  # class data is missing somewhere along the embedding walk
                    dropped.setdefault(n - l, str(exc))
    # (2)-(3) the order recursion and the predicted polynomial family; a chain
    # without a known M takes f_l from this fit, so only the fit is checked
    if fit is not None:
        checks.append(fit)
    else:
        orders = tuple(chain.group_order(n) for n in range(max(max_n + 1, 4)))
        params = fit_chain_params(orders)
        expect = (1, chain.heisenberg_scaling)
        ok = params.status == "ok" and (params.B, params.C) == expect
        checks.append(CheckResult(
            "fit-params", ok,
            detail=f"fitted (B, C) = ({params.B}, {params.C}), expected {expect}",
        ))
        # a known M is a built-in chain's, orders |H|^n n!: ratios |H| n, so the fit is ok
        for l in range(1, max_n + 1):
            predicted, engine_poly = params.poly(l), chain.poly(l)
            checks.append(CheckResult(
                f"fit-polynomial l={l}", predicted == engine_poly,
                detail=f"roots {list(predicted.roots)} vs engine {list(engine_poly.roots)}",
            ))
    # (4) roots vs character values, where class data allows; the re-indexed
    # statement reads levels 0 and 1
    if chain.has_level(0) and chain.has_level(1) and chain.group_order(0) == 1:
        top = max_n - 1 if chain.group_order(1) == 1 else max_n
        for l in range(1, min(5, top) + 1):
            report = roots_vs_characters(chain, l, max_order)
            if not report["evaluable"]:  # the verdict's level has no values: skipped, with the reason
                if chain.has_level(report["preferred_level"]):
                    dropped.setdefault(report["preferred_level"], report["error"])
                continue
            checks.append(CheckResult(
                f"roots-vs-characters l={l}", report["passed"],
                detail=f"preferred level {report['preferred_level']}, "
                f"roots {report['roots']}",
            ))
    return checks, [{"suite": "jeongha", "level": m, "reason": why} for m, why in sorted(dropped.items())]


def oracle_suite(chain, max_n: int, max_order: int | None = None):
    """Engine columns against the chain's reference columns, one check per
    class and one ``character_columns`` call per level: the levels stop at the
    first one whose reference is above the order bound, and that level is the
    one skipped entry."""
    if chain.reference is None:
        return [], [{"suite": "oracle", "reason": "the chain has no reference columns"}]
    checks = []
    for n in chain.level_range(max_n):
        try:
            classes = chain.classes_at(n, max_order)
            reference = {cls: chain.reference_column(cls, n, max_order) for cls in classes}
        except SizeBoundError as exc:
            return checks, [{"suite": "oracle", "level": n, "reason": str(exc)}]
        for cls, column in engine.character_columns(chain, classes, n, max_order).items():
            ok, detail = column.coeffs == reference[cls], f"engine equals {chain.reference}"
            if not ok:
                got, want = column.coeffs.get, reference[cls].get
                lab = next(lab for lab in chain.basis(n) if got(lab, 0) != want(lab, 0))
                detail = (f"engine has {got(lab, 0)} at {chain.format_label(lab)}, "
                          f"the reference {want(lab, 0)}")
            checks.append(CheckResult(f"oracle-column n={n} class={chain.format_class(cls)}", ok,
                                      detail=detail))
    return checks, []


def lifting_suite(chain, max_n: int, max_order: int | None = None):
    """Res-exactness of every lift of every irrep at levels k <= 5; a failure names its first bad lift."""
    if not chain.has_irrep_labels:
        return [], [{"suite": "lifts", "reason": "the chain has no irrep labels"}]
    checks = []
    for k in range(0, min(5, max_n) + 1):
        for label in chain.basis(k):
            name = f"lift-exactness k={k} label={chain.format_label(label)}"
            try:
                for n in range(k, max_n + 1):
                    lifting.lift(chain, label, n)  # verification is built in
            except lifting.InvariantError as exc:
                checks.append(CheckResult(name, False, detail=str(exc)))
            else:
                checks.append(CheckResult(name, True))
    return checks, []


SUITES = ("heisenberg", "tasyopari", "jeongha", "oracle", "lifts", "all")


def run_suite(chain, suite: str, max_n: int, max_order: int | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 0:
        raise ValueError(f"maxN must be non-negative, not {max_n}")
    report = SuiteReport(suite, chain.id, max_n, [], [])
    # looked up on each call, so a suite replaced on the module is the one that runs
    suites = (heisenberg_suite, tasyopari_suite, jeongha_suite, oracle_suite, lifting_suite)
    for name, run in zip(SUITES, suites):
        if suite in (name, "all"):
            checks, skipped = run(chain, max_n, max_order)
            if not checks and not skipped:  # an empty report must not read as a pass
                skipped = [{"suite": name, "reason": f"no level to check up to maxN {max_n}"}]
            report.checks.extend(checks)
            report.skipped.extend(skipped)
    return report
