"""The rigidity-constraint suites, and the border-strip oracle column.

``oracle_column`` (``partitions.mn_character``) is the yardstick symmetric
engine columns are measured against. The suites check the exact constraints
any chain must satisfy for iterated induction-restriction to be polynomial in
Ind Res: the per-class ratio constraint, the two-term order recursion
a_n = B a_{n-1} + C, the resulting polynomial family, and the root/character
correspondence; they also compare engine columns with the chain's reference
columns, and check every lift. User-supplied chains enter through
``ingest_chain``; a suite a chain cannot run is listed under ``skipped``.

All comparisons are exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod

from . import engine, lifting
from .chain import BranchingOperator, Chain, FallingFactorialPoly
from .hgroup import SizeBoundError, _typed
from .partitions import Partition, border_strip_column, enumerate_partitions, pad_with_fixed_points
from .sparse import PackedIdentity

# ---------------------------------------------------------------------------
# Border-strip oracle


def oracle_column(mu: Partition, n: int):
    """The exact level-n column of the class with cycle type mu, by the
    border-strip oracle alone."""
    full = pad_with_fixed_points(tuple(sorted(mu, reverse=True)), n)
    coeffs = border_strip_column(full, enumerate_partitions(n))
    return engine.CharacterColumn("sym", n, full, coeffs)


# ---------------------------------------------------------------------------
# Check results and suite reports


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    lhs: object = None
    rhs: object = None

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
    """An exact scalar, or a list of them, as JSON: a non-integral Fraction
    becomes the string "p/q", an integral one an int."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


@dataclass
class SuiteReport:
    suite: str
    chain: str
    max_n: int
    checks: list[CheckResult] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)  # suites and levels that did not run

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


@dataclass
class ChainParams:
    """Fitted recursion a_n = B a_{n-1} + C over the provided order ratios."""

    status: str  # "ok" | "inconclusive" | "violation" | "underdetermined" (too few orders)
    B: int | None = None
    C: int | None = None
    message: str = ""

    def poly(self, l: int) -> FallingFactorialPoly:
        """The predicted f_l: roots C(1 + B + ... + B^(j-1)) for j < l (the
        first is 0), leading coefficient B^(-l(l-1)/2); f_l = X for the
        constant chain."""
        if l < 0:
            raise ValueError("l must be non-negative")
        if self.status == "inconclusive":
            return FallingFactorialPoly((0,) if l else ())
        if self.status != "ok":
            raise ValueError(f"no f_l from an order fit with status {self.status}")
        roots = []
        acc = 0
        power = 1
        for _ in range(l):
            roots.append(self.C * acc)
            acc += power
            power *= self.B
        return FallingFactorialPoly(tuple(roots), Fraction(1, self.B ** (l * (l - 1) // 2)))


def fit_from_ratios(ratios) -> ChainParams:
    a = tuple(int(x) for x in ratios)
    if len(a) < 3:
        return ChainParams("underdetermined",
                           message="need at least three consecutive ratios (four group orders)")
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
    notes = []
    if b == 1 and c >= 1:
        notes.append(f"wreath family: C = |H| = {c}")
    else:
        notes.append(f"no known chain realizes (B, C) = ({b}, {c}); hypothesis only")
    if any(a[i] < i + 1 for i in range(len(a))):
        notes.append("warning: some a_n < n, impossible under the polynomial property "
                     "if orders start at |G_0|")
    return ChainParams("ok", B=b, C=c, message="; ".join(notes))


def fit_chain_params(orders) -> ChainParams:
    """Fit (B, C) from consecutive group orders |G_0|, |G_1|, ...

    Ratios must divide exactly (Lagrange); non-integer B is a constraint
    violation, constant ratios are inconclusive (the constant chain), too few
    orders to fix B and C underdetermined.
    """
    orders = tuple(int(x) for x in orders)
    if len(orders) < 4:
        return ChainParams("underdetermined", message="need at least four consecutive group orders")
    ratios = []
    for i in range(1, len(orders)):
        q, rem = divmod(orders[i], orders[i - 1])
        if rem:
            return ChainParams(
                "violation",
                message=f"|G_{i}| = {orders[i]} is not divisible by |G_{i - 1}| = {orders[i - 1]}",
            )
        ratios.append(q)
    return fit_from_ratios(ratios)


# ---------------------------------------------------------------------------
# Class-ratio constraint and root/character correspondence


def jeongha_class_constraint(chain, h, n: int, l: int) -> CheckResult:
    """The per-class ratio constraint for a class h given at level n - l:

    f_l(|G_n| |[h]_{n-1}| / (|G_{n-1}| |[h]_n|)) == |G_n| |[h]_{n-l}| / (|G_{n-l}| |[h]_n|)
    """
    m = n - l
    if m < chain.min_n:
        raise ValueError(f"level n - l = {m} is below the chain's lowest level {chain.min_n}")
    size_m = chain.class_size_from(h, m, m)
    size_up = chain.class_size_from(h, m, n)
    size_prev = chain.class_size_from(h, m, n - 1)
    if size_m == 0 or size_up == 0:
        raise ValueError(f"class {h} has no members at level {m}")
    chi = Fraction(chain.group_order(n) * size_prev, chain.group_order(n - 1) * size_up)
    lhs = chain.poly(l).value(chi)
    rhs = Fraction(chain.group_order(n) * size_m, chain.group_order(m) * size_up)
    name = f"class-constraint n={n} l={l} h={chain.format_class(h)}"
    return CheckResult(
        name, lhs == rhs,
        detail=f"chi_Ind(t)(h) = {chi}", lhs=lhs, rhs=rhs,
    )


def roots_vs_characters(chain, l: int, max_order: int | None = None) -> dict:
    """Compare the roots of f_l with the non-identity character values of
    Ind(t), at both candidate levels l and l+1.

    The re-indexed statement evaluates at level l when G_1 is nontrivial and
    at level l+1 when G_1 is also trivial (the symmetric chain); the verdict
    uses that level, and both candidates are reported.
    """
    if chain.group_order(0) != 1:
        raise ValueError("root/character correspondence needs G_0 trivial")
    roots = set(chain.poly(l).roots)
    candidates = {}
    for m in (l, l + 1):
        try:
            values = {chain.ind_t_character(h, m) for h in chain.classes_at(m, max_order)
                      if h != chain.identity_class(m)}
        except (SizeBoundError, IngestError) as exc:
            candidates[m] = {"error": str(exc)}
            continue
        candidates[m] = {
            "values": sorted(values),
            "matches_roots": values == {Fraction(r) for r in roots},
        }
    preferred = l + (1 if chain.group_order(1) == 1 else 0)
    verdict = candidates[preferred]
    return {
        "l": l,
        "roots": sorted(roots),
        "levels": candidates,
        "preferred_level": preferred,
        "evaluable": "error" not in verdict,
        "passed": bool(verdict.get("matches_roots")),
    }


# ---------------------------------------------------------------------------
# Ingestion of arbitrary chains


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class IngestedLevel:
    order: int
    basis_size: int
    res: BranchingOperator | None  # positions as labels
    classes: dict[str, tuple[int, str | None]] | None  # label -> (size, embedsTo), as listed


def _parse_level(pos: int, raw) -> tuple:
    """A level entry as (n, order, basisSize, Res entries or None, classes or None)."""
    try:
        n, order, basis_size = (_typed(raw[key], int, key) for key in ("n", "order", "basisSize"))
        if order < 1:
            raise ValueError("order must be at least 1: every group has its identity")
        if basis_size < 1:
            raise ValueError("basisSize must be at least 1: every group has its trivial irrep")
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
                up = c.get("embedsTo")  # absent or null: no embedding listed
                classes[label] = (size, None if up is None else _typed(up, str, "embedsTo"))
    except (KeyError, TypeError, ValueError) as exc:
        where = raw.get("n", f"#{pos}") if isinstance(raw, dict) else f"#{pos}"
        raise IngestError(f"level {where}: malformed level entry: {exc}") from exc
    if classes is not None and len(classes) != len(raw["classes"]):
        raise IngestError(f"level {n}: duplicate class labels")
    return n, order, basis_size, entries, classes


def row_rank(nrows: int, ncols: int, entries) -> int:
    """Exact rank over Q of the nrows x ncols integer matrix with the given
    (row, col, value) entries, eliminated on the listed nonzeros: each row, a
    dict {col: value}, is reduced by the kept row with the same leading column
    until its leading column is new (it is kept) or it is empty. Each step
    takes an integer combination that clears the leading entry, then divides
    by the gcd of what is left, so every division is exact."""
    kept: dict[int, dict[int, int]] = {}  # leading column -> reduced row
    rows: list[dict[int, int]] = [{} for _ in range(nrows)]
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
            g = gcd(top[lead], row[lead])
            p, f = top[lead] // g, row[lead] // g
            row = {c: p * v for c, v in row.items()}
            for c, v in top.items():
                x = row.get(c, 0) - f * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return len(kept)


def _checked_level(parsed: tuple, below: IngestedLevel | None) -> IngestedLevel:
    """A parsed level, checked against the checked level below it (None for the
    lowest level, whose Res, if listed, has no rows): Res's shape, its rank and
    each entry's bound are checked on the listed entries before Res is built."""
    n, order, basis_size, entries, classes = parsed
    rows = below.basis_size if below else 0
    if entries is not None and any(not (0 <= r < rows and 0 <= c < basis_size)
                                   for r, c, _ in entries):
        raise IngestError(f"Res at level {n} has entries outside its {rows}x{basis_size} shape")
    if below is not None:
        if entries is None:
            raise IngestError(f"level {n} is missing its Res matrix")
        rank = row_rank(rows, basis_size, entries)
        if rank != rows:
            raise IngestError(f"not a surjective chain: Res at level {n} "
                              f"has row rank {rank} < {rows}")
        # v dim W <= dim V, and v dim V <= [G_n : G_{n-1}] dim W by Frobenius reciprocity
        for r, c, v in entries:
            if v * v * below.order > order:
                raise IngestError(
                    f"not a chain of groups: Res at level {n} has entry {v} at ({r}, {c}), "
                    f"but v^2 |G_{n - 1}| = {v * v * below.order} > |G_{n}| = {order}")
    res = None if entries is None else BranchingOperator.from_entries(
        n, tuple(range(basis_size)), tuple(range(rows)), entries)
    if classes is not None:
        total = sum(size for size, _ in classes.values())
        if total != order:
            raise IngestError(f"level {n}: class sizes sum to {total}, not the order {order}")
        if classes and next(iter(classes.values()))[0] != 1:
            raise IngestError(f"level {n}: first class must be the identity (size 1)")
        for lab, (_, embeds) in below.classes.items() if below and below.classes else ():
            if embeds is not None and embeds not in classes:
                raise IngestError(
                    f"level {n - 1}: class {lab!r} embeds to unknown class {embeds!r}")
    return IngestedLevel(order, basis_size, res, classes)


class IngestedChain(Chain):
    """A user-supplied surjective chain from the parsed ingestion JSON: per-level
    Res (as edges between positions), orders, and optional class data with
    explicit upward embeddings. Each level is parsed, the levels must be
    consecutive, and one upward pass checks each against the one below (IngestError).

    Convention: the first class at each level is the identity class. Class
    sizes come from the class data: upward along ``embedsTo``, downward as the
    sum over the classes one level down that embed into h. f_l and M come from
    the fitted order recursion; the suites check the levels whose Res matrices
    were supplied, and l only down to the lowest level.
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
        if ns != list(range(ns[0], ns[-1] + 1)):
            raise IngestError(f"levels {ns} are not consecutive")
        self.min_n, self.max_n = ns[0], ns[-1]
        self.levels, below = {}, None
        for n in ns:
            below = self.levels[n] = _checked_level(parsed[n], below)
        self._params: ChainParams | None = None

    # -- chain protocol used by the suites ----------------------------------

    def _level(self, n: int) -> IngestedLevel:
        try:
            return self.levels[n]
        except KeyError:
            raise IngestError(f"level {n} is not part of the ingested chain") from None

    def group_order(self, n: int) -> int:
        return self._level(n).order

    def res_operator(self, n: int) -> BranchingOperator:
        res = self._level(n).res
        if res is None:
            raise IngestError(f"level {n} has no Res matrix")
        return res

    def heisenberg_levels(self, top: int) -> range:
        return range(self.min_n + 1, min(self.max_n, top + 1))

    def poly(self, l: int) -> FallingFactorialPoly:
        return self.fitted_params().poly(l)

    def _classes(self, n: int) -> dict:
        classes = self._level(n).classes
        if classes is None:
            raise IngestError(f"level {n} has no class data")
        return classes

    def classes_at(self, n: int, max_order=None):
        return tuple(self._classes(n))

    def identity_class(self, n: int) -> str:
        return self.classes_at(n)[0]

    def format_class(self, cls: str) -> str:
        return cls

    def _class_entry(self, label: str, n: int):
        try:
            return self._classes(n)[label]
        except KeyError:
            raise IngestError(f"no class {label!r} at level {n}") from None

    def _class_size_from(self, label: str, m: int, j: int) -> int:
        if j < m:
            self._class_entry(label, m)  # h must be a class at level m
            return sum(self.class_size_from(lab, m - 1, j)
                       for lab, (_, up) in self._classes(m - 1).items() if up == label)
        current = label
        for level in range(m, j):
            current = self._class_entry(current, level)[1]
            if current is None:
                raise IngestError(f"class {label!r} at level {m} has no embedding to level {level + 1}")
        return self._class_entry(current, j)[0]

    def fitted_params(self) -> ChainParams:
        if self._params is None:
            orders = tuple(self.levels[n].order for n in range(self.min_n, self.max_n + 1))
            self._params = fit_chain_params(orders)
        return self._params


def ingest_chain(source) -> IngestedChain:
    """Load and check a chain from the ingestion JSON (a path or the parsed dict)."""
    if isinstance(source, str):
        with open(source) as fh:
            source = json.load(fh)
    return IngestedChain(source)


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
            labels = None
        if labels is not None:
            identity = chain.identity_class(n)
            ordered = [identity] + [lab for lab in labels if lab != identity]
            rows = []
            for lab in ordered:
                row = {"label": chain.format_class(lab), "size": chain.class_size_from(lab, n, n)}
                if n < max_n:
                    row["embedsTo"] = chain.format_class(chain.embed_class(lab, n + 1))
                rows.append(row)
            entry["classes"] = rows
        levels.append(entry)
    return {"name": chain.id, "levels": levels}


# ---------------------------------------------------------------------------
# Suites: each is suite(chain, max_n, max_order=None) -> (checks, skipped)


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
        scalar = res_ind == [v + diag * e for v, e in zip(ind_res, packed.rows)]
        detail = f"Res Ind - Ind Res = {diag} * Id"
        if diag != scaling:
            detail += f", expected {scaling} * Id"
        checks.append(CheckResult(
            f"heisenberg level={j}", scalar and diag == scaling,
            detail=detail if scalar else "commutator is not scalar", lhs=diag, rhs=scaling,
        ))
    return checks, []


def _fit_check(params: ChainParams) -> CheckResult:
    return CheckResult(
        "fit-params", params.status in ("ok", "inconclusive"),
        detail=f"status={params.status} B={params.B} C={params.C} {params.message}".strip(),
    )


def _failed_fit(chain) -> CheckResult | None:
    """The failed fit-params check of a chain that takes f_l from an order fit
    that found no recursion a_n = B a_{n-1} + C; None when f_l is known. The
    checks that need f_l are skipped on such a chain."""
    if chain.heisenberg_scaling is not None:
        return None
    check = _fit_check(chain.fitted_params())
    return None if check.passed else check


def tasyopari_suite(chain, max_n: int, max_order: int | None = None):
    """Brute Ind^l Res^l against f_l(Ind Res) = num/den (X - r_l)...(X - r_1) on
    a packed identity, den times the one against num times the other. For each
    l the brute side restricts once more and induces back up along Res's edges;
    the polynomial side applies X - r for f_l's new roots, starting over if they
    do not extend f_{l-1}'s. Entries are within prod ``x_norm_bound`` and prod (||X|| + |r|)."""
    levels = chain.level_range(max_n)
    if levels and (failed := _failed_fit(chain)) is not None:
        return [failed], []
    checks, res = [], chain.res_operator
    for n in levels:
        x, polys = chain.ind_res(n), [chain.poly(l) for l in range(1, n - chain.min_n + 1)]
        packed = PackedIdentity(x.nrows, max(max(
            f_l.leading.denominator * prod(res(j).x_norm_bound for j in range(n - l + 1, n + 1)),
            abs(f_l.leading.numerator) * prod(res(n).x_norm_bound + abs(r) for r in f_l.roots),
        ) for l, f_l in enumerate(polys, 1)))
        down, product, roots = packed.rows, packed.rows, ()  # product: prod (X - r) over roots
        for l, f_l in enumerate(polys, 1):
            down = res(n - l + 1).down(down)
            brute = down
            for j in range(n - l + 1, n + 1):
                brute = res(j).up(brute)
            if f_l.roots[: len(roots)] != roots:
                roots, product = (), packed.rows
            product = FallingFactorialPoly(f_l.roots[len(roots):]).apply(x.matvec, product)
            roots = f_l.roots
            num, den = f_l.leading.numerator, f_l.leading.denominator
            ok = [v * den for v in brute] == [v * num for v in product]
            checks.append(CheckResult(
                f"indres-power n={n} l={l}", ok,
                detail="Ind^l Res^l equals the polynomial in Ind Res" if ok else "matrix mismatch",
            ))
    return checks, []


def jeongha_suite(chain, max_n: int, max_order: int | None = None):
    failed = _failed_fit(chain)
    if failed is not None:
        return [failed], []
    checks = []
    # (1) per-class ratio constraints at every (n, l) with class data available
    for n in chain.level_range(max_n):
        for l in range(1, n - chain.min_n + 1):
            m = n - l
            try:
                labels = chain.classes_at(m, max_order)
            except (SizeBoundError, IngestError):
                continue
            for h in labels:
                try:
                    checks.append(jeongha_class_constraint(chain, h, n, l))
                except IngestError:
                    # class data is missing somewhere along the embedding walk
                    continue
    # (2)-(3) the order recursion and the predicted polynomial family; a chain
    # without a known M takes f_l from this fit, so only the fit is checked
    if chain.heisenberg_scaling is None:
        checks.append(_fit_check(chain.fitted_params()))
    else:
        orders = tuple(chain.group_order(n) for n in range(max(max_n + 1, 4)))
        params = fit_chain_params(orders)
        expect = (1, chain.heisenberg_scaling)
        ok = params.status == "ok" and (params.B, params.C) == expect
        checks.append(CheckResult(
            "fit-params", ok,
            detail=f"fitted (B, C) = ({params.B}, {params.C}), expected {expect}",
        ))
        if params.status == "ok":
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
            try:
                report = roots_vs_characters(chain, l, max_order)
            except (SizeBoundError, IngestError, ValueError):
                continue
            if not report["evaluable"]:
                continue  # no class data at the level the verdict needs
            checks.append(CheckResult(
                f"roots-vs-characters l={l}", report["passed"],
                detail=f"preferred level {report['preferred_level']}, "
                f"roots {jsonable(report['roots'])}",
            ))
    return checks, []


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
            reference = chain.reference_columns(n, max_order)
        except SizeBoundError as exc:
            return checks, [{"level": n, "reason": str(exc)}]
        classes = chain.classes_at(n, max_order)
        for cls, column in engine.character_columns(chain, classes, n, max_order).items():
            ok = column.coeffs == reference[cls]
            checks.append(CheckResult(
                f"oracle-column n={n} class={chain.format_class(cls)}", ok,
                detail=f"engine equals {chain.reference}" if ok else "mismatch",
            ))
    return checks, []


def lifting_suite(chain, max_n: int, max_order: int | None = None):
    """Res-exactness of every lift of every irrep at levels k <= 5."""
    if not chain.has_irrep_labels:
        return [], [{"suite": "lifts", "reason": "the chain has no irrep labels"}]
    checks = []
    for k in range(0, min(5, max_n) + 1):
        for label in chain.basis(k):
            ok = True
            detail = ""
            for n in range(k, max_n + 1):
                try:
                    lifting.lift(chain, label, n)  # verification is built in
                except lifting.InvariantError as exc:
                    ok = False
                    detail = str(exc)
                    break
            checks.append(CheckResult(
                f"lift-exactness k={k} label={chain.format_label(label)}", ok, detail=detail,
            ))
    return checks, []


SUITES = ("heisenberg", "tasyopari", "jeongha", "oracle", "lifts", "all")


def run_suite(chain, suite: str, max_n: int, max_order: int | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if max_n < 0:
        raise ValueError(f"maxN must be non-negative, not {max_n}")
    report = SuiteReport(suite, chain.id, max_n)
    # looked up on each call, so a suite replaced on the module is the one that runs
    suites = (heisenberg_suite, tasyopari_suite, jeongha_suite, oracle_suite, lifting_suite)
    for name, run in zip(SUITES, suites):
        if suite in (name, "all"):
            checks, skipped = run(chain, max_n, max_order)
            if not checks and not skipped:  # an empty report must not read as a pass
                skipped = [{"suite": name, "reason": f"no level to check up to maxN {max_n}"}]
            report.checks += checks
            report.skipped += skipped
    return report
