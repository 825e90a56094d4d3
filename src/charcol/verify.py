"""Independent oracles and the rigidity-constraint suite.

The border-strip recursion here is the yardstick every engine column is
measured against; it shares no code with the polynomial engine or with the
permutation-character tables in hgroup. The rest of the module checks the
exact constraints any chain must satisfy for iterated induction-restriction
to be polynomial in Ind Res: the per-class ratio constraint, the two-term
order recursion a_n = B a_{n-1} + C, the resulting polynomial family, and
the root/character-value correspondence. User-supplied chains enter through
``ingest_chain`` and run the same checks.

All comparisons are exact rational arithmetic; there are no tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .chain import Chain, SymmetricChain, WreathChain
from .hgroup import SizeBoundError
from .partitions import (
    Partition,
    check_partition,
    class_size,
    enumerate_partitions,
    format_partition,
    pad_with_fixed_points,
    strip_fixed_points,
)
from .sparse import SparseMatrix

# ---------------------------------------------------------------------------
# Murnaghan-Nakayama oracle


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """chi_lambda(mu) by recursive border-strip removal with sign (-1)^height.

    Border strips of size r correspond to first-column hook (beta-set) moves
    beta_i -> beta_i - r landing outside the set; the height is the number of
    beta values jumped over.
    """
    lam = check_partition(lam) if lam else ()
    mu = tuple(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError(f"|lambda|={sum(lam)} but |mu|={sum(mu)}")
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    m = len(lam)
    beta = tuple(lam[i] + (m - 1 - i) for i in range(m))
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for other in beta if nb < other < b)
        new_beta = sorted(beta_set - {b} | {nb}, reverse=True)
        # Trailing zeros of the recovered shape are empty rows.
        new_lam = tuple(x - (m - 1 - i) for i, x in enumerate(new_beta))
        total += (-1) ** height * mn_character(tuple(x for x in new_lam if x > 0), rest)
    return total


def oracle_column(mu: Partition, n: int):
    """The exact level-n column of the class with cycle type mu, by the
    border-strip oracle alone."""
    from . import engine  # local import; engine imports this module at load

    full = pad_with_fixed_points(tuple(sorted(mu, reverse=True)), n)
    coeffs = {}
    for lam in enumerate_partitions(n):
        value = mn_character(lam, full)
        if value:
            coeffs[lam] = value
    return engine.CharacterColumn(
        "sym", n, strip_fixed_points(full), full, coeffs
    )


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
            out["lhs"] = _jsonable(self.lhs)
        if self.rhs is not None:
            out["rhs"] = _jsonable(self.rhs)
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else int(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class SuiteReport:
    suite: str
    chain: str
    max_n: int
    checks: list[CheckResult] = field(default_factory=list)

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
        }


# ---------------------------------------------------------------------------
# Two-parameter fit of the order ratios


@dataclass
class ChainParams:
    """Fitted recursion a_n = B a_{n-1} + C over the provided order ratios."""

    orders: tuple[int, ...]
    ratios: tuple[int, ...]
    status: str  # "ok" | "inconclusive" | "violation"
    B: int | None = None
    C: int | None = None
    message: str = ""

    def poly_roots(self, l: int) -> tuple[int, ...]:
        """Roots of the predicted f_l: 0 and C(1 + B + ... + B^(j-1)), j < l."""
        if self.status == "inconclusive":
            return (0,) if l else ()
        assert self.status == "ok"
        roots = [0]
        acc = 0
        power = 1
        for _ in range(l - 1):
            acc += power
            power *= self.B
            roots.append(self.C * acc)
        return tuple(roots)

    def poly_leading(self, l: int) -> Fraction:
        if self.status == "inconclusive":
            return Fraction(1)
        return Fraction(1, self.B ** (l * (l - 1) // 2))

    def poly_value(self, l: int, x) -> Fraction:
        if self.status == "inconclusive":
            return Fraction(x)  # f_l = X for the constant chain
        out = self.poly_leading(l)
        for root in self.poly_roots(l):
            out *= x - root
        return Fraction(out)

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "ratios": list(self.ratios),
            "status": self.status,
            "B": self.B,
            "C": self.C,
            "message": self.message,
        }


def fit_from_ratios(ratios) -> ChainParams:
    a = tuple(int(x) for x in ratios)
    if len(a) < 3:
        raise ValueError("need at least three consecutive ratios (four group orders)")
    diffs = [a[i + 1] - a[i] for i in range(len(a) - 1)]
    if all(d == 0 for d in diffs):
        return ChainParams(
            (), a, "inconclusive",
            message="constant ratios: the constant-chain case, f_l = X for all l",
        )
    pivot = next((i for i in range(len(diffs) - 1) if diffs[i] != 0), None)
    if pivot is None:
        raise ValueError("ratios change only at the last step; supply more orders")
    num, den = diffs[pivot + 1], diffs[pivot]
    if num % den:
        return ChainParams(
            (), a, "violation",
            message=f"B = {num}/{den} is not an integer; "
            "no surjective chain with the polynomial property has these orders",
        )
    b = num // den
    c = a[pivot + 1] - b * a[pivot]
    for j in range(len(a) - 1):
        if a[j + 1] != b * a[j] + c:
            return ChainParams(
                (), a, "violation", B=b, C=c,
                message=f"recursion a = {b}*a + {c} fails between ratios {a[j]} and {a[j + 1]}",
            )
    notes = []
    if b == 1 and c >= 1:
        notes.append(f"wreath family: C = |H| = {c}")
    else:
        notes.append(f"no known chain realizes (B, C) = ({b}, {c}); hypothesis only")
    if any(a[i] < i + 1 for i in range(len(a))):
        notes.append("warning: some a_n < n, impossible under the polynomial property "
                     "if orders start at |G_0|")
    return ChainParams((), a, "ok", B=b, C=c, message="; ".join(notes))


def fit_chain_params(orders) -> ChainParams:
    """Fit (B, C) from consecutive group orders |G_0|, |G_1|, ...

    Ratios must divide exactly (Lagrange); non-integer B is a constraint
    violation, constant ratios are inconclusive (the constant chain).
    """
    orders = tuple(int(x) for x in orders)
    if len(orders) < 4:
        raise ValueError("need at least four consecutive group orders")
    ratios = []
    for i in range(1, len(orders)):
        q, rem = divmod(orders[i], orders[i - 1])
        if rem:
            return ChainParams(
                orders, (), "violation",
                message=f"|G_{i}| = {orders[i]} is not divisible by |G_{i - 1}| = {orders[i - 1]}",
            )
        ratios.append(q)
    params = fit_from_ratios(ratios)
    return ChainParams(orders, params.ratios, params.status, params.B, params.C, params.message)


# ---------------------------------------------------------------------------
# Class-ratio constraint and root/character correspondence


def jeongha_class_constraint(chain, h, n: int, l: int) -> CheckResult:
    """The per-class ratio constraint for a class h given at level n - l:

    f_l(|G_n| |[h]_{n-1}| / (|G_{n-1}| |[h]_n|)) == |G_n| |[h]_{n-l}| / (|G_{n-l}| |[h]_n|)
    """
    m = n - l
    if m < 0:
        raise ValueError("need l <= n")
    size_m = chain.class_size_from(h, m, m)
    size_up = chain.class_size_from(h, m, n)
    size_prev = chain.class_size_from(h, m, n - 1)
    if size_m == 0 or size_up == 0:
        raise ValueError(f"class {h} has no members at level {m}")
    chi = Fraction(chain.group_order(n) * size_prev, chain.group_order(n - 1) * size_up)
    lhs = chain.poly_leading(l)
    for root in chain.poly_roots(l):
        lhs *= chi - root
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
    roots = set(chain.poly_roots(l))
    candidates = {}
    for m in (l, l + 1):
        try:
            labels = chain.classes_at(m, max_order)
            values = set()
            for h in labels:
                if h == chain.identity_class(m):
                    continue
                values.add(chain.ind_t_character(h, m))
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
    n: int
    order: int
    basis_size: int
    res: SparseMatrix | None
    classes: tuple[tuple[str, int, str | None], ...] | None


class IngestedChain(Chain):
    """A user-supplied surjective chain: per-level Res matrices, orders, and
    optional class data with explicit upward embeddings.

    Convention: the first class at each level is the identity class. f_l and
    M come from the fitted order recursion; the suites check the levels whose
    Res matrices were supplied, and l only down to the lowest level.
    """

    heisenberg_scaling = None

    def __init__(self, levels: list[IngestedLevel], name: str = "ingested"):
        super().__init__()
        self.id = name
        self.levels = {lv.n: lv for lv in levels}
        ns = sorted(self.levels)
        if not ns:
            raise IngestError("chain has no levels")
        if ns != list(range(ns[0], ns[-1] + 1)):
            raise IngestError(f"levels {ns} are not consecutive")
        self.min_n, self.max_n = ns[0], ns[-1]
        self._params: ChainParams | None = None
        self._validate()

    def _validate(self):
        for n in range(self.min_n, self.max_n + 1):
            lv = self.levels[n]
            if n > self.min_n:
                prev = self.levels[n - 1]
                if lv.res is None:
                    raise IngestError(f"level {n} is missing its Res matrix")
                if (lv.res.nrows, lv.res.ncols) != (prev.basis_size, lv.basis_size):
                    raise IngestError(
                        f"Res at level {n} has shape {lv.res.nrows}x{lv.res.ncols}, "
                        f"expected {prev.basis_size}x{lv.basis_size}"
                    )
                if lv.res.row_rank() != prev.basis_size:
                    raise IngestError(
                        f"not a surjective chain: Res at level {n} has row rank "
                        f"{lv.res.row_rank()} < {prev.basis_size}"
                    )
            if lv.classes is not None:
                total = sum(size for _, size, _ in lv.classes)
                if total != lv.order:
                    raise IngestError(
                        f"level {n}: class sizes sum to {total}, not the order {lv.order}"
                    )
                if lv.classes and lv.classes[0][1] != 1:
                    raise IngestError(f"level {n}: first class must be the identity (size 1)")
                if n < self.max_n and self.levels[n + 1].classes is not None:
                    targets = {lab for lab, _, _ in self.levels[n + 1].classes}
                    for lab, _, embeds in lv.classes:
                        if embeds is not None and embeds not in targets:
                            raise IngestError(
                                f"level {n}: class {lab!r} embeds to unknown class {embeds!r}"
                            )

    # -- chain protocol used by the suites ----------------------------------

    def _level(self, n: int) -> IngestedLevel:
        try:
            return self.levels[n]
        except KeyError:
            raise IngestError(f"level {n} is not part of the ingested chain") from None

    def group_order(self, n: int) -> int:
        return self._level(n).order

    def res_matrix(self, n: int) -> SparseMatrix:
        res = self._level(n).res
        if res is None:
            raise IngestError(f"level {n} has no Res matrix")
        return res

    def level_range(self, max_n: int) -> range:
        return range(max(self.min_n + 1, 1), min(self.max_n, max_n) + 1)

    def heisenberg_levels(self, max_n: int) -> range:
        return range(self.min_n + 1, min(self.max_n, max_n + 1))

    def poly_roots(self, l: int) -> tuple:
        return self.fitted_params().poly_roots(l)

    def poly_leading(self, l: int) -> Fraction:
        return self.fitted_params().poly_leading(l)

    def classes_at(self, n: int, max_order=None):
        lv = self._level(n)
        if lv.classes is None:
            raise IngestError(f"level {n} has no class data")
        return tuple(lab for lab, _, _ in lv.classes)

    def identity_class(self, n: int) -> str:
        return self.classes_at(n)[0]

    def format_class(self, cls: str) -> str:
        return cls

    def _class_entry(self, label: str, n: int):
        for entry in self._level(n).classes or ():
            if entry[0] == label:
                return entry
        raise IngestError(f"no class {label!r} at level {n}")

    def class_size_from(self, label: str, m: int, j: int) -> int:
        current = label
        for level in range(m, j):
            current = self._class_entry(current, level)[2]
            if current is None:
                raise IngestError(f"class {label!r} at level {m} has no embedding to level {level + 1}")
        return self._class_entry(current, j)[1]

    def ind_t_character(self, label: str, m: int) -> Fraction:
        """Permutation-character value via |G_m| |[h] meet G_{m-1}| / (|G_{m-1}| |[h]_m|),
        where the intersection is the union of lower classes embedding into [h]."""
        size = self._class_entry(label, m)[1]
        below = self.levels.get(m - 1)
        if below is None or below.classes is None:
            raise IngestError(f"level {m - 1} has no class data")
        meet = sum(s for _, s, embeds in below.classes if embeds == label)
        return Fraction(self.group_order(m) * meet, self.group_order(m - 1) * size)

    def fitted_params(self) -> ChainParams:
        if self._params is None:
            orders = tuple(self.levels[n].order for n in range(self.min_n, self.max_n + 1))
            self._params = fit_chain_params(orders)
        return self._params


def ingest_chain(source) -> IngestedChain:
    """Load and validate a chain from the ingestion JSON (path or dict)."""
    if isinstance(source, str):
        with open(source) as fh:
            obj = json.load(fh)
    else:
        obj = source
    try:
        raw_levels = obj["levels"]
    except (KeyError, TypeError) as exc:
        raise IngestError(f"malformed chain JSON: {exc}") from exc
    parsed = []
    for raw in raw_levels:
        try:
            n = int(raw["n"])
            order = int(raw["order"])
            basis_size = int(raw["basisSize"])
            triplets = None
            if "res" in raw and raw["res"] is not None:
                triplets = [(int(r), int(c), int(v)) for r, c, v in raw["res"]]
            classes = None
            if "classes" in raw and raw["classes"] is not None:
                classes = tuple(
                    (str(c["label"]), int(c["size"]), c.get("embedsTo"))
                    for c in raw["classes"]
                )
            parsed.append((n, order, basis_size, triplets, classes))
        except (KeyError, TypeError, ValueError) as exc:
            raise IngestError(f"malformed level entry: {exc}") from exc
    # Res row indices live in the previous level's basis.
    parsed.sort(key=lambda item: item[0])
    levels = []
    for i, (n, order, basis_size, triplets, classes) in enumerate(parsed):
        res = None
        if triplets is not None:
            rows = parsed[i - 1][2] if i > 0 else 0
            try:
                res = SparseMatrix.from_triplets(rows, basis_size, triplets)
            except IndexError as exc:
                raise IngestError(
                    f"Res at level {n} has entries outside its {rows}x{basis_size} shape"
                ) from exc
        levels.append(IngestedLevel(n, order, basis_size, res, classes))
    return IngestedChain(levels, name=str(obj.get("name", "ingested")))


def export_chain(chain: Chain, max_n: int, max_order: int | None = None,
                 include_classes: bool = True) -> dict:
    """Dump a built-in chain in the ingestion format (identity class first)."""
    levels = []
    for n in range(max_n + 1):
        entry: dict = {
            "n": n,
            "order": chain.group_order(n),
            "basisSize": len(chain.basis(n)),
        }
        if n >= 1:
            entry["res"] = [
                [r, c, v] for r, c, v in chain.res_operator(n).matrix.triplets_rowcol()
            ]
        if include_classes:
            try:
                labels = chain.classes_at(n, max_order)
            except SizeBoundError:
                labels = None
            if labels is not None:
                identity = chain.identity_class(n)
                ordered = [identity] + [lab for lab in labels if lab != identity]
                rows = []
                for lab in ordered:
                    core, _ = chain.strip_class(lab)
                    row = {
                        "label": chain.format_class(lab),
                        "size": chain.class_size_at(core, n),
                    }
                    if n < max_n:
                        row["embedsTo"] = chain.format_class(chain.embed_class(core, n + 1))
                    rows.append(row)
                entry["classes"] = rows
        levels.append(entry)
    return {"name": chain.id, "levels": levels}


# ---------------------------------------------------------------------------
# Suites


def heisenberg_suite(chain, max_n: int) -> list[CheckResult]:
    """Res Ind - Ind Res = M Id on R(G_n), with M = |H| for built-in chains
    and a consistent inferred constant for ingested ones.

    Level 0 of a built-in chain uses the empty lower ring, so the commutator
    there is Res Ind alone. Ingested chains are only checked at levels where
    both adjacent Res matrices were supplied.
    """
    checks = []
    expected = chain.heisenberg_scaling
    inferred = None
    for j in chain.heisenberg_levels(max_n):
        up = chain.res_matrix(j + 1)
        commutator = up @ up.transpose()
        if j > chain.min_n:
            down = chain.res_matrix(j)
            commutator = commutator - (down.transpose() @ down)
        diag = commutator[(0, 0)]
        ok = commutator.equals_scaled_identity(diag)
        if expected is not None:
            ok = ok and diag == expected
        elif inferred is None:
            inferred = diag
        else:
            ok = ok and diag == inferred
        checks.append(CheckResult(
            f"heisenberg level={j}", ok,
            detail=f"Res Ind - Ind Res = {diag} * Id" if ok else "commutator is not scalar",
            lhs=diag, rhs=expected if expected is not None else inferred,
        ))
    return checks


def tasyopari_suite(chain, max_n: int) -> list[CheckResult]:
    """Brute Ind^l Res^l against the polynomial in Ind Res, as matrices."""
    checks = []
    for n in chain.level_range(max_n):
        x_matrix = chain.ind_res(n)
        for l in range(1, n - chain.min_n + 1):
            brute = chain.brute_indl_resl(n, l)
            poly = SparseMatrix.identity(x_matrix.nrows).scaled(chain.poly_leading(l))
            for root in chain.poly_roots(l):
                poly = x_matrix.shift_diagonal(-root) @ poly
            checks.append(CheckResult(
                f"indres-power n={n} l={l}", brute == poly,
                detail="Ind^l Res^l equals the polynomial in Ind Res"
                if brute == poly else "matrix mismatch",
            ))
    return checks


def jeongha_suite(chain, max_n: int, max_order: int | None = None) -> list[CheckResult]:
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
        params = chain.fitted_params()
        checks.append(CheckResult(
            "fit-params", params.status in ("ok", "inconclusive"),
            detail=f"status={params.status} B={params.B} C={params.C} {params.message}".strip(),
        ))
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
                predicted = params.poly_roots(l)
                engine_roots = chain.poly_roots(l)
                ok = predicted == engine_roots and params.poly_leading(l) == chain.poly_leading(l)
                checks.append(CheckResult(
                    f"fit-polynomial l={l}", ok,
                    detail=f"roots {list(predicted)} vs engine {list(engine_roots)}",
                ))
    # (4) roots vs character values, where class data allows
    if chain.group_order(0) == 1:
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
                f"roots {_jsonable(report['roots'])}",
            ))
    return checks


def oracle_suite(chain, max_n: int, max_order: int | None = None) -> list[CheckResult]:
    """Engine columns against an independent source of character columns."""
    from . import engine

    checks = []
    if isinstance(chain, SymmetricChain):
        for n in chain.level_range(max_n):
            for mu in enumerate_partitions(n):
                column = engine.character_column(chain, mu, n, max_order)
                expected = oracle_column(mu, n)
                ok = column.coeffs == expected.coeffs
                norm_ok = column.norm_squared() * class_size(mu) == chain.group_order(n)
                checks.append(CheckResult(
                    f"oracle-column n={n} class={format_partition(mu)}", ok and norm_ok,
                    detail="engine equals border-strip oracle; norm identity holds"
                    if ok and norm_ok else "mismatch against oracle",
                ))
    elif isinstance(chain, WreathChain):
        for n in chain.level_range(max_n):
            try:
                table = chain.small_table(n, max_order)
            except SizeBoundError:
                break
            for cls_label, _ in table.classes:
                cls = chain.parse_class(cls_label)
                column = engine.character_column(chain, cls, n, max_order)
                col_idx = table.class_index(cls_label)
                expected = {
                    chain.parse_label(lab): values[col_idx]
                    for lab, _, values in table.irreps
                    if values[col_idx]
                }
                ok = column.coeffs == expected
                checks.append(CheckResult(
                    f"oracle-column n={n} class={cls_label}", ok,
                    detail="engine equals brute-force table column" if ok else "mismatch",
                ))
    return checks


def lifting_suite(chain, max_n: int, max_k: int = 5) -> list[CheckResult]:
    """Res-exactness of every lift of every irrep at levels k <= max_k."""
    from .lifting import lift

    checks = []
    if isinstance(chain, IngestedChain):
        return checks
    for k in range(0, min(max_k, max_n) + 1):
        for label in chain.basis(k):
            ok = True
            detail = ""
            for n in range(k, max_n + 1):
                try:
                    lift(chain, label, n)  # verification is built in
                except AssertionError as exc:
                    ok = False
                    detail = str(exc)
                    break
            checks.append(CheckResult(
                f"lift-exactness k={k} label={chain.format_label(label)}", ok, detail=detail,
            ))
    return checks


SUITES = ("heisenberg", "tasyopari", "jeongha", "oracle", "lifts", "all")


def run_suite(chain, suite: str, max_n: int, max_order: int | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    report = SuiteReport(suite, chain.id, max_n)
    if suite in ("heisenberg", "all"):
        report.checks += heisenberg_suite(chain, max_n)
    if suite in ("tasyopari", "all"):
        report.checks += tasyopari_suite(chain, max_n)
    if suite in ("jeongha", "all"):
        report.checks += jeongha_suite(chain, max_n, max_order)
    if suite in ("oracle", "all"):
        report.checks += oracle_suite(chain, max_n, max_order)
    if suite in ("lifts", "all"):
        report.checks += lifting_suite(chain, max_n)
    return report
