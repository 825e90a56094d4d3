"""Integer partitions, Young diagrams, and symmetric-group class data.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. The same tuples serve as irrep labels
(Young diagrams) and as conjugacy-class labels (cycle types) of S_n.
``InvariantError`` lives here, the one module every other one imports, and
so does the border-strip oracle ``mn_character``, which shares no code with
the polynomial engine or with the permutation-character tables in hgroup.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]


class InvariantError(AssertionError):
    """An exact computation broke one of its invariants: a lift that does not
    restrict back, a non-integral column, a division that leaves a remainder.
    Raised under ``python -O`` too."""


def check_partition(parts) -> Partition:
    p = tuple(int(x) for x in parts)
    if any(x < 1 for x in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {p}")
    return p


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, exactly once, in descending lexicographic order.

    This is the canonical basis order for R(S_n): (6), (5,1), (4,2),
    (4,1,1), (3,3), (3,2,1), (3,1,1,1), (2,2,2), ... for n=6.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out, parts = [], [n] if n else []
    while True:
        out.append(tuple(parts))
        ones = 0
        while parts and parts[-1] == 1:
            ones += parts.pop()
        if not parts:
            return tuple(out)
        # the next one down: lower the last part above 1, refill with its new size
        size = parts.pop() - 1
        whole, rest = divmod(size + 1 + ones, size)
        parts += [size] * whole + ([rest] if rest else [])


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram (rows become columns)."""
    if not p:
        return ()
    return tuple(sum(1 for x in p if x > i) for i in range(p[0]))


def hook_lengths(p: Partition) -> list[list[int]]:
    conj = conjugate(p)
    return [[(row - j) + (conj[j] - i) - 1 for j in range(row)] for i, row in enumerate(p)]


def dim_irrep(p: Partition) -> int:
    """Dimension of the S_n irrep labelled by p: n! over the product of hooks."""
    n = sum(p)
    prod = 1
    for row in hook_lengths(p):
        for h in row:
            prod *= h
    dim, rem = divmod(factorial(n), prod)
    if rem:
        raise InvariantError(f"hook product of {p} does not divide {n}!")
    return dim


def class_size(mu: Partition) -> int:
    """Size of the S_n conjugacy class with cycle type mu: n!/prod(i^m_i m_i!)."""
    n = sum(mu)
    denom = 1
    for i, m in Counter(mu).items():
        denom *= i**m * factorial(m)
    size, rem = divmod(factorial(n), denom)
    if rem:
        raise InvariantError(f"centralizer order of {mu} does not divide {n}!")
    return size


def remove_one_box(p: Partition) -> list[Partition]:
    """Partitions covered by p in Young's lattice: one per run of equal parts, top to bottom."""
    out, end, i = [], len(p), 0
    while i < end:
        j = i + 1
        while j < end and p[j] == p[i]:
            j += 1
        out.append(p[: j - 1] + (p[i] - 1,) + p[j:] if p[i] > 1 else p[: j - 1])
        i = j
    return out


def content_sum(p: Partition) -> int:
    """Sum over the boxes of column index minus row index; conjugation negates it."""
    return sum(row * (row - 1) // 2 - i * row for i, row in enumerate(p))


def strip_fixed_points(mu: Partition) -> Partition:
    return tuple(x for x in mu if x > 1)


def pad_with_fixed_points(mu: Partition, n: int) -> Partition:
    extra = n - sum(mu)
    if extra < 0:
        raise ValueError(f"cycle type {mu} does not fit inside S_{n}")
    return mu + (1,) * extra


def class_sign(mu: Partition) -> int:
    """Sign character value at cycle type mu: (-1)^(n - number of parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


def is_odd_class(mu: Partition) -> bool:
    return class_sign(mu) == -1


@lru_cache(maxsize=None)
def mirrored_order(n: int) -> tuple[Partition, ...]:
    """Conjugate-mirrored enumeration: canonical prefix, then conjugates reversed.

    For n=6 this is the printed order t, v, p, wedge^2, b, r, sb, s-wedge^2,
    sp, sv, s; it differs from the canonical order only by swapping
    (3,1,1,1) and (2,2,2).
    """
    canonical = enumerate_partitions(n)
    index = {p: i for i, p in enumerate(canonical)}
    head = [p for p in canonical if index[p] <= index[conjugate(p)]]
    tail = [conjugate(p) for p in reversed(head) if conjugate(p) != p]
    return tuple(head + tail)


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


def border_strip_column(mu: Partition, diagrams) -> dict:
    """The column {lambda: chi_lambda(mu)} over the given diagrams, zeros dropped."""
    return {lam: value for lam in diagrams if (value := mn_character(lam, mu))}


def parse_partition(text: str) -> Partition:
    """Parse the bracketed text form, e.g. "[3,2,1]"; "[]" and "e" mean empty."""
    s = text.strip()
    if s in ("e", "()", "[]", ""):
        return ()
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    if not s.strip():
        return ()
    try:
        parts = tuple(int(x) for x in s.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def format_partition(p: Partition) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"
