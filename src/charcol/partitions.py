"""Integer partitions, Young diagrams, and symmetric-group class data.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. The same tuples serve as irrep labels
(Young diagrams) and as conjugacy-class labels (cycle types) of S_n.
``InvariantError`` lives here, the one module every other one imports, and
so does the border-strip oracle ``mn_character``, which shares no code with
the polynomial engine or with the permutation-character tables in hgroup.
Its border strips (``rim_hooks``) also drive hgroup's wreath
Murnaghan-Nakayama rule.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from math import factorial, prod

Partition = tuple[int, ...]


class InvariantError(AssertionError):
    """An exact computation broke one of its invariants: a lift that does not
    restrict back, a non-integral column, a division that leaves a remainder.
    Raised under ``python -O`` too."""


def check_partition(parts) -> Partition:
    """The parts if they are ints (no bool, float or string is truncated), positive, weakly decreasing."""
    p = tuple(parts)
    if any(type(x) is not int for x in p):
        raise ValueError(f"partition parts must be integers: {p}")
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
    """Transpose column by column: lambda'_j = #{i : lambda_i > j}, as an index walks up the rows."""
    out, i = [], len(p)
    for j in range(p[0] if p else 0):
        while p[i - 1] <= j:
            i -= 1
        out.append(i)
    return tuple(out)


def dim_irrep(p: Partition) -> int:
    """Dimension of the S_n irrep labelled by p: n! over the product of hooks."""
    conj = conjugate(p)
    hooks = prod(row - j + conj[j] - i - 1 for i, row in enumerate(p) for j in range(row))
    dim, rem = divmod(factorial(sum(p)), hooks)
    if rem:
        raise InvariantError(f"hook product of {p} does not divide {sum(p)}!")
    return dim


def class_size(mu: Partition) -> int:
    """Size of the S_n conjugacy class with cycle type mu: n!/prod(i^m_i m_i!)."""
    centralizer = prod(i ** mu.count(i) * factorial(mu.count(i)) for i in set(mu))
    size, rem = divmod(factorial(sum(mu)), centralizer)
    if rem:
        raise InvariantError(f"centralizer order of {mu} does not divide {sum(mu)}!")
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


def mirrored_order(n: int) -> tuple[Partition, ...]:
    """Conjugate-mirrored enumeration: canonical prefix, then conjugates reversed.

    For n=6 this is the printed order t, v, p, wedge^2, b, r, sb, s-wedge^2,
    sp, sv, s; it differs from the canonical order only by swapping
    (3,1,1,1) and (2,2,2). The canonical order is descending, so the prefix
    holds the diagrams that come no later than their conjugates.
    """
    head = [p for p in enumerate_partitions(n) if p >= conjugate(p)]
    return tuple(head + [conjugate(p) for p in reversed(head) if conjugate(p) != p])


def rim_hooks(lam: Partition, r: int) -> Iterator[tuple[int, Partition]]:
    """(sign, lambda less the strip) for each border strip of size r of lambda.

    Border strips of size r correspond to first-column hook (beta-set) moves
    beta_i -> beta_i - r landing outside the set; the sign is (-1)^height,
    the height being the number of beta values jumped over. A move past
    beta_{i+1..j-1} moves those rows up one, each one box shorter, and leaves
    row j-1 what is left of row i; only the last rows can end up empty.
    """
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]  # strictly decreasing
    present = set(beta)
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in present:
            continue
        j = i + 1
        while j < m and beta[j] > nb:
            j += 1
        rows = lam[:i] + tuple(x - 1 for x in lam[i + 1:j]) + (nb - (m - j),) + lam[j:]
        yield -1 if (j - i - 1) % 2 else 1, tuple(x for x in rows if x)


@lru_cache(maxsize=None)
def mn_character(lam: Partition, mu: Partition) -> int:
    """chi_lambda(mu) by recursive border-strip removal with sign (-1)^height. Both are
    checked inside the memo, mu once sorted, so a hit pays nothing; a key equal to a
    memoized one, such as (2, 1.0) to (2, 1), is a hit and goes unchecked."""
    lam = check_partition(lam)
    mu = check_partition(sorted(mu, reverse=True))
    if sum(lam) != sum(mu):
        raise ValueError(f"|lambda|={sum(lam)} but |mu|={sum(mu)}")
    if not mu:
        return 1
    total = 0
    for sign, rest in rim_hooks(lam, mu[0]):
        total += sign * mn_character(rest, mu[1:])
    return total


def border_strip_column(mu: Partition, diagrams) -> dict:
    """The column {lambda: chi_lambda(mu)} over the given diagrams, zeros dropped."""
    return {lam: value for lam in diagrams if (value := mn_character(lam, mu))}


@lru_cache(maxsize=None)
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
