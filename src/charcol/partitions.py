"""Integer partitions, Young diagrams, and symmetric-group class data.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0. The same tuples serve as irrep labels
(Young diagrams) and as conjugacy-class labels (cycle types) of S_n.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

Partition = tuple[int, ...]


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

    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


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
    assert rem == 0
    return dim


def multiplicities(mu: Partition) -> dict[int, int]:
    """Derived view of a cycle type: part length -> count."""
    return dict(Counter(mu))


def class_size(mu: Partition) -> int:
    """Size of the S_n conjugacy class with cycle type mu: n!/prod(i^m_i m_i!)."""
    n = sum(mu)
    denom = 1
    for i, m in Counter(mu).items():
        denom *= i**m * factorial(m)
    size, rem = divmod(factorial(n), denom)
    assert rem == 0
    return size


def remove_one_box(p: Partition) -> list[Partition]:
    """Partitions covered by p in Young's lattice (one removable corner each)."""
    out = []
    for i in range(len(p)):
        nxt = p[i + 1] if i + 1 < len(p) else 0
        if p[i] > nxt:
            child = p[:i] + ((p[i] - 1,) if p[i] > 1 else ()) + p[i + 1 :]
            out.append(child)
    return out


def add_one_box(p: Partition) -> list[Partition]:
    """Partitions covering p in Young's lattice."""
    out = []
    for i in range(len(p) + 1):
        prev = p[i - 1] if i > 0 else None
        cur = p[i] if i < len(p) else 0
        if prev is None or prev > cur:
            out.append(p[:i] + (cur + 1,) + p[i + 1 :] if i < len(p) else p + (1,))
    return out


def below_first_row(p: Partition) -> int:
    """Number of boxes not in the first row; the lifting order's rank function."""
    return sum(p) - p[0] if p else 0


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
