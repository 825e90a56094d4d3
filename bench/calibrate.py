"""How fast the host runs Python right now.

The host the benchmark was written on is a shared VM whose speed changes by
up to a factor of two from one stretch of seconds to the next, as other
tenants come and go; a pure-Python loop of fixed work takes anywhere from
0.6 to 1.2 times its usual time. So that such a stretch does not read as a
change of the program, the timed loop measures a fixed reference workload
between its ops and reports each op's wall time scaled to the speed the
reference workload had on a quiet reference machine:

    reported seconds = wall seconds * REFERENCE_S[workload] / (reference workload's seconds now)

The reference workload does not import charcol, so a change to the program
cannot move it. A busy host does not slow every kind of work alike, so each
benchmark workload is scaled by the kind of work that dominates it:
dict-of-dict sparse products keyed by partition tuples with Python ints and
Fractions (the matvecs of sym-column), sums of products over zipped rows
(the character-table orthogonality checks of sym-table), building and
sorting many small tuples of partitions (the label enumeration of
wreath-column), and all three for verify. The garbage collector is paused
while it runs, so the program's heap does not add to its time.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from fractions import Fraction

ROUNDS = 3  # a measurement is the median of this many rounds

_rng = random.Random(20190920)
_KEYS = sorted({
    tuple(sorted((_rng.randrange(1, 9) for _ in range(_rng.randrange(2, 7))), reverse=True))
    for _ in range(600)
})
_ROWS = {
    key: {_KEYS[_rng.randrange(len(_KEYS))]: _rng.randrange(-9, 10) for _ in range(8)}
    for key in _KEYS
}
_TABLE = [[_rng.randrange(-30, 31) for _ in range(40)] for _ in range(40)]
_SIZES = [_rng.randrange(1, 10**6) for _ in range(40)]


def _partitions(n: int, max_part: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(min(n, max_part), 0, -1)
            for rest in _partitions(n - first, first)]


def _sparse_products() -> Fraction:
    vector = {key: 1 for key in _KEYS}
    for _ in range(5):
        out = {}
        for row_key, row in _ROWS.items():
            total = 0
            for col_key, value in row.items():
                total += value * vector.get(col_key, 0)
            if total:
                out[row_key] = total
        vector = {key: value % 1000003 for key, value in out.items()} or {_KEYS[0]: 1}
    return sum((Fraction(v, 3) for v in list(vector.values())[:150]), Fraction(0))


def _row_sums() -> int:
    total = 0
    for u in _TABLE[:20]:
        for w in _TABLE:
            total += sum(s * a * b for s, a, b in zip(_SIZES, u, w))
    return total


def _labels() -> int:
    labels = [
        tuple(zip(support, parts))
        for support in itertools.combinations(range(3), 2)
        for size in range(1, 9)
        for parts in itertools.product(_partitions(size, size), _partitions(9 - size, 9 - size))
    ]
    labels.sort(key=lambda lab: (tuple(i for i, _ in lab), tuple(tuple(-x for x in p) for _, p in lab)))
    return len(labels)


WORK = {
    "sym-column": (_sparse_products,),
    "sym-table": (_row_sums,),
    "wreath-column": (_labels,),
    "verify": (_sparse_products, _row_sums, _labels),
}

# Seconds of one round of each workload's reference work on the reference
# machine (2 vCPUs, Intel Xeon at 2.0 GHz, Python 3.11.7) in a quiet stretch:
# about the fastest tenth of 300 measurements over a minute, in which the
# median was half as much again. They only set the scale of the reported
# seconds.
REFERENCE_S = {"sym-column": 0.0030, "sym-table": 0.0030, "wreath-column": 0.0028, "verify": 0.0090}


def host_seconds(workload: str) -> float:
    """Median wall time of ROUNDS rounds of the workload's reference work now."""
    work = WORK[workload]
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(ROUNDS):
            start = time.perf_counter()
            for part in work:
                part()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def to_reference(seconds: float, host_s: float, workload: str) -> float:
    """Wall ``seconds`` measured while the workload's reference work took
    ``host_s``, scaled to the reference machine's speed."""
    return seconds * REFERENCE_S[workload] / host_s
