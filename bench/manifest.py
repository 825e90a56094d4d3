"""Seeded op manifests for the charcol benchmark.

This module does not import charcol: the inputs come from the seed alone, so
two commits run on the same seed receive identical ops, and the manifest hash
printed with each run shows it.

A manifest is a list of blocks. Every block of a workload has the same size
distribution (the same number of ops at each n, or the same jobs); the seed
picks the classes, parameters and order within it. A run measures whole
blocks, so its mix of cheap and expensive ops does not depend on where a
deadline happens to fall.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("sym-column", "sym-table", "wreath-column", "verify")

# sym-column: ops per block at each n. Larger n are rarer, so that a block's
# time is spread over all of 20..28 (about 0.07 s per op at n=20, 0.7 s at
# n=28) and four blocks reach MIN_OPS without lasting minutes.
SYM_COLUMN_COUNTS = {20: 6, 21: 5, 22: 4, 23: 3, 24: 2, 25: 2, 26: 1, 27: 1, 28: 1}
SYM_COLUMN_CORE_LEVELS = range(2, 8)
SYM_TABLE_NS = (11, 12, 13)
# wreath-column: ops per block at each n. The cost doubles from one n to
# the next, so the shares (1/5, 1/5, 2/5, 1/5) put the median op inside the
# n=9 ops and the 90th percentile inside the n=10 ops, not on a boundary.
WREATH_COUNTS = {7: 5, 8: 5, 9: 10, 10: 5}
WREATH_CORE_LEVELS = range(1, 6)
DECK_STRATA = 4  # cost strata of a wreath cell's deck (see _wreath_deck)
SUITES = ("heisenberg", "tasyopari", "jeongha", "oracle", "lifts")
SYM_SUITE_MAX_N = (8, 9, 10)
Z2_SUITE_MAX_N = (5, 6)
INGESTED_SUITES = ("heisenberg", "tasyopari", "jeongha")  # the others run no checks on it
INGESTED_SUITE_MAX_N = (7, 8, 9)
INGESTED_EXPORT_MAX_N = 9
MCKAY_SYM_NS = range(6, 15)
MCKAY_Z2_NS = range(3, 8)
MCKAY_REDUCED_NS = range(6, 15)
EXPORT_SYM_MAX_N = (8, 9, 10)
EXPORT_Z2_MAX_N = (5, 6)

# About the time of one block on the reference machine (2 cores, Python
# 3.11.7). A run measures round(seconds / block time) blocks, so the work in
# a run is fixed by --seconds and is the same on every commit compared.
NOMINAL_BLOCK_S = {"sym-column": 3.6, "sym-table": 9.5, "wreath-column": 4.1, "verify": 3.1}
MIN_OPS = 100  # so that at least ten ops lie beyond op_p90_s


def partitions(n: int, min_part: int = 1, max_part: int | None = None):
    """Partitions of n with parts in [min_part, max_part], descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), min_part - 1, -1):
        for rest in partitions(n - first, min_part, first):
            yield (first,) + rest


def sym_core_classes(k: int) -> list[tuple[int, ...]]:
    """Cycle types of S_k without fixed points: the classes of core level k."""
    return list(partitions(k, min_part=2))


def z2_core_classes(k: int) -> list[tuple[tuple[int, tuple[int, ...]], ...]]:
    """Colored cycle types of Z2 wr S_k of core level k.

    Index 0 is the identity class of Z2, whose 1-cycles are fixed points and
    are stripped; index 1 is the non-identity class.
    """
    out = []
    for plain in range(k + 1):
        for p0 in partitions(plain, min_part=2):
            for p1 in partitions(k - plain):
                out.append(tuple((i, p) for i, p in ((0, p0), (1, p1)) if p))
    return out


def _sym_column_block(rng: random.Random, index: int) -> list[dict]:
    # The core level of each slot rotates from block to block, so that every
    # run holds the same mix of (n, core level); the seed picks the classes.
    ns = [n for n, count in SYM_COLUMN_COUNTS.items() for _ in range(count)]
    levels = list(SYM_COLUMN_CORE_LEVELS)
    ops = [
        {"kind": "sym-column", "n": n,
         "class": list(rng.choice(sym_core_classes(levels[(slot + index) % len(levels)])))}
        for slot, n in enumerate(ns)
    ]
    rng.shuffle(ops)
    return ops


def _sym_table_block(rng: random.Random, first_job: int) -> list[dict]:
    ns = list(SYM_TABLE_NS)
    rng.shuffle(ns)
    ops = []
    for job, n in enumerate(ns, start=first_job):
        classes = list(partitions(n))
        rng.shuffle(classes)
        ops += [{"kind": "table-column", "job": job, "n": n, "class": list(mu)} for mu in classes]
    return ops


def _wreath_deck(rng: random.Random, level: int) -> list:
    """The classes of one core level in the order they are dealt (from the
    end). A column's cost grows with its class's number of cycles, fourfold
    across a level, so the classes are split by cycle count into DECK_STRATA
    strata and dealt from each stratum in turn; the few classes a run draws
    from a cell then span its costs instead of bunching at one end."""
    ordered = sorted(z2_core_classes(level),
                     key=lambda cls: (sum(len(part) for _, part in cls), rng.random()))
    size = len(ordered)
    strata = [ordered[i * size // DECK_STRATA:(i + 1) * size // DECK_STRATA]
              for i in range(DECK_STRATA)]
    strata = [stratum for stratum in strata if stratum]
    for stratum in strata:
        rng.shuffle(stratum)
    first = rng.randrange(len(strata))
    dealt = []
    for turn in range(size * len(strata)):
        stratum = strata[(first + turn) % len(strata)]
        if stratum:
            dealt.append(stratum.pop())
    return dealt[::-1]


def _wreath_block(rng: random.Random, index: int, decks: dict) -> list[dict]:
    # As for sym-column, the core level of each slot rotates from block to
    # block. Each (n, core level) cell deals its classes from its own deck,
    # refilled when empty, so a run holds as many different classes of each
    # cell as it can, and no class twice before the cell's deck runs out.
    ns = [n for n, count in WREATH_COUNTS.items() for _ in range(count)]
    levels = list(WREATH_CORE_LEVELS)
    ops = []
    for slot, n in enumerate(ns):
        level = levels[(slot + index) % len(levels)]
        deck = decks.setdefault((n, level), [])
        if not deck:
            deck.extend(_wreath_deck(rng, level))
        ops.append({"kind": "wreath-column", "n": n,
                    "class": [[i, list(p)] for i, p in deck.pop()]})
    rng.shuffle(ops)
    return ops


def _verify_block(rng: random.Random) -> list[dict]:
    ops = []
    for suite in SUITES:
        ops += [{"kind": "suite", "chain": "sym", "suite": suite, "maxN": m} for m in SYM_SUITE_MAX_N]
        ops += [{"kind": "suite", "chain": "z2wreath", "suite": suite, "maxN": m} for m in Z2_SUITE_MAX_N]
    for suite in INGESTED_SUITES:
        ops += [
            {"kind": "suite", "chain": "ingested", "suite": suite, "maxN": m}
            for m in INGESTED_SUITE_MAX_N
        ]
    # Every McKay graph and chain export in range, each once per block with a
    # seeded format: these cheap ops make up most of the lower half of the
    # block, so the median op falls among many ops of similar cost.
    formats = ("dot", "json")
    ops += [{"kind": "mckay", "graph": "full", "chain": "sym", "n": n, "format": rng.choice(formats)}
            for n in MCKAY_SYM_NS]
    ops += [{"kind": "mckay", "graph": "full", "chain": "z2wreath", "n": n,
             "format": rng.choice(formats)} for n in MCKAY_Z2_NS]
    ops += [{"kind": "mckay", "graph": "reduced", "chain": "sym", "n": n,
             "format": rng.choice(formats)} for n in MCKAY_REDUCED_NS]
    ops += [{"kind": "export", "chain": "sym", "maxN": m} for m in EXPORT_SYM_MAX_N]
    ops += [{"kind": "export", "chain": "z2wreath", "maxN": m} for m in EXPORT_Z2_MAX_N]
    rng.shuffle(ops)
    return ops


def _block(workload: str, rng: random.Random, index: int, decks: dict) -> list[dict]:
    if workload == "sym-column":
        return _sym_column_block(rng, index)
    if workload == "sym-table":
        return _sym_table_block(rng, first_job=index * len(SYM_TABLE_NS))
    if workload == "wreath-column":
        return _wreath_block(rng, index, decks)
    if workload == "verify":
        return _verify_block(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def block_count(workload: str, seconds: float) -> int:
    """Blocks in a run of about ``seconds`` on the reference machine, and at
    least MIN_OPS ops."""
    per_block = len(_block(workload, random.Random(0), 0, {}))
    return max(1, round(seconds / NOMINAL_BLOCK_S[workload]), math.ceil(MIN_OPS / per_block))


def make_manifest(workload: str, seed: int, blocks: int) -> dict:
    rng = random.Random(f"charcol-bench:{workload}:{seed}")
    decks: dict = {}
    return {
        "workload": workload,
        "seed": seed,
        "blocks": [_block(workload, rng, i, decks) for i in range(blocks)],
    }


def manifest_hash(manifest: dict) -> str:
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def op_key(op: dict) -> str:
    """Identity of an op's output: equal keys must give equal outputs."""
    fields = {k: v for k, v in op.items() if k != "job"}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))
