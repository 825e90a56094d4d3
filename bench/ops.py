"""Running manifest ops against charcol, and checking what they return.

Every call into charcol goes through a module attribute (``engine.odd_column``,
``verify.run_suite``, ...) at call time, so that the traced run sees the
wrappers it installs there.

Output checks do not rely on the engine's own ``assert``s, which ``python -O``
removes:

* symmetric columns must equal the border-strip oracle ``oracle_column``;
* wreath columns (n >= 7, above what the brute-force table can reach under
  the default order bound) must be integral, have trivial entry 1, be
  orthogonal to the identity column (sum of dim * value is 0) and have norm
  |G|/|class|. Dimensions and class sizes are computed here, not by charcol;
* suite reports must pass with the check count, and McKay and chain exports
  must have the SHA-256, recorded in ``expected.json`` when the benchmark was added.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from math import factorial, prod

from charcol import engine, hgroup, mckay, partitions, verify
from charcol.chain import SymmetricChain, WreathChain

import manifest as mf

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _z2_chain() -> WreathChain:
    return WreathChain(hgroup.builtin_table("Z2"), chain_id="z2wreath")


def _wreath_class(raw) -> tuple:
    return tuple((int(i), tuple(p)) for i, p in raw)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def column_digest(coeffs: dict) -> str:
    """Digest of a column; an int and an integral Fraction digest alike."""
    return sha256(repr(sorted((label, str(value)) for label, value in coeffs.items())))


class Executor:
    """Runs ops. Holds the chain of the current sym-table job and the work
    directory where chains are exported to and ingested from."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.ingest_path = os.path.join(workdir, f"sym-chain-{mf.INGESTED_EXPORT_MAX_N}.json")
        self._job = None
        self._job_chain = None

    def prepare(self, workload: str):
        if workload == "verify":
            obj = verify.export_chain(SymmetricChain(), mf.INGESTED_EXPORT_MAX_N)
            with open(self.ingest_path, "w") as fh:
                json.dump(obj, fh)

    def __call__(self, op: dict):
        kind = op["kind"]
        if kind == "sym-column":
            return engine.character_column(SymmetricChain(), tuple(op["class"]), op["n"])
        if kind == "table-column":
            if op["job"] != self._job:
                self._job, self._job_chain = op["job"], SymmetricChain()
            n, mu = op["n"], tuple(op["class"])
            if (n - len(mu)) % 2:
                return engine.odd_column(mu, n, self._job_chain, max_order=factorial(n))
            return engine.character_column(self._job_chain, mu, n, max_order=factorial(n))
        if kind == "wreath-column":
            return engine.character_column(_z2_chain(), _wreath_class(op["class"]), op["n"])
        if kind == "suite":
            return self._suite(op)
        if kind == "mckay":
            if op["graph"] == "reduced":
                graph = mckay.reduced_graph(op["n"], SymmetricChain())
            else:
                chain = SymmetricChain() if op["chain"] == "sym" else _z2_chain()
                graph = mckay.build_graph(chain, op["n"])
            return mckay.export(graph, op["format"])
        if kind == "export":
            chain = SymmetricChain() if op["chain"] == "sym" else _z2_chain()
            text = json.dumps(verify.export_chain(chain, op["maxN"]))
            path = os.path.join(self.workdir, "export.json")
            with open(path, "w") as fh:
                fh.write(text)
            return text
        raise ValueError(f"unknown op kind {kind!r}")

    def _suite(self, op: dict):
        max_n = op["maxN"]
        if op["chain"] == "ingested":
            return verify.run_suite(verify.ingest_chain(self.ingest_path), op["suite"], max_n)
        if op["chain"] == "sym":
            return verify.run_suite(SymmetricChain(), op["suite"], max_n, max_order=factorial(max_n))
        return verify.run_suite(_z2_chain(), op["suite"], max_n)


def summarize(op: dict, out) -> tuple:
    """A small record of an op's output, taken outside the op's timer, so
    that outputs need not be kept until the checks run."""
    kind = op["kind"]
    if kind in ("sym-column", "table-column"):
        return ("column", column_digest(out.coeffs))
    if kind == "wreath-column":
        return ("wreath", tuple(sorted(wreath_column_facts(op, out.coeffs).items())))
    if kind == "suite":
        return ("suite", out.passed, len(out.checks))
    return ("text", sha256(out))


# -- independent facts about Z2 wr S_n ----------------------------------------


def _hook_dim(part: tuple) -> int:
    conj = [sum(1 for x in part if x > j) for j in range(part[0])] if part else []
    hooks = prod(part[i] - j + conj[j] - i - 1 for i in range(len(part)) for j in range(part[i]))
    return factorial(sum(part)) // hooks


def z2_irrep_dim(label) -> int:
    """dim of the irrep ((index, partition), ...): n! / prod |part|! * prod dim(part)."""
    n = sum(sum(p) for _, p in label)
    return factorial(n) // prod(factorial(sum(p)) for _, p in label) * prod(
        _hook_dim(p) for _, p in label
    )


def z2_class_size(core, n: int) -> int:
    """Size in Z2 wr S_n of a core class padded with fixed points; the
    centralizer of m cycles of length i of one color has order m! (2i)^m."""
    k = sum(sum(p) for _, p in core)
    cycles = Counter()
    for color, part in core:
        for length in part:
            cycles[color, length] += 1
    cycles[0, 1] += n - k
    centralizer = prod(factorial(m) * (2 * length) ** m for (_, length), m in cycles.items())
    return 2**n * factorial(n) // centralizer


def wreath_column_facts(op: dict, coeffs: dict) -> dict:
    n = op["n"]
    core = _wreath_class(op["class"])
    values = list(coeffs.values())
    return {
        "integral": all(int(v) == v for v in values),
        "trivial": coeffs.get(((0, (n,)),), 0) == 1,
        "identity_orthogonal": sum(z2_irrep_dim(lab) * v for lab, v in coeffs.items()) == 0,
        "norm": sum(v * v for v in values) == 2**n * factorial(n) // z2_class_size(core, n),
    }


# -- checks ---------------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def expected_key(op: dict) -> str:
    if op["kind"] == "suite":
        return f"suite/{op['chain']}/{op['suite']}/{op['maxN']}"
    if op["kind"] == "mckay":
        return f"mckay/{op['graph']}/{op['chain']}/{op['n']}/{op['format']}"
    return f"export/{op['chain']}/{op['maxN']}"


def check(op: dict, summary: tuple, expected: dict) -> bool:
    """Whether an op's output is correct; ``expected`` is load_expected()."""
    tag = summary[0]
    if tag == "column":
        oracle = verify.oracle_column(tuple(op["class"]), op["n"])
        return summary[1] == column_digest(oracle.coeffs)
    if tag == "wreath":
        return all(holds for _, holds in summary[1])
    want = expected.get(expected_key(op))
    if tag == "suite":
        return summary[1] and want is not None and summary[2] == want
    return want is not None and summary[1] == want


# -- known-defect probes ---------------------------------------------------------

PROBE_CLASSES = ((2,), (4,), (2, 2, 2), (3, 2))
PROBE_NS = (15, 16, 17, 18)


def run_probes() -> list[tuple[str, bool]]:
    """Odd columns at n >= 15 and the oracle suite at maxN 10 under the
    default order bound. When the benchmark was added, n=15 and n=16 raised
    RuntimeError, and the suite raised SizeBoundError."""
    results = []
    for n in PROBE_NS:
        for cls in PROBE_CLASSES:
            name = f"odd_column {list(cls)} n={n}"
            try:
                col = engine.odd_column(cls, n)
                ok = column_digest(col.coeffs) == column_digest(verify.oracle_column(cls, n).coeffs)
            except Exception:  # a probe records any failure; it is not a crash
                ok = False
            results.append((name, ok))
    try:
        ok = verify.run_suite(SymmetricChain(), "oracle", 10).passed
    except Exception:
        ok = False
    results.append(("run_suite sym oracle maxN=10", ok))
    return results


# -- caches filled before timing ----------------------------------------------------


def warm(workload: str):
    """Fill the module-level caches the workload touches, so that the timed
    loop measures steady state; cold cost is what setup_s measures."""
    if workload == "sym-column":
        for n in range(max(mf.SYM_COLUMN_COUNTS) + 1):
            partitions.enumerate_partitions(n)
        for k in range(1, max(mf.SYM_COLUMN_CORE_LEVELS) + 1):
            hgroup.symmetric_group_table(k)
    elif workload == "sym-table":
        for k in range(1, max(mf.SYM_TABLE_NS) + 1):
            hgroup.symmetric_group_table(k, factorial(k))
        for n in mf.SYM_TABLE_NS:
            engine.reduced_operator(n)
    elif workload == "wreath-column":
        for k in range(1, max(mf.WREATH_CORE_LEVELS) + 1):
            hgroup.wreath_char_table(hgroup.builtin_table("Z2"), k)
    elif workload == "verify":
        for k in range(1, max(mf.SYM_SUITE_MAX_N) + 1):
            hgroup.symmetric_group_table(k, factorial(k))
            for mu in partitions.enumerate_partitions(k):
                verify.oracle_column(mu, k)
        for k in range(1, max(mf.Z2_SUITE_MAX_N)):  # Z2 wr S_6 is above the default bound
            hgroup.wreath_char_table(hgroup.builtin_table("Z2"), k)
        for n in mf.MCKAY_REDUCED_NS:
            engine.reduced_operator(n)


# -- set-up: one cold op in a fresh interpreter -------------------------------------

SETUP_SNIPPETS = {
    "sym-column": (
        "from charcol import SymmetricChain, character_column\n"
        "character_column(SymmetricChain(), (4, 3), 24)\n"
    ),
    "sym-table": (
        "from charcol import SymmetricChain, odd_column\n"
        "odd_column((6, 4, 2), 12, SymmetricChain(), max_order=479001600)\n"
    ),
    "wreath-column": (
        "from charcol import WreathChain, builtin_table, character_column\n"
        "chain = WreathChain(builtin_table('Z2'), chain_id='z2wreath')\n"
        "character_column(chain, ((0, (3,)), (1, (1,))), 9)\n"
    ),
    "verify": (
        "from charcol import SymmetricChain, run_suite\n"
        "if not run_suite(SymmetricChain(), 'oracle', 8, max_order=40320).passed:\n"
        "    raise SystemExit(1)\n"
    ),
}
