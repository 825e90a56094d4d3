#!/usr/bin/env python3
"""Record the reference outputs of the verify workload's ops.

    python3 bench/record_expected.py

writes bench/expected.json: the check count of every suite op and the
SHA-256 of every McKay and chain export the manifests can contain. It was run
at the commit that added the benchmark; outputs are meant to stay
byte-identical, so rerun it only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import manifest as mf  # noqa: E402
import ops as bench_ops  # noqa: E402


def op_space() -> list[dict]:
    """Every op a verify block can hold: a block has them all, only the
    McKay formats are seeded."""
    ops = []
    for op in mf.make_manifest("verify", 0, 1)["blocks"][0]:
        if op["kind"] == "mckay":
            ops += [{**op, "format": fmt} for fmt in ("dot", "json")]
        else:
            ops.append(op)
    return ops


def main():
    expected = {}
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=os.path.dirname(HERE)) as workdir:
        execute = bench_ops.Executor(workdir)
        execute.prepare("verify")
        for op in op_space():
            summary = bench_ops.summarize(op, execute(op))
            if summary[0] == "suite":
                if not summary[1]:
                    raise SystemExit(f"suite op {op} does not pass")
                expected[bench_ops.expected_key(op)] = summary[2]
            else:
                expected[bench_ops.expected_key(op)] = summary[1]
    with open(bench_ops.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(expected)} entries to {bench_ops.EXPECTED_PATH}")


if __name__ == "__main__":
    main()
