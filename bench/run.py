#!/usr/bin/env python3
"""The charcol benchmark.

Run one workload, from the root of a checkout of the repository:

    python3 bench/run.py --workload sym-column --seed 1 --seconds 12 --trace 0

or every workload, each in its own process:

    python3 bench/run.py --workload all --seed 1 --seconds 12 --trace 0

The first output line holds the op manifest and its SHA-256. The last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. A readable summary goes to stderr. See
bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402  (bench/ is on sys.path as the script's directory)
import manifest as mf  # noqa: E402

# ops and tracing import charcol, so functions import them only after main()
# has found src/ and put it on sys.path.

SETUP_REPS = 7
SEGMENT_S = 0.1  # op wall time between two measurements of the host's speed
FAILED_OP_S = 1e9  # a failed op's latency: slower than any op that succeeds
QUANTILE_HALF_WIDTH = 0.05  # op_p50_s and op_p90_s average the ops ranked within 5 points of them
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("failed_ratio", "1"),
    ("peak_rss_mb", "MiB"),
)


def measure_setup(workload: str) -> float:
    """Median time from starting a fresh interpreter to the end of one op
    with every module-level cache cold, scaled to the reference speed.

    The interpreter reads the system-wide monotonic clock when its op is
    done, then measures the host's speed itself, in the same process and
    right after the op, and prints both."""
    from ops import SETUP_SNIPPETS

    times = []
    for _ in range(SETUP_REPS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        code = (
            f"import sys, time\nsys.path.insert(0, {SRC!r})\n"
            + SETUP_SNIPPETS[workload]
            + f"elapsed = time.clock_gettime(time.CLOCK_MONOTONIC) - {start!r}\n"
            + f"sys.path.insert(0, {HERE!r})\nimport calibrate\n"
            + f"print(elapsed, calibrate.host_seconds({workload!r}))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up op for {workload} failed:\n{proc.stderr}")
        elapsed, host_s = map(float, proc.stdout.split()[-2:])
        times.append(calibrate.to_reference(elapsed, host_s, workload))
    return statistics.median(times)


def run_ops(ops: list[dict], execute, tracer=None, scale_for=None,
            clock=time.perf_counter) -> list[tuple]:
    """Closed loop with one client: each op starts when the previous one
    has returned. Returns (seconds, output summary or None, error) per op.

    With ``scale_for``, a workload name, the host's speed is measured with
    that workload's reference work before the first op, after every
    SEGMENT_S of op time and after the last op, outside the ops' timers; an
    op's seconds are then its wall time scaled to the reference speed by the
    mean of the two measurements around its segment."""
    from ops import summarize

    results = []
    segment_of = []
    host = [calibrate.host_seconds(scale_for)] if scale_for else []
    since = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = clock()
        try:
            out = execute(op)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed = clock() - start
            results.append((elapsed, None, f"{type(exc).__name__}: {exc}"))
        else:
            elapsed = clock() - start
            try:
                results.append((elapsed, summarize(op, out), None))
            except Exception as exc:
                results.append((elapsed, None, f"unreadable output: {type(exc).__name__}: {exc}"))
        segment_of.append(len(host) - 1)
        since += elapsed
        if scale_for and since >= SEGMENT_S:
            host.append(calibrate.host_seconds(scale_for))
            since = 0.0
    if not scale_for:
        return results
    if since > 0:
        host.append(calibrate.host_seconds(scale_for))
    return [
        (calibrate.to_reference(seconds, (host[s] + host[s + 1]) / 2, scale_for), summary, error)
        for (seconds, summary, error), s in zip(results, segment_of)
    ]


def smoothed_quantile(values: list[float], q: float) -> float:
    """The q-quantile estimated as the mean of the values whose nearest rank
    lies within QUANTILE_HALF_WIDTH of q. A single order statistic moves
    with the noise of the one op that lands on it; the mean of the ops
    around it does not."""
    ordered = sorted(values)
    size = len(ordered)
    low = max(0, math.ceil(round((q - QUANTILE_HALF_WIDTH) * size, 9)) - 1)
    high = max(low + 1, min(size, math.ceil(round((q + QUANTILE_HALF_WIDTH) * size, 9))))
    return statistics.fmean(ordered[low:high])


def check_all(ops: list[dict], results: list[tuple]) -> list[bool]:
    """Per-op verdicts; identical ops with identical outputs are checked once."""
    from ops import check, load_expected

    expected = load_expected()
    verdicts: dict = {}
    out = []
    for op, (_, summary, _) in zip(ops, results):
        if summary is None:
            out.append(False)
            continue
        key = (mf.op_key(op), summary)
        if key not in verdicts:
            verdicts[key] = check(op, summary, expected)
        out.append(verdicts[key])
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    blocks = mf.block_count(workload, seconds)
    manifest = mf.make_manifest(workload, seed, blocks)
    ops = [op for block in manifest["blocks"] for op in block]
    print(json.dumps({
        "workload": workload, "seed": seed, "blocks": blocks, "ops": len(ops),
        "manifest_sha256": mf.manifest_hash(manifest), "manifest": manifest,
    }, separators=(",", ":")), flush=True)

    setup_s = None if trace else measure_setup(workload)

    import ops as bench_ops
    from tracing import Tracer, layer_metrics, traced

    tracer = Tracer() if trace else None
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        execute = bench_ops.Executor(workdir)
        execute.prepare(workload)
        bench_ops.warm(workload)
        if trace:
            first = manifest["blocks"][0]
            reference = run_ops(first, execute)
            with traced(tracer):
                results = run_ops(ops, execute, tracer)
        else:
            results = run_ops(ops, execute, scale_for=workload)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        with traced(tracer, oracle_only=True) if trace else nullcontext():
            passed = check_all(ops, results)
        probes = bench_ops.run_probes()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for op, ok, (_, _, error) in zip(ops, passed, results):
        if not ok:
            print(f"FAILED {json.dumps(op)}: {error or 'wrong output'}", file=sys.stderr)
    failed = passed.count(False)
    failed_probes = [name for name, ok in probes if not ok]
    print(f"probes failed: {len(failed_probes)}/{len(probes)} {failed_probes}", file=sys.stderr)

    if trace:
        ref_s = sum(r[0] for r in reference)
        traced_s = sum(r[0] for r in results[: len(first)])
        metrics = layer_metrics(tracer, traced_s / ref_s)
    else:
        latencies = [r[0] if ok else FAILED_OP_S for r, ok in zip(results, passed)]
        values = {
            "setup_s": setup_s,
            "ops_per_s": passed.count(True) / sum(r[0] for r in results),
            "op_p50_s": smoothed_quantile(latencies, 0.5),
            "op_p90_s": smoothed_quantile(latencies, 0.9),
            "failed_ratio": (failed + len(failed_probes)) / (len(ops) + len(probes)),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def print_summary(label: str, result: dict):
    print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in mf.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": workload, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=mf.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "charcol", "__init__.py")):
        print(f"run.py: no charcol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(args.workload, result)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
