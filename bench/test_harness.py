"""Self-tests of the benchmark harness. Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import manifest as mf  # noqa: E402
import ops as bench_ops  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from charcol import chain, engine, hgroup, lifting, mckay, partitions, sparse, verify  # noqa: E402

# -- generator ------------------------------------------------------------------


@pytest.mark.parametrize("workload", mf.WORKLOADS)
def test_same_seed_same_manifest(workload):
    a = mf.make_manifest(workload, 7, 2)
    b = mf.make_manifest(workload, 7, 2)
    assert a == b
    assert mf.manifest_hash(a) == mf.manifest_hash(b)
    assert mf.manifest_hash(a) != mf.manifest_hash(mf.make_manifest(workload, 8, 2))


@pytest.mark.parametrize("workload", mf.WORKLOADS)
def test_blocks_share_their_size_distribution(workload):
    blocks = mf.make_manifest(workload, 3, 3)["blocks"]

    def shape(block):
        return sorted(json.dumps({k: v for k, v in op.items() if k in ("kind", "n", "chain", "suite")},
                                 sort_keys=True) for op in block
                      if op["kind"] not in ("mckay", "export"))

    assert shape(blocks[0]) == shape(blocks[1]) == shape(blocks[2])


def test_ops_stay_in_their_ranges():
    for op in mf.make_manifest("sym-column", 1, 4)["blocks"][0]:
        assert 20 <= op["n"] <= 28
        assert all(part >= 2 for part in op["class"]) and 2 <= sum(op["class"]) <= 7
    for op in mf.make_manifest("wreath-column", 1, 4)["blocks"][0]:
        assert 7 <= op["n"] <= 10
        core = sum(sum(p) for _, p in op["class"])
        assert 1 <= core <= 5
        assert all(p > 1 for i, part in op["class"] if i == 0 for p in part)
    jobs = {}
    for op in mf.make_manifest("sym-table", 1, 2)["blocks"][1]:
        jobs.setdefault(op["job"], set()).add(tuple(op["class"]))
        assert sum(op["class"]) == op["n"]
    assert sorted(len(classes) for classes in jobs.values()) == [56, 77, 101]


def test_block_count_has_min_ops():
    for workload in mf.WORKLOADS:
        blocks = mf.block_count(workload, 1)
        assert sum(len(b) for b in mf.make_manifest(workload, 0, blocks)["blocks"]) >= mf.MIN_OPS


# -- spans and self time -------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_spans():
    # a [0, 10] calls b [2, 5], which calls c [3, 4], then b again [6, 8]
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 3, 4, 5, 6, 8, 10]))
    c = tracer.wrap("c", lambda: None)
    b = tracer.wrap("b", lambda inner: inner and inner())
    tracer.wrap("a", lambda: (b(c), b(None)))()
    assert tracer.self_s == {"a": 5, "b": 4, "c": 1}
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}
    by_id = {span[1]: span for span in tracer.spans}
    parents = {span[3]: by_id[span[2]][3] if span[2] else None for span in tracer.spans}
    assert parents == {"a": None, "b": "a", "c": "b"}


def test_recursive_spans_are_not_counted_twice():
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 4, 6]))

    def inner():
        return None

    outer = tracer.wrap("f", lambda: tracer.wrap("f", inner)())
    outer()
    assert tracer.self_s["f"] == 6  # outer [0, 6] minus inner [1, 4], plus inner
    assert tracer.calls["f"] == 2


# -- patching ------------------------------------------------------------------------

OWNERS = (chain, chain.Chain, chain.SymmetricChain, chain.WreathChain, engine,
          engine.FallingFactorialPoly, hgroup, hgroup.GroupTable, lifting, mckay,
          partitions, sparse.SparseMatrix, verify)

SMALL_OPS = [
    {"kind": "sym-column", "n": 9, "class": [3, 2]},
    {"kind": "table-column", "job": 0, "n": 6, "class": [3, 2, 1]},
    {"kind": "table-column", "job": 0, "n": 6, "class": [2, 2, 1, 1]},
    {"kind": "wreath-column", "n": 5, "class": [[1, [2]]]},
    {"kind": "suite", "chain": "sym", "suite": "tasyopari", "maxN": 5},
    {"kind": "suite", "chain": "ingested", "suite": "heisenberg", "maxN": 7},
    {"kind": "mckay", "graph": "reduced", "chain": "sym", "n": 7, "format": "dot"},
    {"kind": "export", "chain": "z2wreath", "maxN": 4},
]


def _snapshot():
    return [dict(vars(owner)) for owner in OWNERS]


def _traced_run(tmp_path, tracer):
    execute = bench_ops.Executor(str(tmp_path))
    execute.prepare("verify")
    with tracing.traced(tracer):
        results = run.run_ops(SMALL_OPS, execute, tracer)
    assert all(summary is not None for _, summary, _ in results)
    return results


def test_tracing_restores_every_attribute(tmp_path):
    before = _snapshot()
    tracer = tracing.Tracer()
    _traced_run(tmp_path, tracer)
    after = _snapshot()
    assert [d.keys() for d in before] == [d.keys() for d in after]
    for old, new in zip(before, after):
        assert all(new[k] is v for k, v in old.items())
    assert tracer.calls["sparse.matvec"] > 0 and tracer.calls["verify.run_suite"] == 2


def test_tracing_restores_after_an_error():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.traced(tracing.Tracer()):
            1 / 0
    assert [list(d.items()) for d in before] == [list(d.items()) for d in _snapshot()]


EXACT_COUNTS = ("chain.x.nnz", "sparse.matvec.calls", "sparse.matvec.nnz", "lifting.lift.calls",
                "hgroup.validate.calls", "engine.falling_factorial.matvecs", "verify.checks")


def test_exact_counts_repeat(tmp_path):
    run.run_ops(SMALL_OPS, bench_ops.Executor(str(tmp_path)))  # fill module caches
    first, second = tracing.Tracer(), tracing.Tracer()
    _traced_run(tmp_path, first)
    _traced_run(tmp_path, second)
    a = tracing.layer_metrics(first, 1.0)
    b = tracing.layer_metrics(second, 1.0)
    for name in EXACT_COUNTS:
        assert a[name]["value"] == b[name]["value"] > 0, name


# -- output checks -------------------------------------------------------------------


def test_checks_accept_right_and_reject_wrong_outputs(tmp_path):
    expected = bench_ops.load_expected()
    execute = bench_ops.Executor(str(tmp_path))
    execute.prepare("verify")
    for op in SMALL_OPS:
        summary = bench_ops.summarize(op, execute(op))
        if op["kind"] in ("suite", "mckay", "export"):
            continue  # their reference values cover the verify workload's ranges only
        assert bench_ops.check(op, summary, expected), op
    wrong = {"kind": "sym-column", "n": 9, "class": [3, 2]}
    col = execute(wrong)
    col.coeffs[(9,)] = 2
    assert not bench_ops.check(wrong, bench_ops.summarize(wrong, col), expected)
    op = {"kind": "wreath-column", "n": 5, "class": [[1, [2]]]}
    col = execute(op)
    label = next(iter(col.coeffs))
    col.coeffs[label] += 1
    assert not bench_ops.check(op, bench_ops.summarize(op, col), expected)


def test_z2_dimensions_and_class_sizes_match_the_brute_force_table():
    table = hgroup.wreath_char_table(hgroup.builtin_table("Z2"), 4)
    z2 = bench_ops._z2_chain()
    for label, dim, _ in table.irreps:
        assert bench_ops.z2_irrep_dim(z2.parse_label(label)) == dim
    for label, size in table.classes:
        cls = z2.parse_class(label)
        core, _ = z2.strip_class(cls)
        assert bench_ops.z2_class_size(core, 4) == size


def test_expected_covers_every_verify_op():
    expected = bench_ops.load_expected()
    for block in mf.make_manifest("verify", 11, 3)["blocks"]:
        for op in block:
            assert bench_ops.expected_key(op) in expected


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(mf.WORKLOADS)
    assert set(run.calibrate.WORK) == set(run.calibrate.REFERENCE_S) == set(mf.WORKLOADS)


def test_smoothed_quantile_averages_the_ranks_around_q():
    values = list(range(100, 0, -1))
    assert run.smoothed_quantile(values, 0.5) == 50  # mean of ranks 45..55
    assert run.smoothed_quantile(values, 0.9) == 90  # mean of ranks 85..95
    assert run.smoothed_quantile([3.0], 0.9) == 3.0
    assert run.smoothed_quantile([1.0, 2.0], 0.9) == 2.0


def test_op_times_are_scaled_by_the_host_speed_around_them(monkeypatch):
    # three ops of 1, 2 and 1 s; the reference workload takes 1, 3, 5, 7 s
    # before the first op and after each op
    monkeypatch.setattr(bench_ops, "summarize", lambda op, out: ("ok",))
    host = iter([1.0, 3.0, 5.0, 7.0])
    monkeypatch.setattr(run.calibrate, "host_seconds", lambda workload: next(host))
    monkeypatch.setattr(run, "SEGMENT_S", 0.0)
    ops = [{"kind": "fake"}] * 3
    clock = FakeClock([0, 1, 1, 3, 3, 4])
    results = run.run_ops(ops, lambda op: None, scale_for="wreath-column", clock=clock)
    ref = run.calibrate.REFERENCE_S["wreath-column"]
    assert [r[0] for r in results] == [1 * ref / 2, 2 * ref / 4, 1 * ref / 6]


def test_ops_share_the_measurements_around_their_segment(monkeypatch):
    monkeypatch.setattr(bench_ops, "summarize", lambda op, out: ("ok",))
    host = iter([1.0, 3.0])
    monkeypatch.setattr(run.calibrate, "host_seconds", lambda workload: next(host))
    monkeypatch.setattr(run, "SEGMENT_S", 100.0)
    clock = FakeClock([0, 1, 1, 3])
    results = run.run_ops([{"kind": "fake"}] * 2, lambda op: None, scale_for="verify", clock=clock)
    ref = run.calibrate.REFERENCE_S["verify"]
    assert [r[0] for r in results] == [1 * ref / 2, 2 * ref / 2]
