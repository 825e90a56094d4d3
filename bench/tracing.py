"""Per-layer tracing from outside the program.

The traced run replaces charcol's public functions, where they are looked
up, with wrappers that record a span per call and a few exact counts. A span
has a name, a start, an end, its parent span and the op it belongs to; a
layer's self time is the sum over its spans of their duration minus the
duration of their child spans. Spans are kept in memory and aggregated when
the run ends. Every replaced attribute is put back when tracing ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

# (metric name, unit), in the order they are reported.
PER_LAYER = (
    ("partitions.enumerate_partitions.calls", "count"),
    ("partitions.enumerate_partitions.self_s", "s"),
    ("chain.basis.calls", "count"),
    ("chain.basis.self_s", "s"),
    ("chain.basis_index.calls", "count"),
    ("chain.basis_index.self_s", "s"),
    ("chain.res_operator.builds", "count"),
    ("chain.res_operator.self_s", "s"),
    ("chain.res.nnz", "count"),
    ("chain.ind_res.builds", "count"),
    ("chain.ind_res.self_s", "s"),
    ("chain.x.nnz", "count"),
    ("chain.x.dim", "count"),
    ("chain.apply_res.calls", "count"),
    ("chain.apply_res.self_s", "s"),
    ("hgroup.small_table.calls", "count"),
    ("hgroup.small_table.self_s", "s"),
    ("hgroup.validate.calls", "count"),
    ("hgroup.validate.self_s", "s"),
    ("hgroup.enumerate_wreath_labels.calls", "count"),
    ("hgroup.enumerate_wreath_labels.self_s", "s"),
    ("hgroup.wreath_char_table.self_s", "s"),
    ("lifting.lift.calls", "count"),
    ("lifting.lift.memo_hits", "count"),
    ("lifting.lift.hit_ratio", "1"),
    ("lifting.lift.self_s", "s"),
    ("lifting.lift_column_input.self_s", "s"),
    ("engine.character_column.calls", "count"),
    ("engine.character_column.self_s", "s"),
    ("engine.falling_factorial.calls", "count"),
    ("engine.falling_factorial.matvecs", "count"),
    ("engine.falling_factorial.self_s", "s"),
    ("engine.odd_column.calls", "count"),
    ("engine.odd_column.self_s", "s"),
    ("engine.reduced_operator.builds", "count"),
    ("engine.reduced_operator.self_s", "s"),
    ("sparse.matvec.calls", "count"),
    ("sparse.matvec.self_s", "s"),
    ("sparse.matvec.nnz", "count"),
    ("sparse.matmul.calls", "count"),
    ("sparse.matmul.self_s", "s"),
    ("sparse.matmul.nnz_in", "count"),
    ("sparse.matmul.nnz_out", "count"),
    ("verify.suite.heisenberg.self_s", "s"),
    ("verify.suite.tasyopari.self_s", "s"),
    ("verify.suite.jeongha.self_s", "s"),
    ("verify.suite.oracle.self_s", "s"),
    ("verify.suite.lifts.self_s", "s"),
    ("verify.checks", "count"),
    ("verify.checks_failed", "count"),
    ("verify.ingest_chain.self_s", "s"),
    ("verify.export_chain.self_s", "s"),
    ("mckay.build_graph.self_s", "s"),
    ("mckay.reduced_graph.self_s", "s"),
    ("mckay.export.self_s", "s"),
    ("verify.oracle_column.calls", "count"),
    ("verify.oracle_column.self_s", "s"),
    ("trace.overhead_ratio", "1"),
)


class Tracer:
    """Nested spans with self time, and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple] = []  # (op, span id, parent id, name, start, end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None
        self._stack: list[list] = []  # [span id, name, start, child time]
        self._next_id = 0

    def enter(self, name: str):
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0])

    def exit(self):
        span_id, name, start, child = self._stack.pop()
        end = self.clock()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.spans.append((self.op, span_id, parent[0] if parent else None, name, start, end))

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span. ``before(*args)`` runs first and its result
        is passed as ``after(state, result, *args)`` once the span ends."""

        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after:
                after(state, result, *args, **kwargs)
            return result

        return wrapper


def _memo_miss(cache_attr: str):
    """``before`` hook: whether a chain's per-level memo lacks level n (a
    build). Without the memo every call counts as a build."""

    def before(chain, n, *args, **kwargs):
        cache = getattr(chain, cache_attr, None)
        return cache is None or n not in cache

    return before


def install_layers(tracer: Tracer, saved: list, oracle_only: bool = False):
    """Wrap each layer's functions where they are looked up, appending
    (owner, attribute, original) to ``saved``. With ``oracle_only`` only
    ``verify.oracle_column`` is wrapped, for the checks the harness runs after
    the timed loop."""
    from charcol import chain, engine, hgroup, lifting, mckay, partitions, sparse, verify

    count = tracer.counts

    def add(name, owners, attr, before=None, after=None):
        for owner in owners:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, before, after))

    add("verify.oracle_column", [verify], "oracle_column")
    if oracle_only:
        return

    add("partitions.enumerate_partitions", [partitions, hgroup, verify], "enumerate_partitions")
    add("chain.basis", [chain.SymmetricChain, chain.WreathChain], "basis")
    add("chain.basis_index", [chain.Chain], "basis_index")

    def res_built(built, op, chain_, n, *args, **kwargs):
        if built:
            count["chain.res_operator.builds"] += 1
            count["chain.res.nnz"] += len(op.matrix.data)

    add("chain.res_operator", [chain.Chain], "res_operator", _memo_miss("_res_cache"), res_built)

    def x_built(built, x, chain_, n, *args, **kwargs):
        if built:
            count["chain.ind_res.builds"] += 1
            count["chain.x.nnz"] += len(x.data)
            count["chain.x.dim"] += x.nrows

    add("chain.ind_res", [chain.Chain], "ind_res", _memo_miss("_x_cache"), x_built)
    add("chain.apply_res", [chain.Chain], "apply_res")
    add("hgroup.small_table", [chain.SymmetricChain, chain.WreathChain], "small_table")
    add("hgroup.validate", [hgroup.GroupTable], "validate")
    add("hgroup.enumerate_wreath_labels", [hgroup], "enumerate_wreath_labels")
    add("hgroup.wreath_char_table", [hgroup], "wreath_char_table")

    def lift_hit(chain_, label, n, *args, **kwargs):
        if (label, n) in getattr(chain_, "lift_memo", ()):
            count["lifting.lift.memo_hits"] += 1

    add("lifting.lift", [lifting], "lift", before=lift_hit)
    add("lifting.lift_column_input", [engine, lifting], "lift_column_input")
    add("engine.character_column", [engine], "character_column")

    def factors(state, result, poly, *args, **kwargs):
        count["engine.falling_factorial.matvecs"] += poly.factors

    add("engine.falling_factorial", [engine.FallingFactorialPoly], "apply", after=factors)
    add("engine.odd_column", [engine], "odd_column")

    reduced = vars(engine)["reduced_operator"]

    def misses(*args, **kwargs):
        info = getattr(reduced, "cache_info", None)
        return info().misses if info else None

    def reduced_built(before_misses, result, *args, **kwargs):
        if before_misses is None or misses() > before_misses:
            count["engine.reduced_operator.builds"] += 1

    add("engine.reduced_operator", [engine, mckay], "reduced_operator", misses, reduced_built)

    def matvec_nnz(matrix, *args, **kwargs):
        count["sparse.matvec.nnz"] += len(matrix.data)

    add("sparse.matvec", [sparse.SparseMatrix], "matvec", before=matvec_nnz)

    def matmul_nnz(state, result, a, b, *args, **kwargs):
        count["sparse.matmul.nnz_in"] += len(a.data) + len(b.data)
        count["sparse.matmul.nnz_out"] += len(result.data)

    add("sparse.matmul", [sparse.SparseMatrix], "__matmul__", after=matmul_nnz)

    for suite, fn in (("heisenberg", "heisenberg_suite"), ("tasyopari", "tasyopari_suite"),
                      ("jeongha", "jeongha_suite"), ("oracle", "oracle_suite"),
                      ("lifts", "lifting_suite")):
        add(f"verify.suite.{suite}", [verify], fn)

    def report_checks(state, report, *args, **kwargs):
        count["verify.checks"] += len(report.checks)
        count["verify.checks_failed"] += sum(1 for c in report.checks if not c.passed)

    add("verify.run_suite", [verify], "run_suite", after=report_checks)
    add("verify.ingest_chain", [verify], "ingest_chain")
    add("verify.export_chain", [verify], "export_chain")
    add("mckay.build_graph", [mckay], "build_graph")
    add("mckay.reduced_graph", [mckay], "reduced_graph")
    add("mckay.export", [mckay], "export")


@contextmanager
def traced(tracer: Tracer, oracle_only: bool = False):
    saved: list = []
    try:
        install_layers(tracer, saved, oracle_only)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric; a layer the run never entered reads 0."""
    metrics = {}
    for name, unit in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "lifting.lift.hit_ratio":
            calls = tracer.calls["lifting.lift"]
            value = tracer.counts["lifting.lift.memo_hits"] / calls if calls else 0.0
        elif field == "calls":
            value = tracer.calls[layer]
        elif field == "self_s":
            value = tracer.self_s[layer]
        else:
            value = tracer.counts[name]
        metrics[name] = {"value": value, "unit": unit}
    return metrics
