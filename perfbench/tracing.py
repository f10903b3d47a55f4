"""Spans and counters recorded around fuzzyarith's layers.

Spans are recorded only from this package: the benchmark wraps its own
calls into the library, and ``instrument`` temporarily rebinds names on
the library's module objects so that calls nested inside a public
function (``oracle_check`` calling ``build_joint``, ``_correlated``
calling ``range_over_interval``) are seen too.  Nothing in the library
is edited.  Every rebinding is undone when ``instrument`` exits, so the
untraced passes run the library exactly as shipped.

This module imports only the standard library at import time, because
the traced CLI launcher times ``import fuzzyarith`` after importing it.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc
from collections import defaultdict

# Per-layer metrics: name -> unit.  Every traced run reports all of them,
# with 0 for layers the workload never reaches.  Times are self times (a
# span's duration minus the time its child spans cover), so the *_ms
# metrics of one run add up to the traced time.  Unless the unit says
# otherwise, each metric is a mean per operation of the trace pass.
LAYER_METRICS = {
    "trace.overhead_share": "ratio",
    "fuzzy.construct_calls": "count/op",
    "fuzzy.construct_ms": "ms/op",
    "fuzzy.membership_points": "count/op",
    "fuzzy.membership_ms": "ms/op",
    "fuzzy.alpha_cut_calls": "count/op",
    "fuzzy.alpha_cut_ms": "ms/op",
    "interval.objects_created": "count/op",
    "correlation.monotone_check_ms": "ms/op",
    "correlation.induced_ms": "ms/op",
    "arithmetic.std_ops": "count/op",
    "arithmetic.std_ms": "ms/op",
    "arithmetic.corr_analytic_ops": "count/op",
    "arithmetic.corr_analytic_ms": "ms/op",
    "arithmetic.corr_numeric_ops": "count/op",
    "arithmetic.corr_numeric_ms": "ms/op",
    "arithmetic.range_calls": "count/op",
    "arithmetic.range_ms": "ms/op",
    "arithmetic.g_evals": "count/op",
    "arithmetic.g_evals_per_level": "count",
    "arithmetic.closed_form_ms": "ms/op",
    "arithmetic.compare_levels_calls": "count/op",
    "arithmetic.compare_levels_ms": "ms/op",
    "oracle.build_joint_ms": "ms/op",
    "oracle.extend_ms": "ms/op",
    "oracle.levels_from_membership_ms": "ms/op",
    "oracle.report_ms": "ms/op",
    "oracle.peak_alloc_mb": "MB",
    "oracle.mask_bytes_computed": "B",
    "oracle.passed_ratio": "ratio",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms/op",
    "cli.parse_ms": "ms/op",
    "cli.evaluate_ms": "ms/op",
    "cli.format_ms": "ms/op",
    "cli.output_bytes": "B/op",
}

# Prefix of the stderr line on which the traced CLI launcher reports.
PROBE_MARK = b"PERFBENCH_TRACE "

# Counters that must repeat exactly across traced passes over one input set.
EXACT_COUNTS = ("arithmetic.g_evals", "arithmetic.range_calls",
                "interval.objects_created")


class Tracer:
    """In-memory span log plus named counters and maxima.

    A span is [name, parent index, start, end]; the operation a span
    belongs to is the root span above it, so the spans of one operation
    share the root's index as their identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        # self times and calls reported by traced child processes
        self.child_ms: dict[str, float] = defaultdict(float)
        self.child_calls: dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def raise_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    def summary(self) -> dict:
        """Totals as plain data, for a child process to report."""
        ms, calls = self.totals()
        return {"ms": ms, "calls": calls, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}

    def merge(self, summary: dict) -> None:
        """Fold in the totals a traced child process reported."""
        for k, v in summary["ms"].items():
            self.child_ms[k] += v
        for k, v in summary["calls"].items():
            self.child_calls[k] += v
        for k, v in summary["counts"].items():
            self.counts[k] += v
        for k, v in summary["maxima"].items():
            self.raise_max(k, v)

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time in ms and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        ms = defaultdict(float, self.child_ms)
        calls = defaultdict(int, self.child_calls)
        for (name, _, start, end), inner in zip(self.spans, child):
            ms[name] += (end - start - inner) * 1e3
            calls[name] += 1
        return ms, calls


def corr_span(f, method) -> str:
    """Span name of a correlated operation: which engine path it takes."""
    numeric = f.family == "custom" or (method is not None and method.mode == "numeric")
    return "arithmetic.corr_numeric" if numeric else "arithmetic.corr_analytic"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind library names so nested calls record spans and counts."""
    import fuzzyarith
    from fuzzyarith import arithmetic, correlation, fuzzy, interval, oracle

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    FuzzyNumber = fuzzy.FuzzyNumber
    Interval = interval.Interval

    patch(FuzzyNumber, "__init__", tracer.wrap("fuzzy.construct", FuzzyNumber.__init__))
    patch(FuzzyNumber, "alpha_cut", tracer.wrap("fuzzy.alpha_cut", FuzzyNumber.alpha_cut))

    membership = FuzzyNumber.membership

    def traced_membership(self, x):
        tracer.counts["fuzzy.membership_points"] += getattr(x, "size", 1)
        return tracer.call("fuzzy.membership", membership, self, x)

    patch(FuzzyNumber, "membership", traced_membership)

    post_init = Interval.__post_init__

    def counted_post_init(self):
        tracer.counts["interval.objects_created"] += 1
        post_init(self)

    patch(Interval, "__post_init__", counted_post_init)

    patch(correlation, "check_monotone",
          tracer.wrap("correlation.monotone_check", correlation.check_monotone))

    range_over_interval = arithmetic.range_over_interval

    def traced_range(g, iv, method=None):
        tracer.counts["arithmetic.range_calls"] += 1
        return tracer.call("arithmetic.range", range_over_interval, g, iv, method)

    patch(arithmetic, "range_over_interval", traced_range)

    patch(oracle, "build_joint", tracer.wrap("oracle.build_joint", oracle.build_joint))
    patch(oracle, "extend", tracer.wrap("oracle.extend", oracle.extend))

    levels_from_membership = oracle.levels_from_membership

    def traced_levels(s, grid=None, delta=None):
        out = tracer.call("oracle.levels_from_membership", levels_from_membership,
                          s, grid, delta)
        # computed, not measured: the (K+1) x n boolean mask the parent
        # commit's implementation builds
        tracer.raise_max("oracle.mask_bytes_computed", (out.k + 1) * s.zs.size)
        return out

    patch(oracle, "levels_from_membership", traced_levels)
    for name in ("correlated_sum", "correlated_product"):
        patch(oracle, name, traced_corr(tracer, getattr(oracle, name)))

    # The public names the benchmark calls through the package, and the
    # ones the CLI module calls when it is loaded (the traced CLI launcher).
    spans = {
        "standard_sum": "arithmetic.std",
        "standard_product": "arithmetic.std",
        "induced_number": "correlation.induced",
        "closed_form": "arithmetic.closed_form",
        "compare_levels": "arithmetic.compare_levels",
        "parse_expression": "cli.parse",
        "evaluate": "cli.evaluate",
        "_make_fuzzy": "cli.evaluate",
        "_make_correlation": "cli.evaluate",
    }
    for owner in (fuzzyarith, sys.modules.get("fuzzyarith.cli")):
        if owner is None:
            continue
        for name, span in spans.items():
            if name in owner.__dict__:
                patch(owner, name, tracer.wrap(span, owner.__dict__[name]))
        for name in ("correlated_sum", "correlated_product"):
            patch(owner, name, traced_corr(tracer, owner.__dict__[name]))
        patch(owner, "oracle_check", traced_oracle_check(tracer, owner.__dict__["oracle_check"]))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def traced_corr(tracer: Tracer, fn):
    def call(a, f, method=None):
        name = corr_span(f, method)
        if f.family == "custom":
            tracer.counts["arithmetic.custom_levels"] += a.k + 1
        return tracer.call(name, fn, a, f, method)
    return call


def traced_oracle_check(tracer: Tracer, fn):
    def call(*args, **kwargs):
        if tracemalloc.is_tracing():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            report = tracer.call("oracle.report", fn, *args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            tracer.raise_max("oracle.peak_alloc_mb", peak / 2 ** 20)
        else:
            report = tracer.call("oracle.report", fn, *args, **kwargs)
        tracer.counts["oracle.checks"] += 1
        tracer.counts["oracle.passed"] += bool(report.passed)
        return report
    return call


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of one trace pass of ``ops`` operations.

    A name ending in _ms is the self time of the span it names, one ending
    in _calls or _ops the number of those spans, any other a counter; all
    per operation.  The rest are set below or by the caller.
    """
    ms, calls = tracer.totals()
    c = tracer.counts
    out = {}
    for name in LAYER_METRICS:
        span, _, kind = name.rpartition("_")
        if kind == "ms":
            out[name] = ms.get(span, 0.0) / ops
        elif kind in ("calls", "ops"):
            out[name] = calls.get(span, 0) / ops
        else:
            out[name] = c[name] / ops
    levels, checks = c["arithmetic.custom_levels"], c["oracle.checks"]
    out.update({
        "trace.overhead_share": 0.0,
        "arithmetic.g_evals_per_level": c["arithmetic.g_evals"] / levels if levels else 0.0,
        "oracle.passed_ratio": c["oracle.passed"] / checks if checks else 0.0,
        "oracle.peak_alloc_mb": tracer.maxima["oracle.peak_alloc_mb"],
        "oracle.mask_bytes_computed": tracer.maxima["oracle.mask_bytes_computed"],
        "cli.interpreter_ms": 0.0,
    })
    return out
