"""Spans around the calls into symlat's layers, installed from outside.

A span records name, start, end and parent span.  Spans are kept in memory
and turned into per-layer metrics once, after the traced ops.  A layer's self
time is its span time minus the time covered by its child spans.

Each wrapper is installed where the caller looks the name up: ``invariance``
imports ``sample_elements``, ``apply_elements``, ``binom_tail`` and
``quantile`` into its own namespace, ``experiments`` and ``regression`` both
import ``run_search``, and ``regression`` looks ``_kernels.loo_cv_sse`` and
``_kernels.nw_predict`` up on the module at call time.  Methods are wrapped on
their class.  Every wrapped call site passes the counted arguments
positionally.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

ROOT = "experiments.run"


def cpu_clock() -> float:
    """CPU seconds used by this process and the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Self times that together cover a traced op: the root's own time plus every
# layer below it.  Totals of spans without traced children equal their self
# time; select_bandwidth_s includes its loo child.
SELF_TIME_METRICS = (
    "experiments.self_s", "scenarios.sample_s", "lattice.build_s",
    "invariance.thresholds_s", "data.index_build_s", "search.self_s",
    "invariance.test_self_s", "groups.sample_s", "groups.apply_s",
    "data.nn_query_s", "invariance.binom_tail_s", "invariance.quantile_s",
    "regression.select_bandwidth_s", "regression.predict_s", "projections.apply_s",
)

# metric -> (span name, "total" or "self")
TIME_METRICS = {
    "groups.sample_s": ("groups.sample", "total"),
    "groups.apply_s": ("groups.apply", "total"),
    "data.nn_query_s": ("data.nn_query", "total"),
    "data.index_build_s": ("data.index_build", "total"),
    "invariance.test_s": ("invariance.test", "total"),
    "invariance.test_self_s": ("invariance.test", "self"),
    "invariance.thresholds_s": ("invariance.thresholds", "total"),
    "invariance.binom_tail_s": ("invariance.binom_tail", "total"),
    "invariance.quantile_s": ("invariance.quantile", "total"),
    "search.run_s": ("search.run", "total"),
    "search.self_s": ("search.run", "self"),
    "lattice.build_s": ("lattice.build", "total"),
    "regression.select_bandwidth_s": ("regression.select_bandwidth", "total"),
    "regression.loo_s": ("regression.loo", "total"),
    "regression.predict_s": ("regression.predict", "total"),
    "projections.apply_s": ("projections.apply", "total"),
    "scenarios.sample_s": ("scenarios.sample", "total"),
    "experiments.self_s": (ROOT, "self"),
}

COUNT_METRICS = (
    "groups.sample_calls", "groups.elements_drawn", "groups.rows_applied",
    "data.nn_queries", "invariance.tests", "invariance.binom_tail_calls",
    "invariance.quantile_calls", "search.tests_performed", "search.nodes_pruned",
    "regression.loo_calls", "regression.loo_pair_evals", "regression.loo_bytes_computed",
    "regression.predict_rows", "regression.predict_bytes_computed", "projections.rows",
    "trace.ops",
)


def _calls(name):
    def count(counts, args, result):
        counts[name] += 1
    return count


def _sample(counts, args, result):
    counts["groups.sample_calls"] += 1
    counts["groups.elements_drawn"] += int(args[2])


def _apply(counts, args, result):
    counts["groups.rows_applied"] += len(args[2])


def _nn_query(counts, args, result):
    counts["data.nn_queries"] += len(args[1])


def _search(counts, args, result):
    counts["search.tests_performed"] += result.tests_performed
    counts["search.nodes_pruned"] += sum(s == "pruned" for s in result.statuses.values())


def _loo(counts, args, result):
    # Computed from array sizes: n^2 kernel pairs of d float64 differences.
    n, d = args[0].shape
    counts["regression.loo_calls"] += 1
    counts["regression.loo_pair_evals"] += n * n
    counts["regression.loo_bytes_computed"] += n * n * d * 8


def _predict(counts, args, result):
    n, d = args[0].shape
    q = args[2].shape[0]
    counts["regression.predict_rows"] += q
    counts["regression.predict_bytes_computed"] += q * n * d * 8


def _project(counts, args, result):
    counts["projections.rows"] += len(args[1])


def layer_sites():
    """(owner, attribute, span name, counter) for every traced call site."""
    from symlat import _kernels, data, experiments, invariance, projections, regression, \
        scenarios, search
    return [
        (scenarios.ScenarioGenerator, "sample_train", "scenarios.sample", None),
        (scenarios.ScenarioGenerator, "sample_test", "scenarios.sample", None),
        (experiments, "build_lattice", "lattice.build", None),
        (invariance.NoiseModel, "default_thresholds", "invariance.thresholds", None),
        (experiments, "run_search", "search.run", _search),
        (regression, "run_search", "search.run", _search),
        (search, "exceedance_test", "invariance.test", _calls("invariance.tests")),
        (search, "ratio_permutation_test", "invariance.test", _calls("invariance.tests")),
        (data.NeighborIndex, "__init__", "data.index_build", None),
        (data.NeighborIndex, "query_many", "data.nn_query", _nn_query),
        (invariance, "sample_elements", "groups.sample", _sample),
        (invariance, "apply_elements", "groups.apply", _apply),
        (invariance, "binom_tail", "invariance.binom_tail",
         _calls("invariance.binom_tail_calls")),
        (invariance, "quantile", "invariance.quantile", _calls("invariance.quantile_calls")),
        (regression, "select_bandwidth", "regression.select_bandwidth", None),
        (_kernels, "loo_cv_sse", "regression.loo", _loo),
        (_kernels, "nw_predict", "regression.predict", _predict),
        (projections.ProjectionMap, "apply", "projections.apply", _project),
    ]


class Patches:
    """Replaces attributes and puts the originals back on ``restore``."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index)
        self.counts = Counter()
        self._stack = []
        self._patches = Patches()

    def install(self):
        """Wrap every layer call site."""
        for owner, attr, name, counter in layer_sites():
            self._patches.wrap(owner, attr,
                               lambda fn, name=name, counter=counter:
                               self._wrapper(name, fn, counter))

    def uninstall(self):
        self._patches.restore()

    def _wrapper(self, name, fn, counter):
        # Spans read the process's CPU clock, as the untraced ops do.  A span's
        # record is filled in when it ends; its index is its children's parent.
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.process_time

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result
        return traced

    def op(self, fn, *args):
        """Run one op as the root span."""
        return self._wrapper(ROOT, fn, _calls("trace.ops"))(*args)

    def metrics(self) -> dict:
        """Per-layer totals over every traced op."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
        out = {m: (own if kind == "self" else total)[span]
               for m, (span, kind) in TIME_METRICS.items()}
        out.update({m: int(self.counts[m]) for m in COUNT_METRICS})
        out["trace.op_s"] = total[ROOT]
        return out
