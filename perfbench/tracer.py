"""Outside-in span tracer for the grouse package.

The tracer wraps public functions of grouse from the outside: it replaces
every module attribute that is bound to a traced function, in every loaded
``grouse`` module, so calls are caught at the module where they are looked
up (``grouse_step`` is bound by name in ``harness``, ``bounds`` and
``checks``; patching ``grouse.core`` alone would miss those callers).

Each call becomes a span ``(name, id, parent, start, end, tag)``.  Spans
sit on a thread-local stack, so the pool threads of a sweep nest their own
calls; a span opened on a thread with an empty stack takes as parent the
innermost open span of the thread that created the tracer (the sweep
that is waiting on the pool).  Spans stay in memory until the caller
writes them out.

Self time partitions the traced wall time: at every instant the time goes
to the open spans that have no open child, split evenly when several
threads hold one (only one of them runs Python at a time).  On one thread
this is exactly a span's duration minus the time its children cover, and
self times plus ``trace.uncovered_s`` always sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Traced functions per layer.  A name is ``<layer>.<function>``; the function
# is looked up in ``grouse.<layer>``, so ``core.reorthonormalize`` is the
# subspaces function that the step calls.
LAYERS = {
    "cli": ("main",),
    "harness": ("run_sweep", "run_single", "run_trajectory",
                "write_trajectory_csv", "write_sweep_csv", "write_sweep_json"),
    "checks": ("verify",),
    "bounds": ("mc_zeta_rate_check", "mc_eps_rate_check", "mc_zeta_ratio_check",
               "mc_eps_decrease_check", "detect_phases"),
    "core": ("grouse_step", "project", "compute_alpha", "compute_theta",
             "rotate_update", "reorthonormalize"),
    "data": ("make_planted", "draw_sample"),
    "subspaces": ("metric_sample", "principal_angles", "determinant_similarity",
                  "frobenius_discrepancy", "random_orthonormal"),
}

SUITES = ("metrics", "step", "data", "rates")


def _property_tag(result):
    return (result.suite, result.passed)


def _step_tag(outcome):
    return outcome.skipped


class Tracer:
    """Collects spans from patched grouse functions while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack = self._stack()
        self._undo: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, name, fn, tag):
        spans, ids, stack_of, home = self.spans, self._ids, self._stack, self._home_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (home[-1] if home else 0)
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((name, span_id, parent, start, end,
                              tag(result) if tag and result is not None else None))

        return traced

    def targets(self):
        """``(name, function, tag)`` for every traced function."""
        out = []
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"grouse.{layer}")
            for fname in names:
                tag = _step_tag if (layer, fname) == ("core", "grouse_step") else None
                out.append((f"{layer}.{fname}", getattr(module, fname), tag))
        # the property functions of grouse.checks, summed per suite in the report
        checks = importlib.import_module("grouse.checks")
        for fname, fn in vars(checks).items():
            returns = getattr(fn, "__annotations__", {}).get("return")
            if callable(fn) and not fname.startswith("_") and returns in ("PropertyResult", checks.PropertyResult):
                out.append((f"checks.{fname}", fn, _property_tag))
        return out

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "grouse" or key.startswith("grouse."))]
        for name, fn, tag in self.targets():
            wrapper = self._wrap(name, fn, tag)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()


def self_times(spans) -> dict[int, float]:
    """Self time of every span id, by a sweep over all span boundaries."""
    events = []
    for _, span_id, parent, start, end, _ in spans:
        events.append((start, 1, span_id, parent))
        events.append((end, 0, -span_id, parent))
    # at equal times: ends before starts, parents open before and close after children
    events.sort()
    own: dict[int, float] = defaultdict(float)
    open_children: Counter = Counter()
    active: set[int] = set()
    leaves: set[int] = set()
    prev = events[0][0] if events else 0.0
    for t, is_start, key, parent in events:
        if leaves:
            share = (t - prev) / len(leaves)
            for span_id in leaves:
                own[span_id] += share
        prev = t
        if is_start:
            active.add(key)
            leaves.add(key)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            span_id = -key
            active.discard(span_id)
            leaves.discard(span_id)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return own


def _percentiles(values) -> tuple[float, float, float]:
    """50th, 90th and 99th percentile of the values (zeros when there are none)."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    qs = statistics.quantiles(values, n=100, method="inclusive")
    return qs[49], qs[89], qs[98]


def layer_metrics(spans, wall_s: float, threads: int) -> dict[str, float]:
    """Every per-layer statistic of one traced pass, keyed by metric name."""
    own = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    tagged: dict[str, list] = defaultdict(list)
    for name, span_id, _, start, end, tag in spans:
        durations[name].append(end - start)
        self_s[name] += own.get(span_id, 0.0)
        if tag is not None:
            tagged[name].append((tag, end - start))

    out: dict[str, float] = {}
    names = {name for layer, fnames in LAYERS.items() for name in (f"{layer}.{f}" for f in fnames)}
    for name in sorted(names | set(durations)):
        d = durations.get(name, [])
        p50, p90, p99 = _percentiles(d)
        out[f"{name}.calls"] = len(d)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.total_s"] = sum(d)
        out[f"{name}.p50_us"] = p50 * 1e6
        out[f"{name}.p99_us"] = p99 * 1e6
        out[f"{name}.p50_ms"] = p50 * 1e3
        out[f"{name}.p90_ms"] = p90 * 1e3

    steps = out["core.grouse_step.calls"]
    skipped = sum(tag for tag, _ in tagged["core.grouse_step"])
    out["core.skip_ratio"] = skipped / steps if steps else 0.0
    out["core.reorth_per_step"] = out["core.reorthonormalize.calls"] / steps if steps else 0.0
    out["subspaces.metric_per_step"] = out["subspaces.metric_sample.calls"] / steps if steps else 0.0

    suite_total = dict.fromkeys(SUITES, 0.0)
    failed = 0
    for name, pairs in tagged.items():
        if name.startswith("checks."):
            for (suite, passed), d in pairs:
                suite_total[suite] = suite_total.get(suite, 0.0) + d
                failed += not passed
    for suite, total in suite_total.items():
        out[f"checks.{suite}.total_s"] = total
    out["checks.properties_failed"] = failed

    out["harness.pool_busy_ratio"] = out["harness.run_trajectory.total_s"] / (wall_s * threads)
    roots = sum(end - start for _, _, parent, start, end, _ in spans if parent == 0)
    out["trace.uncovered_s"] = wall_s - roots
    out["trace.wall_s"] = wall_s
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
