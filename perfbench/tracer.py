"""Layer spans recorded from outside the ``morin`` package.

``install`` wraps the public functions of every layer and rebinds each
wrapper in every ``morin`` module that holds the original, because the
package imports with ``from .expr import eval_block``: ``morin.solver``,
``morin.analysis`` and ``morin.model`` each keep their own binding. Methods
are rebound on their class. Nothing in the package source changes.

Each call becomes a span with a parent; a span's self time is its duration
minus the time its child spans cover. Counters are read from arguments and
return values at the same boundaries. The program is single-threaded and
has no queues, so there is no waiting time to report.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (span name, module, attribute); ``Class.method`` names a method
TARGETS = (
    ("expr.eval_block", "morin.expr", "eval_block"),
    ("expr.differentiate", "morin.expr", "differentiate"),
    ("expr.simplify", "morin.expr", "simplify"),
    ("expr.symbolic_determinant", "morin.expr", "symbolic_determinant"),
    ("linalg.numeric_rank", "morin.linalg", "numeric_rank"),
    ("linalg.least_squares", "morin.linalg", "least_squares"),
    ("model.load_scene", "morin.model", "load_scene"),
    ("model.build_chain", "morin.model", "build_chain"),
    ("model.build_chain_at", "morin.model", "build_chain_at"),
    ("model.select_supplement", "morin.model", "select_supplement"),
    ("model.StratumChart.validity_margin", "morin.model", "StratumChart.validity_margin"),
    ("solver.solve_points", "morin.solver", "solve_points"),
    ("solver.trace_curves", "morin.solver", "trace_curves"),
    ("solver.grid_oracle", "morin.solver", "grid_oracle"),
    ("analysis.compute_strata", "morin.analysis", "compute_strata"),
    ("analysis.classify_point", "morin.analysis", "classify_point"),
    ("analysis.check_corank1", "morin.analysis", "check_corank1"),
    ("analysis.check_morin", "morin.analysis", "check_morin"),
    ("analysis.find_xi_zeros", "morin.analysis", "find_xi_zeros"),
    ("analysis.find_restricted_zeros", "morin.analysis", "find_restricted_zeros"),
    ("analysis.nondegeneracy", "morin.analysis", "nondegeneracy"),
    ("analysis.euler_via_morse", "morin.analysis", "euler_via_morse"),
    ("analysis.manifold_reaches_boundary", "morin.analysis", "manifold_reaches_boundary"),
    # not a named layer metric; spanned so its own work is not charged to cli.main
    ("analysis.euler_congruence", "morin.analysis", "euler_congruence"),
    ("cli.main", "morin.cli", "main"),
)

MODULES = ("morin.expr", "morin.linalg", "morin.model", "morin.solver", "morin.analysis", "morin.cli")

ORACLE = "solver.grid_oracle"
SOLVE_STATS = ("seeds", "converged", "dropped", "out_of_box", "audit_rejected", "deduplicated")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []  # [name, parent index, start, end]
        self.stack: list = []
        self.open: dict = defaultdict(int)  # spans of each name currently open
        self.counts: dict = defaultdict(int)

    def wrap(self, name: str, fn, observe=None):
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
                open_[name] -= 1
            if observe is not None:
                observe(self, result)
            return result

        return functools.wraps(fn)(traced)

    def layer_metrics(self) -> dict:
        """Per-name calls and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for name, _, _ in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        return out

    def covered_s(self) -> float:
        """Seconds inside root spans."""
        return sum(end - start for _, parent, start, end in self.spans if parent < 0)


# Counters read from return values. Every one is deterministic for a fixed
# input, so two traced passes must agree on all of them exactly.

def _eval_block(tr: Tracer, values) -> None:
    points = values.shape[1] if getattr(values, "ndim", 0) == 2 else 0
    tr.counts["expr.eval_block.points"] += points
    if points == 1:
        tr.counts["expr.eval_block.single_point_calls"] += 1
    if tr.open[ORACLE]:
        tr.counts["solver.grid_oracle.points_evaluated"] += points


def _solve_points(tr: Tracer, outcome) -> None:
    c = tr.counts
    for key in SOLVE_STATS:
        c[f"solver.solve_points.{key}"] += int(outcome.stats.get(key, 0))
    c["solver.solve_points.gn_iterations"] += sum(int(p.iterations) for p in outcome.points)
    converged = int(outcome.stats.get("converged", 0))
    candidates = converged + int(outcome.stats.get("deduplicated", 0))
    c["solver.dedup.candidates"] += candidates
    c["solver.dedup.pair_bound"] += candidates * converged


def _trace_curves(tr: Tracer, curves) -> None:
    c = tr.counts
    c["solver.trace_curves.curves"] += len(curves)
    c["solver.trace_curves.vertices"] += sum(len(cv.points) for cv in curves)
    c["solver.trace_curves.collapsed"] += sum(1 for cv in curves if cv.step_collapsed)


def _grid_oracle(tr: Tracer, roots) -> None:
    tr.counts["solver.grid_oracle.roots"] += len(roots)


def _classify_point(tr: Tracer, cls) -> None:
    if cls.kind == "inconclusive":
        tr.counts["analysis.classify_point.inconclusive"] += 1


OBSERVERS = {
    "expr.eval_block": _eval_block,
    "solver.solve_points": _solve_points,
    "solver.trace_curves": _trace_curves,
    "solver.grid_oracle": _grid_oracle,
    "analysis.classify_point": _classify_point,
}

COUNTERS = (
    "expr.eval_block.points",
    "expr.eval_block.single_point_calls",
    *(f"solver.solve_points.{k}" for k in (*SOLVE_STATS, "gn_iterations")),
    "solver.dedup.candidates",
    "solver.dedup.pair_bound",
    "solver.trace_curves.curves",
    "solver.trace_curves.vertices",
    "solver.trace_curves.collapsed",
    "solver.grid_oracle.roots",
    "solver.grid_oracle.points_evaluated",
    "analysis.classify_point.inconclusive",
)


def install(tracer: Tracer) -> None:
    """Rebind every target to a traced wrapper in every module holding it."""
    import importlib

    modules = [importlib.import_module(m) for m in MODULES]
    originals = {}  # id -> function, kept so ids stay unique
    for name, module_name, attr in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], OBSERVERS.get(name)))
            continue
        original = getattr(owner, attr)
        originals[id(original)] = original
        wrapped = tracer.wrap(name, original, OBSERVERS.get(name))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    for module in modules:
        for key, value in vars(module).items():
            if id(value) in originals:
                raise RuntimeError(f"{module.__name__}.{key} is still unwrapped")
