"""Per-layer trace taken from outside the program.

`Tracer.install()` replaces the public functions listed in `LAYERS` by
timing wrappers, in every loaded `rdsym` module that holds them by name
(module globals, and module-level dicts such as the evaluator's function
table).  The program's own files are not changed.

Spans nest through one stack: a span's self time is its duration minus
the time of the wrapped spans called inside it, and the wrappers' own
bookkeeping (node counting, report reading) is charged to nobody.
Coarse spans (the verifiers, builders, classification) are kept as
records with a parent id; fine-grained layers (simplify, diff, evaluation
per point, special-function kernels) are aggregated per name, so the
trace's memory stays small next to the program's.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function, metric prefix, keep span records)
LAYERS = (
    ("expr", "simplify", "expr.simplify", False),
    ("expr", "diff", "expr.diff", False),
    ("expr", "substitute", "expr.substitute", False),
    ("expr", "compile_expr", "expr.compile_expr", False),
    ("expr", "num_equal", "expr.num_equal", False),
    ("expr", "parse", "expr.parse", False),
    ("special", "jacobi", "special.jacobi", False),
    ("special", "erf", "special.erf", False),
    ("special", "whittaker_m", "special.whittaker_m", False),
    ("special", "kummer_m", "special.kummer_m", False),
    ("sampling", "halton_points", "sampling.halton_points", False),
    ("model", "validate", "model.validate", False),
    ("symmetry", "prolong2", "symmetry.prolong2", False),
    ("symmetry", "verify_lie", "symmetry.verify_lie", True),
    ("symmetry", "verify_nonclassical", "symmetry.verify_nonclassical", True),
    ("symmetry", "verify_algebra_closure", "symmetry.verify_algebra_closure", True),
    ("transforms", "map_residual_check", "transforms.map_residual_check", True),
    ("transforms", "apply_equiv", "transforms.apply_equiv", True),
    ("transforms", "to_imaged", "transforms.to_imaged", True),
    ("transforms", "imaged_preimage", "transforms.imaged_preimage", True),
    ("solutions", "residual_terms", "solutions.residual_terms", True),
    ("solutions", "verify_on_grid", "solutions.verify_on_grid", True),
    ("solutions", "catalog", "solutions.catalog", True),
    ("classify", "classify", "classify.classify", True),
    ("tables", "build_imaged", "tables.build", True),
    ("tables", "build_double", "tables.build", True),
    ("tables", "build_initial", "tables.build", True),
)

# every per-layer metric the benchmark reports, with its unit
METRICS = {
    "expr.simplify.calls": "count", "expr.simplify.self_s": "s",
    "expr.simplify.nodes_in": "count", "expr.simplify.nodes_out": "count",
    "expr.diff.calls": "count", "expr.diff.self_s": "s",
    "expr.substitute.calls": "count", "expr.substitute.self_s": "s",
    "symmetry.prolong2.calls": "count", "symmetry.prolong2.self_s": "s",
    "symmetry.verify_lie.self_s": "s",
    "symmetry.verify_nonclassical.self_s": "s",
    "symmetry.verify_algebra_closure.self_s": "s",
    "transforms.map_residual_check.self_s": "s",
    "symmetry.points_attempted": "count", "symmetry.points_valid": "count",
    "expr.eval.points": "count", "expr.eval.self_s": "s",
    "expr.eval.domain_errors": "count",
    "special.jacobi.calls": "count", "special.jacobi.self_s": "s",
    "special.erf.calls": "count", "special.erf.self_s": "s",
    "special.whittaker_m.calls": "count", "special.whittaker_m.self_s": "s",
    "special.kummer_m.calls": "count",
    "solutions.residual_terms.self_s": "s",
    "solutions.verify_on_grid.self_s": "s",
    "solutions.grid_points_total": "count",
    "solutions.grid_points_valid": "count",
    "expr.compile_expr.calls": "count", "expr.compile_expr.self_s": "s",
    "expr.compile_expr.nodes": "count",
    "expr.num_equal.calls": "count", "expr.num_equal.self_s": "s",
    "classify.classify.calls": "count", "classify.classify.self_s": "s",
    "transforms.apply_equiv.self_s": "s", "transforms.to_imaged.self_s": "s",
    "transforms.imaged_preimage.self_s": "s",
    "model.validate.calls": "count", "model.validate.self_s": "s",
    "tables.build.self_s": "s",
    "expr.parse.calls": "count", "expr.parse.self_s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.command_s": "s",
    "cli.child_peak_rss_mb": "MB",
    "solutions.catalog.self_s": "s",
    "sampling.halton_points.calls": "count",
    "sampling.halton_points.self_s": "s",
    "mem.traced_peak_mb": "MB",
}


def tree_size(e) -> int:
    """Number of nodes of an expression tree, shared subtrees counted at
    every occurrence (the size a tree walk visits)."""
    n = 0
    stack = [e]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.args)
    return n


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []       # (id, parent, name, start, end)
        self._stack = [0.0]                # child-time accumulators
        self._ids = [0]                    # open recorded span ids
        self._next_id = 1
        self._paused = 0

    # -- counters -------------------------------------------------------
    def count(self, name: str, value: float) -> None:
        if not self._paused:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are not traced."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextmanager
    def span(self, name: str):
        """A recorded span opened by the benchmark itself (one operation)."""
        sid = self._next_id
        self._next_id += 1
        parent = self._ids[-1]
        self._ids.append(sid)
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._ids.pop()
            self._stack[-1] += t1 - t0
            self.spans.append((sid, parent, name, t0, t1))

    # -- wrapping -------------------------------------------------------
    def _wrap(self, fn, name: str, record: bool, post=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, ids, spans = self._stack, self._ids, self.spans
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            if record:
                sid = tracer._next_id
                tracer._next_id += 1
                parent = ids[-1]
                ids.append(sid)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                stack[-1] += dur
                if record:
                    ids.pop()
                    spans.append((sid, parent, name, t0, t1))
            if post is not None:
                post(args, kwargs, result)
                # the bookkeeping counts as a child of the parent, so that
                # no layer's self time holds it
                stack[-1] += perf_counter() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_compiled(self, run):
        """Count points, time and domain errors of one compiled callable."""
        stats = self.stats.setdefault("expr.eval", [0, 0.0, 0.0])
        stack = self._stack
        tracer = self
        domain_error = self._domain_error

        def evaluated(p):
            if tracer._paused:
                return run(p)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return run(p)
            except domain_error:
                tracer.counts["expr.eval.domain_errors"] = (
                    tracer.counts.get("expr.eval.domain_errors", 0) + 1)
                raise
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                stack[-1] += dur

        return evaluated

    def _post_hooks(self) -> dict:
        def simplify_post(args, kwargs, result):
            self.count("expr.simplify.nodes_in", tree_size(args[0]))
            self.count("expr.simplify.nodes_out", tree_size(result))

        def compile_post(args, kwargs, result):
            self.count("expr.compile_expr.nodes", tree_size(args[0]))

        def report_post(fn):
            sig = inspect.signature(fn)

            def post(args, kwargs, rep):
                n = sig.bind(*args, **kwargs)
                n.apply_defaults()
                self.count("symmetry.points_attempted", n.arguments["n"])
                self.count("symmetry.points_valid", rep.samples)
            return post

        def grid_post(args, kwargs, rep):
            self.count("solutions.grid_points_total", rep.total)
            self.count("solutions.grid_points_valid", rep.total - rep.skipped)

        return {
            "expr.simplify": lambda fn: simplify_post,
            "expr.compile_expr": lambda fn: compile_post,
            "symmetry.verify_lie": report_post,
            "symmetry.verify_nonclassical": report_post,
            "solutions.verify_on_grid": lambda fn: grid_post,
        }

    def install(self) -> None:
        """Wrap every function of LAYERS wherever an rdsym module holds it."""
        expr = importlib.import_module("rdsym.expr")
        self._domain_error = expr.EvalDomainError
        hooks = self._post_hooks()
        replacements = {}
        for module, func, name, record in LAYERS:
            orig = getattr(importlib.import_module(f"rdsym.{module}"), func)
            post = hooks[name](orig) if name in hooks else None
            wrapped = self._wrap(orig, name, record, post)
            if name == "expr.compile_expr":
                inner = wrapped

                def wrapped(e, names, _inner=inner):
                    return self._wrap_compiled(_inner(e, names))
            replacements[id(orig)] = (orig, wrapped)
        for modname, mod in list(sys.modules.items()):
            if modname != "rdsym" and not modname.startswith("rdsym."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this process can see; 0 where the layer
        was not exercised."""
        out = {name: 0 for name in METRICS}
        for name, (calls, _total, self_s) in self.stats.items():
            if f"{name}.calls" in out:
                out[f"{name}.calls"] = calls
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] = self_s
        out["expr.eval.points"] = self.stats.get("expr.eval", [0])[0]
        for name, value in self.counts.items():
            if name in out:
                out[name] = value
        return out

    def records(self) -> dict:
        return {
            "layers": {name: {"calls": c, "total_s": t, "self_s": s}
                       for name, (c, t, s) in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }
