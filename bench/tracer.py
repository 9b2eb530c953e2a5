"""Outside-in tracer: spans around hillgreen's layers, recorded from the benchmark.

The library is not edited.  ``Tracer.install`` replaces each public
function of the layer modules (``potential``, ``integrator``, ``spectrum``,
``greens``, ``identities``, ``comparison``) by a wrapper in every
``hillgreen`` namespace that binds it, wraps four methods on their
classes, and wraps the two dependency boundaries ``solve_ivp`` (as bound
in ``hillgreen.integrator``) and ``brentq`` (as bound in
``hillgreen.spectrum``).  ``uninstall`` puts every original back, so a
traced and an untraced pass in one interpreter cannot leak into each
other.

Spans are kept in memory with parent ids and the id of the benchmark task
that caused them.  A span's self time is its duration minus the time its
children cover.  ``Potential.eval`` runs once per right-hand-side
evaluation (about a million times per eigenvalue task), too often for one
span per call: its calls are counted and timed in aggregate, and each
call's time is charged to the enclosing span as child time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("potential", "integrator", "spectrum", "greens", "identities", "comparison")
# (module, class, method) wrapped at class level; Potential.eval is the aggregated leaf.
METHODS = (("integrator", "SolutionBasis", "trajectory"),
           ("greens", "BvpSolution", "__call__"),
           ("greens", "BvpSolution", "derivative"))
BOUNDARIES = (("integrator", "solve_ivp"), ("spectrum", "brentq"))
_BVP_EVAL = ("greens.BvpSolution.__call__", "greens.BvpSolution.derivative")
_OUTER_ERRORS = {"greens": "ResonanceError", "comparison": "HypothesisNotMet"}


class Span:
    __slots__ = ("id", "parent", "task", "name", "layer", "start", "end", "child",
                 "ivp_children", "in_identities", "error", "info")

    def __init__(self, sid, parent, task, name, layer, in_identities):
        self.id = sid
        self.parent = parent
        self.task = task
        self.name = name
        self.layer = layer
        self.in_identities = in_identities
        self.child = 0.0
        self.ivp_children = 0
        self.error = None
        self.info = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "task": self.task, "name": self.name,
                "start": self.start, "end": self.end, "self": self.self_time,
                "error": self.error, "info": self.info}


def _count_audit(audit, key: str) -> int:
    """Entries under ``key`` anywhere in a (nested) Spectrum.audit dict."""
    if isinstance(audit, dict):
        total = len(audit[key]) if isinstance(audit.get(key), list) else 0
        return total + sum(_count_audit(v, key) for k, v in audit.items() if k != key)
    if isinstance(audit, list):
        return sum(_count_audit(v, key) for v in audit)
    return 0


def _argument(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans while installed; ``metrics`` condenses them per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._task = -1
        self._patches: list = []
        self.eval_calls = 0
        self.eval_points = 0
        self.eval_s = 0.0

    # -- span bookkeeping ------------------------------------------------------

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, self._task, name, layer,
                    layer == "identities" or (parent is not None and parent.in_identities))
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start

    def _parent_name(self) -> str | None:
        return self._stack[-2].name if len(self._stack) > 1 else None

    @contextmanager
    def task(self, index: int, label: str):
        """Context for one benchmark task: a root span every layer span hangs under."""
        self._task = index
        span = self._open("bench.task", "bench")
        span.info = {"label": label}
        try:
            yield span
        finally:
            self._close(span)
            self._task = -1

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, name: str, layer: str, f):
        tracer = self
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                if name == "spectrum.brentq" and "full_output" not in kwargs:
                    root, info = f(*args, full_output=True, **kwargs)
                    span.info = {"iterations": int(info.iterations)}
                    result = root
                else:
                    result = f(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                tracer._close(span)
                raise
            if note is not None:
                span.info = note(tracer, args, kwargs, result)
            if name == "integrator.solve_ivp" and len(tracer._stack) > 1:
                tracer._stack[-2].ivp_children += 1
            tracer._close(span)
            return result

        return functools.wraps(f)(wrapper)

    def _eval_wrapper(self, f):
        tracer = self
        stack = self._stack

        def eval(self, t):
            t0 = perf_counter()
            result = f(self, t)
            dt = perf_counter() - t0
            tracer.eval_calls += 1
            tracer.eval_points += 1 if type(t) is float else int(np.size(t))
            tracer.eval_s += dt
            if stack:
                stack[-1].child += dt
            return result

        return functools.wraps(f)(eval)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"hillgreen.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._span_wrapper(f"{layer}.{attr}", layer, obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "hillgreen" or n.startswith("hillgreen."))]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and getattr(wrapper, "__wrapped__", None) is obj:
                    self._patch(mod, attr, wrapper)
        for layer, attr in BOUNDARIES:
            mod = modules[layer]
            self._patch(mod, attr, self._span_wrapper(f"{layer}.{attr}", layer, getattr(mod, attr)))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._span_wrapper(f"{layer}.{cls_name}.{meth}", layer,
                                                      cls.__dict__[meth]))
        potential_cls = modules["potential"].Potential
        self._patch(potential_cls, "eval", self._eval_wrapper(potential_cls.__dict__["eval"]))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    def metrics(self) -> dict:
        """Per-layer counts and times.  Every name is present, zero when unused."""
        m: dict = defaultdict(float)
        for name in METRIC_NAMES:
            m[name] = 0.0
        m["potential.eval_calls"] = self.eval_calls
        m["potential.eval_points"] = self.eval_points
        m["potential.eval_s"] = self.eval_s
        distinct = 0
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            info = s.info or {}
            if s.layer in LAYERS:
                m[f"{s.layer}.self_s"] += s.self_time
            parent = by_id.get(s.parent)
            outer = parent is None or parent.layer != s.layer
            if outer and s.error is not None and s.error == _OUTER_ERRORS.get(s.layer):
                m["greens.resonance_errors" if s.layer == "greens"
                  else "comparison.hypothesis_not_met"] += 1
            name = s.name
            if name == "integrator.solve_ivp":
                m["integrator.ivp_calls"] += 1
                m["integrator.rhs_evals"] += info.get("nfev", 0)
                m["integrator.ivp_s"] += s.duration
            elif name == "integrator.fundamental_solutions":
                m["integrator.fundamental_calls"] += 1
                m["integrator.fundamental_misses"] += s.ivp_children > 0
                m["integrator.fundamental_self_s"] += s.self_time
            elif name == "integrator.discriminant":
                m["integrator.discriminant_calls"] += 1
            elif name == "integrator.discriminant_derivative":
                m["integrator.deriv_calls"] += 1
                m["integrator.deriv_s"] += s.duration
            elif name == "integrator.endpoint_scan":
                m["integrator.scan_calls"] += 1
                m["integrator.scan_lambdas"] += info.get("lambdas", 0)
                m["integrator.scan_s"] += s.duration
            elif name == "integrator.SolutionBasis.trajectory":
                m["integrator.trajectory_calls"] += 1
                m["integrator.trajectory_points"] += info.get("points", 0)
                m["integrator.trajectory_s"] += s.duration
            elif name == "spectrum.find_eigenvalues":
                m["spectrum.find_calls"] += 1
                m["spectrum.find_self_s"] += s.self_time
                m["spectrum.eigenvalues_returned"] += info.get("expanded", 0)
                m["spectrum.short_results"] += info.get("short", 0)
                for key in ("tangencies", "unresolved_brackets", "unconfirmed_tangencies"):
                    m[f"spectrum.{key}"] += info.get(key, 0)
                distinct += info.get("distinct", 0)
            elif name == "spectrum.brentq":
                m["spectrum.brent_calls"] += 1
                m["spectrum.brent_iters"] += info.get("iterations", 0)
                m["spectrum.brent_s"] += s.duration
            elif name == "greens.build_green":
                m["greens.build_calls"] += 1
                m["greens.table_cells"] += info.get("cells", 0)
                m["greens.build_self_s"] += s.self_time
                m["identities.kernels_built"] += s.in_identities
            elif name == "greens.solve_bvp":
                m["greens.bvp_calls"] += 1
                m["greens.bvp_self_s"] += s.self_time
            elif name in _BVP_EVAL and not (parent is not None and parent.name in _BVP_EVAL):
                m["greens.bvp_eval_points"] += info.get("points", 0)
                m["greens.bvp_eval_s"] += s.duration
            elif name in ("identities.verify_all", "identities.verify_identity"):
                m["identities.verify_calls"] += 1
                m["identities.reports"] += info.get("reports", 0)
                m["identities.skipped"] += info.get("skipped", 0)
                m["identities.verify_self_s"] += s.self_time
            elif name == "comparison.verify_dominance":
                m["comparison.dominance_calls"] += 1
                m["comparison.dominance_self_s"] += s.self_time
            elif name == "comparison.verify_solution_comparison":
                m["comparison.solution_calls"] += 1
                m["comparison.solution_self_s"] += s.self_time
        calls = m["integrator.fundamental_calls"]
        if calls:
            m["integrator.cache_hit_ratio"] = 1.0 - m["integrator.fundamental_misses"] / calls
        if m["spectrum.brent_calls"]:
            m["spectrum.roots_kept_ratio"] = distinct / m["spectrum.brent_calls"]
        m["trace.spans"] = len(self.spans)
        m["trace.tasks"] = sum(1 for s in self.spans if s.name == "bench.task")
        return {k: int(v) if k in _INTEGER else v for k, v in m.items()}


# -- per-span notes taken from arguments and results ------------------------------

def _note_scan(tracer, args, kwargs, result):
    return {"lambdas": int(np.size(_argument(args, kwargs, 1, "lams")))}


def _note_trajectory(tracer, args, kwargs, result):
    return {"points": int(np.size(_argument(args, kwargs, 1, "t")))}


def _note_bvp_eval(tracer, args, kwargs, result):
    if tracer._parent_name() in _BVP_EVAL:
        return {"points": 0}
    return {"points": int(np.size(_argument(args, kwargs, 1, "t")))}


def _note_find(tracer, args, kwargs, result):
    max_count = kwargs.get("max_count", args[3] if len(args) > 3 else None)
    expanded = len(result.expanded())
    note = {"distinct": len(result.eigenvalues), "expanded": expanded,
            "short": int(max_count is not None and expanded < max_count)}
    for key in ("tangencies", "unresolved_brackets", "unconfirmed_tangencies"):
        note[key] = _count_audit(result.audit, key)
    return note


def _note_build(tracer, args, kwargs, result):
    return {"cells": int(result.lower.size + result.upper.size)}


def _note_verify(tracer, args, kwargs, result):
    reports = result if isinstance(result, list) else [result]
    return {"reports": len(reports), "skipped": sum(1 for r in reports if r.skipped)}


def _note_ivp(tracer, args, kwargs, result):
    return {"nfev": int(result.nfev)}


_NOTES = {
    "integrator.solve_ivp": _note_ivp,
    "integrator.endpoint_scan": _note_scan,
    "integrator.SolutionBasis.trajectory": _note_trajectory,
    "greens.BvpSolution.__call__": _note_bvp_eval,
    "greens.BvpSolution.derivative": _note_bvp_eval,
    "spectrum.find_eigenvalues": _note_find,
    "greens.build_green": _note_build,
    "identities.verify_all": _note_verify,
    "identities.verify_identity": _note_verify,
}

# Every per-layer metric with its unit, in report order.
METRICS = (
    ("potential.eval_calls", "count"), ("potential.eval_points", "count"),
    ("potential.eval_s", "s"),
    ("integrator.ivp_calls", "count"), ("integrator.rhs_evals", "count"),
    ("integrator.ivp_s", "s"),
    ("integrator.fundamental_calls", "count"), ("integrator.fundamental_misses", "count"),
    ("integrator.cache_hit_ratio", "ratio"), ("integrator.fundamental_self_s", "s"),
    ("integrator.discriminant_calls", "count"), ("integrator.deriv_calls", "count"),
    ("integrator.deriv_s", "s"),
    ("integrator.scan_calls", "count"), ("integrator.scan_lambdas", "count"),
    ("integrator.scan_s", "s"),
    ("integrator.trajectory_calls", "count"), ("integrator.trajectory_points", "count"),
    ("integrator.trajectory_s", "s"),
    ("integrator.self_s", "s"),
    ("spectrum.find_calls", "count"), ("spectrum.find_self_s", "s"),
    ("spectrum.eigenvalues_returned", "count"), ("spectrum.short_results", "count"),
    ("spectrum.brent_calls", "count"), ("spectrum.brent_iters", "count"),
    ("spectrum.brent_s", "s"), ("spectrum.roots_kept_ratio", "ratio"),
    ("spectrum.tangencies", "count"), ("spectrum.unresolved_brackets", "count"),
    ("spectrum.unconfirmed_tangencies", "count"),
    ("spectrum.self_s", "s"),
    ("greens.build_calls", "count"), ("greens.table_cells", "count"),
    ("greens.build_self_s", "s"), ("greens.resonance_errors", "count"),
    ("greens.bvp_calls", "count"), ("greens.bvp_self_s", "s"),
    ("greens.bvp_eval_points", "count"), ("greens.bvp_eval_s", "s"),
    ("greens.self_s", "s"),
    ("identities.verify_calls", "count"), ("identities.reports", "count"),
    ("identities.skipped", "count"), ("identities.kernels_built", "count"),
    ("identities.verify_self_s", "s"), ("identities.self_s", "s"),
    ("comparison.dominance_calls", "count"), ("comparison.hypothesis_not_met", "count"),
    ("comparison.dominance_self_s", "s"),
    ("comparison.solution_calls", "count"), ("comparison.solution_self_s", "s"),
    ("comparison.self_s", "s"),
    ("trace.tasks", "count"), ("trace.spans", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.integrator_potential_share", "ratio"),
)
METRIC_NAMES = tuple(name for name, _ in METRICS)
_INTEGER = frozenset(name for name, unit in METRICS if unit == "count")
# Counts that do not depend on machine load; they must repeat exactly at one seed.
WORK_COUNTS = tuple(name for name, unit in METRICS
                    if unit == "count" and not name.startswith("trace."))
