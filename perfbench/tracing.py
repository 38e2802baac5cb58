"""Spans around the public functions of each sqglab layer, and the metrics made from them.

The wrappers live here, in the benchmark, not in the package: a traced job
replaces each target name where it is looked up, runs the CLI, and puts the
originals back.  A target is a public function of a package module (or a
method of a public class).  When a function is defined in the module named
by its target, every other ``sqglab`` module that bound the same object with
``from ... import`` is patched too, because those modules look the name up
in their own namespace.  Targets such as ``resonance.dispersion`` name the
binding in one module only, so calls made elsewhere are not counted.

A target that no longer exists is recorded as absent; so is an annotation
that can no longer be read from a result.  Metrics that read an absent
target are reported as absent instead of failing the run, so a refactor
that renames internals does not break the benchmark.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` (times
from ``time.perf_counter`` relative to the job start, ``parent`` the index
of the enclosing span) and written out when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _table_rows(args, kwargs, result, tracer):
    form = args[0] if args else kwargs["form"]
    rows = int(form.values.shape[0])
    return {"rows": rows, "bytes": rows * (16 + 8 * int(form.p))}


def _new_space_rows(args, kwargs, result, tracer):
    return {"rows": int(result.count) if tracer.first_sight(result) else 0}


def _result_rows(args, kwargs, result, tracer):
    return {"rows": int(result.space.count)}


def _reachable_bytes(args, kwargs, result, tracer):
    return {"bytes": reachable_nbytes(result)}


def _steps(args, kwargs, result, tracer):
    cfg = result.config
    t = result.stop_time if result.stopped_early else cfg.t_end
    return {"steps": int(round(t / cfg.dt))}


def _report(args, kwargs, result, tracer):
    return {"p": int(result.p), "tuples": int(result.tuples_scanned)}


def _points(args, kwargs, result, tracer):
    return {"points": len(result.points)}


#: (span name, module, attribute path, annotation of the call).
TARGETS = (
    ("cli.main", "sqglab.cli", "main", None),
    ("forms.build_chain", "sqglab.forms", "build_chain", _reachable_bytes),
    ("forms.tuple_space", "sqglab.forms", "tuple_space", _new_space_rows),
    ("forms.nonlinearity_extension", "sqglab.forms", "nonlinearity_extension", _result_rows),
    ("forms.normal_form_divide", "sqglab.forms", "normal_form_divide", None),
    ("forms.evaluate_diagonal", "sqglab.forms", "evaluate_diagonal", _table_rows),
    ("forms.levels", "sqglab.forms", "CorrectedEnergy.levels", None),
    ("forms.derivative_values", "sqglab.forms", "CorrectedEnergy.derivative_values", None),
    ("evolve.run", "sqglab.evolve", "run", _steps),
    ("evolve.lifespan_experiment", "sqglab.evolve", "lifespan_experiment", None),
    ("field.nonlinearity", "sqglab.field", "nonlinearity", None),
    ("field.hs_norm", "sqglab.field", "hs_norm", None),
    ("field.mean_drift", "sqglab.field", "mean_drift", None),
    ("field.symmetry_residual", "sqglab.field", "symmetry_residual", None),
    ("resonance.min_denominator", "sqglab.resonance", "min_denominator", _report),
    ("resonance.search_resonances_p6", "sqglab.resonance", "search_resonances_p6", _report),
    ("resonance.certify", "sqglab.resonance", "certify", None),
    ("resonance.dispersion", "sqglab.resonance", "dispersion", None),
    ("resonance.dispersion_float", "sqglab.resonance", "dispersion_float", None),
    ("waves.continue_branch", "sqglab.waves", "continue_branch", _points),
    ("waves.newton_solve", "sqglab.waves", "newton_solve", None),
    ("waves.residual", "sqglab.waves", "residual", None),
    ("waves.jacobian_apply", "sqglab.waves", "jacobian_apply", None),
)


def reachable_nbytes(obj, depth: int = 4) -> int:
    """Bytes of the distinct NumPy arrays reachable from obj's fields."""
    import numpy as np

    seen: set = set()
    total = 0

    def walk(item, level):
        nonlocal total
        if id(item) in seen:
            return
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
            return
        if level == 0:
            return
        if isinstance(item, (list, tuple)):
            children = item
        elif isinstance(item, dict):
            children = item.values()
        else:
            children = vars(item).values() if hasattr(item, "__dict__") else ()
        for child in children:
            walk(child, level - 1)

    walk(obj, depth)
    return total


class Tracer:
    """In-memory span recorder for one job; patches targets on ``install``."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list = []
        self.absent: set = set()
        self._stack: list = []
        self._undo: list = []
        self._seen: set = set()

    def first_sight(self, obj) -> bool:
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        return True

    def _wrap(self, name, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter() - tracer.origin, None,
                      tracer._stack[-1] if tracer._stack else None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter() - tracer.origin
                tracer._stack.pop()
            if annotate is not None:
                try:
                    record[4] = annotate(args, kwargs, result, tracer)
                except (AttributeError, KeyError, IndexError, TypeError):
                    tracer.absent.add(f"{name}:attrs")
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS) -> None:
        for name, module_name, path, annotate in targets:
            try:
                module = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                owner = module
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, annotate)
            self._patch(owner, attr, wrapper)
            if owner is module and getattr(original, "__module__", None) == module_name:
                for other_name, other in list(sys.modules.items()):
                    if (other_name.split(".")[0] == "sqglab" and other is not module
                            and getattr(other, attr, None) is original):
                        self._patch(other, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# -- per-layer metrics ---------------------------------------------------------


class SpanView:
    """Sums over the spans of several jobs; remembers which names it read.

    A span nested inside a span of the same name is not counted again, so
    recursion or re-entry cannot double a layer's time.
    """

    def __init__(self, jobs: list):
        self.read: set = set()
        self._by_name: dict = {}
        for spans in jobs:
            children = [0.0] * len(spans)
            outer = [True] * len(spans)
            for i, (name, start, end, parent, _) in enumerate(spans):
                if parent is not None:
                    children[parent] += end - start
                    ancestor = parent
                    while ancestor is not None:
                        if spans[ancestor][0] == name:
                            outer[i] = False
                            break
                        ancestor = spans[ancestor][3]
            for i, (name, start, end, _, attrs) in enumerate(spans):
                if outer[i]:
                    self._by_name.setdefault(name, []).append(
                        (end - start, end - start - children[i], attrs or {})
                    )

    def _spans(self, name, p=None):
        self.read.add(name)
        spans = self._by_name.get(name, [])
        if p is not None:
            self.read.add(f"{name}:attrs")
            spans = [s for s in spans if s[2].get("p") == p]
        return spans

    def time(self, name, p=None) -> float:
        return sum(s[0] for s in self._spans(name, p))

    def self_time(self, name) -> float:
        return sum(s[1] for s in self._spans(name))

    def calls(self, name) -> int:
        return len(self._spans(name))

    def attr(self, name, key, p=None):
        self.read.add(f"{name}:attrs")
        return sum(s[2].get(key, 0) for s in self._spans(name, p))


def _ratio(num, den):
    return num / den if den > 0 else 0.0


FD = "forms.evaluate_diagonal"
EV = "evolve.run"
MD = "resonance.min_denominator"
RS = "resonance.search_resonances_p6"

#: (metric, unit, better, value from a SpanView).  Order is the report order.
LAYER_METRICS = (
    (f"{FD}.s", "s", "lower", lambda v: v.time(FD)),
    (f"{FD}.calls", "count", "lower", lambda v: v.calls(FD)),
    (f"{FD}.rows", "count", "lower", lambda v: v.attr(FD, "rows")),
    (f"{FD}.bytes_computed", "bytes", "lower", lambda v: v.attr(FD, "bytes")),
    ("forms.derivative_values.s", "s", "lower", lambda v: v.time("forms.derivative_values")),
    ("forms.derivative_values.calls", "count", "lower", lambda v: v.calls("forms.derivative_values")),
    ("forms.levels.s", "s", "lower", lambda v: v.time("forms.levels")),
    ("forms.levels.calls", "count", "lower", lambda v: v.calls("forms.levels")),
    ("forms.build_chain.s", "s", "lower", lambda v: v.time("forms.build_chain")),
    ("forms.tuple_space.s", "s", "lower", lambda v: v.time("forms.tuple_space")),
    ("forms.tuple_space.rows", "count", "lower", lambda v: v.attr("forms.tuple_space", "rows")),
    ("forms.nonlinearity_extension.s", "s", "lower",
     lambda v: v.time("forms.nonlinearity_extension")),
    ("forms.nonlinearity_extension.rows", "count", "lower",
     lambda v: v.attr("forms.nonlinearity_extension", "rows")),
    ("forms.normal_form_divide.s", "s", "lower", lambda v: v.time("forms.normal_form_divide")),
    ("forms.chain_bytes", "bytes", "lower", lambda v: v.attr("forms.build_chain", "bytes")),
    (f"{EV}.s", "s", "lower", lambda v: v.time(EV)),
    (f"{EV}.self_s", "s", "lower", lambda v: v.self_time(EV)),
    ("evolve.steps", "count", "higher", lambda v: v.attr(EV, "steps")),
    ("evolve.steps_per_s", "1/s", "higher",
     lambda v: _ratio(v.attr(EV, "steps"), v.self_time(EV))),
    ("evolve.lifespan_experiment.s", "s", "lower", lambda v: v.time("evolve.lifespan_experiment")),
    ("field.nonlinearity.s", "s", "lower", lambda v: v.time("field.nonlinearity")),
    ("field.nonlinearity.calls", "count", "lower", lambda v: v.calls("field.nonlinearity")),
    ("field.hs_norm.calls", "count", "lower", lambda v: v.calls("field.hs_norm")),
    ("field.mean_drift.s", "s", "lower", lambda v: v.time("field.mean_drift")),
    ("field.symmetry_residual.s", "s", "lower", lambda v: v.time("field.symmetry_residual")),
    ("resonance.p3.s", "s", "lower", lambda v: v.time(MD, p=3)),
    ("resonance.p4.s", "s", "lower", lambda v: v.time(MD, p=4)),
    ("resonance.p5.s", "s", "lower", lambda v: v.time(MD, p=5)),
    ("resonance.p6.s", "s", "lower", lambda v: v.time(RS, p=6)),
    ("resonance.tuples", "count", "lower",
     lambda v: v.attr(MD, "tuples") + v.attr(RS, "tuples")),
    ("resonance.p6.tuples_per_s", "1/s", "higher",
     lambda v: _ratio(v.attr(RS, "tuples", p=6), v.time(RS, p=6))),
    ("resonance.float_evals", "count", "lower", lambda v: v.calls("resonance.dispersion_float")),
    ("resonance.exact_evals", "count", "lower", lambda v: v.calls("resonance.dispersion")),
    ("resonance.exact.s", "s", "lower", lambda v: v.time("resonance.dispersion")),
    ("resonance.certify.s", "s", "lower", lambda v: v.time("resonance.certify")),
    ("waves.continue_branch.s", "s", "lower", lambda v: v.time("waves.continue_branch")),
    ("waves.newton_solve.calls", "count", "lower", lambda v: v.calls("waves.newton_solve")),
    ("waves.residual.calls", "count", "lower", lambda v: v.calls("waves.residual")),
    ("waves.newton_trials", "count", "lower",
     lambda v: v.calls("waves.residual") - v.calls("waves.newton_solve")),
    ("waves.jacobian_apply.s", "s", "lower", lambda v: v.time("waves.jacobian_apply")),
    ("waves.jacobian_apply.calls", "count", "lower", lambda v: v.calls("waves.jacobian_apply")),
    ("waves.points", "count", "higher", lambda v: v.attr("waves.continue_branch", "points")),
    ("cli.self_s", "s", "lower", lambda v: v.self_time("cli.main")),
)


def layer_metrics(jobs: list, absent: set) -> tuple[dict, list]:
    """Per-layer values from the span lists of one batch; and absent metrics."""
    values, missing = {}, []
    view = SpanView(jobs)
    for name, _unit, _better, compute in LAYER_METRICS:
        view.read = set()
        values[name] = compute(view)
        if view.read & absent:
            missing.append(name)
    return values, missing


def median_metrics(batches: list) -> dict:
    """Median of each metric over several batches' value dicts."""
    return {name: statistics.median(b[name] for b in batches) for name in batches[0]}
