"""Outside-in span tracer: wraps functions from the benchmark's side.

The simulator carries no spans of its own; this tracer patches functions
and methods of the package (class attributes and module attributes) with
thin timing wrappers, so a traced job needs no change to the code under
test.  Each wrapper records, per ``(function, parent function)`` pair, the
call count, the total time and the time spent in wrapped children.  Spans
are aggregated in memory; nothing is written while the job runs.

Self time is the total minus the wrapped children's time, corrected for
the tracer's own cost: :meth:`SpanTracer.calibrate` times 10**5 calls of
an empty wrapped function and splits the per-call overhead into the part
inside the callee's timed window (charged back to the callee) and the part
outside it (charged back to the caller, which would otherwise absorb its
children's wrapper overhead).

Patch before constructing the objects under test: hot paths bind methods
once at construction (event-dispatch tables, bus subscriptions), and a
bound method taken before :meth:`install` never reaches the wrapper.
:meth:`restore` puts back every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

__all__ = ["ROOT", "SpanTracer"]

#: Parent name of spans opened outside any wrapped function.
ROOT = "<job>"


def _public_names(owner, module_name: str) -> list[str]:
    """Public plain functions/methods defined directly on ``owner``.

    Properties are skipped (attribute reads, not calls), and so are
    generator functions: their wrapper would time only the creation of the
    generator, and the iteration belongs to the caller anyway.
    """
    names = []
    for name, value in vars(owner).items():
        if name.startswith("_"):
            continue
        function = value.__func__ if isinstance(
            value, (staticmethod, classmethod)) else value
        if not inspect.isfunction(function):
            continue
        if inspect.isgeneratorfunction(function):
            continue
        if not inspect.isclass(owner) and function.__module__ != module_name:
            continue  # re-exported from another module
        names.append(name)
    return names


def _span_name(function) -> str:
    module = function.__module__
    if module.startswith("repro."):
        module = module[len("repro."):]
    return f"{module}.{function.__qualname__}"


class SpanTracer:
    """Patch, time and restore the functions named by ``targets``.

    Each target is ``(layer, module, owner, names)``: wrap ``names`` of the
    class called ``owner`` in ``module`` (``owner=None``: module
    attributes) and label their spans ``layer``.  ``names=None`` selects
    every public function or method defined there.
    """

    def __init__(self, targets: list[tuple]):
        self._targets = list(targets)
        self._stack: list[list] = [[ROOT, 0.0, 0]]
        #: (function, parent) -> [calls, total_s, children_s, child_calls]
        self._stats: dict[tuple[str, str], list] = {}
        self._patches: list[tuple[object, str, object]] = []
        #: span name -> layer label
        self.layer_of: dict[str, str] = {}
        #: Wrapper cost per call inside the callee's window / outside it.
        self.inner_cost = 0.0
        self.outer_cost = 0.0

    # --------------------------------------------------------------- patching
    def _wrap(self, function, name: str):
        stack = self._stack
        stats = self._stats
        clock = time.perf_counter

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                parent[2] += 1
                record = stats.get((name, parent[0]))
                if record is None:
                    record = stats[(name, parent[0])] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
                record[3] += frame[2]

        return wrapper

    def install(self) -> "SpanTracer":
        """Calibrate, then patch every target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.calibrate()
        try:
            for layer, module_name, owner_name, names in self._targets:
                module = importlib.import_module(module_name)
                owner = module if owner_name is None \
                    else getattr(module, owner_name)
                for attr in names or _public_names(owner, module_name):
                    self._patch(layer, owner, attr)
        except BaseException:
            self.restore()
            raise
        self.reset()
        return self

    def _patch(self, layer: str, owner, attr: str) -> None:
        original = vars(owner)[attr]
        if isinstance(original, (staticmethod, classmethod)):
            name = _span_name(original.__func__)
            patched = type(original)(self._wrap(original.__func__, name))
        else:
            name = _span_name(original)
            patched = self._wrap(original, name)
        self.layer_of[name] = layer
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ measuring
    def reset(self) -> None:
        """Forget every span recorded so far (the patches stay)."""
        self._stats.clear()
        self._stack[:] = [[ROOT, 0.0, 0]]

    def calibrate(self, n: int = 100_000, repeats: int = 3) -> None:
        """Measure the wrapper's own cost per call (best of ``repeats``)."""
        def noop():
            return None

        wrapped = self._wrap(noop, "<calibration>")
        clock = time.perf_counter
        best = None
        for _ in range(repeats):
            start = clock()
            for _ in range(n):
                noop()
            raw = clock() - start
            self.reset()
            start = clock()
            for _ in range(n):
                wrapped()
            total = clock() - start
            inside = self._stats[("<calibration>", ROOT)][1]
            if best is None or total - raw < best[0]:
                best = (total - raw, inside - raw)
        per_call = max(0.0, best[0] / n)
        self.inner_cost = min(per_call, max(0.0, best[1] / n))
        self.outer_cost = per_call - self.inner_cost
        self.reset()

    @property
    def per_call_cost(self) -> float:
        """Total wrapper overhead of one traced call, in seconds."""
        return self.inner_cost + self.outer_cost

    def spans(self) -> list[dict]:
        """Aggregated spans, one per ``(function, parent)`` pair."""
        spans = []
        for (name, parent), (calls, total, children, child_calls) in \
                sorted(self._stats.items()):
            self_s = (total - children - child_calls * self.outer_cost
                      - calls * self.inner_cost)
            spans.append({"function": name, "parent": parent,
                          "layer": self.layer_of.get(name, "?"),
                          "calls": calls, "total_s": total,
                          "self_s": self_s})
        return spans
