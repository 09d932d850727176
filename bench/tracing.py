"""Span tracing of ``iotax`` layers from outside the package.

:class:`Tracer` wraps functions so that each call records a span (id,
parent id, name, start, end).  Parents come from a thread-local stack; a
span that opens on an empty stack in another thread while ``cli.run_batch``
is running gets the batch span as its parent, so the work of ``--batch``
pool threads nests under the batch call.  Spans stay in memory until the
caller writes them out.

:func:`install` replaces each traced function at every attribute of every
loaded ``iotax`` module that is bound to it, which is where callers look it
up (``iotax.cli.solve_price_balance``, ``iotax.clearing.solve_qp``, ...).
Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

# Traced public functions, as "<module>.<function>" within the iotax package.
TARGETS = (
    "model.load_economy",
    "matcheck.analyze_matrix",
    "matcheck.is_irreducible",
    "equilibrium.solve_price_balance",
    "taxation.perfect_tax",
    "taxation.check_tax_sustainable",
    "taxation.value_accounts",
    "taxation.subsidy_requirements",
    "clearing.min_excess_solution",
    "clearing.equilibrium_from_solution",
    "clearing.support_solution",
    "clearing.verify_partial_clearing",
    "_qp.solve_qp",
    "cli.main",
    "cli.run_batch",
)

BATCH = "cli.run_batch"


def metric_name(target: str) -> str:
    """Metric prefix for a target; names must start with a letter, so the
    private module ``_qp`` reports as ``qp``."""
    return target.lstrip("_")


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._batch: tuple[int, int] | None = None  # (span id, thread id)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """Traced version of ``fn``; ``after(result, args, kwargs)`` runs
        once the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._batch is not None and self._batch[1] != threading.get_ident():
                parent = self._batch[0]
            else:
                parent = None
            span = next(self._ids)
            stack.append(span)
            if name == BATCH:
                self._batch = (span, threading.get_ident())
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == BATCH:
                    self._batch = None
                self.spans.append((span, parent, name, start, end))
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced


def install(tracer: Tracer, hooks: dict) -> list[tuple[object, str, object]]:
    """Wrap every target in the loaded ``iotax`` modules.

    ``hooks`` maps a target to its ``after`` callback.  Returns the list of
    (module, attribute, original) replacements for :func:`uninstall`.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "iotax" or name.startswith("iotax."))]
    replaced = []
    for target in TARGETS:
        module_name, function_name = target.rsplit(".", 1)
        original = getattr(sys.modules[f"iotax.{module_name}"], function_name)
        traced = tracer.wrap(target, original, hooks.get(target))
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, traced)
                    replaced.append((module, attribute, original))
    return replaced


def uninstall(replaced) -> None:
    for module, attribute, original in replaced:
        setattr(module, attribute, original)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans, window: tuple[float, float]) -> dict:
    """Per-name calls, total time and self time of the spans that start in
    ``window``, plus the batch overlap (summed child time / batch time).

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    lo, hi = window
    chosen = [s for s in spans if lo <= s[3] < hi]
    children = defaultdict(list)
    for span, parent, _, start, end in chosen:
        if parent is not None:
            children[parent].append((start, end))
    stats = {target: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for target in TARGETS}
    batch_time = batch_children = 0.0
    for span, _, name, start, end in chosen:
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - _covered(children[span], start, end)
        if name == BATCH:
            batch_time += end - start
            batch_children += sum(e - s for s, e in children[span])
    overlap = batch_children / batch_time if batch_time > 0 else 0.0
    return {"functions": stats, "overlap": overlap}
