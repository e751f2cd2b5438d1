"""In-memory span tracer around the package's public layer functions.

``Tracer.install`` replaces a target function at every binding inside the
``faircc`` package (a function imported with ``from .x import f`` has one
binding per importing module), and ``uninstall`` puts the originals back.
Spans record name, start, end and parent, and stay in memory until the run
ends. Start and end are process CPU time, the clock ops are timed on. Self
time is a span's duration minus its direct children's. A target
that no longer exists is reported as absent, so the benchmark outlives
renames in the package.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# (module, qualified name) of every wrapped function.
TARGETS = (
    ("cli", "main"),
    ("bmatching", "solve"),
    ("fair_clustering", "pair_cost_table"),
    ("fair_clustering", "build_matchings"),
    ("fair_clustering", "run_pipeline"),
    ("pivot", "best_of_restarts"),
    ("pivot", "pivot_cluster"),
    ("baselines", "run_cc"),
    ("baselines", "run_ccmerge"),
    ("baselines", "run_wmatch"),
    ("oracle", "opt_fair"),
    ("oracle", "opt_cc"),
    ("oracle", "best_partition"),
    ("model", "SignedCompleteGraph.from_json"),
    ("model", "ColorAssignment.from_csv"),
    ("model", "disagreements"),
    ("model", "check_fairness"),
)


def _digest(*parts):
    return hash(tuple(np.asarray(part).tobytes() for part in parts))


def _solve_extra(args, result):
    """Matching weight, cost-table cells (L * R) and a digest of the
    instance of one solve."""
    inst = args.arguments["inst"]
    cost = inst.cost
    return {
        "weight": int(result.weight),
        "cells": len(cost) * len(cost[0]),
        "key": _digest(cost, inst.degree_lo, inst.degree_hi),
    }


def _pair_table_extra(args, result):
    """Bytes of the L x R x n boolean tensor the table is built from,
    computed from the argument sizes rather than measured."""
    a = args.arguments
    return {"bytes": len(a["lefts"]) * len(a["rights"]) * a["g"].n}


def _build_matchings_extra(args, result):
    a = args.arguments
    spec = a["spec"]
    key = _digest(
        a["g"].signs,
        a["colors"].color_of,
        sorted((c, *b) for c, b in spec.bounds.items()),
        [spec.base_color, bool(a.get("unit_costs", False))],
    )
    return {"key": key}


EXTRAS = {
    "bmatching.solve": _solve_extra,
    "fair_clustering.pair_cost_table": _pair_table_extra,
    "fair_clustering.build_matchings": _build_matchings_extra,
}


PACKAGE = "faircc"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "extra")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = self.extra = None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.absent = []
        self.absent_extras = set()
        self._saved = []  # (owner, attribute, original) to restore

    def _wrap(self, name, func):
        extra = EXTRAS.get(name)
        signature = inspect.signature(func) if extra else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, self.op)
            self.spans.append(span)
            self.stack.append(span)
            span.start = time.process_time()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self.stack.pop()
            if extra:
                try:
                    span.extra = extra(signature.bind(*args, **kwargs), result)
                except (KeyError, AttributeError, TypeError, IndexError):
                    self.absent_extras.add(name)  # argument or result changed shape
            return result

        return wrapper

    def _modules(self):
        return [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def install(self):
        """Wrap every target at every module binding; record absent ones."""
        self.absent = []
        modules = self._modules()
        for module_name, qualname in TARGETS:
            name = f"{module_name}.{qualname.split('.')[-1]}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapper = self._wrap(name, raw)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._saved.append((m, key, raw))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def summary(self):
        """Per span name: calls, total time, self time, and the extras of
        every call, over all recorded spans."""
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
        out = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "extras": []})
            dur = s.end - s.start
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - child.get(id(s), 0.0)
            if s.extra is not None:
                agg["extras"].append((s.op, s.extra))
        return out

    def to_records(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {
                "id": i,
                "name": s.name,
                "parent": index.get(id(s.parent)),
                "op": s.op,
                "start": s.start,
                "end": s.end,
                **({"extra": s.extra} if s.extra else {}),
            }
            for i, s in enumerate(self.spans)
        ]
