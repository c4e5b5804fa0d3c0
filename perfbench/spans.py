"""Span recording for the traced run of the affproj benchmark.

Spans come only from this file: proxy sets around each AffineSet, and
wrappers swapped onto module attributes of the package for the duration of
one traced call.  Each span has a name, a start, an end and a parent; the
spans of one top-level call (a solve, an oracle call, a report) share a
request id.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from affproj import diagnostics, mmup, oracle, sets, solver
from affproj.sets import AffineSet

ID, NAME, START, END, PARENT, REQUEST, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._request = -1

    def wrap(self, name, fn, size=None):
        """fn recorded as span `name`; size(result) is kept with the span."""
        def traced(*args, **kwargs):
            span = [len(self.spans), name, perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, self._request, None]
            self.spans.append(span)
            self._open.append(span[ID])
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._open.pop()
            if size is not None:
                span[SIZE] = size(out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Swap the layer wrappers onto the package while the block runs."""
        patches = [
            (sets, "lstsq_min_norm", "linalg.lstsq", None),
            (sets, "gram_solve", "linalg.gram_solve", len),
            (solver.HyperplaneBuffer, "select", "solver.select", len),
            (mmup, "project_s", "mmup.s_proj", None),
            (mmup, "project_v", "mmup.v_proj", None),
            (mmup, "build_problem", "mmup.build", None),
            (oracle, "stack", "oracle.stack", None),
            (oracle, "direct_projection", "oracle.solve", None),
            (diagnostics, "condition_report", "diagnostics.report", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        for owner, attr, name, size in patches:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), size))
        try:
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def call(self, name, fn, *args):
        """fn(*args) as the root span of a new request, wrappers installed.

        Returns (result, Summary of the request)."""
        self._request += 1
        first = len(self.spans)
        with self.installed():
            out = self.wrap(name, fn)(*args)
        return out, Summary(self.spans[first:])

    def proxies(self, family):
        return [TracedSet(s, self) for s in family]

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s[ID], "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": s[PARENT],
                                     "request": s[REQUEST]}) + "\n")


class TracedSet(AffineSet):
    """Delegates project/residual/rows to a set, recording each call."""

    def __init__(self, inner: AffineSet, tracer: Tracer):
        self.dim = inner.dim
        self.project = tracer.wrap("sets.project", inner.project)
        self.residual = tracer.wrap("sets.residual", inner.residual)
        self.rows = tracer.wrap("sets.rows", inner.rows)


class Summary:
    """Inclusive seconds, calls and recorded sizes per span name of one
    request, with the root's duration and self time.

    children_self is the sum of every non-root span's self time (its
    duration minus its direct children's); nested spans keep it at most
    the root's duration.
    """

    def __init__(self, spans):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(list)
        child = defaultdict(float)
        for s in spans:
            dur = s[END] - s[START]
            self.seconds[s[NAME]] += dur
            self.calls[s[NAME]] += 1
            if s[SIZE] is not None:
                self.sizes[s[NAME]].append(s[SIZE])
            child[s[PARENT]] += dur
        root = spans[0]
        self.duration = root[END] - root[START]
        self.self_time = self.duration - child[root[ID]]
        self.children_self = sum(s[END] - s[START] - child[s[ID]] for s in spans[1:])
