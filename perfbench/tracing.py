"""Spans and counters recorded around coxchains' public calls.

A Tracer replaces the public functions, where the calling modules look them
up, with wrappers that record a span (name, parent, start, end) and the
counts of work done at that boundary. Spans stay in memory; the runner
reads them at the end. Recursive calls of a function already open on the
span stack are not split into spans of their own.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

from coxchains import cli, field, graphs, lattice, models, recursion, series


def _root_lines(model) -> int:
    if hasattr(model, "factors"):
        return sum(_root_lines(f) for f, _ in model.factors)
    return len(model.roots) if hasattr(model, "roots") else model.m


def _count_model(tracer, model):
    tracer.count("models.roots", _root_lines(model))


def _count_lattice(tracer, result):
    lat, table = result
    tracer.count("lattice.elements", len(lat.elements))
    tracer.count("lattice.rank_sizes", max(lat.rank_sizes()))
    tracer.count("lattice.table_entries", table.group_order * len(lat.elements))
    tracer.count("models.group_order", table.group_order)


def _count_scan(tracer, result):
    tracer.count("lattice.chains", result.total_chains)
    tracer.count("lattice.orbits", result.orbit_count)


# (span name, function name, modules that look the function up, counter)
SPANNED = [
    ("graphs.parse", "parse_group_spec", (graphs, cli, models, recursion),
     lambda t, r: t.count("graphs.calls")),
    ("models.build_model", "build_model", (models, cli), _count_model),
    ("lattice.build", "build_lattice_with_action", (lattice, cli), _count_lattice),
    ("lattice.scan", "count_chain_orbits", (lattice, cli), _count_scan),
    ("lattice.line_orbits", "orbit_count_of_lines", (lattice, cli), None),
    ("series.verify_identities", "verify_identities", (series, cli), None),
]
COUNTED = [
    ("field.rref_calls", "rref", (field,)),
    ("field.null_space_calls", "null_space", (lattice, models)),
]


class Tracer:
    def __init__(self):
        self.spans = []        # [pass, request, name, parent, start, end]
        self.stack = []        # indices of open spans
        self.pass_no = 0
        self.request_no = 0
        self.pending = Counter()   # counts of the request in flight
        self.counts = {}           # pass -> Counter of completed requests

    def open(self, name) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([self.pass_no, self.request_no, name, parent,
                           time.perf_counter(), None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][5] = time.perf_counter()
        self.stack.remove(idx)

    def is_open(self, name) -> bool:
        return any(self.spans[i][2] == name for i in self.stack)

    def count(self, name, n=1):
        self.pending[name] += n

    def begin_request(self, kind):
        self.request_no += 1
        self.pending = Counter()
        return self.open(kind)

    def end_request(self, idx, missed: bool):
        """Close the request's span; keep its counts unless it missed its
        deadline, because where the timer stops a request depends on the
        machine's speed and would make the counts differ between runs."""
        while self.stack:
            top = self.stack[-1]
            self.close(top)
            if top == idx:
                break
        if not missed:
            self.counts.setdefault(self.pass_no, Counter()).update(self.pending)

    def spanned(self, name, fn, counter):
        def wrapper(*args, **kwargs):
            if self.is_open(name):
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                counter(self, result)
            return result
        return wrapper

    def counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.pending[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def k_probe(self, fn):
        def k(calc, g):
            if self.is_open("recursion.k"):
                return fn(calc, g)
            before = len(calc.memo)
            idx = self.open("recursion.k")
            try:
                result = fn(calc, g)
            finally:
                self.close(idx)
            self.count("recursion.queries")
            self.count("recursion.memo_entries", len(calc.memo) - before)
            return result
        return k

    @contextmanager
    def installed(self):
        """Patch the probes in; restore the original functions on exit."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        for name, attr, owners, counter in SPANNED:
            probe = self.spanned(name, getattr(owners[0], attr), counter)
            for owner in owners:
                patch(owner, attr, probe)
        for name, attr, owners in COUNTED:
            probe = self.counted(name, getattr(owners[0], attr))
            for owner in owners:
                patch(owner, attr, probe)
        patch(recursion.KCalculator, "k", self.k_probe(recursion.KCalculator.k))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, pass_no, scale) -> Counter:
        """Per span name: summed duration minus the duration of its children,
        each span scaled by scale[its request number]."""
        out = Counter()
        for p, req, name, parent, start, end in self.spans:
            if p != pass_no:
                continue
            t = (end - start) * scale[req]
            out[name] += t
            if parent is not None:
                out[self.spans[parent][2]] -= t
        return out
