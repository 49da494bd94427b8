"""Layer spans recorded from outside the package.

The traced run replaces module attributes at the call sites the layers
actually use (``quboprep.probing.fix_variables``, ``Qubo.from_terms``, ...)
with wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Nothing in ``src/`` is edited; :meth:`Tracer.installed`
restores every original attribute on exit.  Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _net_size(tracer: "Tracer", args) -> None:
    net = args[0]
    tracer.counts["network.max_flow.arcs"] += net.num_arcs
    tracer.counts["network.max_flow.nodes"] += net.num_nodes


def _targets():
    """(owner, attribute, span name, kind, hook) for every wrapped call site.

    Kind "count" only counts calls and records no span.  The package is
    imported here, lazily, so that timing its import stays the caller's job.
    """
    from quboprep import _fast, decompose, graphs, model, oracle, persistency, probing

    return [
        (model.Qubo, "from_terms", "model.from_terms", "classmethod", None),
        (probing, "fix_variables", "model.fix_variables", "function", None),
        (probing, "substitute", "model.substitute", "function", None),
        (probing, "analyze", "persistency.analyze", "function", None),
        (probing, "analyze_branch", "fast.analyze_branch", "function", None),
        (probing._ProbeState, "analyze_branches", "probing.probes", "count", None),
        (_fast.IntArrays, "from_qubo", "fast.from_qubo", "classmethod", None),
        (_fast, "max_flow", "network.max_flow", "function", _net_size),
        (_fast, "extract_labels", "persistency.extract_labels", "function", None),
        (persistency, "to_posiform", "posiform.to_posiform", "function", None),
        (persistency, "build_network", "network.build_network", "function", None),
        (persistency, "max_flow", "network.max_flow", "function", _net_size),
        (persistency, "extract_labels", "persistency.extract_labels", "function", None),
        (decompose, "analyze", "persistency.analyze", "function", None),
        (decompose, "clique_qubo", "problems.clique_qubo", "function", None),
        (oracle, "exact_max_clique", "oracle.exact_max_clique", "function", None),
        (graphs.Graph, "induced", "graphs.induced", "function", None),
        (graphs.Graph, "adjacency", "graphs.adjacency", "cached_property", None),
    ]


class Tracer:
    """In-memory span recorder; spans are ``[name, start, end, parent]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]

    def span(self, name: str, fn, hook=None):
        """``fn`` wrapped so that each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1]]
            spans.append(record)
            stack.append(idx)
            if hook is not None:
                hook(self, args)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        """``fn`` wrapped so that each call only bumps the counter ``name``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every call site of :func:`_targets` for the ``with`` body."""
        saved = []
        try:
            for owner, attr, name, kind, hook in _targets():
                original = owner.__dict__[attr]
                if kind == "classmethod":
                    replacement = classmethod(self.span(name, original.__func__, hook))
                elif kind == "count":
                    replacement = self.counted(name, original)
                elif kind == "cached_property":
                    replacement = functools.cached_property(self.span(name, original.func, hook))
                    replacement.__set_name__(owner, attr)
                else:
                    replacement = self.span(name, original, hook)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name.

        A span's self time is its duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        spans = self.spans
        if not spans:
            return {}, {}
        names = [s[0] for s in spans]
        dur = np.array([s[2] - s[1] for s in spans])
        parent = np.array([s[3] for s in spans])
        child = np.zeros(len(spans))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        seconds: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, s in zip(names, own.tolist()):
            seconds[name] += s
            calls[name] += 1
        return dict(seconds), dict(calls)

    def write(self, path, op_starts: list[int]) -> None:
        """One CSV row per span: op index, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        bounds = op_starts + [len(self.spans)]
        with open(path, "w") as f:
            f.write("op,name,start,end,parent\n")
            for op in range(len(op_starts)):
                for name, start, end, parent in self.spans[bounds[op] : bounds[op + 1]]:
                    f.write(f"{op},{name},{start:.9f},{end:.9f},{parent}\n")
