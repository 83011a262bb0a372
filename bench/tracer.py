"""Spans and counters recorded from outside the library.

The tracer replaces layer functions at the module attributes through which
other layers call them (``partition.run_walk``, ``walk.lazy_step``, ...)
for the duration of one ``with tracer.installed():`` block, and restores the
originals afterwards. Each call records a span (name, start, end, parent)
in memory; counters are taken from the wrapped functions' arguments and
return values, so they do not depend on the machine.

A span's self time is its duration minus the time its child spans cover.
Calls on one thread nest strictly, so that cover is the sum of the
children's durations.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from sparsecut import curve, graph, partition, spectral, walk


def _count_run_walk(c, args, trace):
    c["walk.touched_volume"] += trace.total_work
    c["walk.steps"] += len(trace.touched_volume)


def _count_lazy_step(c, args, result):
    c["walk.lazy_step.arcs"] += args[0].total_volume


def _count_truncated_step(c, args, result):
    stepped, kept = result
    c["walk.support_max"] = max(c["walk.support_max"], int(stepped.support.size))
    c["walk.mass_dropped"] += stepped.total() - kept.total()


def _count_build_curve(c, args, curve_):
    c["curve.vertices_ordered"] += int(curve_.vertex_order.size)


def _count_prefix_profile(c, args, result):
    c["graph.prefixes_examined"] += int(result[0].size)


# (module, attribute, span name, counter): every path by which the library's
# layers call one another on the benchmark's operations
HOOKS = [
    (partition, "run_walk", "walk.run_walk", _count_run_walk),
    (partition, "sweep", "partition.sweep", None),
    (partition, "build_curve", "curve.build_curve", _count_build_curve),
    (partition, "prefix_cut_profile", "graph.prefix_cut_profile", _count_prefix_profile),
    (curve, "prefix_cut_profile", "graph.prefix_cut_profile", _count_prefix_profile),
    (partition, "cut_of", "graph.cut_of", None),
    (spectral, "cut_of", "graph.cut_of", None),
    (partition, "best_seed_vertex", "spectral.best_seed_vertex", None),
    (spectral, "restricted_eigenpair", "spectral.restricted_eigenpair", None),
    (walk, "lazy_step", "walk.lazy_step", _count_lazy_step),
    (spectral, "lazy_step", "walk.lazy_step", _count_lazy_step),
    (walk, "truncated_step", "walk.truncated_step", _count_truncated_step),
]


class Tracer:
    """In-memory spans and counters for the calls made inside ``installed()``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()
            self.counters[name + ".calls"] += 1

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the library's internal calls through span-recording wrappers."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in HOOKS]
        from_edges = graph.Graph.__dict__["from_edges"]
        try:
            for module, attr, name, count in HOOKS:
                setattr(module, attr, self._wrap(getattr(module, attr), name, count))
            graph.Graph.from_edges = classmethod(
                self._wrap(from_edges.__func__, "graph.from_edges", None)
            )
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            graph.Graph.from_edges = from_edges

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return dict(out)

    def write_spans(self, path) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
