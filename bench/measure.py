"""Set-up, timed loops and metrics for one run of one workload.

Set-up is the ``load_edge_list`` call that builds the workload's graph from
the file ``inputs.py`` wrote in a child process; an untraced run loads it at
least three times (and for at least two seconds, at most 100 times) and
reports the median. One untimed warm-up op follows, then the timed loop.

``trace=False`` cycles the workload's op list in a closed loop with one
client until ``seconds`` have passed (and at least one whole pass is done),
and reports the end-to-end metrics. ``trace=True`` runs whole passes in
which every op runs untraced and then traced, with a fresh tracer per pass;
the per-layer metrics are per pass, the counters of every pass must match
the first pass exactly, and the tracing overhead is the traced time minus
the untraced time of the same ops.

The declared times are at nominal machine speed (see ``SpeedProbe``):
``setup_s`` is the median load, ``op_p50_ms`` the median of the workload's
headline op, and ``pass_p50_s`` the median time of one whole pass over the
op list. The raw times, under the names ``README.md`` gives them and with
their sample counts, go to the report.

Every op's result signature (the cut's boundary and volume, the eigenvalue
and worst margin, or the seed vertex) must repeat exactly each time the op
runs, traced or not; a mismatch counts the op as failed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from sparsecut import load_edge_list
from tracer import Tracer
from workloads import KINDS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DATA = HERE / "_data"
OUT = HERE / "_out"

SETUP_MIN_LOADS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_LOADS = 100
GENERATOR_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_ms": "ms", "pass_p50_s": "s"}

PER_LAYER = {
    "graph.load_edge_list.self_s": "s",
    "graph.from_edges.self_s": "s",
    "graph.lines_per_s": "1/s",
    "graph.prefix_cut_profile.self_s": "s",
    "graph.prefix_cut_profile.calls": "count",
    "graph.prefixes_examined": "count",
    "graph.cut_of.self_s": "s",
    "graph.cut_of.calls": "count",
    "walk.lazy_step.self_s": "s",
    "walk.lazy_step.calls": "count",
    "walk.lazy_step.arcs": "count",
    "walk.lazy_step.arcs_per_s": "1/s",
    "walk.truncated_step.self_s": "s",
    "walk.truncated_step.calls": "count",
    "walk.support_max": "count",
    "walk.mass_dropped": "mass",
    "walk.run_walk.self_s": "s",
    "walk.touched_volume": "count",
    "walk.steps": "count",
    "curve.build_curve.self_s": "s",
    "curve.build_curve.calls": "count",
    "curve.vertices_ordered": "count",
    "partition.sweep.self_s": "s",
    "partition.sweep.calls": "count",
    "partition.work": "count",
    "partition.found_frac": "ratio",
    "partition.global_sparsest_cut.self_s": "s",
    "partition.local_partition.self_s": "s",
    "partition.find_local_seed.self_s": "s",
    "spectral.restricted_eigenpair.self_s": "s",
    "spectral.restricted_eigenpair.calls": "count",
    "spectral.certify_lower_bound.self_s": "s",
    "spectral.best_seed_vertex.self_s": "s",
    "spectral.best_seed_vertex.calls": "count",
    "trace.overhead_frac": "ratio",
}

_UNSEEN = object()


class Tally:
    """Checked operations: latencies, failures and per-op first results."""

    def __init__(self, k: int, ops) -> None:
        self.k = k
        self.ops = ops
        self.first = [_UNSEEN] * len(ops)  # signature of each op's first run
        self.found: list[bool | None] = [None] * len(ops)  # sweep drivers only
        self.work = [0] * len(ops)  # touched volume of sweep drivers
        self.latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problem)

    def load(self, path: Path, meta: dict):
        """Load the workload file and check it against what was written."""
        self.attempted += 1
        g = load_edge_list(path)
        got = [g.vertex_count, g.edge_count, g.duplicate_edges, g.connected]
        want = [meta[key] for key in ("vertex_count", "edge_count", "duplicate_edges", "connected")]
        if got != want:
            self.fail(f"load: (n, m, duplicates, connected) = {got}, wrote {want}")
        return g

    def run(self, g, j: int, tracer: Tracer | None = None) -> float:
        """Run op j once, check it and record it; return its latency in seconds."""
        op = self.ops[j]
        kind = KINDS[op.kind]
        self.attempted += 1
        start = perf_counter()
        try:
            if tracer is None:
                result = kind.call(g, self.k, op.arg)
            else:
                with tracer.installed(), tracer.span(kind.span):
                    result = kind.call(g, self.k, op.arg)
        except Exception as exc:  # a failed op is counted, and measuring goes on
            elapsed = perf_counter() - start
            problem = f"{type(exc).__name__}: {exc}"
            signature = ("raised", type(exc).__name__)
        else:
            elapsed = perf_counter() - start
            problem = kind.check(result, self.k, op.arg)
            signature = kind.signature(result)
            if hasattr(result, "found"):
                self.found[j] = result.found
                self.work[j] = result.work
        if self.first[j] is _UNSEEN:
            self.first[j] = signature
        elif signature != self.first[j] and problem is None:
            problem = f"result {signature!r} differs from the earlier {self.first[j]!r}"
        if problem is not None:
            self.fail(f"{op.kind}: {problem}")
        self.latency.setdefault(op.kind, []).append(elapsed)
        return elapsed

    def found_frac(self) -> float:
        swept = [f for f in self.found if f is not None]
        return sum(swept) / len(swept) if swept else 0.0

    def digest(self) -> str:
        """Hash of every op's first result; equal across runs with one seed."""
        return hashlib.sha256(json.dumps(self.first).encode()).hexdigest()[:16]


def generate(workload, seed: int, stem: Path) -> dict:
    """Write the workload's input file in a child process; return its metadata."""
    inst = workload.instance
    cmd = [
        sys.executable, str(HERE / "inputs.py"),
        "--cliques", str(inst.cliques), "--clique-size", str(inst.clique_size),
        "--seed", str(seed), "--out", str(stem),
    ] + (["--noise"] if inst.noise else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, check=True, env=env, timeout=GENERATOR_TIMEOUT_S)
    return json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate, load and measure one workload; return (report, result)."""
    DATA.mkdir(exist_ok=True)
    stem = DATA / f"{workload.name}-{seed}-{os.getpid()}"
    setup = Tracer()
    probe = SpeedProbe()
    loads: list[tuple[float, float]] = []  # (raw, nominal) seconds
    checks = Tally(workload.k, [])
    try:
        meta = generate(workload, seed, stem)
        path = stem.with_suffix(".txt")
        if trace:
            with setup.installed(), setup.span("graph.load_edge_list"):
                g = checks.load(path, meta)
        else:
            # the timer stays off here: ticking inside the loader raised its
            # peak RSS by 10 MB on ``local``; a burst of samples on each side
            # instead, whose median ignores the first, cold, sample after a load
            g = None
            while len(loads) < SETUP_MAX_LOADS and (
                len(loads) < SETUP_MIN_LOADS or sum(r for r, _ in loads) < SETUP_MIN_SECONDS
            ):
                g = None  # free the previous graph before building the next
                mark = probe.mark()
                probe.burst()
                start = perf_counter()
                g = checks.load(path, meta)
                raw = perf_counter() - start
                probe.burst()
                loads.append((raw, probe.nominal(mark, raw)))
    finally:
        for suffix in (".txt", ".json"):
            stem.with_suffix(suffix).unlink(missing_ok=True)

    ops = workload.plan(g, meta, np.random.default_rng([seed, 1]))
    tally = Tally(workload.k, ops)
    tally.run(g, 0)  # untimed warm-up
    warm = tally.latency.pop(ops[0].kind)
    tally.attempted += checks.attempted
    tally.failed += checks.failed
    tally.problems[:0] = checks.problems
    gc.collect()

    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "vertices": meta["vertex_count"],
        "edges": meta["edge_count"],
        "lines": meta["lines"],
        "ops_per_pass": len(ops),
        "warmup_s": warm[0],
    }
    if trace:
        values = _traced(workload, g, tally, seconds, setup, meta["lines"], report)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        with probe.running():
            values = _untraced(workload, g, tally, seconds, probe, loads, report)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    report.update(
        attempted=tally.attempted,
        failed=tally.failed,
        failed_frac=tally.failed / tally.attempted,
        problems=tally.problems,
        results_digest=tally.digest(),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return report, result


def _median(values) -> float:
    return float(statistics.median(values))


class SpeedProbe:
    """Machine speed, sampled while the untraced calls run.

    On a shared 2-core VM the CPU's speed switches between states about
    1.5x apart every few seconds and drifts over minutes; the process time
    equals the wall time, so the cause is outside the VM. Across five
    seeds the raw median latency spread (quartile distance over median)
    0.16 on ``global`` and 0.45 on ``local``, more than any bound may be.

    While ``running()``, a SIGALRM timer times a fixed kernel every
    ``INTERVAL_S``; ``nominal()`` takes one more sample and scales a
    measured interval by ``NOMINAL_S`` over the median sample time since its
    mark: the time the call would have taken had the kernel run at its
    nominal speed. The kernel mixes an interpreter loop with numpy calls on
    120-element arrays, the two kinds of work the library's ops spend
    their time in; in scratch comparisons it tracked both ``global`` and
    ``local`` better than either part alone, and better than numpy kernels
    on large arrays. Sampling during the call, not only around it, tracks
    2-second ``global`` solves that span several speed switches. The probe
    costs about 1% of the run and never calls sparsecut.
    """

    INTERVAL_S = 0.01
    NOMINAL_S = 50e-6
    BURST = 5

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._busy = False
        self._values = np.arange(120, dtype=np.float64)
        self._keys = np.arange(120) % 7

    def sample(self) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        start = perf_counter()
        total = 0
        for i in range(500):
            total += i & 7
        for _ in range(3):
            np.bincount(self._keys, weights=self._values, minlength=8)
            np.lexsort((self._keys, -self._values))
            np.cumsum(self._values)
        self.samples.append(perf_counter() - start)
        self._busy = False

    def burst(self) -> None:
        for _ in range(self.BURST):
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def nominal(self, mark: int, elapsed: float) -> float:
        """``elapsed`` scaled to nominal speed by the samples taken since ``mark``."""
        self.sample()
        return elapsed * self.NOMINAL_S / _median(self.samples[mark:])


def _untraced(workload, g, tally: Tally, seconds: float, probe: SpeedProbe, loads, report: dict) -> dict:
    n_ops = len(tally.ops)
    nominal: dict[str, list[float]] = {}
    passes: list[float] = []
    pass_s = 0.0
    start = perf_counter()
    done = 0
    while done < n_ops or perf_counter() - start < seconds:
        j = done % n_ops
        mark = probe.mark()
        scaled = probe.nominal(mark, tally.run(g, j))
        nominal.setdefault(tally.ops[j].kind, []).append(scaled)
        pass_s += scaled
        done += 1
        if done % n_ops == 0:
            passes.append(pass_s)
            pass_s = 0.0
    wall = perf_counter() - start
    lat = tally.latency
    head = lat[workload.headline]
    values = {
        "setup_s": _median([n for _, n in loads]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": _median(nominal[workload.headline]) * 1e3,
        "pass_p50_s": _median(passes),
    }
    # raw figures, under the names the workload documents, with sample counts
    report.update(
        setup_samples=len(loads),
        setup_raw_s=_median([r for r, _ in loads]),
        timed_ops=done,
        passes=len(passes),
        wall_s=wall,
        touched_volume_per_pass=sum(tally.work),
        op_raw_p50_ms=_median(head) * 1e3,
        probe_p50_us=_median(probe.samples) * 1e6,
        probe_samples=len(probe.samples),
        **values,
    )
    if workload.name == "global":
        report.update(global_solve_s=_median(head), global_solve_samples=len(head))
    elif workload.name == "local":
        report.update(
            local_p50_ms=_median(head) * 1e3,
            local_p95_ms=float(np.percentile(head, 95)) * 1e3,
            local_qps=len(head) / sum(head),
            local_found_frac=tally.found_frac(),
            local_samples=len(head),
        )
    elif workload.name == "certify":
        report.update(
            certify_p50_ms=_median(head) * 1e3,
            certify_samples=len(head),
            seed_search_s=_median(lat["seed_search"]),
            seed_search_samples=len(lat["seed_search"]),
        )
    return values


def _traced(workload, g, tally: Tally, seconds: float, setup: Tracer, lines: int, report: dict) -> dict:
    n_ops = len(tally.ops)
    passes: list[Tracer] = []
    plain = traced = 0.0
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        tracer = Tracer()
        for j in range(n_ops):
            plain += tally.run(g, j)
            traced += tally.run(g, j, tracer)
        if passes and dict(tracer.counters) != dict(passes[0].counters):
            tally.fail(f"trace counters of pass {len(passes)} differ from pass 0")
        passes.append(tracer)

    counters = dict(passes[0].counters)
    self_s: dict[str, float] = {}
    for tracer in passes:
        for name, t in tracer.self_times().items():
            self_s[name] = self_s.get(name, 0.0) + t / len(passes)
    self_s.update(setup.self_times())
    load_s = sum(end - begin for name, begin, end, _ in setup.spans if name == "graph.load_edge_list")
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            values[name] = counters.get(name, 0)
    lazy_s = values["walk.lazy_step.self_s"]
    values["walk.lazy_step.arcs_per_s"] = values["walk.lazy_step.arcs"] / lazy_s if lazy_s else 0.0
    values["graph.lines_per_s"] = lines / load_s
    values["partition.work"] = sum(tally.work)
    values["partition.found_frac"] = tally.found_frac()
    values["trace.overhead_frac"] = (traced - plain) / plain

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{report['seed']}.tsv"
    setup.write_spans(spans_path.with_name("setup-" + spans_path.name))
    passes[0].write_spans(spans_path)
    report.update(
        passes=len(passes),
        trace_overhead_s_per_pass=(traced - plain) / len(passes),
        trace_overhead_frac=values["trace.overhead_frac"],
        counters=counters,
        spans_file=str(spans_path.relative_to(HERE.parent)),
    )
    return values
