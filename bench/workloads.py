"""The benchmark's workloads: their inputs, operations and correctness checks.

Each workload is a ring of cliques (see ``inputs.py``) and a fixed list of
operations drawn by the workload seed. The timed loop cycles through that
list, so every operation runs several times in a run and must return the
identical result each time. Budgets follow the planted clique: k is its
volume s(s-1)+2 and its conductance is exactly 2/k.

- ``global``: ``global_sparsest_cut`` over ring_of_cliques(12, 10), k = 92,
  eps = 0.01 (horizon 96, cap 92^1.01 = 96.26). Dense all-seeds search:
  the sweep (prefix profile and dense ``build_curve``) dominates, the walk
  is the rest. It never calls ``truncated_step`` or the spectral layer.
- ``local``: ``local_partition`` over ring_of_cliques(2000, 20) with
  duplicate and comment lines in the file, k = 382, phi = 2/382, eps = 0.2
  (horizon 114), from 64 start vertices drawn uniformly. One client in a
  closed loop. Work follows the walk's support, not n; loading 382k lines
  dominates set-up, so this is also the ingest workload.
- ``certify``: ring_of_cliques(200, 20), four rounds of ``find_local_seed``
  on a clique, then ``certify_lower_bound`` (horizon 114) on that clique and
  on two induced-connected subsets of at most 20 vertices grown at random.
  Dense ``lazy_step`` over all 4,000 vertices dominates; it never builds a
  curve, sweeps prefixes or calls ``truncated_step``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from sparsecut import (
    GlobalParams,
    LocalParams,
    certify_lower_bound,
    find_local_seed,
    global_sparsest_cut,
    local_partition,
)
from inputs import Instance

GLOBAL_EPSILON = 0.01
LOCAL_EPSILON = 0.2
LOCAL_QUERIES = 64
CERTIFY_ROUNDS = 4
MARGIN_TOL = 1e-10


def global_params(k: int) -> GlobalParams:
    return GlobalParams(k=k, epsilon=GLOBAL_EPSILON)


def local_params(k: int, seed: int = 0) -> LocalParams:
    return LocalParams(seed=seed, k=k, phi=2.0 / k, epsilon=LOCAL_EPSILON)


# ---- correctness checks: each returns None or a one-line reason -----------


def check_global(outcome, params: GlobalParams) -> str | None:
    """Found, under the volume cap, and no worse than the planted clique."""
    if not outcome.found:
        return "global search found no cut"
    best = outcome.best
    if best.volume > params.volume_cap:
        return f"volume {best.volume} above the cap {params.volume_cap:.3f}"
    if Fraction(best.boundary, best.volume) > Fraction(2, params.k):
        return f"conductance {best.boundary}/{best.volume} above the planted 2/{params.k}"
    return None


def check_local(outcome, params: LocalParams) -> str | None:
    """A found cut obeys the 5k^(1+eps) cap and the 8 sqrt(phi/eps) threshold.

    Not-found is a legitimate answer for an arbitrary start vertex.
    """
    if not outcome.found:
        return None
    best = outcome.best
    if best.volume > params.volume_cap:
        return f"volume {best.volume} above the cap {params.volume_cap:.3f}"
    if best.conductance > params.conductance_threshold:
        return (
            f"conductance {best.conductance:.6g} above the threshold "
            f"{params.conductance_threshold:.6g}"
        )
    return None


def check_certificate(report) -> str | None:
    """Every retention margin >= -1e-10 and lambda_S <= conductance(S)."""
    worst = min(float(report.mass_margins.min()), float(report.component_margins.min()))
    if worst < -MARGIN_TOL:
        return f"retention margin {worst:.3e} below -{MARGIN_TOL:g}"
    if report.eigenpair.value > report.conductance + MARGIN_TOL:
        return (
            f"eigenvalue {report.eigenpair.value:.6g} above the conductance "
            f"{report.conductance:.6g}"
        )
    return None


def check_seed(vertex: int, members) -> str | None:
    if vertex not in members:
        return f"seed vertex {vertex} is not in the set"
    return None


def _cut_signature(outcome):
    return None if not outcome.found else (outcome.best.boundary, outcome.best.volume)


# ---- operations ------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One library call with its check and the signature it must repeat.

    ``span`` names the call in traces: the function's module and name.
    """

    span: str
    call: Callable[[Any, int, Any], Any]
    check: Callable[[Any, int, Any], str | None]
    signature: Callable[[Any], Any]


KINDS = {
    "global_solve": Kind(
        "partition.global_sparsest_cut",
        lambda g, k, arg: global_sparsest_cut(g, global_params(k)),
        lambda result, k, arg: check_global(result, global_params(k)),
        _cut_signature,
    ),
    "local_query": Kind(
        "partition.local_partition",
        lambda g, k, seed: local_partition(g, local_params(k, seed)),
        lambda result, k, seed: check_local(result, local_params(k, seed)),
        _cut_signature,
    ),
    "certify": Kind(
        "spectral.certify_lower_bound",
        lambda g, k, members: certify_lower_bound(g, members, local_params(k).horizon),
        lambda result, k, members: check_certificate(result),
        lambda r: (
            r.eigenpair.value,
            min(float(r.mass_margins.min()), float(r.component_margins.min())),
        ),
    ),
    "seed_search": Kind(
        "partition.find_local_seed",
        lambda g, k, members: find_local_seed(g, members, local_params(k)),
        lambda result, k, members: check_seed(result, members),
        lambda vertex: vertex,
    ),
}


@dataclass(frozen=True)
class Op:
    kind: str
    arg: Any = None


def grow_connected(g, rng: np.random.Generator, size: int) -> list[int]:
    """Induced-connected vertex set grown from a random start by frontier sampling."""
    start = int(rng.integers(g.vertex_count))
    members = {start}
    frontier = set(int(w) for w in g.neighbors(start))
    while frontier and len(members) < size:
        v = sorted(frontier)[int(rng.integers(len(frontier)))]
        members.add(v)
        frontier.discard(v)
        frontier.update(int(w) for w in g.neighbors(v) if w not in members)
    return sorted(members)


def plan_global(g, meta: dict, rng: np.random.Generator) -> list[Op]:
    return [Op("global_solve")]


def plan_local(g, meta: dict, rng: np.random.Generator) -> list[Op]:
    seeds = rng.integers(0, g.vertex_count, size=LOCAL_QUERIES)
    return [Op("local_query", int(s)) for s in seeds]


def plan_certify(g, meta: dict, rng: np.random.Generator) -> list[Op]:
    cliques = meta["cliques"]
    size = len(cliques[0])
    ops = []
    for c in rng.choice(len(cliques), size=CERTIFY_ROUNDS, replace=False):
        clique = tuple(cliques[int(c)])
        ops.append(Op("seed_search", clique))
        ops.append(Op("certify", clique))
        for _ in range(2):
            ops.append(Op("certify", tuple(grow_connected(g, rng, int(rng.integers(2, size + 1))))))
    return ops


@dataclass(frozen=True)
class Workload:
    """An input instance, the plan of operations on it, and the headline op.

    ``headline`` is the op kind whose latency ``op_p50_ms`` reports.
    """

    name: str
    instance: Instance
    plan: Callable[[Any, dict, np.random.Generator], list[Op]]
    headline: str

    @property
    def k(self) -> int:
        return self.instance.budget

    def tiny(self) -> "Workload":
        """The same workload on ring_of_cliques(4, 5), for the benchmark's tests."""
        return replace(self, instance=Instance(4, 5, self.instance.noise))


WORKLOADS = {
    w.name: w
    for w in [
        Workload("global", Instance(12, 10), plan_global, "global_solve"),
        Workload("local", Instance(2000, 20, noise=True), plan_local, "local_query"),
        Workload("certify", Instance(200, 20), plan_certify, "certify"),
    ]
}
