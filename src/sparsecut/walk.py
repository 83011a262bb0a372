"""Lazy random-walk steps, exact (dense) and mass-thresholded (sparse).

One step of the lazy walk keeps half the mass at each vertex and splits the
other half equally among its neighbors. The sparse variant zeroes any vertex
whose incoming mass falls strictly below threshold * degree after the step,
which keeps the support volume at most 1/threshold and makes per-step work
proportional to the volume of the current support.

The sparse step merges the support with its neighbors in one sort, sums
each vertex's incoming mass in the dense step's (ascending-source) arc
order and then adds the kept half; addition commutes and skipped terms are
exact zeros, so until a truncation fires the two paths agree bit for bit
and the thresholded walk never exceeds the exact one even in floating
point. No array of length n is made. The merge (``graph.Merge``) is the
support's plan, its one record: built once per support array and shared by
a kept distribution of the same set, it holds all that the step, its
threshold, the walk's work and the sweep read from the support. A walk is
one ``WalkTrace``, a pass that takes each step as it is read, so a run
holds its current distribution, not its history. The exact step also takes
an (n, B) block, a distribution a column: slot j adds each vertex's j-th
neighbor's B-row, so a vertex adds its neighbors in ascending order, as
bincount does, and each column is its own step bit for bit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import Graph, Merge, _count, _merge, _vertex_ids

__all__ = [
    "SparseDistribution",
    "WalkSchedule",
    "WalkTrace",
    "lazy_step",
    "truncated_step",
    "run_walk",
]

_MAX_HORIZON = 1_000_000  # step limit of every walk, search and certificate


def _check_horizon(horizon: int) -> None:
    if _count(horizon, "horizon") > _MAX_HORIZON:
        raise ValueError(f"horizon exceeds {_MAX_HORIZON} steps")


def _seed_id(seed) -> int:
    """A walk's seed as an int: one vertex id, checked by ``graph._vertex_ids``, not a list."""
    if (seed := _vertex_ids(seed)).ndim:
        raise ValueError("seed must be one vertex id")
    return int(seed)


@dataclass(eq=False)
class SparseDistribution:
    """Walk state carrying only the vertices with surviving mass.

    ``support`` is sorted and unique; ``mass`` holds the matching positive
    values, except in a step's ``stepped`` output, which lists the whole
    out-support and so may hold underflowed zeros. ``size`` is the ambient
    vertex count, an integer, checked where it is read against an array.
    Construction refuses a negative or NaN mass; the support's order is
    checked where a step or a curve reads it.
    """

    support: np.ndarray
    mass: np.ndarray
    size: int
    # _plan_of's merge of ``support``, valid while _plan.ids is that array
    _plan: Merge | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.support = _vertex_ids(self.support)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.support.shape != self.mass.shape:
            raise ValueError("support and mass lengths differ")
        if not (self.mass >= 0).all():  # NaN compares false
            raise ValueError("masses must be nonnegative")

    @classmethod
    def _checked(cls, support, mass, size, plan: Merge | None = None) -> "SparseDistribution":
        """A distribution of arrays already in form (int64 ids, float64 masses of one shape),
        made without ``__post_init__``'s conversions and checks; ``plan`` merges ``support``."""
        dist = cls.__new__(cls)
        dist.support, dist.mass, dist.size, dist._plan = support, mass, size, plan
        return dist

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseDistribution":
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1:
            raise ValueError("a dense distribution must be one vector")
        support = np.flatnonzero(dense)
        return cls(support=support, mass=dense[support], size=dense.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(_count(self.size, "size"), dtype=np.float64)
        out[self.support] = self.mass
        return out

    def total(self) -> float:
        return float(self.mass.sum())

    def support_volume(self, g: Graph) -> int:
        return int(g.degrees[self.support].sum())


@dataclass(frozen=True)
class WalkSchedule:
    """Horizon of at most 1,000,000 steps and truncation threshold; threshold 0 means exact."""

    horizon: int
    truncation: float = 0.0

    def __post_init__(self) -> None:
        _check_horizon(self.horizon)
        if not self.truncation >= 0:
            raise ValueError("truncation threshold must be nonnegative")


Reach = namedtuple("Reach", "vertex_count divisor isolated indices total_volume sources lengths")


def lazy_step(g: Graph | Reach, p: np.ndarray) -> np.ndarray:
    """One exact lazy step: result = p * W with W = (I + D^-1 A) / 2.

    ``p`` is one distribution of shape (n,) or an (n, B) block stepped slot by
    slot (``Graph._slots``), each column bit for bit as alone. A distribution
    is sent along runs, a run being arcs out of one source; a graph's runs are
    its rows, so each target adds its sources in ascending id. A ``Reach``
    stands for a graph's arcs into some vertices: it holds the vertex count,
    the graph's ``divisor`` and ``isolated`` read on its vertices, the targets
    (``indices``) of ``total_volume`` arcs and their runs, run i being
    ``lengths[i]`` arcs out of ``sources[i]``; a vertex no arc enters keeps
    half its mass. A graph's step preserves total mass up to roundoff.
    Vertices of degree zero keep all their mass.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape[:1] != (g.vertex_count,) or p.ndim > 2:
        raise ValueError("distribution length does not match vertex count")
    half = p / (g.divisor if p.ndim == 1 else g.divisor[:, None])
    half *= 0.5
    if p.ndim == 1:
        sent = half.repeat(g.degrees) if isinstance(g, Graph) else half[g.sources].repeat(g.lengths)
        out = 0.5 * p + np.bincount(g.indices, sent, g.vertex_count)
    else:
        acc = np.zeros_like(p)  # rows in the slot order
        for src in g._slots[1]:
            acc[: src.size] += half[src]
        out = np.take(acc, g._slots[0], axis=0, out=half)  # half is spent
        out += np.multiply(p, 0.5, out=acc)
    if (isolated := g.isolated).size:
        out[isolated] += 0.5 * p[isolated]
    return out


def _check_support(g: Graph, dist: SparseDistribution) -> None:
    """A support read on g is strictly increasing and in range, and dist's size is g's."""
    if ((sup := dist.support)[1:] <= sup[:-1]).any():
        raise ValueError("support must be strictly increasing")
    _vertex_ids(sup, g.vertex_count)
    if _count(dist.size, "size") != g.vertex_count:
        raise ValueError("distribution length does not match vertex count")


def _plan_of(g: Graph, dist: SparseDistribution) -> Merge:
    """The merge of dist's support, built once per support array, which is checked then."""
    if (plan := dist._plan) is None or plan.ids is not dist.support:
        _check_support(g, dist)
        plan = dist._plan = _merge(g, dist.support)
    return plan


def truncated_step(
    g: Graph, dist: SparseDistribution, threshold: float
) -> tuple[SparseDistribution, SparseDistribution]:
    """One sparse lazy step followed by mass thresholding.

    Returns (stepped, kept): ``stepped`` is dist * W on the support and its
    neighbors, all of them, so a mass that underflows shows as a zero;
    ``kept`` zeroes every vertex whose stepped mass is strictly below
    threshold * degree (mass exactly at the threshold survives) and holds
    only positive masses. Work is proportional to the volume of the
    support: one sort of the support and its arc targets (``graph.Merge``)
    gives the output support and each term's slot in it. This plan is built
    once per support array (which must be strictly increasing); ``kept``
    shares the array and the plan when it keeps the same set. Both outputs
    are built from the plan's checked arrays, so neither is checked again.
    Threshold 0 keeps every vertex with mass and matches the exact step bit
    for bit.
    """
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    plan = _plan_of(g, dist)
    mass, deg, slot = dist.mass, plan.deg, plan.id_slot
    rates = mass / (np.maximum(deg, 1) if plan.isolated else deg)  # deg 0: nothing is sent
    # bincount sums the incoming mass in arc order, as lazy_step does, and
    # the kept half comes after; with no arcs it counts integer zeros
    out_mass = np.bincount(plan.arc_slot, (0.5 * rates).repeat(deg), plan.union.size)
    out_mass = out_mass.astype(np.float64, copy=False)
    out_mass[slot] += 0.5 * mass
    if plan.isolated:
        out_mass[slot[deg == 0]] += 0.5 * mass[deg == 0]
    stepped = SparseDistribution._checked(plan.union, out_mass, dist.size)
    keep = out_mass >= threshold * plan.union_deg if threshold else out_mass > 0
    if np.count_nonzero(keep) == plan.ids.size and keep[slot].all():  # the same set
        kept = SparseDistribution._checked(plan.ids, out_mass[slot], dist.size, plan)
    else:
        kept = SparseDistribution._checked(plan.union[keep], out_mass[keep], dist.size)
    return stepped, kept


class WalkTrace:
    """Walk from a single-vertex start: one pass over p_0..p_T, each step taken as it is read.

    With truncation 0 it yields dense arrays and the walk is exact; otherwise
    it yields SparseDistributions thresholded after every step and at the
    start, and an empty one again to the horizon, unstepped. The seed is one
    vertex id, checked by ``_seed_id`` and the graph's range before any step.
    A second pass yields nothing. ``touched_volume[t-1]`` is the support
    volume that step t had to touch, appended as the step is taken, so
    ``total_work``, their sum, is complete only after the pass.
    """

    def __init__(self, g: Graph, seed: int, schedule: WalkSchedule) -> None:
        if not 0 <= (seed := _seed_id(seed)) < g.vertex_count:
            raise ValueError("seed out of range")
        self.touched_volume: list[int] = []
        self._steps = self._walk(g, seed, schedule, self.touched_volume)

    def __iter__(self) -> Iterator:
        return self._steps

    @property
    def total_work(self) -> int:
        return int(sum(self.touched_volume))

    @staticmethod  # holds the list, not the trace: a trace left unread is freed at once
    def _walk(g: Graph, seed: int, schedule: WalkSchedule, touched: list[int]) -> Iterator:
        threshold = schedule.truncation
        exact = threshold == 0.0
        if exact:
            p = np.zeros(g.vertex_count, dtype=np.float64)
            p[seed] = 1.0
        else:
            live = int(1.0 >= threshold * g.degree(seed))  # the start is thresholded too
            p = SparseDistribution([seed][:live], [1.0][:live], g.vertex_count)
        yield p
        for _ in range(schedule.horizon):
            prev = p
            if exact or p.support.size:  # an emptied walk stays as it is, with no step to take
                p = lazy_step(g, p) if exact else truncated_step(g, p, threshold)[1]
            # the step built prev's plan, which holds its support volume; an empty one's is 0
            touched.append(int(g.degrees[prev > 0].sum()) if exact else _plan_of(g, prev).volume)
            yield p


run_walk = WalkTrace  # the walk's entry point, the name other layers call
