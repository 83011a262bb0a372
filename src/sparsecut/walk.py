"""Lazy random-walk steps, exact (dense) and mass-thresholded (sparse).

One step of the lazy walk keeps half the mass at each vertex and splits the
other half equally among its neighbors. The sparse variant zeroes any vertex
whose incoming mass falls strictly below threshold * degree after the step,
which keeps the support volume at most 1/threshold and makes per-step work
proportional to the volume of the current support.

The sparse step merges the support with its neighbors in one sort, writes
the kept half-mass first and then adds each vertex's incoming mass in the
same (ascending-source) arc order as the dense step; skipped terms are exact
zeros, so as long as no truncation has fired the two paths agree bit for bit
and the thresholded walk never exceeds the exact one even in floating point.
The step makes no array of length n. The merge is built once per support
array, as the support's plan, and a kept distribution of the same set shares
that array and plan: a walk that has settled on a region redoes no merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .graph import Graph, _gather_rows

__all__ = [
    "SparseDistribution",
    "WalkSchedule",
    "WalkTrace",
    "lazy_step",
    "truncated_step",
    "run_walk",
]


@dataclass(eq=False)
class SparseDistribution:
    """Walk state carrying only the vertices with surviving mass.

    ``support`` is sorted and unique; ``mass`` holds the matching positive
    values. ``size`` is the ambient vertex count.
    """

    support: np.ndarray
    mass: np.ndarray
    size: int
    # truncated_step's merge of ``support``, valid while _plan[0] is that array
    _plan: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.support = np.asarray(self.support, dtype=np.int64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if self.support.shape != self.mass.shape:
            raise ValueError("support and mass lengths differ")

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseDistribution":
        dense = np.asarray(dense, dtype=np.float64)
        support = np.flatnonzero(dense)
        return cls(support=support, mass=dense[support], size=dense.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=np.float64)
        out[self.support] = self.mass
        return out

    def total(self) -> float:
        return float(self.mass.sum())

    def support_volume(self, g: Graph) -> int:
        return int(g.degrees[self.support].sum())


@dataclass(frozen=True)
class WalkSchedule:
    """Horizon and truncation threshold for a walk; threshold 0 means exact."""

    horizon: int
    truncation: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.truncation < 0:
            raise ValueError("truncation threshold must be nonnegative")


def lazy_step(g: Graph, p: np.ndarray) -> np.ndarray:
    """One exact lazy step: result = p * W with W = (I + D^-1 A) / 2.

    Total mass is preserved up to roundoff. Vertices of degree zero keep all
    their mass.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (g.vertex_count,):
        raise ValueError("distribution length does not match vertex count")
    rates = np.divide(p, g.degrees, out=np.zeros_like(p), where=g.degrees > 0)
    contrib = 0.5 * rates
    spread = np.bincount(
        g.indices,
        weights=np.repeat(contrib, g.degrees),
        minlength=g.vertex_count,
    )
    out = 0.5 * p + spread
    isolated = g.degrees == 0
    if isolated.any():
        out[isolated] += 0.5 * p[isolated]
    return out


def truncated_step(
    g: Graph, dist: SparseDistribution, threshold: float
) -> tuple[SparseDistribution, SparseDistribution]:
    """One sparse lazy step followed by mass thresholding.

    Returns (stepped, kept): ``stepped`` is dist * W restricted to the
    support and its neighbors; ``kept`` zeroes every vertex whose stepped
    mass is strictly below threshold * degree (mass exactly at the threshold
    survives). Work is proportional to the volume of the support: one
    sort of the support and its arc targets gives the output support and
    each term's slot in it. This plan is built once per support array (which
    must be strictly increasing); ``kept`` shares the array and the plan
    when it keeps the same set. Threshold 0 keeps every vertex with mass
    (an underflow to zero drops out) and matches the exact step bit for bit.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    sup, mass, plan = dist.support, dist.mass, dist._plan
    if plan is None or plan[0] is not sup:
        if np.any(sup[1:] <= sup[:-1]):
            raise ValueError("support must be strictly increasing")
        out, slot = np.unique(np.concatenate([sup, _gather_rows(g, sup)]), return_inverse=True)
        deg = g.degrees[sup]
        plan = dist._plan = (sup, deg, out, g.degrees[out], slot[: sup.size], slot[sup.size :])
    _, deg, out_support, out_deg, keep_pos, arc_slot = plan
    rates = np.divide(mass, deg, out=np.zeros_like(mass), where=deg > 0)
    contrib = 0.5 * rates
    # keep term first, then the incoming sums, which bincount accumulates in
    # arc order like the dense step's: the same adds as lazy_step
    out_mass = np.zeros(out_support.size, dtype=np.float64)
    out_mass[keep_pos] = 0.5 * mass
    out_mass += np.bincount(arc_slot, weights=np.repeat(contrib, deg), minlength=out_support.size)
    isolated = deg == 0
    if isolated.any():
        out_mass[keep_pos[isolated]] += 0.5 * mass[isolated]
    stepped = SparseDistribution(out_support, out_mass, dist.size)
    keep = out_mass >= threshold * out_deg if threshold else out_mass > 0
    kept = SparseDistribution(out_support[keep], out_mass[keep], dist.size)
    if kept.support.size == sup.size and keep[keep_pos].all():  # the same set
        kept.support, kept._plan = sup, plan
    return stepped, kept


@dataclass(eq=False)
class WalkTrace:
    """Distributions p_0..p_T of one walk plus per-step work accounting.

    ``touched_volume[t-1]`` is the support volume that step t had to touch.
    Iterating or indexing the trace yields the distributions.
    """

    distributions: list = field(default_factory=list)
    touched_volume: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.distributions)

    def __getitem__(self, t):
        return self.distributions[t]

    def __iter__(self) -> Iterator:
        return iter(self.distributions)

    @property
    def total_work(self) -> int:
        return int(sum(self.touched_volume))


def run_walk(g: Graph, seed: int, schedule: WalkSchedule) -> WalkTrace:
    """Walk from a single-vertex start for the scheduled number of steps.

    With truncation 0 the trace holds dense arrays and the walk is exact;
    otherwise it holds SparseDistributions with the threshold applied after
    every step (including to the start distribution).
    """
    if not (0 <= seed < g.vertex_count):
        raise ValueError("seed out of range")
    trace = WalkTrace()
    if schedule.truncation == 0.0:
        p = np.zeros(g.vertex_count, dtype=np.float64)
        p[seed] = 1.0
        trace.distributions.append(p)
        for _ in range(schedule.horizon):
            prev = trace.distributions[-1]
            trace.touched_volume.append(int(g.degrees[prev > 0].sum()))
            trace.distributions.append(lazy_step(g, prev))
        return trace
    start = SparseDistribution(
        np.array([seed], dtype=np.int64), np.array([1.0]), g.vertex_count
    )
    if 1.0 < schedule.truncation * g.degree(seed):
        start = SparseDistribution(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), g.vertex_count
        )
    trace.distributions.append(start)
    for _ in range(schedule.horizon):
        prev = trace.distributions[-1]
        trace.touched_volume.append(prev.support_volume(g))
        _, kept = truncated_step(g, prev, schedule.truncation)
        trace.distributions.append(kept)
    return trace
