"""Sweep cuts over walk trajectories: global bicriteria and local drivers.

The global driver runs an exact walk from every vertex and keeps the lowest
conductance level set under a volume cap of k^(1+eps); the local driver runs
one thresholded walk from a given seed, keeps level sets under 5*k^(1+eps),
and reports not-found when nothing beats the acceptance threshold
8*sqrt(phi/eps); both caps stop short of the whole graph. All tie-breaking
is total, so identical inputs always return the identical outcome. The
local driver's walk, orders, profiles and cut touch only the walk's support
and its neighbors. The sweep reads each step as it is taken and orders and
profiles it through its walk plan, so memory follows the support, plus a
pair a step.

The global driver keeps the winner's members and one block of B seeds, n x B
walks of at most ``BLOCK_ARCS`` cells and swept arcs, a seed a column, each
step one ``lazy_step`` of the block: every column is its seed's own walk bit
for bit. Each step takes each row's first c vertices in ``build_curve`` order,
as no prefix past the c smallest degrees fits the cap: a partition finds each
row's c-th smallest key -p/d and one lexsort orders the entries up to it, so
no B x n sort runs. A row whose capped order repeats the previous step's is
not profiled, as ``sweep`` skips a repeated step: its prefixes are the ones it
had a step earlier, and being later they lose. A prefix's boundary is its
volume minus the arcs inside it, and an arc is inside every prefix past its
later endpoint, so one bincount of the later rank of each swept vertex's arcs
gives every boundary. Candidates, listed by (prefix, row), go through
``sweep``'s selection: winner, origin and work equal a sweep of each seed's
walk.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import walk
from .curve import build_curve
from .graph import Cut, Graph, _count, _gather_rows, _vertex_ids, cut_of, prefix_cut_profile
from .spectral import best_seed_vertex
from .walk import _MAX_HORIZON, WalkSchedule, run_walk

__all__ = [
    "GlobalParams",
    "LocalParams",
    "Origin",
    "SweepOutcome",
    "sweep",
    "global_sparsest_cut",
    "global_sparsest_cut_tight_volume",
    "tight_volume_exponent",
    "local_partition",
    "find_local_seed",
]

# Cells and swept arcs in one n x B global-search block: its arrays take a few times 8x this
# many bytes, whatever the vertex count.
BLOCK_ARCS = 1 << 14


def _check_cap(params, formula: str) -> None:
    try:
        cap = params.volume_cap
    except OverflowError:  # float(k), or its power, past the float range
        cap = math.inf
    if cap == math.inf:
        raise ValueError(f"volume cap {formula} overflows a float")


@dataclass(frozen=True)
class GlobalParams:
    """Volume budget k (an integer), tradeoff exponent, and optional horizon override.

    The exponent is clamped to 0.01 for all derived quantities (cap and
    horizon); larger requests only tighten the returned volume, at the price
    of a constant factor in the conductance guarantee.
    """

    k: int
    epsilon: float
    horizon_override: int | None = None

    def __post_init__(self) -> None:
        _count(self.k, "k", 2)
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.horizon_override is not None:
            walk._check_horizon(self.horizon_override)
        _check_cap(self, "k^(1+epsilon)")
        # the float before the ceil, as LocalParams tests it
        if self.horizon_override is None and not self._steps <= _MAX_HORIZON:
            raise ValueError(f"global horizon exceeds {_MAX_HORIZON} steps")

    @property
    def epsilon_effective(self) -> float:
        return min(self.epsilon, 0.01)

    @property
    def _steps(self) -> float:
        k = float(self.k)  # k * k rounds as k**2 does below 2**53, and cannot wrap or raise
        return self.epsilon_effective * (k * k) * math.log(self.k) / 4.0

    @property
    def horizon(self) -> int:
        if self.horizon_override is not None:
            return self.horizon_override
        return math.ceil(self._steps)

    @property
    def volume_cap(self) -> float:
        return float(self.k) ** (1.0 + self.epsilon_effective)


@dataclass(frozen=True)
class LocalParams:
    """Seed, budget k (an integer), conductance target phi, and tradeoff exponent eps.

    Derived: horizon ceil(eps * ln k / (2 phi)), walk threshold
    k^(-1-eps) / (20 * horizon), volume cap 5 * k^(1+eps), and acceptance
    threshold 8 * sqrt(phi / eps). The analysis regime is phi < 0.01, but
    any phi in (0, 1] whose horizon is at most 1,000,000 steps is run.
    """

    seed: int
    k: int
    phi: float
    epsilon: float

    def __post_init__(self) -> None:
        if _vertex_ids(self.seed) < 0:
            raise ValueError("seed must be nonnegative")
        _count(self.k, "k", 2)
        if not 0.0 < self.phi <= 1.0:
            raise ValueError("phi must lie in (0, 1]")
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")
        _check_cap(self, "5*k^(1+epsilon)")
        if self.epsilon <= 2.0 / self.k:
            raise ValueError("epsilon must exceed 2/k")
        if not self.epsilon * math.log(self.k) / (2.0 * self.phi) <= _MAX_HORIZON:
            raise ValueError(f"local horizon exceeds {_MAX_HORIZON} steps: raise phi")

    @property
    def horizon(self) -> int:
        return math.ceil(self.epsilon * math.log(self.k) / (2.0 * self.phi))

    @property
    def truncation(self) -> float:
        return float(self.k) ** (-1.0 - self.epsilon) / (20.0 * self.horizon)

    @property
    def volume_cap(self) -> float:
        return 5.0 * float(self.k) ** (1.0 + self.epsilon)

    @property
    def conductance_threshold(self) -> float:
        return 8.0 * math.sqrt(self.phi / self.epsilon)


@dataclass(frozen=True)
class Origin:
    """Where a sweep winner came from: start vertex, step, prefix length."""

    seed: int | None
    step: int
    prefix: int


@dataclass(eq=False)
class SweepOutcome:
    """Best cut of a sweep plus provenance and work accounting.

    ``best`` is None when no prefix fit the cap (or, for local runs, when
    nothing met the acceptance threshold) - a legitimate outcome, not an
    error. ``step_min_cut[t]`` records the (boundary, volume) pair of the
    lowest-conductance prefix under the cap at step t, for envelope
    instrumentation.
    """

    best: Cut | None
    origin: Origin | None
    work: int
    step_min_cut: list[tuple[int, int] | None] | None = None

    @property
    def found(self) -> bool:
        return self.best is not None


def _select(boundaries: np.ndarray, volumes: np.ndarray) -> int:
    """Index of the lowest (conductance, volume, index) candidate."""
    phi = boundaries / volumes
    # floats pick a window of near-minimal candidates, exact integer
    # comparison settles the order inside it
    close = (phi <= phi.min() * (1.0 + 1e-12) + 1e-300).nonzero()[0]
    if close.size == 1:
        return int(close[0])
    window = zip(close.tolist(), boundaries[close].tolist(), volumes[close].tolist())
    best, bd, vol = next(window)
    for idx, b, v in window:
        if b * vol < bd * v or (b * vol == bd * v and v < vol):
            best, bd, vol = idx, b, v
    return best


def sweep(g: Graph, trajectory: Iterable, vol_cap: float) -> SweepOutcome:
    """Lowest-conductance level set across all steps of a trajectory.

    The trajectory is read once, so a WalkTrace is swept as it steps. Ties
    break toward smaller volume, then earlier step, then shorter prefix.
    Work is the trajectory's ``total_work`` after the pass (0 for a list);
    the outcome records per-step minima. A step whose capped order equals
    the previous step's has the same prefixes, so it repeats that step's
    minimum without a profile: being later, it cannot win. A sparse step is
    ordered (``build_curve``'s order: a stable sort of -p/d over the ascending
    support) and profiled through its walk plan, built here if it has none.
    """
    if not vol_cap >= 1:
        raise ValueError("vol_cap must be at least 1")
    best_key: tuple[Fraction, int, int, int] | None = None
    best_order = None
    step_min: list[tuple[int, int] | None] = []
    capped = None
    for t, dist in enumerate(trajectory):
        if isinstance(dist, walk.SparseDistribution):
            merge = walk._plan_of(g, dist)
            if merge.isolated:
                raise ValueError("mass on a zero-degree vertex has no volume ordering")
            rank = (-dist.mass / merge.deg).argsort(kind="stable")
            order, prefix_volumes = merge.ids[rank], merge.deg[rank].cumsum()
        else:
            merge, curve = None, build_curve(g, dist)
            order, prefix_volumes = curve.vertex_order, curve.x[1 : curve.vertex_order.size + 1]
        # the prefixes that fit the cap; a prefix's profile does not depend
        # on the vertices after it
        c = int(prefix_volumes.searchsorted(vol_cap, side="right"))
        if capped is not None and capped.size == c and (capped == order[:c]).all():
            step_min.append(step_min[-1])
            continue
        capped = order[:c]
        if c == 0:
            step_min.append(None)
            continue
        volumes, boundaries = prefix_cut_profile(g, capped, merge)
        j = _select(boundaries, volumes)
        bd, vol = int(boundaries[j]), int(volumes[j])
        step_min.append((bd, vol))
        key = (Fraction(bd, vol), vol, t, j + 1)
        if best_key is None or key < best_key:
            best_key, best_order = key, order
    if not step_min:
        raise ValueError("trajectory must be nonempty")
    work = int(getattr(trajectory, "total_work", 0))  # complete only after the pass
    if best_key is None:
        return SweepOutcome(best=None, origin=None, work=work, step_min_cut=step_min)
    _, _, t, j = best_key
    origin = Origin(seed=None, step=t, prefix=j)
    return SweepOutcome(cut_of(g, best_order[:j]), origin, work, step_min_cut=step_min)


def _block_candidates(
    g: Graph,
    rows: np.ndarray,
    c: int,
    cap: float,
    capped: np.ndarray,
    positive: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The prefixes under the cap of each row's first c vertices in curve order.

    Returns (order, row, size, boundaries, volumes): ``order`` is B x c, each
    row's capped order followed by -1, and candidate i is the prefix of
    ``size[i]`` vertices of row ``row[i]``, listed by size, then row.

    Curve order is by key -p/d, ties by id. A partition finds each row's c-th
    smallest key; a zero mass has key -0.0, at or above every positive entry's
    key, so a row with fewer than c positive entries keeps them all. The
    positive entries at most that key, ties included, go through one lexsort
    by (row, key, id), and each row keeps its first c. ``capped`` holds each
    row's capped order at the previous step, -1 past it, and is updated in
    place: a row whose order repeats adds no candidate, since each of its
    prefixes is one it had a step earlier, and loses to it. ``positive`` is
    ``rows > 0``. Past the key and its partition, the arrays hold the kept
    entries, B x c cells and the arcs of the rows profiled.
    """
    b, n = rows.shape
    key = rows / -g.degrees  # -0.0 at zero mass: no positive entry's key is larger
    kth = max(c, 1) - 1  # for c = 0 any bound does: no place in a row is below 0
    bound = np.partition(key, kth, axis=1)[:, [kth]]  # a copy: the partitioned array is freed
    flat = np.flatnonzero(positive & (key <= bound))
    by_key = np.lexsort((key.ravel()[flat], flat // n))  # stable: ids ascend within a key
    del key  # no B x n float array outlives the selection
    row, col = np.divmod(flat[by_key], n)
    pos = np.arange(row.size) - np.searchsorted(row, row)  # place in the row's order
    top = pos < c
    row, pos, col = row[top], pos[top], col[top]
    order = np.full((b, c), -1)
    volumes = np.zeros((b, c), dtype=g.degrees.dtype)
    order[row, pos] = col
    volumes[row, pos] = g.degrees[col]
    np.cumsum(volumes, axis=1, out=volumes)
    fits = (order >= 0) & (volumes <= cap)
    order[~fits] = -1
    fits &= (order != capped).any(axis=1)[:, None]
    capped[:] = order
    pos, row = np.nonzero(fits.T)
    swept = order[row, pos]
    rank = np.full(rows.shape, c, dtype=np.min_scalar_type(c))  # c: in no candidate
    rank[row, swept] = pos
    deg = g.degrees[swept]
    arc_row = np.repeat(row, deg)
    # the gather's arc arrays are freed before the repeat of pos is made
    last = np.maximum(rank[arc_row, _gather_rows(g, swept)], np.repeat(pos, deg))
    joined = np.bincount(arc_row * (c + 1) + last, minlength=b * (c + 1))
    inside = np.cumsum(joined.reshape(-1, c + 1)[:, :c], axis=1)
    return order, row, pos + 1, (volumes - inside)[row, pos], volumes[row, pos]


def global_sparsest_cut(g: Graph, params: GlobalParams) -> SweepOutcome:
    """Exact-walk sweep from every start vertex under cap min(k^(1+eps), 2m - 1).

    The whole graph is no cut, as in ``local_partition``. Whenever some
    set of volume at most k has conductance phi_k below the (effective)
    exponent, the winner satisfies conductance <= 4 * sqrt(phi_k / eps);
    the volume cap holds always. Candidates from different seeds are ranked
    by (conductance, volume, step, prefix, seed).
    """
    if params.k > g.total_volume:
        raise ValueError("k exceeds the total volume")
    n, degrees = g.vertex_count, g.degrees
    cap = min(params.volume_cap, g.total_volume - 1)
    if g.isolated.size:
        raise ValueError("mass on a zero-degree vertex has no volume ordering")
    c = int(np.searchsorted(np.cumsum(np.sort(degrees)), cap, side="right"))
    block = max(1, BLOCK_ARCS // max(n, int(cap)))  # a row sweeps <= cap arcs
    best_key = best_members = None
    work = 0
    for first in range(0, n, block):
        b = min(block, n - first)
        walks, capped = np.eye(n, b, -first), np.full((b, c), -1)  # a seed a column
        for t in range(params.horizon + 1):
            positive = walks.T > 0
            order, row, size, boundaries, volumes = _block_candidates(
                g, walks.T, c, cap, capped, positive
            )
            if row.size:
                pick = _select(boundaries, volumes)
                bd, vol, i, j = (int(a[pick]) for a in (boundaries, volumes, row, size))
                key = (Fraction(bd, vol), vol, t, j, first + i)
                if best_key is None or key < best_key:
                    best_key, best_members = key, order[i, :j].copy()
            if t < params.horizon:
                work += int(np.dot(positive, degrees).sum())
                walks = walk.lazy_step(g, walks)
    if best_key is None:
        return SweepOutcome(best=None, origin=None, work=work)
    _, _, t, size, seed = best_key
    return SweepOutcome(
        best=cut_of(g, best_members), origin=Origin(seed=seed, step=t, prefix=size), work=work
    )


def tight_volume_exponent(k: int, epsilon: float) -> float:
    """Reduced exponent eps / (2 ln k) of an integer k >= 2; makes k^(1+exponent) <= (1+eps)*k."""
    return epsilon / (2.0 * math.log(_count(k, "k", 2)))


def global_sparsest_cut_tight_volume(g: Graph, k: int, epsilon: float) -> SweepOutcome:
    """Volume-tight variant: cap at most (1+eps)*k.

    Requires eps > 2 ln k / k and delegates to the main driver with the
    reduced exponent; the conductance guarantee relaxes to
    O(sqrt(phi_k * ln k / eps)).
    """
    exponent = tight_volume_exponent(k, epsilon)
    if k > sys.float_info.max:  # the cap, at least k, would not be a float
        raise ValueError("k overflows a float")
    if epsilon <= 2.0 * math.log(k) / k:
        raise ValueError("epsilon must exceed 2 ln(k)/k")
    return global_sparsest_cut(g, GlobalParams(k=k, epsilon=exponent))


def local_partition(g: Graph, params: LocalParams) -> SweepOutcome:
    """Thresholded walk from one seed; sweep under cap min(5*k^(1+eps), 2m - 1).

    Returns the best level set if its conductance is at most
    8*sqrt(phi/eps), else a not-found outcome (best None) that still carries
    the work done. Only the existence of a good seed is guaranteed; an
    arbitrary seed may legitimately come up empty.
    """
    schedule = WalkSchedule(horizon=params.horizon, truncation=params.truncation)
    trace = run_walk(g, params.seed, schedule)
    # the whole graph is no cut; an edgeless graph fails on its zero degrees
    outcome = sweep(g, trace, min(params.volume_cap, max(g.total_volume - 1, 1)))
    if outcome.found and outcome.best.conductance <= params.conductance_threshold:
        outcome.origin = replace(outcome.origin, seed=params.seed)
    else:
        outcome.best = outcome.origin = None
    return outcome


def find_local_seed(g: Graph, members, params: LocalParams) -> int:
    """Start vertex inside a known sparse set that makes the local run work.

    The set must be induced-connected with volume at most k and conductance
    at most phi; the returned vertex is the smallest id among the starts
    retaining the most mass at the local horizon (up to a relative 1e-12),
    found by best_seed_vertex in two walks over the set's (horizon//2 + 1)-hop
    ball, exact on the set, whatever the set's size or the graph's.
    """
    target = cut_of(g, members)
    if target.volume > params.k:
        raise ValueError("set volume exceeds the budget k")
    if target.conductance > params.phi:
        raise ValueError("set conductance exceeds the target phi")
    vertex, _ = best_seed_vertex(g, members, params.horizon)
    return vertex
