"""Sweep cuts over walk trajectories: global bicriteria and local drivers.

The global driver runs an exact walk from every vertex and keeps the lowest
conductance level set under a volume cap of k^(1+eps), unless a component
fits the cap: then the least-volume one, of conductance 0, is answered with
no walk. The local driver runs one thresholded walk from a given seed, keeps
level sets under 5*k^(1+eps), and reports not-found when nothing beats the
acceptance threshold 8*sqrt(phi/eps); both caps stop short of the whole
graph. All tie-breaking is total, so identical inputs always return the
identical outcome. The local driver's walk, orders, profiles and cut touch
only the walk's support and its neighbors. The sweep reads the walk as it
steps, orders each run of steps that share one walk plan at once and
profiles through the plan, so memory is the support times a bounded run,
plus a pair a step.

The global driver keeps the winner's members and one block of B seeds, n x B
walks of at most ``BLOCK_ARCS`` cells and swept arcs, a seed a column, each
step one ``lazy_step`` of the block: every column is its seed's own walk bit
for bit. Each step takes each row's first c vertices in ``build_curve`` order,
as no prefix past the c smallest degrees fits the cap: a partition finds each
row's c-th smallest key -p/d, and one stable argsort along rows orders the
entries up to it, padded to one width, so no B x n sort runs. A row whose
capped order repeats the previous step's is not profiled, as ``sweep`` skips a
repeated step: its prefixes are the ones it had a step earlier, and being later
they lose. A prefix's boundary is its volume minus the arcs inside it, and an
arc is inside every prefix past its later endpoint, so one bincount of the
later rank of each swept vertex's arcs gives every boundary. Candidates, listed
by (prefix, row), go through ``sweep``'s selection: winner, origin and work
equal a sweep of each seed's walk.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from . import walk
from .curve import build_curve
from .graph import Cut, Graph, _count, _cut, _gather_rows, cut_of, prefix_cut_profile
from .spectral import best_seed_vertex
from .walk import _MAX_HORIZON, WalkSchedule, _seed_id, run_walk

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

# Cells and swept arcs in one n x B global-search block, whose padded B x w blocks have w <= n:
# its arrays take a few times 8x this many bytes, whatever the vertex count.
BLOCK_ARCS = 1 << 14
# Cells, steps times support vertices, in one run of sparse steps that the sweep orders at
# once: a run's arrays take a few times 8x this many bytes, whatever the horizon.
RUN_CELLS = 1 << 12


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

    The horizon T = ceil(e * k * ln k), e the clamped exponent, follows the
    Lovasz-Simonovits argument as Oveis Gharan and Trevisan use it. Let U
    attain phi = phi_k, vol(U) <= k, cap K = k^(1+e), and phi < e/16 (else
    psi = 4 * sqrt(phi / e) >= 1 bounds every cut). U's best start keeps
    (1 - phi/2)^t >= exp(-0.503 * phi * t) of its mass in U after t steps
    (``best_seed_vertex`` checks the first). Were every level set of volume
    at most K up to step t above psi, ``curve``'s envelope would cap that
    mass at k/K + sqrt(k) * (1 - psi^2/8)^t, at t* = ceil(e * ln k / phi) at
    most k^-e + k^-1.5: below the 0.994 * k^(-0.503 e) kept once k >= 23 at
    e = 0.01. So the search, sweeping every step up to T, meets psi if
    T >= t*. If no component fits the cap, every set of volume at most k
    short of the whole graph has a boundary edge: phi >= 1/k and t* <= T.
    A component that fits has conductance 0, but a walk shows it only once it
    mixes over it, in order k^2 steps on a path, so ``global_sparsest_cut``
    answers it before walking.
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
        return self.epsilon_effective * self.k * math.log(self.k)

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
        if _seed_id(self.seed) < 0:
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


def _ranks_below(key: tuple, best: tuple | None) -> bool:
    """Whether a candidate (boundary, volume, *ties) ranks below ``best``, if there is one:
    by conductance, compared exactly by cross-multiplying, then by volume, then the ties."""
    if best is None:
        return True
    (bd, vol, *ties), (best_bd, best_vol, *best_ties) = key, best
    return (bd * best_vol, vol, *ties) < (best_bd * vol, best_vol, *best_ties)


def _ordered_runs(g: Graph, trajectory: Iterable) -> Iterator[tuple]:
    """The trajectory's steps in blocks (first step, merge, orders, prefix volumes), a row a step.

    A run of sparse steps that share one walk plan, up to ``RUN_CELLS``
    cells, is one block ordered at once: one stable argsort of -p/d by rows
    gives each row ``build_curve``'s order of its step. A dense step, only
    ever in a caller's own list, is a block alone, ordered by its curve.
    """

    def ordered(end: int) -> tuple:  # the run of the steps before ``end``
        rank = (-np.array(run) / plan.deg).argsort(axis=1, kind="stable")
        return end - len(run), plan, plan.ids[rank], plan.deg[rank].cumsum(axis=1)

    run: list[np.ndarray] = []  # the masses of the run's steps
    for t, dist in enumerate(trajectory):
        merge = walk._plan_of(g, dist) if isinstance(dist, walk.SparseDistribution) else None
        if run and (merge is not plan or (len(run) + 1) * max(plan.ids.size, 1) > RUN_CELLS):
            yield ordered(t)
            run = []
        if merge is None:
            curve = build_curve(g, dist)
            order = curve.vertex_order
            yield t, None, order[None], curve.x[None, 1 : order.size + 1]
        elif merge.isolated:
            raise ValueError("mass on a zero-degree vertex has no volume ordering")
        else:
            plan = merge
            run.append(dist.mass)
    if run:
        yield ordered(t + 1)


def sweep(g: Graph, trajectory: Iterable, vol_cap: float) -> SweepOutcome:
    """Lowest-conductance level set across all steps of a trajectory.

    The trajectory is read once, so a WalkTrace is swept as it steps. Ties
    break toward smaller volume, then earlier step, then shorter prefix.
    Work is the trajectory's ``total_work`` after the pass (0 for a list);
    the outcome records per-step minima. A step whose capped order equals
    the previous step's has the same prefixes, so it repeats that step's
    minimum without a profile: being later, it cannot win. Sparse steps, all
    a walk yields, are read in runs that share one walk plan (built here if
    a step has none), up to ``RUN_CELLS`` cells, and each run is ordered at
    once (``build_curve``'s order: a stable sort of -p/d over the ascending
    support); each step whose capped order changed is profiled through the
    plan. Memory is the support times the bounded run, plus a pair a step.
    """
    if not vol_cap >= 1:
        raise ValueError("vol_cap must be at least 1")
    best_key = best_members = capped = None
    step_min: list[tuple[int, int] | None] = []
    for t0, merge, orders, prefix_volumes in _ordered_runs(g, trajectory):
        # the prefixes that fit the cap; a prefix's profile does not depend
        # on the vertices after it
        counts = (prefix_volumes <= vol_cap).sum(axis=1)
        repeats = (counts[1:] == counts[:-1]) & (
            (orders[1:] == orders[:-1]) | (np.arange(orders.shape[1]) >= counts[1:, None])
        ).all(axis=1)
        first = capped is not None and np.array_equal(capped, orders[0, : counts[0]])
        for r, (c, repeat) in enumerate(zip(counts.tolist(), [first, *repeats.tolist()])):
            if repeat or c == 0:
                step_min.append(step_min[-1] if repeat else None)
                continue
            volumes, boundaries = prefix_cut_profile(g, orders[r, :c], merge)
            j = _select(boundaries, volumes)
            key = (int(boundaries[j]), int(volumes[j]), t0 + r, j + 1)
            step_min.append(key[:2])
            if _ranks_below(key, best_key):
                best_key, best_members = key, orders[r, : j + 1].copy()
        capped = orders[-1, : counts[-1]]
    if not step_min:
        raise ValueError("trajectory must be nonempty")
    work = int(getattr(trajectory, "total_work", 0))  # complete only after the pass
    if best_key is None:
        return SweepOutcome(best=None, origin=None, work=work, step_min_cut=step_min)
    bd, vol, t, j = best_key
    origin = Origin(seed=None, step=t, prefix=j)
    return SweepOutcome(_cut(np.sort(best_members), vol, bd), origin, work, step_min_cut=step_min)


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
    positive entries at most that key, ties included, are set out in id order
    in a B x w block, w = max(c, widest row), padded with +inf keys and -1
    ids, and one stable argsort along rows orders each row's first c.
    ``capped`` holds each row's capped order at the previous step, -1 past
    it, and is updated in place: a row whose order repeats adds no candidate,
    since each of its prefixes is one it had a step earlier, and loses to it.
    ``positive`` is ``rows > 0``, row-major. Past the key and its partition,
    the arrays hold the kept entries, B x w cells and the arcs profiled.
    """
    b, n = rows.shape
    key = np.divide(rows, -g.degrees, order="C")  # -0.0 at zero mass: no positive key is larger
    kth = max(c, 1) - 1  # for c = 0 any bound does: no place in a row is below 0
    bound = np.partition(key, kth, axis=1)[:, [kth]]  # a copy: the partitioned array is freed
    flat = np.flatnonzero(positive & (key <= bound))  # each row's kept entries, ids ascending
    row = flat // n
    kept = np.bincount(row, minlength=b)
    w = max(c, kept.max(initial=0))
    starts = np.arange(b) * w
    slot = (starts - kept.cumsum() + kept)[row] + np.arange(flat.size)  # row * w + place
    keys, ids = np.full(b * w, np.inf), np.full(b * w, -1)
    keys[slot], ids[slot] = key.ravel()[flat], flat - row * n
    del key  # the B x n key does not outlive the selection
    order = ids[keys.reshape(b, w).argsort(axis=1, kind="stable")[:, :c] + starts[:, None]]
    volumes = np.append(g.degrees, 0)[order]  # a pad's -1 reads the appended 0
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
    by (conductance, volume, step, prefix, seed). A component of volume at
    most the cap is answered before any walk: the least-volume one, ties to
    the least member, wins with conductance 0 at ``Origin(least member, 0,
    size)`` and work 0, as no set ranks below it; the walks' horizon
    assumes none (see ``GlobalParams``).
    """
    if params.k > g.total_volume:
        raise ValueError("k exceeds the total volume")
    n, degrees = g.vertex_count, g.degrees
    cap = min(params.volume_cap, g.total_volume - 1)
    if g.isolated.size:
        raise ValueError("mass on a zero-degree vertex has no volume ordering")
    spans = np.bincount(g.components, degrees)  # component volumes, 0 but at least members
    least = int(np.argmin(np.where(spans > 0, spans, np.inf)))  # ties: the first
    if spans[least] <= cap:
        members = np.flatnonzero(g.components == least)
        origin = Origin(seed=least, step=0, prefix=members.size)
        return SweepOutcome(_cut(members, int(spans[least]), 0), origin, work=0)
    c = int(np.searchsorted(np.cumsum(np.sort(degrees)), cap, side="right"))
    block = max(1, BLOCK_ARCS // max(n, int(cap)))  # a row sweeps <= cap arcs
    best_key = best_members = None
    work = 0
    for first in range(0, n, block):
        b = min(block, n - first)
        walks, capped = np.eye(n, b, -first), np.full((b, c), -1)  # a seed a column
        for t in range(params.horizon + 1):
            positive = np.greater(walks.T, 0, order="C")
            order, row, size, boundaries, volumes = _block_candidates(
                g, walks.T, c, cap, capped, positive
            )
            if row.size:
                pick = _select(boundaries, volumes)
                bd, vol, i, j = (int(a[pick]) for a in (boundaries, volumes, row, size))
                key = (bd, vol, t, j, first + i)
                if _ranks_below(key, best_key):
                    best_key, best_members = key, order[i, :j].copy()
            if t < params.horizon:
                work += int(positive.sum(axis=0) @ degrees)
                walks = walk.lazy_step(g, walks)
    if best_key is None:
        return SweepOutcome(best=None, origin=None, work=work)
    bd, vol, t, size, seed = best_key
    origin = Origin(seed=seed, step=t, prefix=size)
    return SweepOutcome(best=_cut(np.sort(best_members), vol, bd), origin=origin, work=work)


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
