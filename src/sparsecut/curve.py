"""Concave mass-vs-volume curves of walk distributions and their bounds.

For a distribution p, order the vertices that carry mass by p(v)/d(v)
descending (ties by ascending id) and plot cumulative mass against
cumulative volume, running flat from the end of the support to the total
volume. The resulting piecewise-linear curve is concave; its corner
("extreme") points are the prefixes of the ordering and the prefixes
themselves are the level sets that sweep cuts inspect. Two bounds are
runnable here: the one-step chord average at extreme points, and the
decaying envelope x/l + sqrt(x) * (1 - phi1^2/8)^t that holds while every
inspected level set has conductance at least phi1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .graph import Cut, Graph, prefix_cut_profile
from .walk import SparseDistribution

__all__ = [
    "LSCurve",
    "Envelope",
    "ChordViolation",
    "build_curve",
    "evaluate",
    "level_sets",
    "envelope_value",
    "check_chord_bound",
]


@dataclass(eq=False)
class LSCurve:
    """Piecewise-linear concave curve of cumulative mass over volume.

    ``x`` and ``y`` list the extreme points, starting at (0, 0) with x
    strictly increasing up to the total volume. ``vertex_order`` is the
    support (the vertices carrying mass) ordered by p(v)/d(v) descending,
    ties by ascending id; its prefixes are the level sets, and after them
    the curve runs flat to the total volume. ``prefix_sizes[i]`` is the
    number of ordered vertices consumed at extreme point i.
    """

    x: np.ndarray
    y: np.ndarray
    vertex_order: np.ndarray
    prefix_sizes: np.ndarray
    total_volume: int
    total_mass: float


@dataclass(frozen=True)
class Envelope:
    """Decay envelope x/cap + sqrt(x) * (1 - phi1^2/8)^steps."""

    cap: float
    phi1: float
    steps: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        if not 0.0 <= self.phi1 <= 1.0:
            raise ValueError("phi1 must lie in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")


def envelope_value(env: Envelope, x: float) -> float:
    if x < 0:
        raise ValueError("x must be nonnegative")
    return x / env.cap + math.sqrt(x) * (1.0 - env.phi1**2 / 8.0) ** env.steps


def build_curve(g: Graph, p: np.ndarray | SparseDistribution) -> LSCurve:
    """Curve of a distribution over its support; dense arrays are sparsified."""
    if not isinstance(p, SparseDistribution):
        dense = np.asarray(p, dtype=np.float64)
        if dense.shape != (g.vertex_count,):
            raise ValueError("distribution length does not match vertex count")
        p = SparseDistribution.from_dense(dense)
    deg = g.degrees[p.support]
    if np.any(deg == 0):
        raise ValueError("mass on a zero-degree vertex has no volume ordering")
    rank = np.lexsort((p.support, -(p.mass / deg)))
    order = p.support[rank]
    # a last step of no mass runs the curve flat to the total volume, if short
    xs = np.cumsum(np.concatenate(([0], deg[rank], [0])))
    ys = np.cumsum(np.concatenate(([0.0], p.mass[rank], [0.0])))
    sizes = np.minimum(np.arange(order.size + 2, dtype=np.int64), order.size)
    two_m = g.total_volume
    end = order.size + 1 + int(xs[-1] < two_m)
    xs[-1] = two_m
    return LSCurve(xs[:end], ys[:end], order, sizes[:end], two_m, float(ys[-1]))


def evaluate(curve: LSCurve, x: float) -> float:
    """Curve value at x by linear interpolation between extreme points."""
    if x < 0 or x > curve.total_volume:
        raise ValueError(f"x={x} outside [0, {curve.total_volume}]")
    return float(np.interp(x, curve.x, curve.y))


def level_sets(g: Graph, curve: LSCurve, vol_cap: int) -> list[Cut]:
    """Prefixes of the curve ordering with volume at most vol_cap, as Cuts."""
    if vol_cap < 1:
        raise ValueError("vol_cap must be at least 1")
    volumes, boundaries = prefix_cut_profile(g, curve.vertex_order)
    cuts = []
    for j in range(volumes.size):
        if volumes[j] > vol_cap:
            break
        members = tuple(sorted(int(v) for v in curve.vertex_order[: j + 1]))
        cuts.append(
            Cut(
                members=members,
                volume=int(volumes[j]),
                boundary=int(boundaries[j]),
                conductance=int(boundaries[j]) / int(volumes[j]),
            )
        )
    return cuts


@dataclass(frozen=True)
class ChordViolation:
    x: int
    observed: float
    allowed: float


def check_chord_bound(
    g: Graph,
    prev: LSCurve,
    nxt: LSCurve,
    vol_cap: int,
    tol: float = 1e-9,
) -> list[ChordViolation]:
    """Verify the one-step chord bound between consecutive walk curves.

    For every extreme point x <= min(m, vol_cap) of the later curve, with S
    its level set and phi = conductance(S), checks
    C_next(x) <= (C_prev(x - phi*x) + C_prev(x + phi*x)) / 2 + tol.
    Holds for exact steps and for thresholded steps (removing mass can only
    lower the later curve). Returns the violations, expected empty.
    """
    m = g.edge_count
    limit = min(m, vol_cap)
    volumes, boundaries = prefix_cut_profile(g, nxt.vertex_order)
    violations = []
    for i in range(1, nxt.x.size):
        x = int(nxt.x[i])
        if x > limit:
            continue
        j = int(nxt.prefix_sizes[i])
        if j < 1 or j > volumes.size or int(volumes[j - 1]) != x:
            continue  # flat-extension point duplicating the support prefix
        phi = int(boundaries[j - 1]) / x
        reach = phi * x
        allowed = 0.5 * (evaluate(prev, x - reach) + evaluate(prev, x + reach))
        observed = float(nxt.y[i])
        if observed > allowed + tol:
            violations.append(ChordViolation(x=x, observed=observed, allowed=allowed))
    return violations
