"""Concave mass-vs-volume curves of walk distributions and their bounds.

For a distribution p, order the vertices that carry mass by p(v)/d(v)
descending (ties by ascending id) and plot cumulative mass against
cumulative volume, running flat from the end of the support to the total
volume. The resulting piecewise-linear curve is concave. A curve is held
as that order and its extreme points: point j is the prefix of the first j
vertices, which is the level set that sweep cuts inspect, and one last
point closes the flat run when the support falls short of the total
volume. Two bounds are runnable here: the one-step chord average at
extreme points, and the decaying envelope x/l + sqrt(x) * (1 - phi1^2/8)^t
that holds while every inspected level set has conductance at least phi1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .graph import Graph, _count, prefix_cut_profile
from .walk import SparseDistribution, _check_support

__all__ = [
    "LSCurve",
    "Envelope",
    "ChordViolation",
    "build_curve",
    "evaluate",
    "envelope_value",
    "check_chord_bound",
]


@dataclass(eq=False)
class LSCurve:
    """Piecewise-linear concave curve of cumulative mass over volume.

    ``vertex_order`` is the support (the vertices carrying mass) ordered
    by p(v)/d(v) descending, ties by ascending id. ``x`` and ``y`` list the
    extreme points, starting at (0, 0) with x strictly increasing: point j,
    for j <= len(vertex_order), is the volume and mass of the first j
    vertices, and a last point at the same mass closes the curve at the
    total volume when the support does not reach it. So ``x[-1]`` is the
    total volume and ``y[-1]`` the total mass.
    """

    x: np.ndarray
    y: np.ndarray
    vertex_order: np.ndarray


@dataclass(frozen=True)
class Envelope:
    """Decay envelope x/cap + sqrt(x) * (1 - phi1^2/8)^steps; steps is an integer."""

    cap: float
    phi1: float
    steps: int

    def __post_init__(self) -> None:
        if not self.cap >= 1:
            raise ValueError("cap must be at least 1")
        if not 0.0 <= self.phi1 <= 1.0:
            raise ValueError("phi1 must lie in [0, 1]")
        _count(self.steps, "steps")


def envelope_value(env: Envelope, x: float) -> float:
    if not x >= 0:
        raise ValueError("x must be nonnegative")
    return x / env.cap + math.sqrt(x) * (1.0 - env.phi1**2 / 8.0) ** env.steps


def build_curve(g: Graph, p: np.ndarray | SparseDistribution) -> LSCurve:
    """Curve of a distribution over its support; dense arrays are sparsified, supports checked."""
    if not isinstance(p, SparseDistribution):
        dense = np.asarray(p, dtype=np.float64)
        if dense.shape != (g.vertex_count,):
            raise ValueError("distribution length does not match vertex count")
        p = SparseDistribution.from_dense(dense)
    _check_support(g, p)
    deg = g.degrees[p.support]
    if np.any(deg == 0):
        raise ValueError("mass on a zero-degree vertex has no volume ordering")
    rank = (-(p.mass / deg)).argsort(kind="stable")  # ties by id: the support ascends
    order = p.support[rank]
    # a last step of no mass runs the curve flat to the total volume, if short
    xs = np.cumsum(np.concatenate(([0], deg[rank], [0])))
    ys = np.cumsum(np.concatenate(([0.0], p.mass[rank], [0.0])))
    two_m = g.total_volume
    end = order.size + 1 + int(xs[-1] < two_m)
    xs[-1] = two_m
    return LSCurve(xs[:end], ys[:end], order)


def evaluate(curve: LSCurve, x: float) -> float:
    """Curve value at x by linear interpolation between extreme points."""
    total_volume = int(curve.x[-1])
    if not 0 <= x <= total_volume:
        raise ValueError(f"x={x} outside [0, {total_volume}]")
    return float(np.interp(x, curve.x, curve.y))


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

    For every prefix S of the later curve's order with volume x <=
    min(m, vol_cap), which are its extreme points under that cap, with
    phi = conductance(S), checks
    C_next(x) <= (C_prev(x - phi*x) + C_prev(x + phi*x)) / 2 + tol.
    Holds for exact steps and for thresholded steps (removing mass can only
    lower the later curve). The earlier curve is interpolated at every
    capped prefix at once. Returns the violations, expected empty.
    """
    order = nxt.vertex_order
    # the prefixes under the cap, counted as sweep counts them
    limit = min(g.edge_count, vol_cap)
    c = int(np.searchsorted(nxt.x[1 : order.size + 1], limit, side="right"))
    volumes, boundaries = prefix_cut_profile(g, order[:c])
    reach = boundaries / volumes * volumes  # phi * x in floats, as stated
    below, above = np.interp([volumes - reach, volumes + reach], prev.x, prev.y)
    allowed = 0.5 * (below + above)
    observed = nxt.y[1 : c + 1]
    return [
        ChordViolation(x=int(volumes[j]), observed=float(observed[j]), allowed=float(allowed[j]))
        for j in np.flatnonzero(observed > allowed + tol)
    ]
