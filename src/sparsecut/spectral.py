"""Restricted-walk eigenpairs and the retention certificates they imply.

For a connected vertex set S, the walk restricted to S has a positive
principal eigenvector. Writing lambda_S = 2 * (1 - spectral_radius), the
degree-weighted eigenvector yields a start distribution whose mass inside S
decays no faster than (1 - lambda_S/2)^t, and lambda_S never exceeds the
conductance of S. Both facts are checked here numerically. The best
single-vertex start is located by one degree-weighted walk from S, which by
reversibility gives every start's retention at once, and one confirming
walk from the chosen vertex.

A walk of T steps from S that is read on S only steps the subgraph induced
on the ball of R = T//2 + 1 hops around S, bit for bit. Vertices within R - 1
hops keep all their arcs; layer-R vertices lose some, but mass reaches them
at step R, so a first wrong value appears at step R + 1, one hop inside. It
moves a hop a step and reaches S at step 2R >= T + 1. Until then a left-out
arc carries an exact zero, and each target still adds its sources in
ascending id order, so every sum rounds the same. ``_induced`` builds that
ball's subgraph, and at radius 0 the subgraph of S that its eigenpair reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _gather_rows, _vertex_ids, cut_of
from .walk import _check_horizon, lazy_step

__all__ = [
    "LocalEigenpair",
    "CertificateReport",
    "ConvergenceError",
    "CertificateViolation",
    "restricted_eigenpair",
    "certify_lower_bound",
    "best_seed_vertex",
]

_MAX_ITERATIONS = 1_000_000  # power-iteration cap of restricted_eigenpair


class ConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap; carries the best estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class CertificateViolation(RuntimeError):
    """A certified inequality failed; indicates an implementation bug."""


@dataclass(eq=False)
class LocalEigenpair:
    """Smallest restricted-Laplacian eigenvalue with its walk seed.

    ``vector`` is the positive unit eigenvector over ``subset`` (sorted);
    ``seed_distribution`` is sqrt(degree) * vector normalized to sum 1.
    """

    subset: np.ndarray
    value: float
    vector: np.ndarray
    seed_distribution: np.ndarray


def _restricted_adjacency(g: Graph, subset, disconnected: str) -> tuple[np.ndarray, Graph]:
    """The sorted unique subset and the subgraph it induces, vertex i being its i-th id.

    A disconnected subgraph raises ValueError with the message ``disconnected``.
    """
    members = np.unique(_vertex_ids(list(subset), g.vertex_count))
    if members.size == 0:
        raise ValueError("subset must be nonempty")
    if np.any(g.degrees[members] == 0):
        raise ValueError("zero-degree vertex: restricted walk matrix undefined")
    sub, _ = _induced(g, members)
    if not sub.connected:
        raise ValueError(disconnected)
    return members, sub


def _induced(g: Graph, members: np.ndarray, radius: int = 0) -> tuple[Graph, np.ndarray]:
    """The subgraph induced on the ``radius``-hop ball of members, and their vertices in it.

    Frontier BFS over an n-byte mask, then one n-length table of ball positions, in id order.
    """
    seen, frontier = np.zeros(g.vertex_count, dtype=bool), members
    seen[members] = True
    for _ in range(radius):
        arcs = _gather_rows(g, frontier)
        if not (frontier := np.unique(arcs[~seen[arcs]])).size:
            break
        seen[frontier] = True
    ball = np.flatnonzero(seen)
    at = np.full(g.vertex_count, ball.size)  # ball.size: outside the ball
    at[ball] = np.arange(ball.size)
    nb = at[_gather_rows(g, ball)]
    inside = nb < ball.size
    degrees = np.bincount(np.repeat(at[ball], g.degrees[ball])[inside], minlength=ball.size)
    return Graph(np.concatenate([[0], np.cumsum(degrees)]), nb[inside]), at[members]


def restricted_eigenpair(
    g: Graph,
    subset,
    tol: float = 1e-10,
) -> LocalEigenpair:
    """Principal eigenpair of the walk restricted to a connected subset.

    Power iteration on the symmetrized restricted walk operator
    N = (I + D^-1/2 A_S D^-1/2) / 2, which shares eigenvectors with the
    restricted normalized Laplacian. Converges when successive Rayleigh
    quotients move by less than tol (relatively) and the residual infinity
    norm is below tol. Starting from the degree-square-root vector makes the
    Rayleigh quotient start at 1 - conductance(S)/2 and increase monotonely,
    so the reported value never exceeds conductance(S) + tol.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    disconnected = (
        "subset induces a disconnected subgraph; compute one eigenpair per component instead"
    )
    members, sub = _restricted_adjacency(g, subset, disconnected)
    deg = g.degrees[members].astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)
    row_of_arc = np.repeat(np.arange(members.size), sub.degrees)

    def operator(vec: np.ndarray) -> np.ndarray:
        scaled = vec * inv_sqrt
        incoming = np.bincount(row_of_arc, weights=scaled[sub.indices], minlength=members.size)
        return 0.5 * vec + 0.5 * (inv_sqrt * incoming)

    y = np.sqrt(deg)
    y /= np.linalg.norm(y)
    rho_prev = -np.inf
    rho = 0.0
    for _ in range(_MAX_ITERATIONS):
        z = operator(y)
        rho = float(y @ z)
        residual = float(np.max(np.abs(z - rho * y)))
        if abs(rho - rho_prev) < tol * max(1.0, abs(rho)) and residual < tol:
            break
        rho_prev = rho
        y = z / np.linalg.norm(z)  # z >= y/2 > 0 entrywise, so the norm is at least 1/2
    else:
        raise ConvergenceError(
            f"no convergence within {_MAX_ITERATIONS} iterations",
            2.0 * (1.0 - rho),
        )
    if np.any(y <= 0):
        raise ConvergenceError("eigenvector lost positivity", 2.0 * (1.0 - rho))
    lam = 2.0 * (1.0 - rho)
    seed = y * np.sqrt(deg)
    seed /= seed.sum()
    return LocalEigenpair(subset=members, value=lam, vector=y, seed_distribution=seed)


@dataclass(eq=False)
class CertificateReport:
    """Per-step slack of the retention lower bound, nonnegative up to tol.

    ``mass_margins[t]`` = mass(S at step t) - (1 - lambda/2)^t.
    ``component_margins[t]`` = min over v in S of
    p_t(v) - (1 - lambda/2)^t * p_0(v).
    """

    eigenpair: LocalEigenpair
    conductance: float
    horizon: int
    mass_margins: np.ndarray
    component_margins: np.ndarray


def certify_lower_bound(
    g: Graph, subset, horizon: int, tol: float = 1e-10
) -> CertificateReport:
    """Run the exact walk from the eigenvector seed and check retention.

    Asserts, for every t <= horizon, that the mass kept inside the subset is
    at least (1 - lambda/2)^t - tol, componentwise and in aggregate. A
    failure raises CertificateViolation: the inequality is unconditional, so
    it can only mean a bug. The walk steps the (horizon//2 + 1)-hop ball of
    the subset, which reads on the subset as the whole graph, bit for bit.
    """
    _check_horizon(horizon)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    # eigenpair residual enters the margins scaled by roughly horizon, so
    # solve it well below the reporting tolerance
    pair = restricted_eigenpair(g, subset, tol=min(1e-13, tol / 100))
    members = pair.subset
    phi = cut_of(g, members).conductance
    walk_g, at = _induced(g, members, horizon // 2 + 1)
    p = np.zeros(walk_g.vertex_count, dtype=np.float64)
    p[at] = pair.seed_distribution
    decay = 1.0 - pair.value / 2.0
    mass_margins = np.empty(horizon + 1)
    component_margins = np.empty(horizon + 1)
    factor = 1.0
    for t in range(horizon + 1):
        inside = p[at]
        mass_margins[t] = inside.sum() - factor
        component_margins[t] = float(np.min(inside - factor * pair.seed_distribution))
        if t < horizon:
            p = lazy_step(walk_g, p)
            factor *= decay
    worst = min(mass_margins.min(), component_margins.min())
    if worst < -tol:
        raise CertificateViolation(
            f"retention bound violated by {-worst:.3e} (tol {tol:.1e})"
        )
    return CertificateReport(
        eigenpair=pair,
        conductance=phi,
        horizon=horizon,
        mass_margins=mass_margins,
        component_margins=component_margins,
    )


def best_seed_vertex(g: Graph, subset, horizon: int) -> tuple[int, float]:
    """Single start vertex in the subset retaining the most mass at horizon.

    The lazy walk is reversible, D W = W^T D, so the mass a start v keeps in
    S after t steps, e_v W^t 1_S, equals (pi_S W^t)(v) * vol(S) / d(v) with
    pi_S = d 1_S / vol(S): one walk from pi_S ranks every start. The smallest
    id ranked within a relative 1e-12 of the maximum wins, so starts equal up
    to roundoff tie by id, and one exact walk from it gives the returned mass:
    2 * horizon steps of the (horizon//2 + 1)-hop ball of S, exact on S. The
    walk from pi_S also checks the average-start escape bound, mass in S >=
    1 - t * conductance(S)/2 at each step t; the returned mass must meet
    (1 - conductance(S)/2)^horizon.
    """
    _check_horizon(horizon)
    members, _ = _restricted_adjacency(g, subset, "subset induces a disconnected subgraph")
    phi = cut_of(g, members).conductance
    deg = g.degrees[members].astype(np.float64)
    vol = deg.sum()
    walk_g, at = _induced(g, members, horizon // 2 + 1)
    p = np.zeros(walk_g.vertex_count, dtype=np.float64)
    p[at] = deg / vol
    for t in range(1, horizon + 1):
        p = lazy_step(walk_g, p)
        kept = float(p[at].sum())
        if kept < 1.0 - t * phi / 2.0 - 1e-12:
            raise CertificateViolation(f"average start keeps {kept:.6e} < 1 - t*phi/2 at step {t}")
    retained = p[at] * vol / deg
    best = np.flatnonzero(retained >= retained.max() * (1.0 - 1e-12))[0]
    p = np.zeros(walk_g.vertex_count, dtype=np.float64)
    p[at[best]] = 1.0
    for _ in range(horizon):
        p = lazy_step(walk_g, p)
    best_value = float(p[at].sum())
    bound = (1.0 - phi / 2.0) ** horizon
    if best_value < bound - max(1e-12, 1e-9 * bound):
        raise CertificateViolation(
            f"best start retains {best_value:.6e} < guaranteed {bound:.6e}"
        )
    return int(members[best]), best_value
