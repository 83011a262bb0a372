"""Restricted-walk eigenpairs and the retention certificates they imply.

For a connected vertex set S, the walk restricted to S has a positive
principal eigenvector. Writing lambda_S = 2 * (1 - spectral_radius), the
degree-weighted eigenvector yields a start distribution whose mass inside S
decays no faster than (1 - lambda_S/2)^t, and lambda_S never exceeds the
conductance of S. Both facts are checked here numerically. The eigenpair is
the top Ritz pair of a Lanczos solve from sqrt(degree), which ends within |S|
steps (Lanczos 1950; Paige 1971). The best single-vertex start is located
by one degree-weighted walk from S, which by reversibility gives every
start's retention at once, and one confirming walk from the chosen vertex.

A walk of T steps from S, read on S, steps at step t < T only the arcs into
the vertices within r_t = min(t + 1, T - t - 1) hops of S, and S sees the
whole graph's bits. After step t the mass lies within t + 1 hops, so an
unstepped vertex further out keeps its exact zero; and S reads p_(t+1) only
within T - t - 1 hops, as each later step reads one hop beyond what it
writes. The stepped targets lie within T//2 hops, so their arcs all lie in
the ball of T//2 + 1 hops that ``_reach`` builds, grouped by the target's
hop, each hop's in runs of one source, sources ascending: the first r hops'
arcs are a prefix, and each target adds its sources in ascending id as the
graph's step does, so every sum rounds the same; a stable radix sort by
the target's hop alone gives that order. A walk writes S's entries into a
table of S's rows, ``_TABLE_CELLS`` cells at most a chunk, that the
certificates reduce a chunk at a time, each row rounding as its own vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _gather_rows, _vertex_ids, cut_of
from .walk import Reach, _check_horizon, lazy_step

__all__ = [
    "LocalEigenpair",
    "CertificateReport",
    "ConvergenceError",
    "CertificateViolation",
    "restricted_eigenpair",
    "certify_lower_bound",
    "best_seed_vertex",
]

_TABLE_CELLS = 1 << 14  # the most cells of one chunk of a walk's table of S's rows


class ConvergenceError(RuntimeError):
    """The eigenvector came out with an entry that is not positive; carries the estimate."""

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


def _restricted_adjacency(
    g: Graph, subset, disconnected: str
) -> tuple[np.ndarray, Graph, np.ndarray]:
    """The sorted unique subset, the subgraph it induces (vertex i being its i-th id) and the
    subgraph's arc rows. A member's arcs keep their order, each target's place found by one
    search of the members; a disconnected subgraph raises ValueError with ``disconnected``.
    """
    members = np.unique(_vertex_ids(list(subset), g.vertex_count))
    if members.size == 0:
        raise ValueError("subset must be nonempty")
    if not (deg := g.degrees[members]).all():
        raise ValueError("zero-degree vertex: restricted walk matrix undefined")
    targets = _gather_rows(g, members)
    nb = np.searchsorted(members, targets)  # a member's place, or where an outsider would go
    inside = members.take(nb, mode="clip") == targets
    rows = np.arange(members.size).repeat(deg)[inside]
    sub = Graph(np.searchsorted(rows, np.arange(members.size + 1)), nb[inside])
    if not sub.connected:
        raise ValueError(disconnected)
    return members, sub, rows


def _reach(g: Graph, members: np.ndarray, horizon: int) -> tuple[list[Reach], np.ndarray]:
    """Entry r steps the arcs into the vertices within r <= horizon//2 hops of members; and
    the members' places in the ball. One frontier BFS over an n-length hop table, to
    horizon//2 + 1 hops, a frontier deduped by stamping its positions in the table; then
    the ball's rows, radix-sorted by the target's hop, so by (hop, source)."""
    radius = horizon // 2 + 1
    hop = np.full(g.vertex_count, radius + 1)  # radius + 1: outside the ball
    hop[members], frontier = 0, members
    for h in range(1, radius + 1):
        arcs = _gather_rows(g, frontier)
        new = arcs[hop[arcs] > radius]
        hop[new] = stamp = np.arange(-new.size, 0)  # one position's stamp survives a vertex
        if not (frontier := new[hop[new] == stamp]).size:
            break
        hop[frontier] = h
    ball = np.flatnonzero(inside := hop <= radius)
    at = np.cumsum(inside) - 1  # ball places
    targets, deg = _gather_rows(g, ball), g.degrees[ball]
    run = hop[targets] * ball.size + np.arange(ball.size).repeat(deg)
    # rows list arcs by source, so the stable sort of the hops (radix, in 16 bits or fewer) is run's
    order = np.argsort(hop[targets].astype(np.min_scalar_type(radius + 1)), kind="stable")
    run, targets = run[order], at[targets[order]]
    starts = np.flatnonzero(np.append(True, run[1:] != run[:-1]))
    lengths = np.diff(np.append(starts, run.size))
    ends = np.searchsorted(run, np.arange(1, radius + 1) * ball.size)  # arcs into hops <= r
    shared = g.divisor[ball], np.flatnonzero(deg == 0)
    sources = run[starts] % ball.size
    cuts = zip(ends.tolist(), np.searchsorted(starts, ends).tolist())
    reach = [Reach(ball.size, *shared, targets[:a], a, sources[:b], lengths[:b]) for a, b in cuts]
    return reach, at[members]


def _walk_from(reaches: list[Reach], at: np.ndarray, start: np.ndarray, horizon: int):
    """(t, rows): S's rows of p_t.. from ``start`` on the members at ``at``, step t over reach
    r_t, a chunk of _TABLE_CELLS cells at most (or one row) that the next one overwrites."""
    p = np.zeros(reaches[0].vertex_count, dtype=np.float64)
    p[at] = start
    table = np.empty((min(horizon + 1, max(1, _TABLE_CELLS // at.size)), at.size))
    for first in range(0, horizon + 1, len(table)):
        rows = table[: horizon + 1 - first]
        for t, row in enumerate(rows, first):
            if t:
                p = lazy_step(reaches[min(t, horizon - t)], p)
            np.take(p, at, out=row)
        yield first, rows


def restricted_eigenpair(
    g: Graph,
    subset,
    tol: float = 1e-10,
) -> LocalEigenpair:
    """Principal eigenpair of the walk restricted to a connected subset.

    Lanczos with full reorthogonalization on the symmetrized restricted walk
    operator N = (I + D^-1/2 A_S D^-1/2) / 2, which shares eigenvectors with
    the restricted normalized Laplacian, from the unit sqrt(degree) vector.
    Step j takes the top eigenpair (theta, s) of the j x j tridiagonal; it
    stops when the Ritz residual beta_j * |s_j| is below tol, or at j = |S|,
    where the Krylov space is the whole of R^S. The space holds sqrt(degree),
    whose Rayleigh quotient is 1 - conductance(S)/2, so theta is at least
    that and the reported value 2(1 - theta) never exceeds conductance(S);
    by interlacing theta is at most N's spectral radius, so the value is
    never below the true one. Both hold up to roundoff. An eigenvector with
    an entry that is not positive raises ConvergenceError.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    disconnected = (
        "subset induces a disconnected subgraph; compute one eigenpair per component instead"
    )
    members, sub, row_of_arc = _restricted_adjacency(g, subset, disconnected)
    deg = g.degrees[members].astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(deg)

    def operator(vec: np.ndarray) -> np.ndarray:
        scaled = vec * inv_sqrt
        incoming = np.bincount(row_of_arc, weights=scaled[sub.indices], minlength=members.size)
        return 0.5 * vec + 0.5 * (inv_sqrt * incoming)

    basis = np.sqrt(deg / deg.sum())[None, :]  # the unit sqrt(d) vector, then one row a step
    alpha, beta = [], []  # the tridiagonal's diagonal and off-diagonal
    while True:
        w = operator(basis[-1])
        alpha.append(float(basis[-1] @ w))
        for _ in range(2):  # full reorthogonalization; twice is enough (Kahan-Parlett)
            w -= basis.T @ (basis @ w)
        thetas, ritz = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        rho, s = float(thetas[-1]), ritz[:, -1]
        b = float(np.linalg.norm(w))
        if b * abs(s[-1]) < tol or len(alpha) == members.size:  # converged, or the space is spent
            break
        beta.append(b)
        basis = np.vstack([basis, w / b])
    y = basis.T @ s * np.sign(s[0])  # the sign that meets sqrt(d) positively
    if not np.all(y > 0):
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
    it can only mean a bug. Step t steps only the arcs into the vertices
    within min(t + 1, horizon - t - 1) hops of the subset, which reads on
    the subset as the whole graph, bit for bit (see the module docstring).
    """
    _check_horizon(horizon)
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    # eigenpair residual enters the margins scaled by roughly horizon, so
    # solve it well below the reporting tolerance
    pair = restricted_eigenpair(g, subset, tol=min(1e-13, tol / 100))
    members = pair.subset
    phi = cut_of(g, members).conductance
    reaches, at = _reach(g, members, horizon)
    seed = pair.seed_distribution
    factor = np.multiply.accumulate(np.append(1.0, np.full(horizon, 1.0 - pair.value / 2.0)))
    mass_margins = np.empty(horizon + 1)
    component_margins = np.empty(horizon + 1)
    for t, rows in _walk_from(reaches, at, seed, horizon):
        f = factor[t : t + len(rows)]
        mass_margins[t : t + len(rows)] = rows.sum(axis=1) - f
        component_margins[t : t + len(rows)] = (rows - f[:, None] * seed).min(axis=1)
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
    to roundoff tie by id, and one exact walk from it gives the returned mass.
    Both walks share one ball and step, as ``certify_lower_bound`` does, only
    the arcs into the vertices within min(t + 1, horizon - t - 1) hops of S
    at step t, exact on S. The walk from pi_S also checks the average-start
    escape bound, mass in S >= 1 - t * conductance(S)/2 at each step t; the
    returned mass must meet (1 - conductance(S)/2)^horizon, where
    conductance(S) is (vol(S) - arcs inside S) / vol(S), in exact integers.
    """
    _check_horizon(horizon)
    members, _, inside = _restricted_adjacency(g, subset, "subset induces a disconnected subgraph")
    vol = int(g.degrees[members].sum())
    phi = (vol - inside.size) / vol  # the boundary is the arcs leaving S
    deg = g.degrees[members].astype(np.float64)
    reaches, at = _reach(g, members, horizon)
    kept = np.empty(horizon + 1)
    for t, rows in _walk_from(reaches, at, deg / vol, horizon):
        kept[t : t + len(rows)] = rows.sum(axis=1)
    if (escaped := np.flatnonzero(kept < 1.0 - np.arange(horizon + 1) * phi / 2.0 - 1e-12)).size:
        t = escaped[0]
        raise CertificateViolation(f"average start keeps {kept[t]:.6e} < 1 - t*phi/2 at step {t}")
    retained = rows[-1] * vol / deg
    best = np.flatnonzero(retained >= retained.max() * (1.0 - 1e-12))[0]
    for _, rows in _walk_from(reaches, at, np.arange(members.size) == best, horizon):
        pass
    best_value = float(rows[-1].sum())
    bound = (1.0 - phi / 2.0) ** horizon
    if best_value < bound - max(1e-12, 1e-9 * bound):
        raise CertificateViolation(
            f"best start retains {best_value:.6e} < guaranteed {bound:.6e}"
        )
    return int(members[best]), best_value
