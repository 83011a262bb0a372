"""Synthetic graphs with analytically known planted cuts, plus a brute-force
minimum-conductance oracle for small instances.

Every generator is deterministic given its parameters (the random family
takes an explicit seed), and every planted conductance is recomputed through
the cut metrics at construction time, so a generator bug cannot silently
skew a comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graph import Cut, Graph, _count, cut_of

__all__ = [
    "PlantedInstance",
    "ring_of_cliques",
    "barbell",
    "path",
    "complete",
    "erdos_renyi",
    "exact_phi_k",
]


@dataclass(eq=False)
class PlantedInstance:
    """A graph together with its intended sparse set and exact conductance."""

    graph: Graph
    planted: Cut
    phi_planted: Fraction


def _planted(g: Graph, members) -> PlantedInstance:
    cut = cut_of(g, members)
    return PlantedInstance(graph=g, planted=cut, phi_planted=cut.exact)


def ring_of_cliques(r: int, s: int) -> PlantedInstance:
    """r cliques of size s in a cycle, one bridge between neighbors.

    Clique i occupies ids [i*s, (i+1)*s); the bridge runs from the last
    vertex of clique i to the first vertex of clique i+1. The planted set is
    clique 0, with conductance exactly 2 / (s*(s-1) + 2).
    """
    r, s = _count(r, "r", 3), _count(s, "s", 3)
    edges: list[tuple[int, int]] = []
    for i in range(r):
        edges.extend(combinations(range(i * s, (i + 1) * s), 2))
        edges.append((i * s + s - 1, ((i + 1) % r) * s))
    g = Graph.from_edges(r * s, edges)
    inst = _planted(g, range(s))
    assert inst.phi_planted == Fraction(2, s * (s - 1) + 2)
    return inst


def barbell(s: int) -> PlantedInstance:
    """Two cliques of size s joined by one bridge; one clique is planted."""
    s = _count(s, "s", 3)
    edges = [*combinations(range(s), 2), *combinations(range(s, 2 * s), 2)]
    edges.append((s - 1, s))
    g = Graph.from_edges(2 * s, edges)
    inst = _planted(g, range(s))
    assert inst.phi_planted == Fraction(1, s * (s - 1) + 1)
    return inst


def path(n: int) -> Graph:
    n = _count(n, "n", 1)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    n = _count(n, "n", 1)
    return Graph.from_edges(n, combinations(range(n), 2))


_ER_CHUNK = 1 << 20  # pair draws per chunk
_MAX_EXACT_VERTICES = 22  # exact_phi_k's enumeration cap


def erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p) with a fixed seed; disconnected samples are kept (``connected`` is False)."""
    n = _count(n, "n", 1)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    # pair k of the row-major upper triangle is (i, i+1+k-first[i]); drawing
    # it in chunks consumes the generator exactly as one bulk draw would
    first = np.concatenate([[0], np.cumsum(np.arange(n - 1, 0, -1))])
    k = np.concatenate([np.empty(0, dtype=np.int64)] + [
        start + np.flatnonzero(rng.random(min(_ER_CHUNK, first[-1] - start)) < p)
        for start in range(0, int(first[-1]), _ER_CHUNK)
    ])
    i = np.searchsorted(first, k, side="right") - 1
    return Graph.from_edges(n, np.stack([i, i + 1 + k - first[i]], axis=1))


def exact_phi_k(g: Graph, k: int) -> tuple[Fraction, Cut]:
    """Exhaustive minimum conductance over nonempty sets of volume <= k, an integer.

    Exact rational arithmetic throughout; the witness is the
    lexicographically smallest member tuple among the minimizers, so reruns
    agree. Enumeration walks vertices in ascending degree order and prunes
    any branch whose volume budget is exhausted.
    Refuses graphs of more than 22 vertices.
    """
    n = g.vertex_count
    if n > _MAX_EXACT_VERTICES:
        raise ValueError(
            f"exhaustive enumeration refused for n={n} > {_MAX_EXACT_VERTICES}"
        )
    _count(k, "k", 1)
    # zero-degree vertices never help: they leave conductance unchanged and
    # only grow the witness tuple
    candidates = [v for v in range(n) if g.degrees[v] > 0]
    candidates.sort(key=lambda v: (int(g.degrees[v]), v))
    if not candidates or int(g.degrees[candidates[0]]) > k:
        raise ValueError("no nonempty set fits the volume budget")
    deg = g.degrees
    neigh = [set(int(w) for w in g.neighbors(v)) for v in range(n)]
    best: tuple[Fraction, tuple[int, ...]] | None = None
    members: list[int] = []
    member_set: set[int] = set()

    def visit(volume: int, boundary: int) -> None:
        nonlocal best
        phi = Fraction(boundary, volume)
        key = (phi, tuple(sorted(members)))
        if best is None or key < best:
            best = key

    def extend(start: int, volume: int, boundary: int) -> None:
        for idx in range(start, len(candidates)):
            v = candidates[idx]
            dv = int(deg[v])
            if volume + dv > k:
                break  # ascending degrees: nothing later fits either
            inside = len(neigh[v] & member_set)
            new_boundary = boundary + dv - 2 * inside
            members.append(v)
            member_set.add(v)
            visit(volume + dv, new_boundary)
            extend(idx + 1, volume + dv, new_boundary)
            members.pop()
            member_set.remove(v)

    extend(0, 0, 0)
    assert best is not None
    return best[0], cut_of(g, best[1])
