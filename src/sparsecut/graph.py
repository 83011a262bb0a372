"""Compressed-adjacency undirected graphs and exact cut metrics.

The graph is simple (no self-loops, no parallel edges) and immutable after
construction. Conductance of a vertex set S is boundary(S) / volume(S); the
exact integer pair is kept on every Cut so comparisons can be done in
rational arithmetic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "Cut",
    "GraphFormatError",
    "load_edge_list",
    "write_edge_list",
    "cut_of",
    "prefix_cut_profile",
]


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph in compressed sparse row form.

    Neighbor lists are sorted and symmetric: w appears in u's list iff u
    appears in w's. ``total_volume`` equals the degree sum, i.e. twice the
    edge count. ``connected`` and ``duplicate_edges`` are load metadata;
    algorithms that need connectivity state it in their own contracts.
    """

    vertex_count: int
    edge_count: int
    indptr: np.ndarray
    indices: np.ndarray
    degrees: np.ndarray
    total_volume: int
    connected: bool
    duplicate_edges: int = 0

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from (u, v) pairs, collapsing duplicates.

        Self-loops are rejected; duplicate edges (either orientation) are
        collapsed and counted in ``duplicate_edges``.
        """
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be nonnegative")
        seen: set[tuple[int, int]] = set()
        duplicates = 0
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                duplicates += 1
            else:
                seen.add(key)
        m = len(seen)
        if m:
            pairs = np.array(sorted(seen), dtype=np.int64)
            src = np.concatenate([pairs[:, 0], pairs[:, 1]])
            dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        degrees = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return cls(
            vertex_count=n,
            edge_count=m,
            indptr=indptr,
            indices=dst,
            degrees=degrees,
            total_volume=int(degrees.sum()),
            connected=_is_connected(n, indptr, dst),
            duplicate_edges=duplicates,
        )

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.degrees[v])


@dataclass(frozen=True)
class Cut:
    """A vertex set with its exact volume, boundary size, and conductance.

    ``conductance`` is the float value of boundary/volume; the integer pair
    is retained so exact comparisons never depend on rounding. Conductance
    is deliberately not symmetrized with the complement: volume caps are the
    callers' job.
    """

    members: tuple[int, ...]
    volume: int
    boundary: int
    conductance: float

    @property
    def exact(self) -> Fraction:
        return Fraction(self.boundary, self.volume)


def _is_connected(n: int, indptr: np.ndarray, indices: np.ndarray) -> bool:
    if n <= 1:
        return True
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w in indices[indptr[v] : indptr[v + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(int(w))
    return bool(seen.all())


def load_edge_list(source: IO[str] | str | os.PathLike) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    One edge per line as ``u v`` with nonnegative integer ids; lines starting
    with '#' are ignored. Ids are compacted to 0..n-1 in first-seen order.
    Duplicate edges are collapsed (counted in the result), self-loops and
    malformed lines raise GraphFormatError with the line number.
    Connectivity is not required; the flag is recorded on the Graph.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    ids: dict[int, int] = {}
    edges: list[tuple[int, int]] = []

    def compact(raw: int) -> int:
        if raw not in ids:
            ids[raw] = len(ids)
        return ids[raw]

    for lineno, raw_line in enumerate(source, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two vertex ids, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id in {line!r}", lineno) from None
        if a < 0 or b < 0:
            raise GraphFormatError(f"negative vertex id in {line!r}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}", lineno)
        edges.append((compact(a), compact(b)))
    return Graph.from_edges(len(ids), edges)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Write the graph as a ``u v`` edge list (u < v per line).

    Lines are grouped by the larger endpoint, so whenever every vertex past
    the first has some smaller neighbor (true for all the bundled
    generators) ids first appear in natural order and a reload reproduces
    the identical graph despite first-seen id compaction.
    """
    for v in range(g.vertex_count):
        for u in g.neighbors(v):
            if u < v:
                sink.write(f"{int(u)} {v}\n")


def _gather_rows(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given vertices, in vertex order."""
    deg = g.degrees[vertices]
    total = int(deg.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.zeros(vertices.size, dtype=np.int64)
    np.cumsum(deg[:-1], out=offsets[1:])
    pos = np.arange(total, dtype=np.int64) - np.repeat(offsets, deg)
    return g.indices[np.repeat(g.indptr[vertices], deg) + pos]


def _member_mask(g: Graph, members: Iterable[int]) -> np.ndarray:
    arr = np.unique(np.asarray(list(members), dtype=np.int64))
    if arr.size == 0:
        raise ValueError("vertex set must be nonempty")
    if arr[0] < 0 or arr[-1] >= g.vertex_count:
        raise ValueError("vertex id out of range")
    mask = np.zeros(g.vertex_count, dtype=bool)
    mask[arr] = True
    return mask


def cut_of(g: Graph, members: Iterable[int]) -> Cut:
    """Exact volume, boundary edge count, and conductance of a vertex set."""
    mask = _member_mask(g, members)
    sel = np.flatnonzero(mask)
    volume = int(g.degrees[sel].sum())
    if volume == 0:
        raise ValueError("vertex set has zero volume; conductance undefined")
    # for v in S, boundary edges are neighbors outside S; each counted once
    boundary = int(np.count_nonzero(~mask[_gather_rows(g, sel)]))
    return Cut(
        members=tuple(int(v) for v in sel),
        volume=volume,
        boundary=boundary,
        conductance=boundary / volume,
    )


def prefix_cut_profile(g: Graph, order: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Volumes and boundary sizes of every prefix of a vertex ordering.

    Returns (volumes, boundaries), each of length len(order), where entry
    j-1 describes the prefix of the first j vertices. Runs in time
    proportional to the volume of the ordered set, so it is usable on
    sparse-walk supports without touching the rest of the graph.
    """
    order = np.asarray(order, dtype=np.int64)
    s = order.size
    if s == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if np.unique(order).size != s:
        raise ValueError("ordering contains repeated vertices")
    rank = np.full(g.vertex_count, s, dtype=np.int64)  # s = never joins
    rank[order] = np.arange(s, dtype=np.int64)
    deg = g.degrees[order]
    targets = _gather_rows(g, order)
    src_rank = np.repeat(rank[order], deg)
    tgt_rank = rank[targets]
    # an edge is cut for prefix sizes in [src_rank+1, min(tgt_rank, s)];
    # counting only arcs with src_rank < tgt_rank sees each edge once
    fwd = src_rank < tgt_rank
    lo = src_rank[fwd] + 1
    hi = np.minimum(tgt_rank[fwd], s)
    delta = np.bincount(lo, minlength=s + 2) - np.bincount(hi + 1, minlength=s + 2)
    boundaries = np.cumsum(delta)[1 : s + 1].astype(np.int64)
    volumes = np.cumsum(deg)
    return volumes, boundaries
