"""Compressed-adjacency undirected graphs and exact cut metrics.

The graph is simple (no self-loops, no parallel edges) and immutable after
construction. Conductance of a vertex set S is boundary(S) / volume(S); the
exact integer pair is kept on every Cut so comparisons can be done in
rational arithmetic. Loading 382k edges (4.4 MB) peaks at 12.2 / 13.4 / 15.7 /
8.0 MB traced in the scan / relabel / build / ``connected``, held data included.
"""

from __future__ import annotations

import io
import os
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
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

    The graph is its two arrays: ``indices[indptr[v]:indptr[v + 1]]`` lists
    v's neighbors, sorted and symmetric (w appears in u's list iff u appears
    in w's). Counts, degrees and connectivity are read from them on first
    use and cached, so a graph built for one walk never runs a connectivity
    pass. ``duplicate_edges`` is load metadata; algorithms that need
    connectivity state it in their own contracts.
    """

    indptr: np.ndarray
    indices: np.ndarray
    duplicate_edges: int = 0

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """A graph of an integer vertex count, from (u, v) pairs: an (m, 2) array or an iterable.

        The first bad pair in input order raises ValueError (a self-loop as
        such). One sort of min*n+max keys collapses and counts duplicates,
        one sort of src*n+dst arc keys lays out the sorted rows in place, in
        the array that becomes ``indices``. Past the pairs, the build peaks
        near 25 bytes an edge, 16 of them that array.
        """
        n = _count(vertex_count, "vertex_count")
        pairs = _vertex_ids(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
            raise ValueError("edges must be (u, v) pairs")
        u, v = pairs.reshape(-1, 2).T
        bad = (u == v) | (u < 0) | (v < 0) | (u >= n) | (v >= n)
        if bad.any():
            a, b = int(u[np.argmax(bad)]), int(v[np.argmax(bad)])
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            raise ValueError(f"edge ({a},{b}) out of range for n={n}")
        keys = np.minimum(u, v) * n
        keys += np.maximum(u, v)
        keys.sort()
        keys = keys[np.append(keys[:1] == keys[:1], keys[1:] != keys[:-1])]  # distinct edges
        arcs = np.concatenate([keys, keys])  # each edge's arc keys, then the reversed ones
        del keys
        low, high = np.split(arcs, 2)
        np.multiply(low % n, n, out=high)
        high += low // n
        arcs.sort()
        indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
        arcs %= n  # src*n+dst keys -> dst, row by row
        return cls(indptr, arcs, duplicate_edges=u.size - arcs.size // 2)

    @cached_property
    def vertex_count(self) -> int:
        return self.indptr.size - 1

    @cached_property
    def edge_count(self) -> int:
        return self.indices.size // 2

    @cached_property
    def total_volume(self) -> int:
        """The degree sum, twice the edge count."""
        return self.indices.size

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def divisor(self) -> np.ndarray:
        """max(degree, 1) as floats, a walk step's divisor: degree 0 sends nothing."""
        return np.maximum(self.degrees, 1.0)

    @cached_property
    def isolated(self) -> np.ndarray:
        return np.flatnonzero(self.degrees == 0)

    @cached_property
    def _slots(self) -> tuple[np.ndarray, list[np.ndarray]]:
        """(rank, sources): sources[j] lists the j-th neighbor of each vertex of degree above j."""
        order = np.argsort(-self.degrees, kind="stable")  # by degree, descending
        deg, start = self.degrees[order], self.indptr[order]
        counts = np.searchsorted(-deg, -np.arange(deg.max(initial=0)))  # degrees above j
        sources = [self.indices[start[:cnt] + j] for j, cnt in enumerate(counts.tolist())]
        return np.argsort(order), sources

    @cached_property
    def components(self) -> np.ndarray:
        """Each vertex's component, labelled by the component's least vertex."""
        return _components(self.vertex_count, self.indptr, self.indices)

    @cached_property
    def connected(self) -> bool:
        labels = self.__dict__.get("components")  # 8 bytes a vertex, held only once read
        return not (Graph.components.func(self) if labels is None else labels).any()

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


def _components(n: int, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    # hook and compress: each round hooks the larger root of every arc between
    # two trees under the smaller, then points every vertex at its root; the
    # rounds grow like log n, however long the diameter. Round one hooks each
    # vertex under its row's first (least) entry, then keeps each edge between
    # two trees once, reading ``_ID_BLOCK`` arcs at a time: on 764k arcs it
    # peaks at 8.0 MB with the CSR. No parent exceeds its vertex, so the
    # labels returned, the roots, are each component's least vertex
    parent = np.arange(n, dtype=np.int64)
    rows = np.flatnonzero(indptr[1:] > indptr[:-1])
    parent[rows] = np.minimum(rows, indices[indptr[rows]])
    while not np.array_equal(up := parent[parent], parent):
        parent = up
    kept = [np.empty((2, 0), dtype=np.int64)]
    for s in range(0, indices.size, _ID_BLOCK):  # rows lo..hi-1 meet arcs s..e-1
        e = min(s + _ID_BLOCK, indices.size)
        lo, hi = indptr.searchsorted([s, e - 1], "right") - [1, 0]
        parts = np.minimum(indptr[lo + 1 : hi + 1], e) - np.maximum(indptr[lo:hi], s)
        a = parent[lo:hi].repeat(parts)
        b = parent[indices[s:e]]
        kept.append((a[a < b], b[a < b]))
    a, b = np.concatenate(kept, axis=1)
    while a.size:
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        a, b = parent[a], parent[b]
        a, b = a[a != b], b[a != b]
    return parent


# a bulk-scan block, the fastest of 64 KiB to 1 MiB; its arrays take 12 times
# this, so a 4.4 MB text's scan peaks at 12.2 MB with the text and pairs
_BLOCK_CHARS = 1 << 17
_ID_BLOCK = 1 << 14  # ids the relabel, or arcs the connectivity check, reads at once


def _scan_edge_list(text: str) -> np.ndarray | None:
    """Raw (u, v) ids of a plain edge list, or None for the line parser.

    Takes blank lines, comment lines and lines of two distinct ids of at most
    18 ASCII digits (so each fits in int64) between ASCII blanks. A carriage
    return must precede a newline or end the text: streams may split at one.
    Lines go in blocks of about ``_BLOCK_CHARS`` characters to one int64 row
    each: past the text and those rows, the scan holds one block's arrays.
    """
    if not text.isascii():
        return None
    pairs = np.empty((text.count("\n") + 1, 2), dtype=np.int64)
    rows = start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        # newlines around the block: every word has a blank on each side, and
        # its 18 digit columns stay inside the buffer
        buf = np.frombuffer((f"\n{text[start:end]}" + "\n" * 18).encode("ascii"), dtype=np.uint8)
        if (buf[np.flatnonzero(buf == 13) + 1] != 10).any():
            return None
        # words are runs of non-blank bytes (blank: space, or tab through \r)
        blank = (buf == 32) | ((buf >= 9) & (buf <= 13))
        starts = np.flatnonzero(blank[:-1] > blank[1:]) + 1
        width = np.flatnonzero(blank[:-1] < blank[1:]) + 1 - starts
        # a word opens a line when the blank run before it holds a newline
        first = np.concatenate([[True], np.logical_or.reduceat(buf == 10, starts)[:-1]])
        hashes = buf[starts] == 35
        if hashes.any():  # drop every word of the lines that open with '#'
            keep = ~hashes[first][np.cumsum(first) - 1]
            starts, width, first = starts[keep], width[keep], first[keep]
        if starts.size % 2 or not first[0::2].all() or first[1::2].any() or (width > 18).any():
            return None
        ids = np.zeros(starts.size, dtype=np.int64)
        for k in range(int(width.max(initial=0))):  # Horner, one digit column a round
            live = width > k
            digit = buf[starts + k].astype(np.int64) - 48
            if ((digit < 0) | (digit > 9))[live].any():
                return None
            ids = np.where(live, ids * 10 + digit, ids)
        if (ids[0::2] == ids[1::2]).any():
            return None
        pairs[rows : rows + ids.size // 2] = ids.reshape(-1, 2)
        rows, start = rows + ids.size // 2, end
    return pairs[:rows]


def _first_seen_labels(raw: np.ndarray) -> int:
    """Relabel raw ids in place to 0..n-1 by the rank of each id's first position; return n.
    Past the ids and their argsort, it holds a block of ``_ID_BLOCK`` ids and a few of n."""
    flat = raw.reshape(-1)
    order = flat.argsort()  # each id's positions in a run, unordered within it
    blocks = range(0, order.size, _ID_BLOCK)
    heads = [s + 1 + np.flatnonzero(np.diff(flat[order[s : s + _ID_BLOCK + 1]])) for s in blocks]
    heads = np.concatenate([np.arange(min(order.size, 1)), *heads, [order.size]])  # run bounds
    rank = np.minimum.reduceat(order, heads[:-1]).argsort()  # distinct ids by first position
    label = np.empty_like(rank)
    for s in range(0, rank.size, _ID_BLOCK):
        label[rank[s : s + _ID_BLOCK]] = np.arange(s, min(s + _ID_BLOCK, rank.size))
    del rank
    for s in blocks:  # the runs lo..hi-1 meet the block: each puts its part in it
        e = min(s + _ID_BLOCK, order.size)
        lo, hi = heads.searchsorted([s + 1, e]) - [1, 0]
        parts = np.minimum(heads[lo + 1 : hi + 1], e) - np.maximum(heads[lo:hi], s)
        flat[order[s:e]] = label[lo:hi].repeat(parts)
    return label.size


def load_edge_list(source: IO[str] | str | os.PathLike) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    One edge per line as ``u v`` with nonnegative integer ids; lines starting
    with '#' are ignored. Ids are compacted to 0..n-1 in first-seen order.
    Duplicate edges are collapsed (counted in the result), self-loops and
    malformed lines raise GraphFormatError with the line number.
    Connectivity is not required; the Graph reports it as ``connected``.

    The text is read once and parsed in bulk with numpy. Whatever the bulk
    scan declines (errors, but also ``+5`` or 19-digit ids) goes to the
    line-by-line parser, which raises the error or reads the odd line. Each
    phase holds its inputs and one block: on 382k edges (4.4 MB), the scan,
    relabel and build peak at 12.2, 13.4 and 15.7 MB, held data included.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8-sig") as fh:  # a byte-order mark is skipped
            return load_edge_list(fh)
    start = source.tell() if source.seekable() else None
    text = source.read()
    if (pairs := _scan_edge_list(text)) is not None:
        del text
        return Graph.from_edges(_first_seen_labels(pairs), pairs)
    if start is not None:
        source.seek(start)  # parse the stream's own lines
    ids: dict[int, int] = {}  # raw id -> compact id, first seen first
    edges: list[tuple[int, int]] = []
    for lineno, raw_line in enumerate(io.StringIO(text) if start is None else source, start=1):
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
        edges.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    return Graph.from_edges(len(ids), edges)


def write_edge_list(g: Graph, sink: IO[str]) -> None:
    """Write the graph as a ``u v`` edge list (u < v per line).

    Lines are grouped by the larger endpoint, so whenever every vertex past
    the first has some smaller neighbor (true for all the bundled
    generators) ids first appear in natural order and a reload reproduces
    the identical graph despite first-seen id compaction. Past two int64
    arrays of the arc count, it holds the strings of one 65k-line write.
    """
    src = np.repeat(np.arange(g.vertex_count), g.degrees)
    lower = g.indices < src  # rows ascend and each row is sorted
    lines = np.stack([g.indices[lower], src[lower]], axis=1)
    for part in np.split(lines, range(1 << 16, len(lines), 1 << 16)):
        sink.write("".join(map("{} {}\n".format, *part.T.tolist())))


def _gather_rows(g: Graph, vertices: np.ndarray) -> np.ndarray:
    """Concatenated neighbor lists of the given vertices, in vertex order."""
    deg = g.degrees[vertices]
    ends = deg.cumsum()  # each row's end in the output
    shift = (g.indptr[vertices] - ends + deg).repeat(deg)  # row start less output start
    return g.indices[np.arange(ends[-1] if ends.size else 0) + shift]


# A support merge: sorted unique ids, their degrees, their volume and whether one has
# degree 0; the sorted union of the ids and their arc targets, and its degrees; each
# id's and arc's slot in the union (arcs row by row). It is the one lookup of every
# prefix profile, and a walk's plan: its step, its threshold and its work. Below n arcs
# one sort finds the union, with no array of length n; from n arcs, a mark a vertex does.
Merge = namedtuple("Merge", "ids deg volume isolated union union_deg id_slot arc_slot")


def _merge(g: Graph, ids: np.ndarray) -> Merge:
    deg, merged = g.degrees[ids], np.concatenate([ids, _gather_rows(g, ids)])
    if merged.size - ids.size < g.vertex_count:
        union, slot = np.unique(merged, return_inverse=True)
    else:  # a slot is the count of marked vertices before it
        mark = np.bincount(merged, minlength=g.vertex_count) > 0
        union, slot = np.flatnonzero(mark), (mark.cumsum() - 1)[merged]
    return Merge(ids, deg, int(deg.sum()), not deg.all(), union, g.degrees[union],
                 slot[: ids.size], slot[ids.size :])


def _count(value, name: str, least: int = 0) -> int:
    """A count as an int: a Python or NumPy integer, not a bool, and at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    if value < least:
        if not least:
            raise ValueError(f"{name} must be nonnegative")
        raise ValueError(f"{name} must be at least {least}")
    return int(value)


def _vertex_ids(ids, n: int | None = None) -> np.ndarray:
    """The ids as int64: an integer dtype or ints, no bool, in int64 and in [0, n) if n is given."""
    if (arr := np.asarray(ids)).dtype.kind == "O":  # an object array reads as the same list
        arr = np.asarray(ids := arr.tolist())
    if arr.size and arr.dtype.kind not in "iu":  # a cast would pick other ids
        wide = np.asarray(ids, dtype=object).flat  # ints past int64 are held so, or as floats
        if any(type(i) is int and not -(1 << 63) <= i < 1 << 63 for i in wide):
            raise ValueError("vertex id out of range")
        raise ValueError("vertex ids must be integers")
    if arr is not ids and arr.ndim:  # a list: NumPy reads a bool among ints as 0 or 1
        for _ in range(arr.ndim - 1):
            ids = chain.from_iterable(ids)
        if {bool, np.bool_} & set(map(type, ids)):
            raise ValueError("vertex ids must be integers")
    arr = arr.astype(np.int64, copy=False)
    if n is not None and arr.size and arr.view(np.uint64).max() >= n:  # negatives wrap past n
        raise ValueError("vertex id out of range")
    return arr


def cut_of(g: Graph, members: Iterable[int]) -> Cut:
    """Exact volume, boundary edge count, and conductance of a vertex set."""
    sel = np.unique(_vertex_ids(list(members)))
    if sel.size == 0:
        raise ValueError("vertex set must be nonempty")
    volumes, boundaries = prefix_cut_profile(g, sel)
    return _cut(sel, int(volumes[-1]), int(boundaries[-1]))


def _cut(members: np.ndarray, volume: int, boundary: int) -> Cut:
    """The Cut of sorted unique members, given their exact volume and boundary."""
    if volume == 0:
        raise ValueError("vertex set has zero volume; conductance undefined")
    return Cut(tuple(members.tolist()), volume, boundary, conductance=boundary / volume)


def prefix_cut_profile(g: Graph, order: Sequence[int], merge: Merge | None = None) -> tuple:
    """Volumes and boundary sizes of every prefix of a vertex ordering.

    Returns (volumes, boundaries), each of length len(order), where entry
    j-1 describes the prefix of the first j vertices. Ranks are read through
    one lookup, ``merge``: taken on trust to merge a sorted superset of the
    ordering (a sparse walk step's plan for its support), or, in a bare
    call, a merge of the sorted ordering itself. One rank array over the
    merge's union serves both ends of every arc, so no array of length n is
    made. A prefix's boundary is its volume minus the arcs inside it, and an
    arc is inside every prefix past its later endpoint: one bincount of
    later ranks.
    """
    order = _vertex_ids(order, g.vertex_count if merge is None else None)
    s = order.size
    if s == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if merge is None:
        ids = np.sort(order)
        if (ids[1:] == ids[:-1]).any():
            raise ValueError("ordering contains repeated vertices")
        merge = _merge(g, ids)
    rank = np.full(merge.union.size, s)  # rank s: a merged id outside the ordering
    rank[merge.id_slot[merge.ids.searchsorted(order)]] = np.arange(s)
    last = np.maximum(rank[merge.id_slot].repeat(merge.deg), rank[merge.arc_slot])
    volumes = g.degrees[order].cumsum()
    inside = np.bincount(last, minlength=s + 1)[:s].cumsum()
    return volumes, volumes - inside
