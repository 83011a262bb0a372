"""Seeded, relabelled edge-list inputs for the benchmark workloads.

Every workload graph is a ring of cliques built by ``sparsecut.ring_of_cliques``
and written as an edge-list file whose vertex ids, line order and edge
orientation are shuffled by the workload seed. The planted cliques therefore
never sit at ids 0..s-1 after loading, so no check leans on the way
zero-mass vertices join level sets in ascending id order.

``load_edge_list`` compacts raw ids to 0..n-1 in first-seen order; the
benchmark repeats that compaction on the lines it wrote to know the loaded
id of every clique member without asking the program under test.

Run as a script it writes ``<out>.txt`` and the matching ``<out>.json``
metadata; ``bench/run.py`` does this in a separate process so that the
generator's memory never counts toward the measured process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsecut import ring_of_cliques


@dataclass(frozen=True)
class Instance:
    """A ring of ``cliques`` cliques of ``clique_size`` vertices.

    With ``noise`` the file also carries duplicate lines (1% of the edges,
    both orientations) and ``#`` comment lines, which the loader must skip
    or collapse.
    """

    cliques: int
    clique_size: int
    noise: bool = False

    @property
    def budget(self) -> int:
        """Volume of one clique, s(s-1) + 2: the planted set's volume k."""
        s = self.clique_size
        return s * (s - 1) + 2


def write_instance(inst: Instance, seed: int, path: Path) -> dict:
    """Write the shuffled edge list to ``path`` and return its metadata.

    The metadata holds what a correct load must report (vertex and edge
    counts, collapsed duplicates, connectivity), the number of lines, and
    ``cliques``: the loaded ids of every clique's members, one row per
    clique.
    """
    planted = ring_of_cliques(inst.cliques, inst.clique_size)
    g = planted.graph
    n = g.vertex_count
    rng = np.random.default_rng(seed)

    src = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    forward = src < g.indices
    edges = np.stack([src[forward], g.indices[forward]], axis=1)
    raw_label = rng.permutation(n)
    rows = raw_label[edges][rng.permutation(len(edges))]
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip][:, ::-1]

    duplicates = 0
    comments = 0
    if inst.noise:
        duplicates = max(1, len(rows) // 100)
        extra = rows[rng.choice(len(rows), size=duplicates, replace=False)]
        extra[: duplicates // 2] = extra[: duplicates // 2, ::-1]
        rows = np.concatenate([rows, extra])[rng.permutation(len(rows) + duplicates)]
        comments = max(1, len(rows) // 4000)

    lines = [f"{a} {b}" for a, b in rows.tolist()]
    for slot in np.sort(rng.choice(len(lines) + 1, size=comments, replace=False))[::-1]:
        lines.insert(int(slot), f"# shuffled ring_of_cliques({inst.cliques},{inst.clique_size})")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    # first-seen compaction, as the loader does it: u before v, line by line
    flat = rows.ravel()
    seen, first = np.unique(flat, return_index=True)
    loaded = np.empty(n, dtype=np.int64)
    loaded[seen[np.argsort(first)]] = np.arange(seen.size)
    cliques = loaded[raw_label[np.arange(n)]].reshape(inst.cliques, inst.clique_size)
    return {
        "vertex_count": n,
        "edge_count": g.edge_count,
        "duplicate_edges": duplicates,
        "connected": bool(g.connected),
        "lines": len(lines),
        "cliques": np.sort(cliques, axis=1).tolist(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cliques", type=int, required=True)
    parser.add_argument("--clique-size", type=int, required=True)
    parser.add_argument("--noise", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="path stem for .txt and .json")
    args = parser.parse_args()
    inst = Instance(args.cliques, args.clique_size, args.noise)
    meta = write_instance(inst, args.seed, args.out.with_suffix(".txt"))
    args.out.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")


if __name__ == "__main__":
    main()
