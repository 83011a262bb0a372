import os
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

# The suite tests the checkout's own package, in this process and in the CLI
# children (see cli_env), with or without PYTHONPATH set.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from sparsecut import (  # noqa: E402
    Graph,
    PlantedInstance,
    barbell,
    complete,
    cut_of,
    erdos_renyi,
    path,
    ring_of_cliques,
)


def cli_env():
    """Environment for a ``python -m sparsecut`` child process.

    The child imports what this process imports, whatever its cwd: the
    absolute ``<repo>/src`` goes first on ``PYTHONPATH``, and the inherited
    entries follow, made absolute against this process's cwd (a relative
    ``PYTHONPATH=src`` would otherwise resolve against the child's
    ``cwd=tmp_path``). Empty entries are dropped, since Python reads them as
    the cwd.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH", "").split(os.pathsep)
    entries = [str(SRC)] + [os.path.abspath(e) for e in inherited if e]
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def relabel(inst, seed):
    """The planted instance under a seeded random permutation of vertex ids.

    The generators put the planted set at ids 0..s-1, which is where ties
    in id order land first; relabelled copies check that a guarantee does
    not rest on that.
    """
    g = inst.graph
    perm = np.random.default_rng(seed).permutation(g.vertex_count)
    src = np.repeat(np.arange(g.vertex_count), g.degrees)
    forward = src < g.indices
    edges = zip(perm[src[forward]].tolist(), perm[g.indices[forward]].tolist())
    relabelled = Graph.from_edges(g.vertex_count, edges)
    planted = cut_of(relabelled, perm[list(inst.planted.members)])
    assert planted.exact == inst.phi_planted
    return PlantedInstance(graph=relabelled, planted=planted, phi_planted=planted.exact)


@pytest.fixture(scope="session")
def barbell3():
    return barbell(3)


@pytest.fixture(scope="session")
def family_graphs():
    """Connected representative of each generator family."""
    er = erdos_renyi(60, 0.1, rng_seed=7)
    assert er.connected
    return {
        "ring_of_cliques": ring_of_cliques(5, 6).graph,
        "barbell": barbell(6).graph,
        "path": path(30),
        "complete": complete(12),
        "erdos_renyi": er,
    }


def random_connected_subset(g, rng, max_size=12):
    """Grow a random induced-connected subset by frontier sampling."""
    start = int(rng.integers(g.vertex_count))
    while g.degree(start) == 0:
        start = int(rng.integers(g.vertex_count))
    members = {start}
    frontier = set(int(w) for w in g.neighbors(start))
    size = int(rng.integers(1, max_size + 1))
    while frontier and len(members) < size:
        v = sorted(frontier)[int(rng.integers(len(frontier)))]
        members.add(v)
        frontier.discard(v)
        frontier.update(int(w) for w in g.neighbors(v) if w not in members)
    return sorted(members)


def dense_walk(g, p0, steps):
    """Independent dense oracle: repeated exact steps, returning all states."""
    from sparsecut import lazy_step

    out = [np.asarray(p0, dtype=np.float64)]
    for _ in range(steps):
        out.append(lazy_step(g, out[-1]))
    return out


def raises_message(message):
    """pytest.raises for a ValueError whose message is exactly ``message``."""
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


def traced_peak(call):
    """``call()``'s result and the peak bytes tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
