"""Known-wrong searches must fail a check that is a theorem.

Each mutant is a monkeypatch in the test process. A byte pin or a
reference-equality test does not count as killing it: only a bound the
paper proves does.
"""

import itertools
import math

import numpy as np

from sparsecut import Graph, LocalParams, cut_of, erdos_renyi, find_local_seed, local_partition
from sparsecut import partition


def ring_of_blocks(r, s, p):
    """r connected erdos_renyi(s, p) blocks joined in a ring by one edge each.

    Block i holds the ids i*s to i*s + s - 1 and is the i-th connected sample
    of the seeds 0, 1, 2, ...; its last id meets the next block's first.
    """
    blocks, rng_seed = [], 0
    while len(blocks) < r:
        block = erdos_renyi(s, p, rng_seed)
        rng_seed += 1
        if block.connected:
            blocks.append(block)
    edges = []
    for i, block in enumerate(blocks):
        src = np.repeat(np.arange(s), block.degrees)
        forward = src < block.indices
        edges.append(np.stack([src[forward], block.indices[forward]], axis=1) + i * s)
    first = np.arange(r) * s
    edges.append(np.stack([first + s - 1, np.roll(first, -1)], axis=1))
    return Graph.from_edges(r * s, np.concatenate(edges))


def test_sweep_of_steps_0_and_1_misses_the_local_guarantee(monkeypatch):
    # The local theorem: from a good seed of a set of volume <= k and
    # conductance phi, the query finds a cut of conductance <= 8*sqrt(phi/eps)
    # and volume <= 5*k^(1+eps). A block of sparse random vertices is reached
    # only as the walk mixes, so no step-1 level set meets the threshold here,
    # unlike a planted clique.
    g = ring_of_blocks(20, 300, 0.03)
    assert (g.vertex_count, g.edge_count, g.connected) == (6000, 26891, True)
    members = range(300, 600)  # block 1
    block = cut_of(g, members)
    assert block.boundary == 2 and block.volume == 2648
    k, phi, eps = block.volume, block.conductance, 0.2
    seed = find_local_seed(g, members, LocalParams(seed=0, k=k, phi=phi, epsilon=eps))
    params = LocalParams(seed=seed, k=k, phi=phi, epsilon=eps)
    out = local_partition(g, params)
    assert out.found
    assert out.best.conductance <= 8 * math.sqrt(phi / eps)
    assert out.best.volume <= 5 * k ** (1 + eps)
    assert out.origin.step > 1  # found only once the walk has spread

    sweep = partition.sweep

    def early(g, trajectory, cap):  # mutant (b): the sweep reads steps 0 and 1 alone
        return sweep(g, itertools.islice(trajectory, 2), cap)

    monkeypatch.setattr(partition, "sweep", early)
    assert not local_partition(g, params).found
