from fractions import Fraction

import numpy as np
import pytest

from sparsecut import (
    barbell,
    complete,
    cut_of,
    erdos_renyi,
    exact_phi_k,
    path,
    ring_of_cliques,
)
from sparsecut import generators
from sparsecut.graph import Graph

from conftest import raises_message


def test_ring_of_cliques_small():
    inst = ring_of_cliques(3, 3)
    assert inst.phi_planted == Fraction(1, 4)  # 2/8
    assert inst.graph.vertex_count == 9
    assert inst.graph.connected


def test_ring_of_cliques_formula():
    inst = ring_of_cliques(10, 10)
    assert inst.phi_planted == Fraction(2, 92)
    recomputed = cut_of(inst.graph, inst.planted.members)
    assert recomputed.exact == inst.phi_planted
    assert inst.planted.volume < inst.graph.total_volume


def test_ring_of_cliques_rejects_small_params():
    with pytest.raises(ValueError):
        ring_of_cliques(2, 5)
    with pytest.raises(ValueError):
        ring_of_cliques(5, 2)


def test_barbell_planted(barbell3):
    assert barbell3.phi_planted == Fraction(1, 7)
    assert cut_of(barbell3.graph, barbell3.planted.members).exact == Fraction(1, 7)


def test_complete_singletons():
    g = complete(4)
    for v in range(4):
        assert cut_of(g, [v]).conductance == 1.0


def test_path_endpoint_singleton():
    g = path(3)
    c = cut_of(g, [0])
    assert (c.volume, c.boundary, c.conductance) == (1, 1, 1.0)


def test_erdos_renyi_reproducible():
    a = erdos_renyi(50, 0.2, rng_seed=7)
    b = erdos_renyi(50, 0.2, rng_seed=7)
    assert a.edge_count == b.edge_count
    assert np.array_equal(a.indices, b.indices)
    c = erdos_renyi(50, 0.2, rng_seed=8)
    assert not np.array_equal(a.indices, c.indices)


def test_erdos_renyi_disconnected_flagged():
    g = erdos_renyi(40, 0.01, rng_seed=3)
    assert g.connected in (True, False)  # metadata present either way
    assert int(g.degrees.sum()) == g.total_volume


def test_exact_phi_k_barbell(barbell3):
    phi, witness = exact_phi_k(barbell3.graph, 7)
    assert phi == Fraction(1, 7)
    assert witness.members == (0, 1, 2)


def test_exact_phi_k_complete_four():
    phi, witness = exact_phi_k(complete(4), 3)
    assert phi == Fraction(1)
    assert witness.members == (0,)  # lexicographically smallest singleton


def test_exact_phi_k_disconnected_zero():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    phi, witness = exact_phi_k(g, 6)
    assert phi == 0
    assert witness.members == (0, 1, 2)


def test_exact_phi_k_monotone_in_k():
    g = erdos_renyi(12, 0.35, rng_seed=5)
    start = int(min(d for d in g.degrees if d > 0))
    values = []
    for k in range(start, g.total_volume + 1, 3):
        phi, _ = exact_phi_k(g, k)
        values.append(phi)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_exact_phi_k_refuses_large_graphs():
    g = erdos_renyi(30, 0.2, rng_seed=1)
    with pytest.raises(ValueError, match="refused"):
        exact_phi_k(g, 10)


def test_exact_phi_k_requires_feasible_budget():
    g = complete(4)  # every vertex has degree 3
    with pytest.raises(ValueError):
        exact_phi_k(g, 2)


def test_exact_phi_k_matches_planted_on_enumerable_instances():
    for inst in (ring_of_cliques(3, 3), ring_of_cliques(4, 5), barbell(3)):
        k = inst.planted.volume
        phi, witness = exact_phi_k(inst.graph, k)
        assert phi == inst.phi_planted
        assert witness.members == inst.planted.members


def test_exact_phi_k_brute_force_cross_check():
    # independent oracle: plain powerset enumeration without pruning
    from itertools import combinations

    g = erdos_renyi(8, 0.4, rng_seed=9)
    k = 7
    best = None
    for size in range(1, 9):
        for members in combinations(range(8), size):
            vol = int(g.degrees[list(members)].sum())
            if vol == 0 or vol > k:
                continue
            c = cut_of(g, members)
            key = (c.exact, members)
            if best is None or key < best:
                best = key
    phi, witness = exact_phi_k(g, k)
    assert (phi, witness.members) == best


def bulk_erdos_renyi(n, p, rng_seed):
    """The one-draw sampler over every upper-triangle pair."""
    rng = np.random.default_rng(rng_seed)
    iu, ju = np.triu_indices(n, k=1)
    picks = rng.random(iu.size) < p
    return Graph.from_edges(n, list(zip(iu[picks].tolist(), ju[picks].tolist())))


@pytest.mark.parametrize("chunk", [1, 7, 100, generators._ER_CHUNK])
def test_erdos_renyi_chunks_match_bulk_draw(monkeypatch, chunk):
    monkeypatch.setattr(generators, "_ER_CHUNK", chunk)
    for n, p, seed in [(1, 0.5, 0), (2, 1.0, 1), (12, 0.35, 5), (40, 0.01, 3), (60, 0.1, 7), (97, 0.5, 11)]:
        got, want = erdos_renyi(n, p, rng_seed=seed), bulk_erdos_renyi(n, p, seed)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert (got.edge_count, got.connected) == (want.edge_count, want.connected)


def test_generator_checks_pin_their_messages():
    for call, message in (
        (lambda: ring_of_cliques(2, 3), "r must be at least 3"),
        (lambda: ring_of_cliques(3, 2), "s must be at least 3"),
        (lambda: ring_of_cliques(3.5, 3), "r must be an integer"),
        (lambda: ring_of_cliques(3, True), "s must be an integer"),
        (lambda: barbell(2), "s must be at least 3"),
        (lambda: barbell(3.0), "s must be an integer"),
        (lambda: path(0), "n must be at least 1"),
        (lambda: path(True), "n must be an integer"),
        (lambda: path(2.5), "n must be an integer"),
        (lambda: path(float("nan")), "n must be an integer"),
        (lambda: complete(0), "n must be at least 1"),
        (lambda: complete(True), "n must be an integer"),
        (lambda: erdos_renyi(0, 0.5, rng_seed=1), "n must be at least 1"),
        (lambda: erdos_renyi(4.5, 0.5, rng_seed=1), "n must be an integer"),
        (lambda: erdos_renyi(True, 0.5, rng_seed=1), "n must be an integer"),
        (lambda: erdos_renyi(4, 1.5, rng_seed=1), "p must lie in [0, 1]"),
        (lambda: exact_phi_k(path(4), 0), "k must be at least 1"),
        (lambda: exact_phi_k(path(23), 1), "exhaustive enumeration refused for n=23 > 22"),
        (lambda: exact_phi_k(complete(4), 2), "no nonempty set fits the volume budget"),
        (lambda: exact_phi_k(Graph.from_edges(3, []), 1), "no nonempty set fits the volume budget"),
    ):
        with raises_message(message):
            call()
    assert ring_of_cliques(np.int64(3), np.int64(3)).graph.vertex_count == 9  # NumPy counts
