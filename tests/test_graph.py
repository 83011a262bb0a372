import io

import numpy as np
import pytest

from sparsecut import (
    Graph,
    GraphFormatError,
    barbell,
    complete,
    cut_of,
    erdos_renyi,
    load_edge_list,
    ring_of_cliques,
    write_edge_list,
)
from sparsecut.graph import prefix_cut_profile


def test_load_triangle():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert list(g.degrees) == [2, 2, 2]
    assert g.total_volume == 6
    assert g.connected


def test_load_collapses_duplicates():
    g = load_edge_list(io.StringIO("0 1\n0 1"))
    assert g.edge_count == 1
    assert g.duplicate_edges == 1
    rev = load_edge_list(io.StringIO("0 1\n1 0"))
    assert rev.duplicate_edges == 1


def test_load_compacts_ids_first_seen():
    g = load_edge_list(io.StringIO("7 3\n3 9"))
    # 7 -> 0, 3 -> 1, 9 -> 2
    assert g.vertex_count == 3
    assert set(g.neighbors(1).tolist()) == {0, 2}


def test_load_rejects_self_loop_with_line():
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO("0 1\n2 2"))
    assert err.value.line == 2


def test_load_rejects_malformed_line():
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO("0 1\nnope"))
    assert err.value.line == 2


def test_load_skips_comments_and_blank_lines():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n"))
    assert g.edge_count == 1


def test_load_allows_disconnected():
    g = load_edge_list(io.StringIO("0 1\n2 3"))
    assert not g.connected


def test_round_trip_through_generator():
    g = ring_of_cliques(4, 5).graph
    buf = io.StringIO()
    write_edge_list(g, buf)
    reloaded = load_edge_list(io.StringIO(buf.getvalue()))
    assert reloaded.vertex_count == g.vertex_count
    assert reloaded.edge_count == g.edge_count
    assert np.array_equal(reloaded.indptr, g.indptr)
    assert np.array_equal(reloaded.indices, g.indices)


def test_cut_singleton_in_k4():
    g = complete(4)
    c = cut_of(g, [0])
    assert (c.volume, c.boundary, c.conductance) == (3, 3, 1.0)


def test_cut_barbell_triangle(barbell3):
    c = cut_of(barbell3.graph, [0, 1, 2])
    assert (c.volume, c.boundary) == (7, 1)
    assert c.exact == barbell3.phi_planted


def test_cut_whole_graph_has_zero_conductance(barbell3):
    g = barbell3.graph
    c = cut_of(g, range(g.vertex_count))
    assert c.boundary == 0
    assert c.conductance == 0.0


def test_cut_rejects_empty_and_out_of_range(barbell3):
    with pytest.raises(ValueError):
        cut_of(barbell3.graph, [])
    with pytest.raises(ValueError):
        cut_of(barbell3.graph, [99])


def test_brute_force_oracle_confirms_barbell_count(barbell3):
    # independent recount of (volume, boundary) straight from edge pairs
    g = barbell3.graph
    members = {0, 1, 2}
    volume = sum(g.degree(v) for v in members)
    boundary = 0
    for u in range(g.vertex_count):
        for w in g.neighbors(u):
            if u < w and (u in members) != (int(w) in members):
                boundary += 1
    assert (volume, boundary) == (7, 1)


def test_boundary_symmetry_random_sets():
    rng = np.random.default_rng(3)
    g = erdos_renyi(30, 0.15, rng_seed=11)
    all_v = set(range(g.vertex_count))
    for _ in range(25):
        size = int(rng.integers(1, g.vertex_count))
        s = set(map(int, rng.choice(g.vertex_count, size=size, replace=False)))
        comp = all_v - s
        if not comp or cut_of(g, s).volume == 0:
            continue
        try:
            c1, c2 = cut_of(g, s), cut_of(g, comp)
        except ValueError:
            continue  # zero-volume complement
        assert c1.boundary == c2.boundary
        # independent recount from edge pairs
        assert c1.boundary == sum(
            1
            for u in range(g.vertex_count)
            for w in g.neighbors(u)
            if u < w and (u in s) != (int(w) in s)
        )
        assert 0.0 <= c1.conductance <= 1.0


def test_conductance_zero_iff_component_union():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n3 4"))
    assert cut_of(g, [0, 1, 2]).conductance == 0.0
    assert cut_of(g, [3, 4]).conductance == 0.0
    assert cut_of(g, [0, 1, 2, 3, 4]).conductance == 0.0
    assert cut_of(g, [0, 3]).conductance > 0.0


def test_degree_sum_after_every_load():
    rng = np.random.default_rng(5)
    for trial in range(10):
        g = erdos_renyi(25, float(rng.uniform(0.05, 0.5)), rng_seed=trial)
        assert int(g.degrees.sum()) == 2 * g.edge_count == g.total_volume


def test_prefix_profile_matches_cut_of():
    g = erdos_renyi(20, 0.3, rng_seed=2)
    rng = np.random.default_rng(9)
    order = rng.permutation(g.vertex_count)
    volumes, boundaries = prefix_cut_profile(g, order)
    for j in range(1, g.vertex_count + 1):
        c = cut_of(g, order[:j])
        assert volumes[j - 1] == c.volume
        assert boundaries[j - 1] == c.boundary


def test_prefix_profile_on_subset_ordering():
    g = barbell(4).graph
    order = [0, 5, 1]  # spans both cliques, not all vertices
    volumes, boundaries = prefix_cut_profile(g, order)
    for j in range(1, len(order) + 1):
        c = cut_of(g, order[:j])
        assert volumes[j - 1] == c.volume
        assert boundaries[j - 1] == c.boundary


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
