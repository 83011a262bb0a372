import numpy as np
import pytest

from sparsecut import (
    SparseDistribution,
    WalkSchedule,
    complete,
    erdos_renyi,
    lazy_step,
    path,
    ring_of_cliques,
    run_walk,
    truncated_step,
)
from sparsecut.graph import Graph

from conftest import dense_walk


def stationary(g):
    return g.degrees / g.total_volume


def test_lazy_step_from_single_vertex():
    g = complete(5)
    p = np.zeros(5)
    p[2] = 1.0
    out = lazy_step(g, p)
    assert out[2] == 0.5
    for v in range(5):
        if v != 2:
            assert out[v] == pytest.approx(1 / 8)


def test_lazy_step_fixes_stationary():
    g = ring_of_cliques(4, 4).graph
    pi = stationary(g)
    out = lazy_step(g, pi)
    assert np.allclose(out, pi, atol=1e-15)


def test_lazy_step_path_example():
    g = path(3)
    p = np.zeros(3)
    p[1] = 1.0
    out = lazy_step(g, p)
    assert list(out) == [0.25, 0.5, 0.25]
    # matrix-multiply oracle
    W = np.zeros((3, 3))
    for u in range(3):
        W[u, u] = 0.5
        for w in g.neighbors(u):
            W[u, w] = 0.5 / g.degree(u)
    assert np.allclose(out, p @ W)


def test_lazy_step_preserves_mass():
    g = erdos_renyi(50, 0.2, rng_seed=1)
    rng = np.random.default_rng(0)
    p = rng.random(50)
    p /= p.sum()
    for _ in range(30):
        p = lazy_step(g, p)
        assert abs(p.sum() - 1.0) < 1e-12


def test_lazy_step_isolated_vertex_keeps_mass():
    g = Graph.from_edges(3, [(0, 1)])
    p = np.array([0.0, 0.0, 1.0])
    assert list(lazy_step(g, p)) == [0.0, 0.0, 1.0]


def test_truncated_step_zero_threshold_matches_exact():
    g = erdos_renyi(40, 0.2, rng_seed=3)
    point = np.zeros(40)
    point[7] = 1.0
    # vertex 40 has no neighbors and carries mass from the start
    isolated = Graph.from_edges(
        41, [(u, int(w)) for u in range(40) for w in g.neighbors(u) if u < w]
    )
    spread = np.append(0.75 * point, 0.25)
    rng = np.random.default_rng(4)
    subnormal = np.zeros(40)  # every mass, rate and sum of the walk is subnormal
    subnormal[rng.choice(40, size=6, replace=False)] = rng.random(6) * 1e-310
    for graph, p in ((g, point), (isolated, spread), (g, subnormal)):
        sparse = SparseDistribution.from_dense(p)
        for _ in range(5):
            stepped, kept = truncated_step(graph, sparse, 0.0)
            p = lazy_step(graph, p)
            assert np.array_equal(stepped.to_dense(), p)
            assert np.array_equal(kept.to_dense(), p)
            sparse = kept


def test_truncated_step_star_example():
    # hub plus 10 leaves: leaves get 1/20 = 0.05 < 0.06 * 1 and are zeroed;
    # the hub's 0.5 also falls below 0.06 * 10, so nothing survives
    g = Graph.from_edges(11, [(0, leaf) for leaf in range(1, 11)])
    start = SparseDistribution(np.array([0]), np.array([1.0]), 11)
    stepped, kept = truncated_step(g, start, 0.06)
    dense = stepped.to_dense()
    assert dense[0] == 0.5
    assert np.allclose(dense[1:], 1 / 20)
    assert kept.support.size == 0
    # one step from a point mass equalizes mass/degree over the touched
    # set (hub 0.5/10, leaf 0.05/1), so the cutoff is all-or-nothing here
    _, kept = truncated_step(g, start, 0.05)
    assert kept.support.size == 11


def test_truncated_step_keeps_mass_on_equality():
    # leaf mass exactly at threshold * degree survives
    g = Graph.from_edges(11, [(0, leaf) for leaf in range(1, 11)])
    start = SparseDistribution(np.array([0]), np.array([1.0]), 11)
    _, kept = truncated_step(g, start, 0.05)
    assert kept.support.size == 11


def test_support_spreads_one_hop_only():
    g = erdos_renyi(60, 0.08, rng_seed=9)
    sparse = SparseDistribution(np.array([4]), np.array([1.0]), 60)
    reachable = {4} | set(int(w) for w in g.neighbors(4))
    stepped, kept = truncated_step(g, sparse, 1e-6)
    assert set(stepped.support.tolist()) <= reachable
    assert set(kept.support.tolist()) <= reachable


def test_run_walk_horizon_zero():
    g = complete(4)
    trace = run_walk(g, 2, WalkSchedule(0, 0.0))
    assert len(trace) == 1
    assert list(trace[0]) == [0.0, 0.0, 1.0, 0.0]


def test_run_walk_sandwich_against_dense_oracle():
    g = erdos_renyi(200, 0.05, rng_seed=42)
    eps = 1e-4
    steps = 50
    trace = run_walk(g, 0, WalkSchedule(steps, eps))
    p0 = np.zeros(g.vertex_count)
    p0[0] = 1.0
    exact = dense_walk(g, p0, steps)
    for t in range(steps + 1):
        approx = trace[t].to_dense()
        gap = exact[t] - approx
        assert gap.min() >= 0.0
        assert np.all(gap <= eps * t * g.degrees + 1e-12)


def test_truncated_mass_nonincreasing_and_support_volume_bounded():
    g = ring_of_cliques(10, 10).graph
    eps = 1e-3
    trace = run_walk(g, 0, WalkSchedule(60, eps))
    totals = [d.total() for d in trace]
    assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))
    for dist in trace.distributions[1:]:
        assert dist.support_volume(g) <= 1 / eps
    assert all(v <= 1 / eps for v in trace.touched_volume)


def test_run_walk_rejects_bad_seed():
    g = complete(3)
    with pytest.raises(ValueError):
        run_walk(g, 5, WalkSchedule(1, 0.0))


def test_walk_trace_work_accounting():
    g = complete(6)
    trace = run_walk(g, 0, WalkSchedule(3, 0.0))
    # step 1 touches only the seed, later steps the full clique
    assert trace.touched_volume[0] == g.degree(0)
    assert trace.total_work == sum(trace.touched_volume)
