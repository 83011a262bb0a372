import math

import numpy as np
import pytest

from sparsecut import (
    GlobalParams,
    LocalParams,
    WalkSchedule,
    barbell,
    complete,
    cut_of,
    erdos_renyi,
    exact_phi_k,
    find_local_seed,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    local_partition,
    ring_of_cliques,
    run_walk,
    sweep,
    tight_volume_exponent,
)
from sparsecut.graph import Graph


def stationary(g):
    return g.degrees / g.total_volume


def test_sweep_of_stationary_matches_degree_order_minimum(barbell3):
    g = barbell3.graph
    out = sweep(g, [stationary(g)], g.total_volume)
    assert out.found
    # brute force over degree-ordered prefixes (ties by id)
    order = sorted(range(g.vertex_count), key=lambda v: (-g.degree(v), v))
    best = min(
        (cut_of(g, order[: j + 1]) for j in range(g.vertex_count)),
        key=lambda c: (c.exact, c.volume),
    )
    assert out.best.exact == best.exact


def test_sweep_finds_barbell_triangle(barbell3):
    g = barbell3.graph
    trace = run_walk(g, 0, WalkSchedule(20, 0.0))
    out = sweep(g, trace, 7)
    assert out.found
    assert set(out.best.members) == {0, 1, 2}
    assert out.best.exact == barbell3.phi_planted
    phi, _ = exact_phi_k(g, 7)
    assert out.best.exact == phi


def test_sweep_empty_when_cap_too_small(barbell3):
    g = barbell3.graph
    out = sweep(g, [stationary(g)], 1)  # min degree is 2
    assert not out.found
    assert out.best is None


def test_sweep_rejects_cap_below_one(barbell3):
    with pytest.raises(ValueError):
        sweep(barbell3.graph, [stationary(barbell3.graph)], 0)


def test_sweep_deterministic_tie_breaking():
    g = complete(6)
    out1 = sweep(g, [stationary(g)], 5)
    out2 = sweep(g, [stationary(g)], 5)
    assert out1.best == out2.best
    assert out1.origin == out2.origin
    # only singletons fit a cap of 5; the id-ascending tie order puts
    # vertex 0 first
    assert out1.origin.prefix == 1
    assert out1.best.members == (0,)


def test_global_params_clamping_and_derived():
    params = GlobalParams(k=100, epsilon=0.5)
    assert params.epsilon_effective == 0.01
    assert params.volume_cap == pytest.approx(100.0 ** 1.01)
    assert params.horizon == math.ceil(0.01 * 100**2 * math.log(100) / 4)
    override = GlobalParams(k=100, epsilon=0.5, horizon_override=7)
    assert override.horizon == 7


def test_global_returns_zero_conductance_component():
    g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 0)] + [(i, j) for i in range(3, 8) for j in range(i + 1, 8)])
    assert not g.connected
    params = GlobalParams(k=6, epsilon=0.01, horizon_override=5)
    out = global_sparsest_cut(g, params)
    assert out.found
    assert out.best.conductance == 0.0
    assert set(out.best.members) == {0, 1, 2}


def test_global_ring_of_cliques_bound():
    inst = ring_of_cliques(8, 8)
    g = inst.graph
    k = inst.planted.volume
    eps = 0.01
    params = GlobalParams(k=k, epsilon=eps)
    out = global_sparsest_cut(g, params)
    assert out.found
    phi_k = float(inst.phi_planted)
    assert out.best.conductance <= 4 * math.sqrt(phi_k / eps) + 1e-12
    assert out.best.volume <= params.volume_cap
    # on this instance the sweep recovers the planted optimum exactly
    assert out.best.exact == inst.phi_planted


def test_global_bicriteria_vs_exhaustive_oracle_small_graphs():
    rng = np.random.default_rng(31)
    eps = 0.01
    tried = 0
    for trial in range(60):
        n = int(rng.integers(5, 11))
        g = erdos_renyi(n, float(rng.uniform(0.3, 0.7)), rng_seed=1000 + trial)
        if not g.connected:
            continue
        k = max(int(g.degrees.min()), (2 * g.edge_count) * 2 // 3)
        params = GlobalParams(k=k, epsilon=eps)
        out = global_sparsest_cut(g, params)
        phi_k, _ = exact_phi_k(g, k)
        assert out.found
        assert out.best.volume <= params.volume_cap
        if phi_k < eps:
            assert out.best.conductance <= 4 * math.sqrt(float(phi_k) / eps) + 1e-12
        # the cut may use volume up to the cap, but can never beat the
        # exhaustive optimum at that volume
        cap_phi, _ = exact_phi_k(g, min(g.total_volume, int(params.volume_cap)))
        assert out.best.exact >= cap_phi
        tried += 1
    assert tried >= 40


def test_tight_volume_exponent_cap_arithmetic():
    for k in (10, 100, 1000):
        for eps in (0.1, 0.5):
            reduced = tight_volume_exponent(k, eps)
            assert k ** (1 + reduced) <= (1 + eps) * k + 1e-9
    assert 100 ** (1 + tight_volume_exponent(100, 0.5)) <= 150


def test_tight_volume_rejects_boundary_epsilon():
    g = ring_of_cliques(3, 4).graph
    k = 14
    with pytest.raises(ValueError):
        global_sparsest_cut_tight_volume(g, k, 2 * math.log(k) / k)


def test_tight_volume_run_with_relaxed_bound():
    inst = ring_of_cliques(4, 5)
    g = inst.graph
    k = inst.planted.volume
    eps = 0.5
    out = global_sparsest_cut_tight_volume(g, k, eps)
    assert out.found
    phi_k, _ = exact_phi_k(g, k)
    relaxed = 4 * math.sqrt(2 * float(phi_k) * math.log(k) / eps)
    assert out.best.conductance <= relaxed + 1e-12
    assert out.best.volume <= (1 + eps) * k


def test_local_params_derived_quantities():
    params = LocalParams(seed=0, k=92, phi=2 / 92, epsilon=0.2)
    assert params.horizon == math.ceil(0.2 * math.log(92) / (2 * (2 / 92)))
    assert params.truncation == pytest.approx(92.0 ** -1.2 / (20 * params.horizon))
    assert params.volume_cap == pytest.approx(5 * 92.0 ** 1.2)
    assert params.conductance_threshold == pytest.approx(8 * math.sqrt((2 / 92) / 0.2))
    with pytest.raises(ValueError):
        LocalParams(seed=0, k=92, phi=2 / 92, epsilon=2 / 92)


@pytest.mark.parametrize("epsilon", [0.1, 0.2])
def test_local_recovers_ring_clique(epsilon):
    inst = ring_of_cliques(10, 10)
    g = inst.graph
    phi = float(inst.phi_planted)
    params = LocalParams(seed=0, k=inst.planted.volume, phi=phi, epsilon=epsilon)
    out = local_partition(g, params)
    assert out.found
    assert out.best.conductance <= 8 * math.sqrt(phi / epsilon)
    assert out.best.volume <= params.volume_cap
    assert out.work > 0


def test_local_not_found_on_expander():
    # a complete graph has no sparse cut under a small cap; the acceptance
    # threshold is unreachable and the run reports not-found with its work
    g = complete(60)
    params = LocalParams(seed=0, k=40, phi=0.002, epsilon=0.5)
    assert params.conductance_threshold < 1.0
    out = local_partition(g, params)
    assert not out.found
    assert out.work > 0
    # oracle confirmation: every prefix under the cap is above the threshold
    trace = run_walk(g, 0, WalkSchedule(params.horizon, params.truncation))
    probe = sweep(g, trace, params.volume_cap)
    assert probe.found
    assert probe.best.conductance > params.conductance_threshold


def test_find_local_seed_barbell(barbell3):
    g = barbell3.graph
    params = LocalParams(
        seed=0, k=7, phi=float(barbell3.phi_planted), epsilon=0.5
    )
    vertex = find_local_seed(g, [0, 1, 2], params)
    assert vertex in (0, 1, 2)
    out = local_partition(g, LocalParams(seed=vertex, k=7, phi=float(barbell3.phi_planted), epsilon=0.5))
    assert out.found


def test_find_local_seed_singleton_and_whole_graph():
    g = complete(4)
    # a singleton has conductance exactly 1, so the target must allow it
    loose = LocalParams(seed=0, k=12, phi=1.0, epsilon=0.5)
    assert find_local_seed(g, [1], loose) == 1
    params = LocalParams(seed=0, k=12, phi=0.9, epsilon=0.5)
    assert find_local_seed(g, range(4), params) in range(4)


def test_find_local_seed_validates_budget(barbell3):
    g = barbell3.graph
    params = LocalParams(seed=0, k=5, phi=0.5, epsilon=0.9)
    with pytest.raises(ValueError, match="volume"):
        find_local_seed(g, [0, 1, 2], params)  # vol 7 > k = 5


def test_volume_cap_never_violated_across_grid():
    rng = np.random.default_rng(77)
    for trial in range(10):
        g = erdos_renyi(20, 0.3, rng_seed=500 + trial)
        if not g.connected:
            continue
        k = int(rng.integers(4, g.total_volume))
        params = GlobalParams(k=k, epsilon=0.01, horizon_override=6)
        out = global_sparsest_cut(g, params)
        if out.found:
            assert out.best.volume <= params.volume_cap


def test_global_deterministic():
    inst = ring_of_cliques(4, 4)
    g = inst.graph
    params = GlobalParams(k=14, epsilon=0.01, horizon_override=10)
    a = global_sparsest_cut(g, params)
    b = global_sparsest_cut(g, params)
    assert a.best == b.best and a.origin == b.origin and a.work == b.work


def test_local_work_matches_trace_accounting():
    inst = ring_of_cliques(6, 6)
    params = LocalParams(seed=0, k=inst.planted.volume, phi=float(inst.phi_planted), epsilon=0.2)
    out = local_partition(inst.graph, params)
    trace = run_walk(
        inst.graph, 0, WalkSchedule(params.horizon, params.truncation)
    )
    assert out.work == trace.total_work
    assert out.work <= params.horizon / params.truncation  # vol(support) <= 1/eps'
