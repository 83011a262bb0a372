import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sparsecut import (
    GlobalParams,
    LocalParams,
    Origin,
    PlantedInstance,
    WalkSchedule,
    barbell,
    build_curve,
    complete,
    cut_of,
    erdos_renyi,
    exact_phi_k,
    find_local_seed,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    lazy_step,
    load_edge_list,
    local_partition,
    path,
    ring_of_cliques,
    run_walk,
    sweep,
    tight_volume_exponent,
    write_edge_list,
)
from sparsecut import graph, partition, spectral, walk
from sparsecut.graph import Graph, _gather_rows, prefix_cut_profile
from sparsecut.walk import SparseDistribution

from conftest import raises_message, relabel, traced_peak


def stationary(g):
    return g.degrees / g.total_volume


def reference_sweep(g, trajectory, vol_cap):
    """The sweep that profiles every step's capped order, repeated or not."""
    distributions = list(trajectory)
    work = int(getattr(trajectory, "total_work", 0))
    best_key = best_order = None
    step_min = []
    for t, dist in enumerate(distributions):
        curve = build_curve(g, dist)
        order = curve.vertex_order
        c = int(np.searchsorted(curve.x[1 : order.size + 1], vol_cap, side="right"))
        if c == 0:
            step_min.append(None)
            continue
        volumes, boundaries = prefix_cut_profile(g, order[:c])
        j = partition._select(boundaries, volumes)
        bd, vol = int(boundaries[j]), int(volumes[j])
        step_min.append((bd, vol))
        key = (Fraction(bd, vol), vol, t, j + 1)
        if best_key is None or key < best_key:
            best_key, best_order = key, order
    if best_key is None:
        return partition.SweepOutcome(None, None, work, step_min)
    _, _, t, j = best_key
    return partition.SweepOutcome(
        cut_of(g, best_order[:j]), Origin(seed=None, step=t, prefix=j), work, step_min
    )


def two_components():
    """A triangle beside a K5: the triangle is a zero-conductance cut."""
    k5 = [(i, j) for i in range(3, 8) for j in range(i + 1, 8)]
    return Graph.from_edges(8, [(0, 1), (1, 2), (2, 0)] + k5)


def least_component(g, cap):
    """The least-volume component of volume at most cap, ties to the least member, or None."""
    seen, best = set(), None
    for root in range(g.vertex_count):  # each new root is its component's least vertex
        if root in seen:
            continue
        members, stack = {root}, [root]
        while stack:
            for w in g.neighbors(stack.pop()).tolist():
                if w not in members:
                    members.add(w)
                    stack.append(w)
        seen |= members
        cut = cut_of(g, members)
        if cut.volume <= cap and (best is None or cut.volume < best.volume):
            best = cut
    return best


def per_seed_global(g, params):
    """Loop reference for global_sparsest_cut: one sweep of each seed's own walk.

    Returns (best, origin, work), the winner taken by (conductance, volume,
    step, prefix, seed), under the driver's cap: the whole graph is no cut.
    A component under the cap is answered first, with no walk: the least-volume
    one, ties to the least member, at Origin(least member, 0, size), work 0.
    """
    schedule = WalkSchedule(params.horizon, 0.0)
    cap = min(params.volume_cap, g.total_volume - 1)
    if (component := least_component(g, cap)) is not None:
        size = len(component.members)
        return component, Origin(seed=component.members[0], step=0, prefix=size), 0
    best_key = best = None
    work = 0
    for seed in range(g.vertex_count):
        out = sweep(g, run_walk(g, seed, schedule), cap)
        work += out.work
        if out.found:
            key = (out.best.exact, out.best.volume, out.origin.step, out.origin.prefix, seed)
            if best_key is None or key < best_key:
                best_key, best = key, out.best
    if best_key is None:
        return None, None, work
    return best, Origin(seed=best_key[4], step=best_key[2], prefix=best_key[3]), work


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
    assert params.horizon == math.ceil(0.01 * 100 * math.log(100)) == 5
    override = GlobalParams(k=100, epsilon=0.5, horizon_override=7)
    assert override.horizon == 7
    assert GlobalParams(k=100, epsilon=0.5, horizon_override=np.int64(7)).horizon == 7


def test_global_params_bound_the_horizon():
    # k = 10**8 asks for 18,420,681 steps from every vertex, 10**7 for
    # 1,611,810; k = 10**200 and NumPy ks whose square wraps in int64 too
    for k in (10**7, 10**8, 10**200, np.int64(3_037_000_500), np.int64(4_000_000_000)):
        with pytest.raises(ValueError, match="global horizon exceeds 1000000 steps"):
            GlobalParams(k=k, epsilon=0.5)
    edge = 1e6 / (10**7 * math.log(10**7))  # the epsilon whose horizon is 1,000,000 steps
    assert GlobalParams(k=10**7, epsilon=edge * (1 - 1e-12)).horizon == 1_000_000
    with pytest.raises(ValueError, match="global horizon"):
        GlobalParams(k=10**7, epsilon=edge * (1 + 1e-12))
    assert GlobalParams(k=2, epsilon=0.5, horizon_override=1_000_000).horizon == 1_000_000
    with raises_message("horizon exceeds 1000000 steps"):  # the walk's own horizon check
        GlobalParams(k=2, epsilon=0.5, horizon_override=1_000_001)


def test_global_returns_zero_conductance_component():
    g = two_components()
    assert not g.connected
    params = GlobalParams(k=6, epsilon=0.01, horizon_override=5)
    out = global_sparsest_cut(g, params)
    assert out.found
    assert out.best.conductance == 0.0
    assert set(out.best.members) == {0, 1, 2}
    assert (out.origin, out.work) == (Origin(seed=0, step=0, prefix=3), 0)


def test_global_answers_a_component_under_the_cap_before_walking(monkeypatch):
    # path(40) beside K10, k = 80: the path, of volume 78 under the cap 83.6,
    # has conductance 0, but the horizon ceil(0.01 * 80 * ln 80) = 4 is far
    # below the path's mixing time, and a walk of 4 steps found only 1/17
    edges = [(v, v + 1) for v in range(39)]
    edges += [(40 + i, 40 + j) for i in range(10) for j in range(i + 1, 10)]
    g = Graph.from_edges(50, edges)
    params = GlobalParams(k=80, epsilon=0.01)
    assert params.horizon == 4
    sweeps, steps = record_block_calls(monkeypatch)
    out = global_sparsest_cut(g, params)
    assert (out.best.conductance, out.best.members) == (0.0, tuple(range(40)))
    assert (out.origin, out.work, sweeps, steps) == (Origin(seed=0, step=0, prefix=40), 0, [], [])
    # the K10 first: the path's least member, 10, names the component
    moved = Graph.from_edges(50, [((u + 10) % 50, (v + 10) % 50) for u, v in edges])
    out = global_sparsest_cut(moved, params)
    assert out.best.members == tuple(range(10, 50))
    assert out.origin == Origin(seed=10, step=0, prefix=40)
    # equal volumes tie to the least member; past the cap, the walks run
    g = Graph.from_edges(6, [(3, 4), (4, 5), (5, 3), (0, 1), (1, 2), (2, 0)])
    out = global_sparsest_cut(g, GlobalParams(k=6, epsilon=0.01))
    assert (out.best.members, out.origin) == ((0, 1, 2), Origin(seed=0, step=0, prefix=3))
    params = GlobalParams(k=5, epsilon=0.01)
    out = global_sparsest_cut(g, params)
    assert out.work > 0 and (out.best, out.origin, out.work) == per_seed_global(g, params)


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


@pytest.mark.theorem
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


def test_local_params_reject_non_finite_epsilon():
    # inf overflowed the horizon's ceil, NaN failed to convert to an integer
    for eps in (math.inf, math.nan, -math.inf):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            LocalParams(seed=0, k=92, phi=2 / 92, epsilon=eps)


def test_local_params_bound_the_horizon():
    # phi = 1e-320 overflowed the horizon's ceil; 1e-300 asked for ~3e299 steps
    for phi in (1e-320, 1e-300, 1e-9):
        with pytest.raises(ValueError, match="local horizon exceeds 1000000 steps"):
            LocalParams(seed=0, k=22, phi=phi, epsilon=0.2)
    edge = 0.2 * math.log(22) / 2e6  # the phi whose horizon is 1,000,000 steps
    assert LocalParams(seed=0, k=22, phi=edge * (1 + 1e-12), epsilon=0.2).horizon == 1_000_000
    with pytest.raises(ValueError, match="local horizon"):
        LocalParams(seed=0, k=22, phi=edge * (1 - 1e-12), epsilon=0.2)


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


def test_find_local_seed_makes_the_set_cut_once(monkeypatch):
    # one cut checks the set's volume and conductance; the seed search counts
    # its escape bound from the arcs it gathers: one cut_of per find_local_seed
    g = ring_of_cliques(200, 20).graph
    params = LocalParams(seed=0, k=382, phi=2 / 382, epsilon=0.2)
    calls = []
    for module in (partition, spectral):
        real = module.cut_of
        monkeypatch.setattr(module, "cut_of", lambda g, m, real=real: calls.append(1) or real(g, m))
    for members, phi in ((range(20, 40), params.phi), (range(40, 60), 1.0), ([5], 1.0)):
        calls.clear()
        assert find_local_seed(g, members, dataclasses.replace(params, phi=phi)) in members
        assert len(calls) == 1


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
    list(trace)
    assert out.work == trace.total_work
    assert out.work <= params.horizon / params.truncation  # vol(support) <= 1/eps'


def test_sweep_builds_each_curve_once(monkeypatch, barbell3):
    # a dense step's order comes from its curve, a walk step's from its
    # walk plan, with no curve built, the exact walk's too
    g = barbell3.graph
    calls = []

    def counting(g, p):
        calls.append(1)
        return build_curve(g, p)

    monkeypatch.setattr(partition, "build_curve", counting)
    exact = list(run_walk(g, 0, WalkSchedule(20, 0.0)))
    dense = [d.to_dense() for d in exact]
    sparse = list(run_walk(g, 0, WalkSchedule(20, 1e-3)))
    cases = ((dense, 21), (exact, 0), (sparse, 0), (dense[:5] + sparse[5:], 5))
    for trajectory, curves in cases:
        calls.clear()
        out = sweep(g, trajectory, 7)
        assert out.found
        assert len(calls) == curves
        ref = reference_sweep(g, trajectory, 7)
        assert (out.best, out.origin, out.step_min_cut) == (ref.best, ref.origin, ref.step_min_cut)
    calls.clear()
    assert local_partition(g, LocalParams(seed=0, k=7, phi=0.1, epsilon=0.5)).found
    assert not calls


def test_capped_sweep_matches_uncapped_profile(monkeypatch):
    # reference: every prefix of the full curve order, the lowest
    # (conductance, volume, prefix) under the cap taken in exact arithmetic
    inst = relabel(ring_of_cliques(6, 6), 4)
    g = inst.graph
    cap = 2.5 * inst.planted.volume
    profiled = []

    def recording(g, order, merge=None):
        profiled.append(int(g.degrees[order].sum()))
        return prefix_cut_profile(g, order, merge)

    monkeypatch.setattr(partition, "prefix_cut_profile", recording)
    for schedule in (WalkSchedule(30, 0.0), WalkSchedule(30, 1e-4)):
        dists = list(run_walk(g, 5, schedule))
        out = sweep(g, dists, cap)
        expected = []
        for dist in dists:
            volumes, boundaries = prefix_cut_profile(g, build_curve(g, dist).vertex_order)
            fits = [
                (Fraction(int(b), int(v)), int(v), j, int(b))
                for j, (v, b) in enumerate(zip(volumes, boundaries))
                if v <= cap
            ]
            _, vol, _, bd = min(fits) if fits else (None, None, None, None)
            expected.append((bd, vol) if fits else None)
        assert out.step_min_cut == expected
    assert 0 < max(profiled) <= cap


def block_step_cases(rng):
    for trial in range(20):
        n = int(rng.integers(2, 40))
        yield erdos_renyi(n, float(rng.uniform(0.1, 0.8)), rng_seed=300 + trial)
    yield Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3)])  # 4 is isolated
    yield hub_graph()


def hub_graph():
    """ER(120, 0.08) with vertex 0 joined to all others: most slots are partial."""
    g = erdos_renyi(120, 0.08, rng_seed=3)
    arcs = np.stack([np.repeat(np.arange(120), g.degrees), g.indices], axis=1)
    spokes = np.stack([np.zeros(119, dtype=np.int64), np.arange(1, 120)], axis=1)
    return Graph.from_edges(120, np.concatenate([arcs, spokes]))


def test_block_step_every_column_as_lazy_step():
    # a block is stepped slot by slot over the degree-sorted vertices, and
    # each vertex adds its neighbors in ascending id order, as bincount does
    rng = np.random.default_rng(8)
    for g in block_step_cases(rng):
        n = g.vertex_count
        rank, sources = g._slots
        slots = [[sources[j][rank[v]] for j in range(g.degree(v))] for v in range(n)]
        assert np.array_equal(np.array(sum(slots, []), dtype=np.int64), g.indices)
        for b in range(1, 6):
            block = rng.random((n, b)) * (rng.random((n, b)) < 0.6)
            block[: n // 3] *= 1e-310  # subnormal masses
            out = lazy_step(g, block)
            assert out.shape == (n, b)
            for col, got in zip(block.T, out.T):
                assert got.tobytes() == lazy_step(g, col).tobytes()
        for bad in (np.zeros((n + 1, 2)), np.zeros((n, 2, 2))):
            with raises_message("distribution length does not match vertex count"):
                lazy_step(g, bad)
    assert g.degree(0) == 119 and sources[30].size == 1  # the hub graph came last


def test_block_candidates_follow_build_curve():
    # ties in p/d, zero masses, and a positive mass whose ratio underflows
    # to zero must all order as build_curve orders them
    g = relabel(ring_of_cliques(4, 5), 2).graph
    n = g.vertex_count
    rng = np.random.default_rng(3)
    rows = np.round(rng.random((6, n)), 1) * g.degrees
    rows[:, ::3] = 0.0
    rows[0, 1] = 5e-324
    rows[1] = 0.0
    rows[1, 7] = 1.0
    rates = rows / g.degrees
    assert rates[0, 1] == 0.0 < rows[0, 1]
    cap = g.total_volume
    # no previous step: every row with a fitting prefix is profiled
    order, row, size, boundaries, volumes = partition._block_candidates(
        g, rows, n, cap, np.full((rows.shape[0], n), -1), rows > 0
    )
    for i in range(rows.shape[0]):
        curve_order = build_curve(g, rows[i]).vertex_order
        assert np.array_equal(order[i, : curve_order.size], curve_order)
        mine = row == i
        assert np.array_equal(size[mine], np.arange(1, curve_order.size + 1))
        vols, bnds = prefix_cut_profile(g, curve_order)
        assert np.array_equal(volumes[mine], vols)
        assert np.array_equal(boundaries[mine], bnds)
    # candidates are listed by prefix size, then row
    assert np.all(np.diff(size) >= 0)
    assert np.all(np.diff(row)[np.diff(size) == 0] > 0)


def test_block_candidates_rank_past_255_prefixes():
    # c = 300 needs a rank table wider than one byte
    g = Graph.from_edges(300, [(v, (v + 1) % 300) for v in range(300)])
    rows = np.random.default_rng(5).random((3, 300))
    rows[2, ::7] = 0.0
    order, row, size, boundaries, volumes = partition._block_candidates(
        g, rows, 300, 600.0, np.full((3, 300), -1), rows > 0
    )
    for i in range(3):
        vols, bnds = prefix_cut_profile(g, build_curve(g, rows[i]).vertex_order)
        assert np.array_equal(volumes[row == i], vols)
        assert np.array_equal(boundaries[row == i], bnds)


def reference_block_candidates(g, rows, c, cap):
    """The block sweep by one stable argsort of every row's keys: the selection's reference."""
    key = np.divide(rows, -g.degrees, out=np.full(rows.shape, np.inf), where=rows > 0)
    order = np.argsort(key, axis=1, kind="stable")[:, :c].copy()
    volumes = np.cumsum(g.degrees[order], axis=1)
    fits = (np.take_along_axis(rows, order, axis=1) > 0) & (volumes <= cap)
    pos, row = np.nonzero(fits.T)
    swept = order[row, pos]
    rank = np.full(rows.shape, c, dtype=np.min_scalar_type(c))
    rank[row, swept] = pos
    deg = g.degrees[swept]
    arc_row = np.repeat(row, deg)
    last = np.maximum(np.repeat(pos, deg), rank[arc_row, _gather_rows(g, swept)])
    joined = np.bincount(arc_row * (c + 1) + last, minlength=rows.shape[0] * (c + 1))
    inside = np.cumsum(joined.reshape(-1, c + 1)[:, :c], axis=1)
    return order, fits, row, pos + 1, (volumes - inside)[row, pos], volumes[row, pos]


def test_block_candidates_select_the_stable_argsort_prefix():
    # the partition selection keeps each row's first c positive entries in
    # stable argsort order of -p/d: ties by id, underflowed rates (-0.0),
    # zero masses (the argsort's +inf keys), infinite masses, c = 0, c = n,
    # and rows with fewer than c positive entries
    rng = np.random.default_rng(17)
    graphs = [ring_of_cliques(4, 5).graph, barbell(7).graph, erdos_renyi(40, 0.2, rng_seed=3)]
    checked = short = 0
    for trial in range(150):
        g = graphs[trial % len(graphs)]
        if np.any(g.degrees == 0):
            continue
        n = g.vertex_count
        b = int(rng.integers(1, 9))
        rows = np.round(rng.random((b, n)), 1) * g.degrees  # ties in p/d
        rows *= rng.random((b, n)) < rng.uniform(0.05, 1.0)  # zero masses
        rows[rng.random((b, n)) < 0.05] = 5e-324  # rates that underflow to -0.0
        rows[rng.random((b, n)) < 0.01] = np.inf
        rows[0] = 0.0 if trial % 5 == 0 else rows[0]  # a row with no mass
        c = int(rng.choice([0, 1, n, int(rng.integers(0, n + 1))]))
        cap = float(rng.choice([g.total_volume, rng.integers(1, g.total_volume + 1)]))
        short += check_block_candidates(g, rows, c, cap)
        checked += 1
    assert checked >= 100 and short >= 20
    # the padded block: rows whose positive keys all tie (mass in proportion
    # to degree), so it is as wide as the row; more ties at the bound than c;
    # and c above every row's kept count, so it is c wide
    cycle = Graph.from_edges(12, [(v, (v + 1) % 12) for v in range(12)])
    other = erdos_renyi(40, 0.2, rng_seed=3)
    for g, c in ((complete(8), 1), (complete(8), 3), (cycle, 3), (cycle, 5), (other, 4)):
        n = g.vertex_count
        rows = np.outer([1e-3, 0.5, 2.0, 1.0], g.degrees)
        rows[1, ::3] = 0.0  # fewer positive entries, all still tied
        rows[3, 2:4] *= 3.0  # two tied keys below the others: the bound's tie
        kept = kept_counts(g, rows, c)
        assert kept.max() == n and kept[1] == n - len(range(0, n, 3)) and kept[3] > c
        for cap in (g.total_volume, 3.0 * g.degrees.max()):
            check_block_candidates(g, rows, c, cap)
    for g in (complete(8), cycle, other):
        n = g.vertex_count
        rows = np.zeros((5, n))
        for i in range(5):  # two positive entries a row, their keys tied in even rows
            rows[i, [i, n - 1 - i]] = g.degrees[[i, n - 1 - i]] * [0.25, 0.25 * (1 + i % 2)]
        for c in (3, n - 1, n):
            assert kept_counts(g, rows, c).max() == 2 < c
            assert check_block_candidates(g, rows, c, g.total_volume)


def kept_counts(g, rows, c):
    """Each row's count of positive entries whose key is at most its c-th smallest."""
    key = rows / -g.degrees
    return ((rows > 0) & (key <= np.sort(key, axis=1)[:, [c - 1]])).sum(axis=1)


def check_block_candidates(g, rows, c, cap):
    """Assert that the block selection equals the reference. Return whether a row has fewer
    than c positive entries, when the cap lets every one of them fit."""
    b = rows.shape[0]
    order, row, size, boundaries, volumes = partition._block_candidates(
        g, rows, c, cap, np.full((b, c), -1), rows > 0
    )
    want_order, fits, *want = reference_block_candidates(g, rows, c, cap)
    assert order.shape == (b, c)
    assert np.array_equal(order, np.where(fits, want_order, -1))
    for got, expected in zip((row, size, boundaries, volumes), want):
        assert np.array_equal(got, expected)
    if cap == g.total_volume:  # every positive entry among the first c fits
        positive = (rows > 0).sum(axis=1)
        assert np.array_equal((order >= 0).sum(axis=1), np.minimum(positive, c))
        return bool((positive < c).any())
    return False


def equivalence_cases():
    cases = []
    for seed in (1, 2):
        for base in (ring_of_cliques(4, 5), barbell(7), ring_of_cliques(8, 8)):
            inst = relabel(base, seed)
            cases.append((inst.graph, GlobalParams(k=inst.planted.volume, epsilon=0.01)))
    inst = relabel(ring_of_cliques(5, 6), 3)
    params = GlobalParams(k=inst.planted.volume, epsilon=0.01, horizon_override=0)
    cases.append((inst.graph, params))
    cases.append((two_components(), GlobalParams(k=6, epsilon=0.01, horizon_override=5)))
    cases.append((complete(8), GlobalParams(k=4, epsilon=0.01)))  # cap below every degree
    # partial slots: a hub over sparse rows, and two cliques of which two vertices hold the bridge
    cases.append((hub_graph(), GlobalParams(k=40, epsilon=0.01, horizon_override=12)))
    inst = barbell(15)
    cases.append((inst.graph, GlobalParams(k=inst.planted.volume, epsilon=0.01)))
    rng = np.random.default_rng(12)
    horizons = (0, 1, 7, 40)
    for trial in range(16):
        n, p = int(rng.integers(5, 30)), float(rng.uniform(0.1, 0.7))
        g = erdos_renyi(n, p, rng_seed=700 + trial)
        if np.any(g.degrees == 0):
            continue
        k = int(rng.integers(2, g.total_volume + 1))
        cases.append((g, GlobalParams(k=k, epsilon=0.01, horizon_override=horizons[trial % 4])))
    return cases


def record_block_calls(monkeypatch):
    """Lists of the rows of each global sweep and the (graph, block shape) of each lazy_step."""
    sweeps, steps = [], []
    sweep_block, step = partition._block_candidates, walk.lazy_step

    def sweeping(g, rows, c, cap, *state):
        sweeps.append(rows.shape[0])
        return sweep_block(g, rows, c, cap, *state)

    def stepping(g, p):
        steps.append((g, p.shape))
        return step(g, p)

    monkeypatch.setattr(partition, "_block_candidates", sweeping)
    monkeypatch.setattr(walk, "lazy_step", stepping)
    return sweeps, steps


def test_global_equals_per_seed_reference(monkeypatch):
    cases = equivalence_cases()
    assert len(cases) >= 20
    sweeps, steps = record_block_calls(monkeypatch)
    several_blocks = components = 0
    for g, params in cases:
        n = g.vertex_count
        expected = per_seed_global(g, params)
        cap = min(params.volume_cap, g.total_volume - 1)
        component = least_component(g, cap) is not None
        walked = 0 if component else params.horizon  # sweeps a block: steps 1..T, step 0 has none
        width = max(n, int(cap))  # a row's cells
        q = next(q for q in range(2, n) if n % q)
        # one row a block, a few rows a block, every seed in one block, and
        # blocks of q >= 2 rows, the last one short
        for block_arcs in (1, 3 * g.total_volume, 1 << 20, (q + 1) * width - 1):
            monkeypatch.setattr(partition, "BLOCK_ARCS", block_arcs)
            sweeps.clear()
            steps.clear()
            out = global_sparsest_cut(g, params)
            assert (out.best, out.origin, out.work) == expected
            # one lazy_step of the whole block a step, on the graph itself
            b = max(1, block_arcs // width)
            blocks = [min(b, n - s) for s in range(0, n, b)]
            assert sweeps == [b for b in blocks for _ in range(walked)]
            assert steps == [(g, (n, b)) for b in blocks for _ in range(max(walked - 1, 0))]
        several_blocks += walked > 0 and blocks == [q] * (n // q) + [n % q]
        components += component
    # most cases step several blocks of two rows or more, and a few are answered by a component
    assert several_blocks >= 10 and components >= 1


def test_global_rejects_mass_on_isolated_vertex():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="mass on a zero-degree vertex"):
        global_sparsest_cut(g, GlobalParams(k=2, epsilon=0.01, horizon_override=3))


def test_global_memory_stays_bounded():
    # the search holds one block of walk rows, never a trajectory: the
    # peak stays far below the 120 x 120 x 97 states the walks visit
    inst = ring_of_cliques(12, 10)
    params = GlobalParams(k=92, epsilon=0.01, horizon_override=96)
    out, peak = traced_peak(lambda: global_sparsest_cut(inst.graph, params))
    assert out.best.exact == inst.phi_planted
    assert out.work == 11_819_232
    assert peak < 1_000_000


def test_global_memory_stays_bounded_under_a_large_cap():
    # a row sweeps up to cap arcs, so a cap near the total volume shrinks
    # the sweep block: the peak stays near the small-cap one, not B x cap
    g = erdos_renyi(100, 0.5, rng_seed=1)
    params = GlobalParams(k=g.total_volume // 2, epsilon=0.01, horizon_override=3)
    expected = global_sparsest_cut(g, params)  # also loads what numpy imports lazily
    out, peak = traced_peak(lambda: global_sparsest_cut(g, params))
    assert (out.best, out.origin, out.work) == (expected.best, expected.origin, expected.work)
    assert peak < 1_000_000


def test_global_sweeps_each_step_of_a_block_in_one_call(monkeypatch):
    # ring_of_cliques(12, 10): one 120 x 120 block holds every seed, so a
    # 96-step solve is 96 sweeps, steps 1 to 96, and 95 steps of the whole
    # block: step 0 and the step out of it are written directly
    g = ring_of_cliques(12, 10).graph
    params = GlobalParams(k=92, epsilon=0.01, horizon_override=96)
    sweeps, steps = record_block_calls(monkeypatch)
    out = global_sparsest_cut(g, params)
    n, horizon = g.vertex_count, params.horizon
    assert (n, horizon, partition.BLOCK_ARCS // n) == (120, 96, 136)
    assert sweeps == [n] * horizon
    assert steps == [(g, (n, n))] * (horizon - 1)
    assert out.work == 11_819_232
    # the default horizon ceil(0.01 * 92 * ln 92) = 5 finds the same 1/46 cut
    sweeps.clear()
    steps.clear()
    params = GlobalParams(k=92, epsilon=0.01)
    out = global_sparsest_cut(g, params)
    assert (params.horizon, sweeps, steps) == (5, [n] * 5, [(g, (n, n))] * 4)
    assert (out.best.exact, out.origin, out.work) == (Fraction(1, 46), Origin(0, 1, 10), 98_640)


def test_global_profiles_only_rows_whose_capped_order_changed(monkeypatch):
    # a row whose capped order repeats the previous step's has the same
    # prefixes a step later, so it adds no candidate: on ring_of_cliques(12,
    # 10), 1,226 of the 11,520 row-steps of steps 1 to 96 are profiled, with
    # the same 96 sweeps, 95 block steps and result; step 1 profiles every
    # row, as no row's capped order is its seed alone
    g = ring_of_cliques(12, 10).graph
    params = GlobalParams(k=92, epsilon=0.01, horizon_override=96)
    sweeps, steps = record_block_calls(monkeypatch)
    recorded = partition._block_candidates
    profiled = []

    def tallying(g, rows, c, cap, capped, positive):
        before = capped.copy()
        order, row, *rest = recorded(g, rows, c, cap, capped, positive)
        assert np.array_equal(capped, order)
        changed = np.flatnonzero((order != before).any(axis=1))
        assert np.array_equal(np.unique(row), changed)
        profiled.append(changed.size)
        return (order, row, *rest)

    monkeypatch.setattr(partition, "_block_candidates", tallying)
    out = global_sparsest_cut(g, params)
    assert sweeps == [120] * 96
    assert len(steps) == 95
    assert sum(profiled) == 1226 and profiled[:2] == [120, 24]
    assert (out.best.exact, out.origin, out.work) == (Fraction(1, 46), Origin(0, 1, 10), 11_819_232)
    # each block's orders start from its seeds: vertex 0 hangs off a
    # triangle, only one vertex fits the cap, and seed 0's order [0] never
    # changes, so no step past 0 adds a candidate, yet its step-0 singleton wins
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    params = GlobalParams(k=2, epsilon=0.01, horizon_override=3)
    out = global_sparsest_cut(g, params)
    assert out.origin == Origin(seed=0, step=0, prefix=1)
    assert (out.best, out.origin, out.work) == per_seed_global(g, params)


def test_global_first_step_is_the_lazy_step_of_point_masses():
    # a block's step 1 is written directly, equal bit for bit to stepping the
    # identity block: blocks of 1, 4, 7 and n seeds, from 0 and past 0, each
    # graph with a short last block
    def planted(g):
        return PlantedInstance(g, cut_of(g, [0]), cut_of(g, [0]).exact)

    pendant = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4), (4, 5)])
    assert pendant.degrees.min() == 1
    bases = (ring_of_cliques(4, 5), barbell(7), planted(hub_graph()), planted(pendant))
    for seed, base in enumerate(bases):
        g = relabel(base, seed).graph
        n = g.vertex_count
        for block in (1, 4, 7, n):
            for first in range(0, n, block):
                b = min(block, n - first)
                got = partition._first_step(g, np.arange(first, first + b))
                want = lazy_step(g, np.eye(n, b, -first))
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert {n % block for block in (4, 7)} - {0}


def test_global_step_zero_winner(monkeypatch):
    # only sets of conductance 1 fit the cap, so a seed alone at step 0 wins:
    # the least degree, then the least id. A star's leaves at k = 2 are
    # singletons below the center; in K(2, 5) at k = 5 the degree-5 vertices
    # 0 and 1 fit too, yet lose to the degree-2 vertex 2 on volume
    star = Graph.from_edges(7, [(0, v) for v in range(1, 7)])
    k25 = Graph.from_edges(7, [(u, v) for u in (0, 1) for v in range(2, 7)])
    for g, k, seed in ((star, 2, 1), (k25, 5, 2)):
        n, params = g.vertex_count, GlobalParams(k=k, epsilon=0.01, horizon_override=4)
        expected = per_seed_global(g, params)
        assert expected[1] == Origin(seed=seed, step=0, prefix=1)
        width = max(n, int(min(params.volume_cap, g.total_volume - 1)))
        q = next(q for q in range(2, n) if n % q)
        for block_arcs in (1, 3 * g.total_volume, 1 << 20, (q + 1) * width - 1):
            monkeypatch.setattr(partition, "BLOCK_ARCS", block_arcs)
            out = global_sparsest_cut(g, params)
            assert (out.best, out.origin, out.work) == expected


def test_load_memory_stays_bounded(tmp_path):
    # the bulk loader holds a few bytes per input byte and a few int64 per
    # id, never a Python object per line or edge
    g = ring_of_cliques(200, 20).graph
    path = tmp_path / "ring.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    loaded, peak = traced_peak(lambda: load_edge_list(path))
    assert np.array_equal(loaded.indices, g.indices)
    assert peak < 16 * path.stat().st_size


def test_local_query_memory_does_not_grow_with_n():
    # the local path looks vertices up in the walk's support, never in an
    # array of length n, so the same work on a 100x longer ring takes the
    # same memory
    params = LocalParams(seed=5, k=382, phi=2 / 382, epsilon=0.2)
    runs = []
    for r in (200, 20000):
        n = 20 * r
        g = ring_of_cliques(r, 20).graph
        out, peak = traced_peak(lambda: local_partition(g, params))
        # the cut as offsets around the ring from vertex 0
        around = sorted(v if v < n // 2 else v - n for v in out.best.members)
        runs.append(((out.work, around, out.best.boundary, out.best.volume), peak))
    (small, small_peak), (big, big_peak) = runs
    assert small == big
    assert small[0] == 132_189
    assert abs(big_peak - small_peak) < 64 * 1024


def test_local_query_memory_does_not_grow_with_the_horizon():
    # the sweep reads the walk as it steps: at horizon 3,634 the query holds
    # one distribution and a (boundary, volume) pair a step, not 3,635 steps
    g = ring_of_cliques(200, 20).graph
    g.degrees  # cached before the count: the graph's own arrays are not the query's
    params = LocalParams(seed=5, k=382, phi=2 / 382 / 32, epsilon=0.2)
    assert params.horizon == 3634
    out, peak = traced_peak(lambda: local_partition(g, params))
    assert len(out.step_min_cut) == params.horizon + 1
    assert peak < 2_000_000


def test_walk_trace_is_one_pass_that_sweep_reads_as_it_steps(monkeypatch, barbell3):
    g = barbell3.graph
    steps = []
    for name in ("lazy_step", "truncated_step"):
        step = getattr(walk, name)
        monkeypatch.setattr(walk, name, lambda *args, step=step: steps.append(1) or step(*args))
    for truncation in (0.0, 1e-3):
        schedule = WalkSchedule(20, truncation)
        steps.clear()
        trace = run_walk(g, 0, schedule)
        assert trace.touched_volume == [] and trace.total_work == 0
        assert not hasattr(trace, "distributions")
        first = next(iter(trace))  # p_0 takes no step
        assert not steps
        dists = [first, *trace]
        assert len(dists) == 21 and len(trace.touched_volume) == 20 == len(steps)
        assert list(trace) == []  # a second pass yields nothing
        with raises_message("trajectory must be nonempty"):
            sweep(g, trace, 7)
        stream = run_walk(g, 0, schedule)
        out, ref = sweep(g, stream, 7), sweep(g, dists, 7)
        assert out.found
        assert (out.best, out.origin, out.step_min_cut) == (ref.best, ref.origin, ref.step_min_cut)
        assert out.work == stream.total_work == trace.total_work > 0
        assert ref.work == 0  # a list carries no accounting


def test_walk_stops_stepping_once_its_support_is_empty(monkeypatch):
    # the vertex-7 walk of erdos_renyi(2000, 0.004) at threshold 3e-5 is
    # empty from step 23 of 150: it takes 23 truncated steps, not 150, and
    # yields and counts what a truncated step every time yields and counts
    g = erdos_renyi(2000, 0.004, rng_seed=1)
    schedule = WalkSchedule(150, 3e-5)
    expected, touched = [SparseDistribution([7], [1.0], 2000)], []
    for _ in range(150):
        touched.append(expected[-1].support_volume(g))
        expected.append(walk.truncated_step(g, expected[-1], 3e-5)[1])
    assert [d.support.size == 0 for d in expected].index(True) == 23
    steps = []
    step = walk.truncated_step
    monkeypatch.setattr(walk, "truncated_step", lambda *args: steps.append(1) or step(*args))
    trace = run_walk(g, 7, schedule)
    for got, want in zip(trace, expected, strict=True):
        assert np.array_equal(got.support, want.support)
        assert got.mass.tobytes() == want.mass.tobytes()
    assert len(steps) == 23
    assert trace.touched_volume == touched and trace.total_work == 36_963
    out = sweep(g, run_walk(g, 7, schedule), 5000)
    ref = reference_sweep(g, run_walk(g, 7, schedule), 5000)
    assert (out.best, out.origin, out.work) == (ref.best, ref.origin, ref.work)
    assert out.step_min_cut == ref.step_min_cut
    # a start that the threshold drops takes no step at all
    steps.clear()
    dropped = run_walk(g, 7, WalkSchedule(10, 1.0))
    assert [d.support.size for d in dropped] == [0] * 11
    assert not steps and dropped.touched_volume == [0] * 10


def test_sweep_matches_reference_on_repeated_orders(monkeypatch):
    # the sweep skips the profile of a step whose capped order repeats the
    # previous step's; every field must equal the profile-every-step loop
    inst = relabel(ring_of_cliques(6, 6), 4)
    g = inst.graph
    cap = 2.5 * inst.planted.volume
    hub = int(np.argmax(g.degrees))
    star = Graph.from_edges(11, [(0, leaf) for leaf in range(1, 11)])
    point = SparseDistribution([0], [1.0], 11)  # the hub alone: nothing fits a cap of 5
    leaves = SparseDistribution([0, 3, 4], [0.2, 0.3, 0.5], 11)
    trajectories = [(star, [leaves, point, leaves, leaves, point, point, leaves], 5)]
    # one plan, two orders that agree up to the shorter capped order: [0, 1, 2] fits a cap
    # of 7, [0, 1, 3] does not, so the second order's count of 2 repeats nothing
    hooked = Graph.from_edges(8, [(0, 1), (0, 2), (1, 2), (2, 3)] + [(3, v) for v in range(4, 8)])
    triangle = SparseDistribution([0, 1, 2, 3], [0.4, 0.3, 0.3, 0.25], 8)
    hub_third = SparseDistribution(triangle.support, [0.4, 0.3, 0.15, 0.5], 8)
    hub_third._plan = walk._plan_of(hooked, triangle)
    trajectories.append((hooked, [triangle, hub_third, triangle, hub_third], 7))
    rng = np.random.default_rng(11)
    for seed, truncation in ((5, 1e-4), (hub, 1e-3), (0, 0.0), (9, 2e-3)):
        dists = list(run_walk(g, seed, WalkSchedule(25, truncation)))
        trajectories.append((g, dists, cap))
        # repeated identical distributions, and equal orders with other masses
        padded = [dists[0], dists[0]]
        for d in dists[1:8]:
            sparse = isinstance(d, SparseDistribution)
            half = SparseDistribution(d.support, 0.5 * d.mass, d.size) if sparse else 0.5 * d
            padded += [d, d, half]
        trajectories.append((g, padded, cap))
        dense = [d.to_dense() if isinstance(d, SparseDistribution) else d for d in padded]
        trajectories.append((g, dense, cap))
        # dense steps inside runs of one plan
        trajectories.append((g, [dense[i] if i % 4 == 1 else d for i, d in enumerate(padded)], cap))
        sampled = [padded[i] for i in np.sort(rng.choice(len(padded), 12))]
        trajectories.append((g, sampled, 1.5 * inst.planted.volume))
    # a walk whose support empties at step 23 and stays empty: one run of empty steps
    sparse_er = erdos_renyi(2000, 0.004, rng_seed=1)
    emptied = list(run_walk(sparse_er, 7, WalkSchedule(150, 3e-5)))
    trajectories.append((sparse_er, emptied, 5000))
    profiled = []

    def recording(g, order, merge=None):
        profiled.append(order.size)
        return prefix_cut_profile(g, order, merge)

    monkeypatch.setattr(partition, "prefix_cut_profile", recording)
    swept = 0
    refs = []
    for graph, trajectory, vol_cap in trajectories:
        out = sweep(graph, trajectory, vol_cap)
        ref = reference_sweep(graph, trajectory, vol_cap)
        assert out.best == ref.best
        assert out.origin == ref.origin
        assert out.work == ref.work
        assert out.step_min_cut == ref.step_min_cut
        swept += sum(m is not None for m in ref.step_min_cut)
        refs.append(ref)
    assert len(profiled) < swept // 2
    # the star trajectory: c = 0 between equal orders, then a repeated c = 0
    star_out = sweep(star, trajectories[0][1], 5)
    assert star_out.step_min_cut[1] is None and star_out.step_min_cut[5] is None
    assert star_out.step_min_cut[0] == star_out.step_min_cut[2] is not None
    assert star_out.origin.step == 0
    empty = [d.support.size == 0 for d in emptied].index(True)
    assert 0 < empty < 40 and all(d.support.size == 0 for d in emptied[empty:])
    assert refs[-1].step_min_cut[empty:] == [None] * (151 - empty)
    # runs cut short by the cell bound: a bound of k * s cells cuts each run
    # of support s to k steps, so the next run starts on the same plan
    blocks = []
    runs = partition._ordered_runs

    def recording_blocks(g, trajectory):
        for block in runs(g, trajectory):
            blocks.append(block[2].shape)
            yield block

    monkeypatch.setattr(partition, "_ordered_runs", recording_blocks)
    longest = set()
    for (graph, trajectory, vol_cap), ref in zip(trajectories, refs):
        sizes = {d.support.size for d in trajectory if isinstance(d, SparseDistribution)}
        for k, s in itertools.product((1, 2, 3), sizes):
            monkeypatch.setattr(partition, "RUN_CELLS", k * max(s, 1))
            blocks.clear()
            out = sweep(graph, trajectory, vol_cap)
            assert (out.best, out.origin, out.work) == (ref.best, ref.origin, ref.work)
            assert out.step_min_cut == ref.step_min_cut
            assert sum(rows for rows, _ in blocks) == len(trajectory)
            run = max(rows for rows, cols in blocks if cols == s)
            assert run <= k
            longest.add(run)
    assert longest == {1, 2, 3}


def test_local_query_reuses_plans_and_profiles(monkeypatch):
    # the query of the memory test above: its walk keeps the same support
    # over runs of steps and its capped order repeats, so the walk merges a
    # support once per run of equal supports and the sweep profiles an order
    # once per run of equal capped orders, where a step-by-step run makes 114
    # merges and 115 profiles; every profile reads the walk's plan, and the
    # winner is the swept prefix with its profiled pair, so nothing is merged
    # outside the walk
    g = ring_of_cliques(200, 20).graph
    params = LocalParams(seed=5, k=382, phi=2 / 382, epsilon=0.2)
    counts = {"merge": 0, "profile": 0, "lookup": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(walk, "_merge", counted("merge", walk._merge))
    monkeypatch.setattr(graph, "_merge", counted("lookup", graph._merge))
    monkeypatch.setattr(
        partition, "prefix_cut_profile", counted("profile", partition.prefix_cut_profile)
    )
    out = local_partition(g, params)
    assert params.horizon == 114
    assert counts == {"merge": 5, "profile": 54, "lookup": 0}
    assert out.best.exact == Fraction(2, 1146)
    assert out.origin == Origin(seed=5, step=3, prefix=60)
    assert out.work == 132_189


@dataclasses.dataclass(frozen=True)
class ScheduledParams(LocalParams):
    """LocalParams with a given horizon and walk threshold in place of derived ones."""

    steps: int = 0
    threshold: float = 0.0

    @property
    def horizon(self):
        return self.steps

    @property
    def truncation(self):
        return self.threshold


def test_local_partition_equals_reference_sweep():
    # the sweep orders a sparse step through its walk plan, not build_curve,
    # and the local cap leaves the whole graph out: every field must equal
    # the build_curve loop's under that cap, on supports that change often
    rng = np.random.default_rng(18)
    graphs = [
        relabel(ring_of_cliques(10, 6), 5).graph,
        relabel(ring_of_cliques(12, 4), 6).graph,
        relabel(barbell(5), 7).graph,
        relabel(barbell(12), 8).graph,
        erdos_renyi(60, 0.1, rng_seed=9),
        erdos_renyi(120, 0.04, rng_seed=10),
    ]
    steps = changed = whole = 0
    found = []
    for case in range(36):
        g = graphs[case % len(graphs)]
        seed = int(rng.choice(np.flatnonzero(g.degrees)))
        truncation = 0.0 if case % 9 == 0 else float(10 ** rng.uniform(-5, -2.5))
        params = ScheduledParams(
            seed=seed,
            k=int(rng.integers(5, 30)),
            phi=float(10 ** rng.uniform(-5, -0.7)),
            epsilon=0.5,
            steps=int(rng.integers(5, 20)),
            threshold=truncation,
        )
        out = local_partition(g, params)
        trace = run_walk(g, seed, WalkSchedule(params.horizon, truncation))
        dists = list(trace)
        whole += params.volume_cap >= g.total_volume
        ref = reference_sweep(g, dists, min(params.volume_cap, g.total_volume - 1))
        accepted = ref.found and ref.best.conductance <= params.conductance_threshold
        assert out.best == (ref.best if accepted else None)
        assert out.origin == (dataclasses.replace(ref.origin, seed=seed) if accepted else None)
        assert out.work == trace.total_work
        assert out.step_min_cut == ref.step_min_cut
        found.append(accepted)
        if truncation:  # each step's touched volume is its plan's support volume
            assert trace.touched_volume == [d.support_volume(g) for d in dists[:-1]]
            steps += len(dists) - 1
            changed += sum(a.support is not b.support for a, b in zip(dists, dists[1:]))
    assert any(found) and not all(found)
    assert 5 <= whole <= 31 and changed > steps // 4


def test_sparse_sweep_orders_ties_as_build_curve(monkeypatch):
    # masses that are multiples of the degree give many vertices the same
    # p/d; the plan's stable sort over the ascending support must list them
    # by id, as build_curve's lexsort does
    rng = np.random.default_rng(19)
    graphs = [
        relabel(ring_of_cliques(5, 5), 3).graph,
        relabel(barbell(6), 2).graph,
        erdos_renyi(30, 0.2, rng_seed=4),
    ]
    orders = []

    def recording(g, order, merge=None):
        orders.append(order)
        return prefix_cut_profile(g, order, merge)

    monkeypatch.setattr(partition, "prefix_cut_profile", recording)
    for g in graphs:
        live = np.flatnonzero(g.degrees)
        for _ in range(10):
            support = np.sort(rng.choice(live, int(rng.integers(4, live.size + 1)), replace=False))
            mass = g.degrees[support] * rng.integers(1, 4, support.size) / 64.0
            dist = SparseDistribution(support, mass, g.vertex_count)
            assert np.unique(mass / g.degrees[support]).size < support.size  # ties
            orders.clear()
            sweep(g, [dist], g.total_volume)  # every prefix fits: the whole order is profiled
            assert orders[0].tolist() == build_curve(g, dist).vertex_order.tolist()


def test_local_never_returns_the_whole_graph():
    # on K12 the cap 5 * 10^1.5 = 158.1 is past the total volume 132, and the
    # whole graph, of conductance 0, was the cut returned
    g = complete(12)
    for k in (10, 66, 132, 10**6):
        out = local_partition(g, LocalParams(seed=0, k=k, phi=0.002, epsilon=0.5))
        assert (out.best.volume, out.best.boundary) == (121, 11)
        assert all(vol < g.total_volume for _, vol in filter(None, out.step_min_cut))
    # a component is a cut: the triangle beside a K5 still comes out whole
    out = local_partition(two_components(), LocalParams(seed=0, k=10, phi=0.002, epsilon=0.5))
    assert (out.best.members, out.best.boundary) == ((0, 1, 2), 0)
    # one edge: each end alone is the only cut left
    out = local_partition(path(2), LocalParams(seed=0, k=10, phi=0.1, epsilon=0.5))
    assert out.best.members == (0,)


def test_global_never_returns_the_whole_graph():
    # on K12 with k = 132 = 2m the cap 132^1.01 is past the total volume, and
    # on K5 the tight cap 20^1.01 is past 2m = 20: the whole graph, of
    # conductance 0, was the cut returned
    g, params = complete(12), GlobalParams(k=132, epsilon=0.5, horizon_override=5)
    out = global_sparsest_cut(g, params)
    assert out.best.volume < g.total_volume
    assert (out.best, out.origin, out.work) == per_seed_global(g, params)
    out = global_sparsest_cut_tight_volume(complete(5), 20, 1.0)
    assert out.best.volume < 20
    # a component is a cut, and each end of one edge is the only cut left
    out = global_sparsest_cut(two_components(), GlobalParams(k=26, epsilon=0.5))
    assert (out.best.members, out.best.boundary) == ((0, 1, 2), 0)
    out = global_sparsest_cut(path(2), GlobalParams(k=2, epsilon=0.5, horizon_override=3))
    assert out.best.members == (0,)


def test_parameter_and_input_checks_pin_their_messages(barbell3):
    g = barbell3.graph  # total volume 14; the triangle {0, 1, 2} has conductance 1/7
    good = dict(seed=0, k=7, phi=0.1, epsilon=0.5)
    lonely = Graph.from_edges(3, [(0, 1)])  # vertex 2 has no edge
    zero_degree = "mass on a zero-degree vertex has no volume ordering"
    for call, message in (
        (lambda: GlobalParams(k=1, epsilon=0.5), "k must be at least 2"),
        (lambda: GlobalParams(k=10, epsilon=0.0), "epsilon must lie in (0, 1]"),
        (lambda: GlobalParams(k=10, epsilon=1.5), "epsilon must lie in (0, 1]"),
        (
            lambda: GlobalParams(k=10, epsilon=0.5, horizon_override=-1),
            "horizon must be nonnegative",
        ),
        (
            lambda: GlobalParams(k=10, epsilon=0.5, horizon_override=2.5),
            "horizon must be an integer",
        ),
        (lambda: LocalParams(**{**good, "seed": -1}), "seed must be nonnegative"),
        (lambda: LocalParams(**{**good, "k": 1}), "k must be at least 2"),
        (lambda: LocalParams(**{**good, "phi": 0.0}), "phi must lie in (0, 1]"),
        (lambda: LocalParams(**{**good, "phi": 1.5}), "phi must lie in (0, 1]"),
        (lambda: LocalParams(**{**good, "epsilon": 0.2}), "epsilon must exceed 2/k"),
        (lambda: global_sparsest_cut_tight_volume(g, 7, 0.5), "epsilon must exceed 2 ln(k)/k"),
        (lambda: global_sparsest_cut_tight_volume(g, 1, 0.5), "k must be at least 2"),
        (lambda: sweep(g, [], 5.0), "trajectory must be nonempty"),
        (lambda: sweep(g, run_walk(g, 0, WalkSchedule(2)), math.nan), "vol_cap must be at least 1"),
        (
            lambda: global_sparsest_cut(g, GlobalParams(k=15, epsilon=0.5)),
            "k exceeds the total volume",
        ),
        (
            lambda: find_local_seed(g, [0, 1, 2], LocalParams(**good)),
            "set conductance exceeds the target phi",
        ),
        (
            lambda: find_local_seed(g, [0, 1, 2, 3], LocalParams(**good)),
            "set volume exceeds the budget k",
        ),
        (
            lambda: GlobalParams(k=10**400, epsilon=0.5, horizon_override=1),
            "volume cap k^(1+epsilon) overflows a float",
        ),
        (lambda: sweep(lonely, [SparseDistribution([2], [1.0], 3)], 5.0), zero_degree),
        (lambda: local_partition(lonely, LocalParams(**{**good, "seed": 2})), zero_degree),
        (lambda: local_partition(Graph.from_edges(3, []), LocalParams(**good)), zero_degree),
    ):
        with raises_message(message):
            call()
