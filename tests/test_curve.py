import numpy as np
import pytest

from sparsecut import (
    ChordViolation,
    Envelope,
    SparseDistribution,
    WalkSchedule,
    barbell,
    build_curve,
    check_chord_bound,
    complete,
    envelope_value,
    erdos_renyi,
    evaluate,
    path,
    ring_of_cliques,
    run_walk,
)
from sparsecut.graph import prefix_cut_profile

from conftest import dense_walk, raises_message


def stationary(g):
    return g.degrees / g.total_volume


def test_stationary_curve_is_straight_line():
    g = ring_of_cliques(4, 4).graph
    curve = build_curve(g, stationary(g))
    for x, y in zip(curve.x, curve.y):
        assert y == pytest.approx(x / g.total_volume, abs=1e-15)
    for x in [0.0, 1.5, 7.0, g.total_volume]:
        assert evaluate(curve, x) == pytest.approx(x / g.total_volume, abs=1e-12)


def test_point_mass_curve_on_triangle():
    g = complete(3)
    p = np.array([1.0, 0.0, 0.0])
    curve = build_curve(g, p)
    # the level sets cover the support only; the curve runs flat after it
    assert list(curve.x) == [0, 2, 6]
    assert list(curve.y) == [0.0, 1.0, 1.0]
    assert evaluate(curve, 1) == 0.5
    assert evaluate(curve, 4) == 1.0


def test_curve_endpoints():
    g = erdos_renyi(30, 0.2, rng_seed=4)
    rng = np.random.default_rng(1)
    p = rng.random(30)
    p /= p.sum()
    curve = build_curve(g, p)
    assert evaluate(curve, 0) == 0.0
    assert evaluate(curve, g.total_volume) == pytest.approx(p.sum(), abs=1e-12)


def test_eval_midpoint_of_segment_is_mean():
    g = complete(3)
    curve = build_curve(g, np.array([1.0, 0.0, 0.0]))
    left, right = evaluate(curve, 2), evaluate(curve, 4)
    assert evaluate(curve, 3) == pytest.approx((left + right) / 2)


def test_eval_rejects_out_of_range():
    g = complete(3)
    curve = build_curve(g, stationary(g))
    with pytest.raises(ValueError):
        evaluate(curve, -0.5)
    with pytest.raises(ValueError):
        evaluate(curve, g.total_volume + 1)


def test_curve_concavity_and_tie_order():
    g = erdos_renyi(40, 0.15, rng_seed=6)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = rng.random(40) ** 3
        p /= p.sum()
        curve = build_curve(g, p)
        slopes = np.diff(curve.y) / np.diff(curve.x)
        assert np.all(np.diff(slopes) <= 1e-12)
        assert np.all(np.diff(curve.x) > 0)


def test_sparse_curve_flat_extension():
    g = ring_of_cliques(4, 4).graph
    dist = SparseDistribution(np.array([0, 1]), np.array([0.5, 0.25]), g.vertex_count)
    curve = build_curve(g, dist)
    assert curve.x[-1] == g.total_volume
    assert curve.y[-1] == pytest.approx(0.75)
    assert curve.vertex_order.size == 2
    # sparse and dense curves agree at the support extreme points
    dense = build_curve(g, dist.to_dense())
    for x in curve.x[:-1]:
        assert evaluate(curve, x) == pytest.approx(evaluate(dense, x), abs=1e-12)


def test_dense_curve_equals_sparse_curve():
    from sparsecut.graph import Graph

    rng = np.random.default_rng(11)
    isolated = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    graphs = [isolated, erdos_renyi(40, 0.15, rng_seed=6), barbell(5).graph]
    for g in graphs:
        for _ in range(20):
            p = rng.random(g.vertex_count) * (rng.random(g.vertex_count) < 0.5)
            p[g.degrees == 0] = 0.0
            if rng.random() < 0.5:
                p[int(rng.integers(g.vertex_count))] = 0.0
            dense = build_curve(g, p)
            sparse = build_curve(g, SparseDistribution.from_dense(p))
            np.testing.assert_array_equal(dense.x, sparse.x)
            np.testing.assert_array_equal(dense.y, sparse.y)
            np.testing.assert_array_equal(dense.vertex_order, sparse.vertex_order)
            assert np.all(p[dense.vertex_order] > 0)


def test_curve_rejects_mass_on_isolated_vertex():
    from sparsecut.graph import Graph

    g = Graph.from_edges(3, [(0, 1)])
    p = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        build_curve(g, p)


def test_level_sets_include_planted_triangle(barbell3):
    g = barbell3.graph
    p = np.zeros(g.vertex_count)
    p[[0, 1, 2]] = [0.5, 0.3, 0.2]
    order = build_curve(g, p).vertex_order
    volumes, boundaries = prefix_cut_profile(g, order)
    assert set(order[:3].tolist()) == {0, 1, 2}
    assert (int(boundaries[2]), int(volumes[2])) == (1, 7)


def test_envelope_values():
    env = Envelope(cap=10.0, phi1=0.0, steps=5)
    assert envelope_value(env, 0.0) == 0.0
    assert envelope_value(env, 4.0) == pytest.approx(4 / 10 + 2.0)
    env0 = Envelope(cap=9.0, phi1=0.3, steps=0)
    for x in [1.0, 2.5, 9.0]:
        assert envelope_value(env0, x) == pytest.approx(x / 9 + np.sqrt(x))
        assert envelope_value(env0, x) >= 1.0
    decays = [envelope_value(Envelope(10.0, 0.5, t), 5.0) for t in range(6)]
    assert all(a >= b for a, b in zip(decays, decays[1:]))


def test_chord_bound_stationary_is_equality():
    g = ring_of_cliques(4, 4).graph
    pi = stationary(g)
    c = build_curve(g, pi)
    assert check_chord_bound(g, c, c, g.total_volume) == []
    # every degree is 3 or 4: under a cap of 2 no prefix is inspected, and
    # tol=-10 would report any that were
    assert check_chord_bound(g, c, c, 2, tol=-10.0) == []


@pytest.mark.parametrize("truncation", [0.0, 1e-4])
def test_chord_bound_thirty_steps(family_graphs, truncation):
    for g in family_graphs.values():
        trace = run_walk(g, 0, WalkSchedule(30, truncation))
        curves = [build_curve(g, d) for d in trace]
        for prev, nxt in zip(curves, curves[1:]):
            assert check_chord_bound(g, prev, nxt, g.edge_count, tol=1e-9) == []


def reference_check_chord_bound(g, prev, nxt, vol_cap, tol=1e-9):
    # check_chord_bound as it was when curves carried prefix_sizes, which
    # was min(i, len(vertex_order)) at extreme point i: it walks every
    # extreme point and skips those above the cap or past the support
    m = g.edge_count
    limit = min(m, vol_cap)
    volumes, boundaries = prefix_cut_profile(g, nxt.vertex_order)
    violations = []
    for i in range(1, nxt.x.size):
        x = int(nxt.x[i])
        if x > limit:
            continue
        j = min(i, nxt.vertex_order.size)
        if j < 1 or j > volumes.size or int(volumes[j - 1]) != x:
            continue  # flat-extension point duplicating the support prefix
        phi = int(boundaries[j - 1]) / x
        reach = phi * x
        allowed = 0.5 * (evaluate(prev, x - reach) + evaluate(prev, x + reach))
        observed = float(nxt.y[i])
        if observed > allowed + tol:
            violations.append(ChordViolation(x=x, observed=observed, allowed=allowed))
    return violations


def test_chord_bound_equals_reference():
    # tol=-10 reports every inspected point, so the lists compare the
    # points walked as well as the floats computed at them
    graphs = [
        barbell(6).graph,
        ring_of_cliques(5, 6).graph,
        path(30),
        complete(12),
        erdos_renyi(60, 0.1, rng_seed=7),
        ring_of_cliques(10, 10).graph,
        path(200),
    ]
    inspected = 0
    for g in graphs:
        for truncation in (0.0, 1e-4, 1e-2):
            for seed in (0, g.vertex_count // 2):
                trace = run_walk(g, seed, WalkSchedule(40, truncation))
                curves = [build_curve(g, d) for d in trace]
                for prev, nxt in zip(curves, curves[1:]):
                    for cap in (g.edge_count, 7, 50, 10**9):
                        for tol in (-10.0, 1e-9):
                            ours = check_chord_bound(g, prev, nxt, cap, tol=tol)
                            ref = reference_check_chord_bound(g, prev, nxt, cap, tol=tol)
                            assert ours == ref
                            assert all(type(v.x) is int for v in ours)
                            inspected += len(ref) if tol < 0 else 0
    assert inspected > 10_000


def test_exact_curves_dominate_monotonically():
    g = erdos_renyi(50, 0.12, rng_seed=8)
    trace = run_walk(g, 3, WalkSchedule(25, 0.0))
    curves = [build_curve(g, d) for d in trace]
    for earlier, later in zip(curves, curves[1:]):
        for x in later.x:
            assert evaluate(later, x) <= evaluate(earlier, x) + 1e-12


def test_truncated_curve_dominated_by_exact():
    g = ring_of_cliques(6, 5).graph
    eps = 1e-3
    dists = list(run_walk(g, 0, WalkSchedule(40, eps)))
    p0 = np.zeros(g.vertex_count)
    p0[0] = 1.0
    exact = dense_walk(g, p0, 40)
    for t in [5, 20, 40]:
        truncated_curve = build_curve(g, dists[t])
        exact_curve = build_curve(g, exact[t])
        for x in truncated_curve.x:
            assert evaluate(truncated_curve, x) <= evaluate(exact_curve, x) + 1e-12


@pytest.mark.theorem
def test_envelope_bounds_curve_end_to_end(family_graphs):
    # record the weakest level-set conductance seen under the cap and check
    # the decay envelope at every step with the running minimum
    from sparsecut import sweep

    for g in family_graphs.values():
        cap = g.edge_count
        dists = list(run_walk(g, 0, WalkSchedule(30, 0.0)))
        outcome = sweep(g, dists, cap)
        running = 1.0
        for t, dist in enumerate(dists):
            pair = outcome.step_min_cut[t]
            if pair is not None:
                running = min(running, pair[0] / pair[1])
            env = Envelope(cap=float(cap), phi1=running, steps=t)
            curve = build_curve(g, dist)
            for x in np.linspace(1.0, cap, 8):
                assert evaluate(curve, x) <= envelope_value(env, x) + 1e-9


def test_curve_checks_pin_their_messages():
    g = path(4)
    for call, message in (
        (lambda: Envelope(cap=0.5, phi1=0.1, steps=1), "cap must be at least 1"),
        (lambda: Envelope(cap=float("nan"), phi1=0.1, steps=1), "cap must be at least 1"),
        (lambda: Envelope(cap=2.0, phi1=1.5, steps=1), "phi1 must lie in [0, 1]"),
        (lambda: Envelope(cap=2.0, phi1=0.1, steps=-1), "steps must be nonnegative"),
        (lambda: envelope_value(Envelope(2.0, 0.1, 1), -1.0), "x must be nonnegative"),
        (lambda: envelope_value(Envelope(2.0, 0.1, 1), float("nan")), "x must be nonnegative"),
        (lambda: evaluate(build_curve(g, np.ones(4) / 4), float("nan")), "x=nan outside [0, 6]"),
        (lambda: build_curve(g, np.ones(5)), "distribution length does not match vertex count"),
        # a sparse input is checked as a walk step checks it: [1, 1] counted
        # vertex 1 twice, 25 raised IndexError and a size of 7 was taken
        (
            lambda: build_curve(g, SparseDistribution([1, 1], [0.5, 0.5], 4)),
            "support must be strictly increasing",
        ),
        (
            lambda: build_curve(g, SparseDistribution([0, 25], [0.5, 0.5], 4)),
            "vertex id out of range",
        ),
        (
            lambda: build_curve(g, SparseDistribution([0, 1], [0.5, 0.5], 7)),
            "distribution length does not match vertex count",
        ),
    ):
        with raises_message(message):
            call()
