import collections
import dataclasses
import io
import re

import numpy as np
import pytest

import sparsecut.spectral as spectral
from sparsecut import (
    CertificateViolation,
    LocalParams,
    barbell,
    best_seed_vertex,
    certify_lower_bound,
    complete,
    cut_of,
    erdos_renyi,
    lazy_step,
    path,
    restricted_eigenpair,
    ring_of_cliques,
)
from sparsecut.graph import Graph, _is_connected, load_edge_list

from conftest import raises_message, random_connected_subset, relabel


def dense_lambda(g, members):
    """Oracle: smallest eigenvalue of the restricted normalized Laplacian."""
    members = sorted(members)
    idx = {v: i for i, v in enumerate(members)}
    size = len(members)
    a = np.zeros((size, size))
    for v in members:
        for w in g.neighbors(v):
            if int(w) in idx:
                a[idx[v], idx[int(w)]] = 1.0
    d = g.degrees[members].astype(float)
    scale = 1.0 / np.sqrt(d)
    lap = np.eye(size) - (scale[:, None] * a) * scale[None, :]
    return float(np.linalg.eigvalsh(lap)[0])


def test_singleton_eigenvalue_is_one():
    g = complete(4)
    pair = restricted_eigenpair(g, [2])
    assert pair.value == pytest.approx(1.0, abs=1e-12)
    assert pair.seed_distribution[0] == pytest.approx(1.0)
    assert cut_of(g, [2]).conductance == 1.0


def test_whole_graph_eigenvalue_zero_and_stationary_seed():
    g = ring_of_cliques(4, 4).graph
    pair = restricted_eigenpair(g, range(g.vertex_count))
    assert pair.value == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(
        pair.seed_distribution, g.degrees / g.total_volume, atol=1e-12
    )


def test_barbell_triangle_matches_dense_oracle(barbell3):
    g = barbell3.graph
    pair = restricted_eigenpair(g, [0, 1, 2], tol=1e-13)
    oracle = dense_lambda(g, [0, 1, 2])
    assert pair.value == pytest.approx(oracle, abs=1e-10)
    assert pair.value <= 1 / 7 + 1e-10


def test_rejects_disconnected_subset(barbell3):
    g = barbell3.graph
    with pytest.raises(ValueError, match="component"):
        restricted_eigenpair(g, [0, 4])


def test_eigenvalue_below_conductance_on_random_subsets():
    rng = np.random.default_rng(13)
    graphs = [
        erdos_renyi(40, 0.15, rng_seed=21),
        ring_of_cliques(5, 5).graph,
        complete(12),
    ]
    checked = 0
    for g in graphs:
        for _ in range(15):
            members = random_connected_subset(g, rng)
            pair = restricted_eigenpair(g, members, tol=1e-12)
            phi = cut_of(g, members).conductance
            assert pair.value <= phi + 1e-10
            assert pair.value == pytest.approx(dense_lambda(g, members), abs=1e-8)
            assert np.all(pair.vector > 0)
            assert pair.seed_distribution.sum() == pytest.approx(1.0, abs=1e-12)
            checked += 1
    assert checked == 45


def test_certify_whole_graph_keeps_everything():
    g = complete(6)
    report = certify_lower_bound(g, range(6), 20)
    assert report.eigenpair.value == pytest.approx(0.0, abs=1e-12)
    assert np.all(report.mass_margins >= -1e-12)


def test_certify_ring_clique_margins():
    inst = ring_of_cliques(5, 6)
    report = certify_lower_bound(inst.graph, range(6), 100)
    assert report.mass_margins.min() >= -1e-10
    assert report.component_margins.min() >= -1e-10
    assert report.conductance == pytest.approx(float(inst.phi_planted))


def test_numpy_integer_horizon_certifies_as_an_int():
    g = ring_of_cliques(4, 5).graph
    ours, want = (certify_lower_bound(g, range(5), h) for h in (np.int64(6), 6))
    assert ours.mass_margins.tobytes() == want.mass_margins.tobytes()
    assert best_seed_vertex(g, range(5), np.int64(6)) == best_seed_vertex(g, range(5), 6)


def test_certify_horizon_zero_margin_exact():
    g = ring_of_cliques(4, 4).graph
    report = certify_lower_bound(g, range(4), 0)
    assert report.mass_margins.shape == (1,)
    assert abs(report.mass_margins[0]) < 1e-12


def test_best_seed_k2_equality_at_one_step():
    g = complete(2)
    vertex, achieved = best_seed_vertex(g, [0], 1)
    assert vertex == 0
    assert achieved == 0.5  # exactly (1 - phi/2) with phi = 1
    # longer horizons: mass returning from outside keeps the retained mass
    # at 1/2, comfortably above the (1/2)^t guarantee
    vertex, achieved = best_seed_vertex(g, [0], 50)
    assert achieved == pytest.approx(0.5)
    assert achieved >= 0.5**50


def test_best_seed_ring_clique_meets_bound():
    inst = ring_of_cliques(5, 6)
    g = inst.graph
    vertex, achieved = best_seed_vertex(g, range(6), 50)
    assert 0 <= vertex < 6
    phi = float(inst.phi_planted)
    assert achieved >= (1 - phi / 2) ** 50 - 1e-12
    # exhaustive oracle: recompute every start's retention directly, and
    # take the smallest id within a relative 1e-12 of the maximum, since
    # symmetric starts differ only by roundoff
    values = []
    for v in range(6):
        p = np.zeros(g.vertex_count)
        p[v] = 1.0
        for _ in range(50):
            p = lazy_step(g, p)
        values.append(float(p[:6].sum()))
    arg = next(v for v, val in enumerate(values) if val >= max(values) * (1 - 1e-12))
    assert (vertex, achieved) == (arg, pytest.approx(values[arg]))


def reference_best_seed(g, members, horizon):
    """Every member's retention after horizon steps, one forward walk each."""
    members = sorted(members)
    values = []
    for v in members:
        p = np.zeros(g.vertex_count, dtype=np.float64)
        p[v] = 1.0
        for _ in range(horizon):
            p = lazy_step(g, p)
        values.append(float(p[members].sum()))
    return members, np.array(values)


def test_best_seed_matches_forward_reference():
    cases = []
    for inst in (
        relabel(ring_of_cliques(10, 10), 1),
        relabel(barbell(7), 1),
        relabel(ring_of_cliques(8, 8), 1),
    ):
        members = list(inst.planted.members)
        local = LocalParams(seed=0, k=inst.planted.volume, phi=float(inst.phi_planted), epsilon=0.2)
        cases += [(inst.graph, members, h) for h in (local.horizon, 0, 1)]
    rng = np.random.default_rng(29)
    for i in range(30):
        g = erdos_renyi(30, 0.15, rng_seed=100 + i)
        cases.append((g, random_connected_subset(g, rng), int(rng.integers(0, 60))))
    for g, members, horizon in cases:
        ids, values = reference_best_seed(g, members, horizon)
        pick = int(np.flatnonzero(values >= values.max() * (1 - 1e-12))[0])
        vertex, achieved = best_seed_vertex(g, members, horizon)
        assert vertex == ids[pick], (members, horizon)
        # the returned mass is the chosen vertex's own forward walk, exactly
        assert achieved == values[pick]


def test_best_seed_walks_twice_whatever_the_size(monkeypatch):
    calls = []
    step = spectral.lazy_step

    def counted(g, p):
        calls.append(1)
        return step(g, p)

    monkeypatch.setattr(spectral, "lazy_step", counted)
    g = ring_of_cliques(6, 8).graph
    for members in ([3], range(8), range(24)):
        for horizon in (0, 1, 17):
            calls.clear()
            best_seed_vertex(g, members, horizon)
            assert len(calls) == 2 * horizon


def test_best_seed_checks_horizon_before_the_subset(barbell3):
    g = barbell3.graph
    with pytest.raises(ValueError, match="horizon"):
        best_seed_vertex(g, [0, 5], -1)
    with pytest.raises(ValueError, match="horizon must be an integer"):
        best_seed_vertex(g, [0, 5], 2.0)
    with pytest.raises(ValueError, match="disconnected"):
        best_seed_vertex(g, [0, 5], 1)


def test_average_start_escape_bound_is_tight_at_one_step(monkeypatch):
    # from S = [0] of K2 the first lazy step moves exactly phi/2 = 1/2 out
    g = complete(2)
    assert best_seed_vertex(g, [0], 1) == (0, 0.5)
    # a conductance one part in 1e9 lower makes the same step a violation
    real = spectral.cut_of

    def understated(g, members):
        cut = real(g, members)
        return dataclasses.replace(cut, conductance=cut.conductance * (1 - 1e-9))

    monkeypatch.setattr(spectral, "cut_of", understated)
    with pytest.raises(CertificateViolation, match="average start"):
        best_seed_vertex(g, [0], 1)


def test_average_start_escape_bound_holds_for_300_steps():
    steps = 300
    for inst in (relabel(ring_of_cliques(10, 10), 1), relabel(barbell(7), 1)):
        g = inst.graph
        members = list(inst.planted.members)
        # independent walk: dense transition matrix, exact conductance
        n = g.vertex_count
        adj = np.zeros((n, n))
        for v in range(n):
            adj[v, g.neighbors(v)] = 1.0
        walk = 0.5 * (np.eye(n) + adj / g.degrees[:, None])
        p = np.zeros(n)
        p[members] = g.degrees[members] / g.degrees[members].sum()
        phi = float(inst.phi_planted)
        for t in range(1, steps):
            p = p @ walk
            assert p[members].sum() - (1 - t * phi / 2) >= -1e-12, t
        best_seed_vertex(g, members, steps - 1)  # raises if its own check fails


def test_best_seed_whole_graph_achieves_one():
    g = complete(5)
    vertex, achieved = best_seed_vertex(g, range(5), 10)
    assert achieved == pytest.approx(1.0)


def test_convexity_transfer_is_exact():
    # walk linearity: eigenvector-seeded retention equals the convex mix of
    # single-vertex retentions, so the best single vertex does at least as well
    inst = ring_of_cliques(4, 5)
    g = inst.graph
    members = list(range(5))
    pair = restricted_eigenpair(g, members, tol=1e-13)
    horizon = 30
    per_vertex = []
    for v in members:
        p = np.zeros(g.vertex_count)
        p[v] = 1.0
        for _ in range(horizon):
            p = lazy_step(g, p)
        per_vertex.append(float(p[members].sum()))
    mixed = float(np.dot(pair.seed_distribution, per_vertex))
    p = np.zeros(g.vertex_count)
    p[members] = pair.seed_distribution
    for _ in range(horizon):
        p = lazy_step(g, p)
    assert p[members].sum() == pytest.approx(mixed, abs=1e-12)
    assert max(per_vertex) >= mixed - 1e-12


def test_certificate_violation_is_a_real_error():
    with pytest.raises(CertificateViolation):
        raise CertificateViolation("synthetic")


def test_non_finite_tolerance_is_rejected():
    # NaN made every margin check pass and sent the eigenpair spinning to its
    # iteration cap; an infinite tolerance certifies nothing
    g = ring_of_cliques(4, 5).graph
    for tol in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be positive"):
            restricted_eigenpair(g, range(5), tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            certify_lower_bound(g, range(5), 10, tol=tol)


def dense_margins(g, members, horizon):
    """Certificate margins of the eigenvector-seeded walk over the whole graph."""
    pair = restricted_eigenpair(g, members, tol=1e-13)
    members = pair.subset
    p = np.zeros(g.vertex_count, dtype=np.float64)
    p[members] = pair.seed_distribution
    decay = 1.0 - pair.value / 2.0
    mass_margins = np.empty(horizon + 1)
    component_margins = np.empty(horizon + 1)
    factor = 1.0
    for t in range(horizon + 1):
        inside = p[members]
        mass_margins[t] = inside.sum() - factor
        component_margins[t] = float(np.min(inside - factor * pair.seed_distribution))
        if t < horizon:
            p = lazy_step(g, p)
            factor *= decay
    return mass_margins, component_margins


def dense_best_seed(g, members, horizon):
    """best_seed_vertex's two walks, each stepping the whole graph."""
    members = np.unique(np.asarray(members, dtype=np.int64))
    deg = g.degrees[members].astype(np.float64)
    vol = deg.sum()
    p = np.zeros(g.vertex_count, dtype=np.float64)
    p[members] = deg / vol
    for _ in range(horizon):
        p = lazy_step(g, p)
    retained = p[members] * vol / deg
    vertex = int(members[np.flatnonzero(retained >= retained.max() * (1.0 - 1e-12))[0]])
    p = np.zeros(g.vertex_count, dtype=np.float64)
    p[vertex] = 1.0
    for _ in range(horizon):
        p = lazy_step(g, p)
    return vertex, float(p[members].sum())


def test_ball_walk_equals_dense_walk_bit_for_bit():
    # the certificates step the (horizon//2 + 1)-hop ball of the set; read on
    # the set, every step must carry the whole graph's bits
    rng = np.random.default_rng(41)
    horizons = (0, 1, 2, 3, 4, 7, 10, 15, 22, 29, 30)
    cases = []
    for inst in (relabel(ring_of_cliques(10, 6), 3), relabel(barbell(7), 5)):
        members, phi = list(inst.planted.members), float(inst.phi_planted)
        local = LocalParams(seed=0, k=inst.planted.volume, phi=phi, epsilon=0.2)
        cases += [(inst.graph, members, h) for h in horizons + (local.horizon,)]
        for h in horizons:
            cases += [(inst.graph, random_connected_subset(inst.graph, rng), h) for _ in range(2)]
    for g in (path(60), erdos_renyi(40, 0.08, rng_seed=8)):
        for h in horizons:
            cases += [(g, random_connected_subset(g, rng, max_size=6), h) for _ in range(3)]
    # the certify workload's set and horizon: a 20-clique, 58 hops of ball
    ring = relabel(ring_of_cliques(200, 20), 13)
    cases.append((ring.graph, list(ring.planted.members), 114))
    partial = 0
    for g, members, horizon in cases:
        report = certify_lower_bound(g, members, horizon)
        mass, component = dense_margins(g, members, horizon)
        assert report.mass_margins.tobytes() == mass.tobytes(), (members, horizon)
        assert report.component_margins.tobytes() == component.tobytes(), (members, horizon)
        vertex, achieved = best_seed_vertex(g, members, horizon)
        expected_vertex, expected = dense_best_seed(g, members, horizon)
        assert (vertex, achieved.hex()) == (expected_vertex, expected.hex()), (members, horizon)
        reaches, _ = spectral._reach(g, np.unique(members), horizon)
        partial += reaches[0].vertex_count < g.vertex_count
    # most balls leave part of the graph out, so the radius is put to the test
    assert len(cases) == 135 and partial >= 70


def test_certificate_work_does_not_grow_with_n(monkeypatch):
    # clique 0 of a ring ten times longer: the same ball, the same bits and
    # the same arcs stepped
    arcs = []
    step = spectral.lazy_step

    def counted(g, p):
        arcs.append(g.total_volume)
        return step(g, p)

    monkeypatch.setattr(spectral, "lazy_step", counted)
    seen = []
    for r in (200, 2000):
        g = ring_of_cliques(r, 20).graph
        arcs.clear()
        report = certify_lower_bound(g, range(20), 114)
        vertex, achieved = best_seed_vertex(g, range(20), 114)
        margins = (report.mass_margins.tobytes(), report.component_margins.tobytes())
        seen.append((margins, vertex, achieved.hex(), len(arcs), sum(arcs)))
    assert seen[0] == seen[1]
    steps, stepped = seen[0][3:]
    assert steps == 3 * 114 and stepped < steps * ring_of_cliques(200, 20).graph.total_volume


def test_certificates_step_only_the_reach(monkeypatch):
    # step t of T steps the arcs into the vertices within min(t + 1, T - t - 1)
    # hops of S, where its mass can be and S can still read, and no others,
    # also where the ball takes in the whole component
    arcs = []
    step = spectral.lazy_step

    def counted(g, p):
        arcs.append(g.total_volume)
        return step(g, p)

    monkeypatch.setattr(spectral, "lazy_step", counted)
    rng = np.random.default_rng(67)
    ring = relabel(ring_of_cliques(6, 5), 9)
    cases = [(ring.graph, list(ring.planted.members), h) for h in (0, 1, 5, 14, 40)]
    for g in (path(40), erdos_renyi(40, 0.08, rng_seed=3)):
        cases += [(g, random_connected_subset(g, rng, max_size=6), h) for h in (2, 9, 30)]
    whole = 0
    for g, members, horizon in cases:
        hops = reference_hops(g, members, g.vertex_count)
        want = [
            sum(g.degree(v) for v, h in hops.items() if h <= min(t + 1, horizon - t - 1))
            for t in range(horizon)
        ]
        for certify, walks in ((certify_lower_bound, 1), (best_seed_vertex, 2)):
            arcs.clear()
            certify(g, members, horizon)
            assert arcs == want * walks, (certify.__name__, members, horizon)
        whole += max(hops.values()) < horizon // 2
    assert whole >= 3


def test_spectral_checks_pin_their_messages():
    g = ring_of_cliques(4, 5).graph
    isolated = Graph.from_edges(3, [(0, 1)])
    for call, message in (
        (lambda: restricted_eigenpair(g, []), "subset must be nonempty"),
        (lambda: restricted_eigenpair(g, [0, 99]), "vertex id out of range"),
        (
            lambda: restricted_eigenpair(isolated, [2]),
            "zero-degree vertex: restricted walk matrix undefined",
        ),
        (lambda: certify_lower_bound(g, range(5), -1), "horizon must be nonnegative"),
        (lambda: certify_lower_bound(g, range(5), 2.5), "horizon must be an integer"),
        (lambda: best_seed_vertex(g, range(5), 2.5), "horizon must be an integer"),
        (lambda: restricted_eigenpair(g, range(5), tol=0.0), "tol must be positive and finite"),
        (
            lambda: certify_lower_bound(g, range(5), 3, tol=np.inf),
            "tol must be positive and finite",
        ),
        (
            lambda: restricted_eigenpair(g, [0, 10]),
            "subset induces a disconnected subgraph; compute one eigenpair per component instead",
        ),
        (lambda: best_seed_vertex(g, [0, 10], 3), "subset induces a disconnected subgraph"),
    ):
        with raises_message(message):
            call()


def test_certificates_reject_a_horizon_past_the_step_limit(monkeypatch):
    # 2,000,000 steps were still walking after 4 s; the limit is checked
    # before the subset's subgraph is built
    def no_work(*args):
        raise AssertionError("the subset's subgraph was built")

    monkeypatch.setattr(spectral, "_restricted_adjacency", no_work)
    g = ring_of_cliques(4, 5).graph
    for certify in (certify_lower_bound, best_seed_vertex):
        with raises_message("horizon exceeds 1000000 steps"):
            certify(g, range(5), 1_000_001)


def test_connectivity_runs_only_where_read(monkeypatch):
    # a graph is its arrays: only a read of ``connected`` runs the pass, once
    # a graph, and the certificates read it for S, never for the ball
    sizes = []

    def counting(n, indptr, indices):
        sizes.append(n)
        return _is_connected(n, indptr, indices)

    monkeypatch.setattr("sparsecut.graph._is_connected", counting)
    built = Graph.from_edges(4, [(0, 1), (2, 3)])
    loaded = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert sizes == []
    assert (built.connected, loaded.connected) == (False, True)
    assert sizes == [4, 3]
    assert (built.connected, loaded.connected) == (False, True)
    assert sizes == [4, 3]
    g = ring_of_cliques(6, 5).graph
    members = list(range(5))
    assert spectral._reach(g, np.array(members), 9)[0][0].vertex_count > len(members)
    for certify in (certify_lower_bound, best_seed_vertex):
        sizes.clear()
        certify(g, members, 9)
        assert sizes == [len(members)], certify.__name__
    with raises_message("cut"):
        spectral._restricted_adjacency(g, [0, 1, 10], "cut")
    members, sub, rows = spectral._restricted_adjacency(g, [2, 0, 1, 0], "cut")
    assert sub.connected is True and members.tolist() == [0, 1, 2]
    assert np.array_equal(rows, np.repeat(np.arange(3), sub.degrees))


def test_restricted_adjacency_is_the_induced_subgraph():
    # one search of the sorted members places each arc's target: members at
    # either end of the id range, outsiders past the last member, and every
    # row in the graph's order with its arcs' rows beside it
    rng = np.random.default_rng(31)
    for g in [erdos_renyi(40, p, rng_seed=s) for s, p in enumerate((0.1, 0.2, 0.5))]:
        for size in (1, 2, 5, 20, 40):
            members = np.sort(rng.choice(40, size=size, replace=False))
            if not g.degrees[members].all():
                continue
            place = {int(v): i for i, v in enumerate(members)}
            want = [[place[w] for w in g.neighbors(v).tolist() if w in place] for v in members]
            try:
                got, sub, rows = spectral._restricted_adjacency(g, members[::-1], "cut")
            except ValueError:
                assert not Graph.from_edges(
                    size, [(i, j) for i, row in enumerate(want) for j in row]
                ).connected
                continue
            assert np.array_equal(got, members)
            assert [sub.neighbors(i).tolist() for i in range(size)] == want
            assert np.array_equal(rows, np.repeat(np.arange(size), [len(r) for r in want]))


def reference_hops(g, members, radius):
    """Plain BFS: each vertex within ``radius`` hops of members, with its hop count."""
    hops = {int(v): 0 for v in members}
    queue = collections.deque(hops)
    while queue:
        v = queue.popleft()
        if hops[v] < radius:
            for w in g.neighbors(v).tolist():
                if w not in hops:
                    hops[w] = hops[v] + 1
                    queue.append(w)
    return hops


def assert_reach_is_plain(g, members, horizon):
    # the ball of horizon//2 + 1 hops, its vertices in id order with the
    # graph's divisors; reach r lists the arcs into the vertices within r
    # hops, by the target's hop, then source, then target, in runs of one
    # source; and the members' places in the ball. Returns the ball's size
    reaches, places = spectral._reach(g, members, horizon)
    hops = reference_hops(g, members, horizon // 2 + 1)
    ball = sorted(hops)
    at = {v: i for i, v in enumerate(ball)}
    plain = sorted(
        (hops[v], at[s], at[v]) for s in ball for v in g.neighbors(s).tolist() if v in hops
    )
    assert len(reaches) == horizon // 2 + 1
    for r, reach in enumerate(reaches):
        want = [(s, v) for h, s, v in plain if h <= r]
        arcs = list(zip(np.repeat(reach.sources, reach.lengths).tolist(),
                        reach.indices.tolist()))
        assert arcs == want and reach.total_volume == len(want), (members, horizon, r)
        assert reach.indices.dtype == reach.sources.dtype == np.int64
        # each run is all of one source's arcs into one hop
        firsts = np.cumsum(reach.lengths) - reach.lengths
        runs = [(hops[ball[reach.indices[f]]], s)
                for f, s in zip(firsts.tolist(), reach.sources.tolist())]
        assert all(a < b for a, b in zip(runs, runs[1:]))
        assert reach.vertex_count == len(ball)
        assert np.array_equal(reach.divisor, g.divisor[ball])
    assert np.array_equal(places, np.searchsorted(ball, members))
    return len(ball)


def test_reach_ball_matches_a_plain_bfs():
    # on ER graphs with vertices of no neighbor and on rings of cliques with
    # shuffled labels; most balls stop short of the whole graph
    rng = np.random.default_rng(59)
    graphs = [erdos_renyi(30, p, rng_seed=s) for s, p in enumerate((0.05, 0.08, 0.15, 0.3))]
    graphs += [ring_of_cliques(6, 4).graph, relabel(ring_of_cliques(8, 5), 7).graph]
    cut_short = 0
    for g in graphs:
        n = g.vertex_count
        diameter = max(max(reference_hops(g, [v], n).values()) for v in range(n))
        for _ in range(4):
            members = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
            for horizon in (0, 1, 2, 6, 2 * diameter + 2):
                cut_short += assert_reach_is_plain(g, members, horizon) < n
    assert cut_short >= 40


def test_reach_orders_hops_past_255():
    # a radius above 255 holds its hops in 16 bits; the radix order must still
    # be the plain (target's hop, source, target) order, each reach its prefix
    g = path(700)
    for members, horizon in (([350], 600), ([0, 3], 521)):
        assert np.min_scalar_type(horizon // 2 + 2) == np.uint16
        assert assert_reach_is_plain(g, np.array(members), horizon) < g.vertex_count


def test_power_iteration_cap_raises_with_its_estimate(monkeypatch):
    # no iterate converges at once: the first Rayleigh quotient has none before it
    monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 1)
    g = ring_of_cliques(4, 5).graph
    message = "^no convergence within 1 iterations$"
    with pytest.raises(spectral.ConvergenceError, match=message) as info:
        restricted_eigenpair(g, range(5))
    assert np.isfinite(info.value.estimate) and 0.0 <= info.value.estimate <= 2.0


def grid(side):
    """The side x side grid graph, vertex r * side + c at row r, column c."""
    edges = [(v, v + 1) for v in range(side * side) if v % side < side - 1]
    edges += [(v, v + side) for v in range(side * (side - 1))]
    return Graph.from_edges(side * side, edges)


def test_reach_frontiers_never_repeat_a_vertex(monkeypatch):
    # a grid reaches most vertices by many shortest paths: a frontier that kept
    # its repeats would grow with their number. Each frontier _reach gathers is
    # one BFS layer, each vertex once; the last gather is the ball's rows
    gathered = []
    gather = spectral._gather_rows

    def recorded(g, vertices):
        gathered.append(np.array(vertices))
        return gather(g, vertices)

    monkeypatch.setattr(spectral, "_gather_rows", recorded)
    g = grid(12)
    for members, horizon in (([0], 12), ([0], 60), ([66], 9), ([0, 1, 12, 143], 30)):
        gathered.clear()
        spectral._reach(g, np.array(members), horizon)
        radius = horizon // 2 + 1
        hops = reference_hops(g, members, radius)
        layers = [
            sorted(v for v, h in hops.items() if h == k)
            for k in range(min(radius, max(hops.values()) + 1))
        ]
        frontiers = gathered[:-1]
        assert all(np.unique(f).size == f.size for f in frontiers), (members, horizon)
        assert [sorted(f.tolist()) for f in frontiers] == layers, (members, horizon)
        assert np.array_equal(gathered[-1], sorted(hops))
    # the repeats were there to drop: layer 2 of the corner is reached twice over
    assert np.unique(gather(g, np.array([1, 12])), return_counts=True)[1].max() == 2


def test_row_table_keeps_the_dense_bits(monkeypatch):
    # the walks reduce a table of S's rows, chunk by chunk: row sums past
    # numpy's 128-term pairwise block, and tables cut into many chunks, must
    # give the dense walk's margins and best seed byte for byte
    chunks = []
    walk_from = spectral._walk_from

    def recorded(*args):
        for t, rows in walk_from(*args):
            chunks.append(rows.shape)
            yield t, rows

    monkeypatch.setattr(spectral, "_walk_from", recorded)
    wide = [(complete(160), range(10, 150), 9), (grid(14), range(150), 17)]
    wide += [(grid(12), range(130), 25)]
    small = relabel(ring_of_cliques(10, 6), 3)
    narrow = [(small.graph, list(small.planted.members), h) for h in (0, 1, 6, 29)]
    narrow += [(grid(9), [40, 41, 49], 23)]
    split = 0
    for cells, cases in ((1 << 14, wide), (1, narrow), (7, narrow), (500, wide + narrow)):
        monkeypatch.setattr(spectral, "_TABLE_CELLS", cells)
        for g, members, horizon in cases:
            chunks.clear()
            report = certify_lower_bound(g, members, horizon)
            mass, component = dense_margins(g, members, horizon)
            assert report.mass_margins.tobytes() == mass.tobytes(), (cells, horizon)
            assert report.component_margins.tobytes() == component.tobytes(), (cells, horizon)
            vertex, achieved = best_seed_vertex(g, members, horizon)
            expected_vertex, expected = dense_best_seed(g, members, horizon)
            assert (vertex, achieved.hex()) == (expected_vertex, expected.hex()), (cells, horizon)
            # a chunk holds at most the cells, or one row; the three walks' chunks
            # cover their steps once each
            assert all(rows * cols <= max(cells, cols) for rows, cols in chunks)
            assert sum(rows for rows, _ in chunks) == 3 * (horizon + 1)
            split += len(chunks) > 3
    assert min(len(np.unique(list(m))) for _, m, _ in wide) > 128
    assert split >= 11


def test_average_start_escape_names_the_first_failing_step(monkeypatch):
    # the escape bound is checked after the walk, on all its steps at once; the
    # message names the first step that fails, also when later steps fail too
    real = spectral.cut_of
    for scale in (1 - 1e-9, 0.1):  # steps 1, or 1 to 3, fall below 1 - t*phi/2
        def understated(g, members):
            cut = real(g, members)
            return dataclasses.replace(cut, conductance=cut.conductance * scale)

        monkeypatch.setattr(spectral, "cut_of", understated)
        message = "average start keeps 5.000000e-01 < 1 - t*phi/2 at step 1"
        with pytest.raises(CertificateViolation, match=f"^{re.escape(message)}$"):
            best_seed_vertex(complete(2), [0], 3)


def test_retention_bound_is_tight_at_one_step(monkeypatch):
    # from S = [0] of K2, lambda_S = 1 and the first step keeps exactly 1 - lambda_S/2;
    # an eigenvalue one part in 1e9 lower makes that step a violation
    assert certify_lower_bound(complete(2), [0], 3).mass_margins[1] == 0.0
    real = spectral.restricted_eigenpair

    def understated(g, subset, tol):
        pair = real(g, subset, tol=tol)
        return dataclasses.replace(pair, value=pair.value * (1 - 1e-9))

    monkeypatch.setattr(spectral, "restricted_eigenpair", understated)
    message = "retention bound violated by 5.000e-10 (tol 1.0e-10)"
    with pytest.raises(CertificateViolation, match=f"^{re.escape(message)}$"):
        certify_lower_bound(complete(2), [0], 3)


def test_best_start_below_its_guarantee_is_a_violation(monkeypatch):
    # the confirming walk keeps 1/2 of K2 against a guaranteed 1/8 after 3 steps;
    # a fault that halves each of its steps leaves 1/16, which must be reported
    calls = []
    step = spectral.lazy_step

    def leaking(g, p):
        calls.append(1)
        return step(g, p) * (0.5 if len(calls) > 3 else 1.0)  # the second walk's steps

    monkeypatch.setattr(spectral, "lazy_step", leaking)
    message = "best start retains 6.250000e-02 < guaranteed 1.250000e-01"
    with pytest.raises(CertificateViolation, match=f"^{re.escape(message)}$"):
        best_seed_vertex(complete(2), [0], 3)


def test_power_iteration_reports_a_lost_sign(monkeypatch):
    # every iterate keeps z >= y/2 > 0, so this check guards against a faulty
    # operator: one whose neighbor sums flip sign converges to a negative vector
    real = np.bincount

    def flipped(x, weights=None, minlength=0):
        counts = real(x, weights, minlength)
        return counts if weights is None else -3 * counts  # the operator's sums only

    monkeypatch.setattr(spectral.np, "bincount", flipped)
    with pytest.raises(spectral.ConvergenceError, match="^eigenvector lost positivity$") as info:
        restricted_eigenpair(complete(2), [0, 1])
    assert info.value.estimate == 4.0  # rho = -1
