import weakref

import numpy as np
import pytest

from sparsecut import (
    Envelope,
    GlobalParams,
    LocalParams,
    SparseDistribution,
    WalkSchedule,
    WalkTrace,
    best_seed_vertex,
    build_curve,
    certify_lower_bound,
    complete,
    cut_of,
    erdos_renyi,
    exact_phi_k,
    global_sparsest_cut_tight_volume,
    lazy_step,
    local_partition,
    path,
    restricted_eigenpair,
    ring_of_cliques,
    run_walk,
    sweep,
    tight_volume_exponent,
    truncated_step,
)
from sparsecut.graph import Graph, Merge, _gather_rows, prefix_cut_profile
from sparsecut.walk import _plan_of

from conftest import dense_walk, raises_message, relabel


def stationary(g):
    return g.degrees / g.total_volume


def reference_truncated_step(g, dist, threshold):
    """The step with no plan: gather and merge the support's arcs every call."""
    sup = dist.support
    mass = dist.mass
    deg = g.degrees[sup]
    rates = np.divide(mass, deg, out=np.zeros_like(mass), where=deg > 0)
    contrib = 0.5 * rates
    targets = _gather_rows(g, sup)
    out_support, slot = np.unique(np.concatenate([sup, targets]), return_inverse=True)
    keep_pos = slot[: sup.size]
    out_mass = np.zeros(out_support.size, dtype=np.float64)
    out_mass[keep_pos] = 0.5 * mass
    out_mass += np.bincount(
        slot[sup.size :], weights=np.repeat(contrib, deg), minlength=out_support.size
    )
    isolated = deg == 0
    if isolated.any():
        out_mass[keep_pos[isolated]] += 0.5 * mass[isolated]
    stepped = SparseDistribution(out_support, out_mass, dist.size)
    keep = out_mass >= threshold * g.degrees[out_support]
    kept = SparseDistribution(out_support[keep], out_mass[keep], dist.size)
    return stepped, kept


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


def test_zero_threshold_support_is_the_dense_nonzeros():
    # 700 steps along a path underflow the frontier's masses to exact zeros;
    # a threshold-0 step drops them, as they drop out of the dense walk's
    # nonzeros, so its curve is the dense walk's curve
    g = path(1500)
    dense = dense_walk(g, np.eye(1, 1500)[0], 700)
    dist = SparseDistribution.from_dense(dense[0])
    underflows = 0
    for p in dense[1:]:
        stepped, dist = truncated_step(g, dist, 0.0)
        support = np.flatnonzero(p)
        assert np.array_equal(dist.support, support)
        assert dist.mass.tobytes() == p[support].tobytes()
        underflows += stepped.support.size - support.size
    assert underflows > 0
    ours, exact = build_curve(g, dist), build_curve(g, dense[-1])
    for name in ("x", "y", "vertex_order"):
        assert getattr(ours, name).tobytes() == getattr(exact, name).tobytes()


def test_zero_threshold_stepped_without_zeros_is_kept():
    # ``stepped`` lists the whole out-support, so a mass that underflowed
    # to zero stays listed; ``kept`` holds only positive masses, so at
    # threshold 0 it is ``stepped`` without its zeros, bit for bit
    g = path(1500)
    dist = SparseDistribution([0], [1.0], 1500)
    with_zero = 0
    for _ in range(700):
        stepped, kept = truncated_step(g, dist, 0.0)
        live = stepped.mass != 0
        assert np.array_equal(stepped.support[live], kept.support)
        assert stepped.mass[live].tobytes() == kept.mass.tobytes()
        assert (stepped.mass >= 0).all() and (kept.mass > 0).all()
        with_zero += not live.all()
        dist = kept
    assert with_zero == 54


def test_nan_truncation_is_rejected():
    # NaN passes a "< 0" test; a walk with it would drop all its mass
    g = path(3)
    with pytest.raises(ValueError, match="truncation threshold must be nonnegative"):
        WalkSchedule(5, float("nan"))
    with pytest.raises(ValueError, match="threshold must be nonnegative"):
        truncated_step(g, SparseDistribution([1], [1.0], 3), float("nan"))


def test_plan_fed_profile_equals_bare_profile():
    # every capped prefix of every step's orders, profiled through the plan
    # the step kept for the support (a merge of a superset of the prefix),
    # equals the bare profile element for element, dtype included
    ring = relabel(ring_of_cliques(6, 6), 3).graph
    er = erdos_renyi(40, 0.2, rng_seed=3)
    isolated = Graph.from_edges(
        41, [(u, int(w)) for u in range(40) for w in er.neighbors(u) if u < w]
    )
    starts = [
        (ring, SparseDistribution([7], [1.0], ring.vertex_count)),
        (isolated, SparseDistribution([7, 40], [0.75, 0.25], 41)),  # 40 has no arcs
        (path(200), SparseDistribution([0], [1.0], 200)),
    ]
    rng = np.random.default_rng(6)
    profiles = 0
    for g, start in starts:
        for threshold in (0.0, 1e-4, 1e-2):
            dist = start
            for _ in range(25):
                _, kept = truncated_step(g, dist, threshold)
                merge = dist._plan
                assert merge.ids is dist.support
                orders = [rng.permutation(dist.support)]
                if g.degrees[dist.support].all():
                    orders.append(build_curve(g, dist).vertex_order)
                for order in orders:
                    for c in range(order.size + 1):
                        fed = prefix_cut_profile(g, order[:c], merge)
                        bare = prefix_cut_profile(g, order[:c])
                        for a, b in zip(fed, bare):
                            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                        profiles += 1
                dist = kept
    assert profiles > 5000


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
    dists = list(run_walk(g, 2, WalkSchedule(0, 0.0)))
    assert len(dists) == 1
    assert list(dists[0]) == [0.0, 0.0, 1.0, 0.0]


def test_run_walk_sandwich_against_dense_oracle():
    g = erdos_renyi(200, 0.05, rng_seed=42)
    eps = 1e-4
    steps = 50
    dists = list(run_walk(g, 0, WalkSchedule(steps, eps)))
    p0 = np.zeros(g.vertex_count)
    p0[0] = 1.0
    exact = dense_walk(g, p0, steps)
    for t in range(steps + 1):
        approx = dists[t].to_dense()
        gap = exact[t] - approx
        assert gap.min() >= 0.0
        assert np.all(gap <= eps * t * g.degrees + 1e-12)


def test_truncated_mass_nonincreasing_and_support_volume_bounded():
    g = ring_of_cliques(10, 10).graph
    eps = 1e-3
    trace = run_walk(g, 0, WalkSchedule(60, eps))
    dists = list(trace)
    totals = [d.total() for d in dists]
    assert all(a >= b - 1e-15 for a, b in zip(totals, totals[1:]))
    for dist in dists[1:]:
        assert dist.support_volume(g) <= 1 / eps
    assert all(v <= 1 / eps for v in trace.touched_volume)


def test_run_walk_rejects_bad_seed():
    g = complete(3)
    with pytest.raises(ValueError):
        run_walk(g, 5, WalkSchedule(1, 0.0))


def test_walk_trace_work_accounting():
    g = complete(6)
    trace = run_walk(g, 0, WalkSchedule(3, 0.0))
    list(trace)
    # step 1 touches only the seed, later steps the full clique
    assert trace.touched_volume[0] == g.degree(0)
    assert trace.total_work == sum(trace.touched_volume)


def test_truncated_step_rejects_repeated_support_ids():
    # path 0-1-2 and an isolated vertex 3: a repeated id would overwrite its
    # own keep term, giving mass [0.25, 0.5] (total 0.75) for [0, 0]
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    for support in ([0, 0], [1, 0], [2, 1, 3]):
        dist = SparseDistribution(support, np.full(len(support), 1.0 / len(support)), 4)
        with pytest.raises(ValueError, match="strictly increasing"):
            truncated_step(g, dist, 0.0)
    stepped, _ = truncated_step(g, SparseDistribution([0, 3], [0.5, 0.5], 4), 0.0)
    assert stepped.total() == 1.0


def test_sparse_step_rejects_vertices_outside_the_graph():
    # path 0-1-2 and an isolated 3: support [-1] walked vertex 3, and a
    # distribution over 9 vertices stepped a 4-vertex graph unchecked
    for g in (Graph.from_edges(4, [(0, 1), (1, 2)]), path(4)):
        for support in ([-1], [-1, 2], [0, 4], [3, 9]):
            dist = SparseDistribution(support, np.full(len(support), 1.0 / len(support)), 4)
            with raises_message("vertex id out of range"):
                truncated_step(g, dist, 0.0)
        for size in (3, 9):
            with raises_message("distribution length does not match vertex count"):
                truncated_step(g, SparseDistribution([0], [1.0], size), 0.0)
        stepped, kept = truncated_step(g, SparseDistribution([0, 3], [0.5, 0.5], 4), 0.0)
        assert stepped.total() == kept.total() == 1.0


def test_distribution_size_is_read_as_a_count():
    # a float or bool size constructs, but is refused where it is read: by
    # to_dense (numpy raised TypeError) and against a graph (True passed as 1)
    for size in (4.5, True, float("nan")):
        dist = SparseDistribution([0], [1.0], size)
        with raises_message("size must be an integer"):
            dist.to_dense()
        for g in (path(1), path(4)):
            with raises_message("size must be an integer"):
                truncated_step(g, dist, 0.0)
    assert SparseDistribution([0], [1.0], np.int64(2)).to_dense().tolist() == [1.0, 0.0]


def test_distribution_refuses_negative_and_nan_masses_and_dense_blocks():
    # a negative or NaN mass once constructed, and build_curve and sweep then
    # returned a curve or a cut for it; a 2-D dense array raised IndexError
    g = path(4)
    for mass in (-0.25, float("nan")):
        for make in (
            lambda: SparseDistribution([0, 1], [0.5, mass], 4),
            lambda: SparseDistribution.from_dense([0.5, mass, 0.0, 0.0]),
            lambda: build_curve(g, [0.5, mass, 0.0, 0.0]),
            lambda: sweep(g, [np.array([0.5, mass, 0.0, 0.0])], 5.0),
        ):
            with raises_message("masses must be nonnegative"):
                make()
    for dense in (np.ones((2, 2)), np.float64(1.0)):
        with raises_message("a dense distribution must be one vector"):
            SparseDistribution.from_dense(dense)
    # zeros are masses: a stepped output lists underflowed ones
    assert SparseDistribution([0, 1], [0.0, 1.0], 4).total() == 1.0


def walk_cases():
    """(graph, start) pairs: ER graphs, a relabelled ring of cliques, an
    isolated vertex that carries mass, and subnormal masses."""
    cases = []
    for seed in range(4):
        g = erdos_renyi(50, 0.08, rng_seed=20 + seed)
        cases.append((g, SparseDistribution([seed], [1.0], 50)))
    ring = relabel(ring_of_cliques(6, 6), 3).graph
    cases.append((ring, SparseDistribution([7], [1.0], ring.vertex_count)))
    g = erdos_renyi(40, 0.2, rng_seed=3)
    isolated = Graph.from_edges(
        41, [(u, int(w)) for u in range(40) for w in g.neighbors(u) if u < w]
    )
    cases.append((isolated, SparseDistribution([7, 40], [0.75, 0.25], 41)))
    rng = np.random.default_rng(4)
    support = np.sort(rng.choice(40, size=6, replace=False))
    cases.append((g, SparseDistribution(support, rng.random(6) * 1e-310, 40)))
    return cases


def test_truncated_step_matches_reference_and_reuses_only_same_set():
    # per step: 0 grows the support, "cut" drops the stepped vertices below
    # the median of mass / degree (the support shrinks), "hold" takes a
    # threshold just under the smallest kept ratio of the previous step
    # (the support usually stays the same set), so a walk shrinks, holds
    # and regrows to sets it had before
    schedule = ["zero", "zero", "cut", "hold", "hold", "zero", "cut", "zero", "hold", "hold"]
    reused = changed = revisited = 0
    for g, start in walk_cases():
        dense = start.to_dense()
        ours, ref = start, start
        seen = [start.support.tolist()]
        for kind in schedule * 2:
            if kind == "zero":
                threshold = 0.0
            else:
                probe, _ = reference_truncated_step(g, ref, 0.0)
                ratio = probe.mass / np.maximum(g.degrees[probe.support], 1)
                if kind == "cut":
                    threshold = float(np.median(ratio))
                else:
                    held = ref.mass / np.maximum(g.degrees[ref.support], 1)
                    threshold = 0.5 * float(held.min()) if held.size else 0.0
            stepped, kept = truncated_step(g, ours, threshold)
            ref_stepped, ref_kept = reference_truncated_step(g, ref, threshold)
            for a, b in ((stepped, ref_stepped), (kept, ref_kept)):
                assert np.array_equal(a.support, b.support)
                assert a.mass.tobytes() == b.mass.tobytes()
            if threshold == 0.0:
                dense = lazy_step(g, dense)
                assert stepped.to_dense().tobytes() == dense.tobytes()
                assert kept.to_dense().tobytes() == dense.tobytes()
            if np.array_equal(kept.support, ours.support):
                assert kept.support is ours.support and kept._plan is ours._plan
                reused += 1
            else:
                assert kept.support is not ours.support and kept._plan is None
                changed += 1
                revisited += kept.support.tolist() in seen[:-1]
            if threshold != 0.0:
                dense = kept.to_dense()
            seen.append(kept.support.tolist())
            ours, ref = kept, ref_kept
    assert reused > 20 and changed > 20 and revisited > 0


def test_plan_follows_the_support_array():
    # hub 0 with five leaves, and the path 0-1-2: from mass on {0, 1} the
    # kept set is {1, 2}, as large as the support but another set
    g = Graph.from_edges(8, [(0, 1), (1, 2)] + [(0, leaf) for leaf in range(3, 8)])
    dist = SparseDistribution([0, 1], [0.01, 0.99], 8)
    stepped, kept = truncated_step(g, dist, 0.1)
    ref_stepped, ref_kept = reference_truncated_step(g, dist, 0.1)
    assert kept.support.tolist() == ref_kept.support.tolist() == [1, 2]
    assert kept.mass.tobytes() == ref_kept.mass.tobytes()
    assert kept._plan is None
    # a plan belongs to its support array: a distribution given another one
    # is merged afresh
    _, held = truncated_step(g, kept, 0.1)
    assert held.support is kept.support and held._plan is kept._plan
    held.support, held.mass = np.array([0, 2]), np.array([0.5, 0.5])
    for a, b in zip(truncated_step(g, held, 0.0), reference_truncated_step(g, held, 0.0)):
        assert np.array_equal(a.support, b.support)
        assert a.mass.tobytes() == b.mass.tobytes()


def test_walk_checks_pin_their_messages():
    g = path(4)
    assert WalkSchedule(horizon=1_000_000).horizon == 1_000_000
    assert WalkSchedule(horizon=np.int64(4)).horizon == 4  # numpy integers are integers
    for call, message in (
        (lambda: lazy_step(g, np.ones(5)), "distribution length does not match vertex count"),
        (lambda: SparseDistribution([0, 1], [1.0], 4), "support and mass lengths differ"),
        (lambda: WalkSchedule(horizon=-1), "horizon must be nonnegative"),
        (lambda: WalkSchedule(horizon=1_000_001), "horizon exceeds 1000000 steps"),
        (lambda: WalkSchedule(horizon=2.5), "horizon must be an integer"),
        (lambda: WalkSchedule(horizon="3"), "horizon must be an integer"),
        (
            lambda: truncated_step(g, SparseDistribution([1, 0], [0.5, 0.5], 4), 0.0),
            "support must be strictly increasing",
        ),
        (lambda: run_walk(g, 4, WalkSchedule(horizon=1)), "seed out of range"),
    ):
        with raises_message(message):
            call()


NOT_INTS, NO_HORIZON = "vertex ids must be integers", "horizon must be an integer"
NO_K, NAN = "k must be an integer", float("nan")
# a seed is one id: a list or an array of one constructed LocalParams, then died in int()
NOT_ONE = [([3], "seed must be one vertex id"), (np.array([3]), "seed must be one vertex id")]
# each kind of integer input fed a bool, a float and values out of range, with their messages
INTEGER_CASES = {
    "seed": [
        (True, NOT_INTS),
        (1.0, NOT_INTS),
        (1.5, NOT_INTS),
        *NOT_ONE,
        (20, "seed out of range"),
    ],
    "params-seed": [
        (True, NOT_INTS),
        (1.0, NOT_INTS),
        (1.5, NOT_INTS),
        *NOT_ONE,
        (-1, "seed must be nonnegative"),
    ],
    "horizon": [
        (True, NO_HORIZON),
        (False, NO_HORIZON),
        (2.0, NO_HORIZON),
        (-1, "horizon must be nonnegative"),
    ],
    "id": [
        (True, NOT_INTS),
        (1.0, NOT_INTS),
        (20, "vertex id out of range"),
        (-1, "vertex id out of range"),
    ],
    # counts: k = 22.5 once returned a cut, nan died in NumPy or gave phi = 0,
    # and vertex counts True, 1.5 and "3" built 1, 1 and 3 vertices
    "k": [(True, NO_K), (22.5, NO_K), (NAN, NO_K), ("3", NO_K), (1, "k must be at least 2")],
    "oracle-k": [(True, NO_K), (1.5, NO_K), (NAN, NO_K), ("3", NO_K), (0, "k must be at least 1")],
    "steps": [
        (True, "steps must be an integer"),
        (1.5, "steps must be an integer"),
        (NAN, "steps must be an integer"),
        ("3", "steps must be an integer"),
        (-1, "steps must be nonnegative"),
    ],
    "vertex_count": [
        (True, "vertex_count must be an integer"),
        (1.5, "vertex_count must be an integer"),
        (NAN, "vertex_count must be an integer"),
        ("3", "vertex_count must be an integer"),
        (-1, "vertex_count must be nonnegative"),
    ],
}
INTEGER_INPUTS = {
    "run_walk-exact": ("seed", lambda g, s: run_walk(g, s, WalkSchedule(2))),
    "run_walk-truncated": ("seed", lambda g, s: run_walk(g, s, WalkSchedule(2, 1e-3))),
    "local_partition": (
        "seed",
        lambda g, s: local_partition(g, LocalParams(seed=s, k=22, phi=0.1, epsilon=0.5)),
    ),
    "LocalParams": ("params-seed", lambda g, s: LocalParams(seed=s, k=22, phi=0.1, epsilon=0.5)),
    "WalkSchedule": ("horizon", lambda g, h: WalkSchedule(h)),
    "GlobalParams": ("horizon", lambda g, h: GlobalParams(k=10, epsilon=0.5, horizon_override=h)),
    "certify_lower_bound": ("horizon", lambda g, h: certify_lower_bound(g, range(5), h)),
    "best_seed_vertex": ("horizon", lambda g, h: best_seed_vertex(g, range(5), h)),
    "cut_of": ("id", lambda g, v: cut_of(g, [v])),
    "prefix_cut_profile": ("id", lambda g, v: prefix_cut_profile(g, [v])),
    "truncated_step": (
        "id",
        lambda g, v: truncated_step(g, SparseDistribution([v], [1.0], g.vertex_count), 1e-3),
    ),
    "restricted_eigenpair": ("id", lambda g, v: restricted_eigenpair(g, [v])),
    "GlobalParams-k": ("k", lambda g, k: GlobalParams(k=k, epsilon=0.5, horizon_override=3)),
    "LocalParams-k": ("k", lambda g, k: LocalParams(seed=0, k=k, phi=0.1, epsilon=0.5)),
    "global_sparsest_cut_tight_volume": (
        "k",
        lambda g, k: global_sparsest_cut_tight_volume(g, k, 0.5),
    ),
    "tight_volume_exponent": ("k", lambda g, k: tight_volume_exponent(k, 0.5)),
    "exact_phi_k": ("oracle-k", lambda g, k: exact_phi_k(g, k)),
    "Envelope": ("steps", lambda g, t: Envelope(cap=10.0, phi1=0.5, steps=t)),
    "from_edges": ("vertex_count", lambda g, n: Graph.from_edges(n, [(0, 1)])),
}


@pytest.mark.parametrize("name", list(INTEGER_INPUTS))
def test_integer_inputs_refuse_bools_floats_and_values_out_of_range(name):
    # a bool or a float is no vertex id and no horizon, whatever int it
    # equals: the seed True once walked from all 20 vertices at once, the
    # seed 1.5 raised IndexError and the horizon True built a schedule
    g = ring_of_cliques(4, 5).graph
    kind, call = INTEGER_INPUTS[name]
    for value, message in INTEGER_CASES[kind]:
        with raises_message(message):
            call(g, value)


def test_plan_is_one_merge_record():
    # on random labels, with supports that do and do not hold an id of no
    # neighbor, the plan is the support's merge, and its named fields are the
    # support's volume, its zero-degree flag and the union's degrees
    rng = np.random.default_rng(23)
    isolated = 0
    for trial in range(30):
        er = erdos_renyi(25, float(rng.uniform(0.1, 0.4)), rng_seed=trial)
        label = rng.permutation(30)  # the labels label[25:] have no neighbors
        src = np.repeat(np.arange(25), er.degrees)
        forward = src < er.indices
        g = Graph.from_edges(30, zip(label[src[forward]], label[er.indices[forward]]))
        support = np.sort(rng.choice(30, size=int(rng.integers(1, 9)), replace=False))
        dist = SparseDistribution(support, rng.random(support.size), 30)
        plan = _plan_of(g, dist)
        assert isinstance(plan, Merge) and plan.ids is dist.support
        assert _plan_of(g, dist) is plan  # built once per support array
        assert plan.volume == dist.support_volume(g)
        assert plan.isolated == bool((g.degrees[support] == 0).any())
        assert np.array_equal(plan.union_deg, g.degrees[plan.union])
        isolated += plan.isolated
    assert 5 <= isolated <= 25


def test_walk_trace_checks_its_seed_at_construction():
    g = complete(3)
    assert run_walk is WalkTrace
    for seed in (-1, 3):
        for truncation in (0.0, 0.1):
            with raises_message("seed out of range"):
                WalkTrace(g, seed, WalkSchedule(1, truncation))


def test_a_trace_read_in_part_is_freed_with_its_last_reference():
    # its step generator holds the work list, not the trace, so no cycle
    # keeps a half-read walk's distribution alive until a collection
    for truncation in (0.0, 0.1):
        trace = WalkTrace(complete(4), 0, WalkSchedule(3, truncation))
        next(iter(trace))
        ref = weakref.ref(trace)
        del trace
        assert ref() is None
