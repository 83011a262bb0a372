"""The traced benchmark's hooks stay attached to the library's layers.

``bench/tracer.py`` patches module attributes by name; a refactor that
renames or stops calling one of them would silently drop its spans. The
benchmark's own tests are not part of this suite, so these checks are.
"""

import importlib.util
import math
from pathlib import Path

from sparsecut import (
    GlobalParams,
    LocalParams,
    certify_lower_bound,
    find_local_seed,
    global_sparsest_cut,
    local_partition,
    ring_of_cliques,
)
from sparsecut import partition

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_resolve():
    for module, attr, _, _ in load_tracer().HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_tracer_sees_local_query_layers(monkeypatch):
    tracer = load_tracer()
    g = ring_of_cliques(4, 5).graph
    params = LocalParams(seed=0, k=22, phi=2 / 22, epsilon=0.2)
    profile, profiles = partition.prefix_cut_profile, []

    def counting(*args):
        profiles.append((len(args[1]), int(g.degrees[args[1]].sum())))
        return profile(*args)

    with monkeypatch.context() as patch:
        patch.setattr(partition, "prefix_cut_profile", counting)
        plain = local_partition(g, params)
    originals = [getattr(module, attr) for module, attr, _, _ in tracer.HOOKS]
    t = tracer.Tracer()
    with t.installed():
        traced = local_partition(g, params)
    # the walk reuses plans and the sweep skips repeated orders inside these
    # layers: every step still passes through them, with the same result
    assert t.counters["walk.truncated_step.calls"] == params.horizon
    assert any(span[0] == "partition.sweep" for span in t.spans)
    # every profile the sweep makes passes through the hook
    assert t.counters["graph.prefix_cut_profile.calls"] == len(profiles) > 0
    # and counts its prefixes, none past the cap
    assert t.counters["graph.prefixes_examined"] == sum(size for size, _ in profiles) == 34
    assert max(volume for _, volume in profiles) <= g.total_volume - 1 < params.volume_cap
    assert (traced.best, traced.origin, traced.work) == (plain.best, plain.origin, plain.work)
    assert traced.step_min_cut == plain.step_min_cut
    assert [getattr(module, attr) for module, attr, _, _ in tracer.HOOKS] == originals


def test_tracer_sees_seed_search_walk_twice():
    tracer = load_tracer()
    g = ring_of_cliques(4, 5).graph
    params = LocalParams(seed=0, k=22, phi=2 / 22, epsilon=0.2)
    plain = find_local_seed(g, range(5), params)
    t = tracer.Tracer()
    with t.installed():
        traced = find_local_seed(g, range(5), params)
    assert traced == plain
    assert any(span[0] == "spectral.best_seed_vertex" for span in t.spans)
    assert t.counters["walk.lazy_step.calls"] == 2 * params.horizon


def reach_arcs(g, members, horizon):
    """Arcs a certificate steps: at step t, those into the vertices within min(t+1, T-t-1) hops."""
    dist = dict.fromkeys(members, 0)
    frontier = list(members)
    for d in range(1, horizon // 2 + 1):
        frontier = [w for v in frontier for w in g.neighbors(v).tolist() if w not in dist]
        dist.update(dict.fromkeys(frontier, d))
    reach = [min(t + 1, horizon - t - 1) for t in range(horizon)]
    return sum(g.degree(v) for r in reach for v, d in dist.items() if d <= r)


def test_tracer_sees_certificate_steps_on_the_ball():
    tracer = load_tracer()
    g = ring_of_cliques(6, 8).graph
    horizon = 5
    plain = certify_lower_bound(g, range(8), horizon)
    t = tracer.Tracer()
    with t.installed():
        traced = certify_lower_bound(g, range(8), horizon)
    assert traced.mass_margins.tobytes() == plain.mass_margins.tobytes()
    arcs = reach_arcs(g, range(8), horizon)
    assert arcs < horizon * g.total_volume
    assert t.counters["walk.lazy_step.calls"] == horizon
    assert t.counters["walk.lazy_step.arcs"] == arcs


def test_tracer_sees_global_walk_steps(monkeypatch):
    tracer = load_tracer()
    g = ring_of_cliques(4, 5).graph
    params = GlobalParams(k=22, epsilon=0.01, horizon_override=6)
    width = max(g.vertex_count, int(params.volume_cap))  # a block row's cells
    monkeypatch.setattr(partition, "BLOCK_ARCS", 3 * width)  # 3 rows a block
    plain = global_sparsest_cut(g, params)
    originals = [getattr(module, attr) for module, attr, _, _ in tracer.HOOKS]
    t = tracer.Tracer()
    with t.installed():
        traced = global_sparsest_cut(g, params)
    n, horizon = g.vertex_count, params.horizon
    calls = math.ceil(n / 3) * horizon
    assert t.counters["walk.lazy_step.calls"] == calls
    # one graph's arcs a call, not a block's: the tracer under-reads a block
    # step by its column count (the FOUND line on walk.lazy_step.arcs in CHANGES.md)
    assert t.counters["walk.lazy_step.arcs"] == calls * g.total_volume
    assert (traced.best, traced.origin, traced.work) == (plain.best, plain.origin, plain.work)
    assert [getattr(module, attr) for module, attr, _, _ in tracer.HOOKS] == originals
