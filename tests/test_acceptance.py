"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion. Expected values come from independent oracles computed here
(dense walks, exhaustive enumeration, dense eigensolver) or from generator
arithmetic validated against enumeration on small instances.
"""

import math
import subprocess
import sys
import time

import numpy as np

from sparsecut import (
    Envelope,
    GlobalParams,
    LocalParams,
    WalkSchedule,
    barbell,
    build_curve,
    check_chord_bound,
    complete,
    cut_of,
    envelope_value,
    erdos_renyi,
    evaluate,
    exact_phi_k,
    find_local_seed,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    local_partition,
    path,
    restricted_eigenpair,
    ring_of_cliques,
    run_walk,
    sweep,
    tight_volume_exponent,
)
from sparsecut.spectral import certify_lower_bound

from conftest import cli_env, dense_walk, random_connected_subset, relabel


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def sandwich_instances():
    return {
        "erdos_renyi(200,0.05)": (erdos_renyi(200, 0.05, rng_seed=42), 0),
        "ring_of_cliques(10,10)": (ring_of_cliques(10, 10).graph, 0),
    }


def test_criterion_1_truncation_sandwich():
    started = time.monotonic()
    steps = 100
    checked = 0
    for name, (g, seed) in sandwich_instances().items():
        p0 = np.zeros(g.vertex_count)
        p0[seed] = 1.0
        exact = dense_walk(g, p0, steps)
        for eps in (1e-3, 1e-4):
            dists = list(run_walk(g, seed, WalkSchedule(steps, eps)))
            for t in range(steps + 1):
                gap = exact[t] - dists[t].to_dense()
                assert gap.min() >= 0.0, (name, eps, t, gap.min())
                excess = gap - (eps * t * g.degrees + 1e-12)
                assert excess.max() <= 0.0, (name, eps, t, excess.max())
                checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(1, f"sandwich held at {checked} (instance, eps, step) points in {elapsed:.1f}s")


def test_criterion_2_truncated_support_cost():
    total_steps = 0
    for name, (g, seed) in sandwich_instances().items():
        for eps in (1e-3, 1e-4):
            trace = run_walk(g, seed, WalkSchedule(100, eps))
            dists = list(trace)
            budget = 1.0 / eps
            for t, touched in enumerate(trace.touched_volume, start=1):
                assert touched <= budget, (name, eps, t, touched)
                total_steps += 1
            for dist in dists[1:]:
                assert dist.support_volume(g) <= budget
    report(2, f"touched volume stayed within 1/eps over {total_steps} steps")


def five_families():
    er = erdos_renyi(60, 0.1, rng_seed=7)
    assert er.connected
    return {
        "ring_of_cliques(5,6)": ring_of_cliques(5, 6).graph,
        "barbell(6)": barbell(6).graph,
        "path(30)": path(30),
        "complete(12)": complete(12),
        "erdos_renyi(60,0.1)": er,
    }


def test_criterion_3_chord_bound():
    pairs = 0
    for name, g in five_families().items():
        for truncation in (0.0, 1e-4):
            trace = run_walk(g, 0, WalkSchedule(30, truncation))
            curves = [build_curve(g, d) for d in trace]
            for prev, nxt in zip(curves, curves[1:]):
                violations = check_chord_bound(g, prev, nxt, g.edge_count, tol=1e-9)
                assert violations == [], (name, truncation, violations[:3])
                pairs += 1
    report(3, f"zero chord violations across {pairs} consecutive-step curve pairs")


def test_criterion_4_curve_envelope():
    points = 0
    for name, g in five_families().items():
        cap = g.edge_count
        dists = list(run_walk(g, 0, WalkSchedule(30, 0.0)))
        outcome = sweep(g, dists, cap)
        phi1 = 1.0
        for t, dist in enumerate(dists):
            pair = outcome.step_min_cut[t]
            if pair is not None:
                phi1 = min(phi1, pair[0] / pair[1])
            env = Envelope(cap=float(cap), phi1=phi1, steps=t)
            curve = build_curve(g, dist)
            for x in np.linspace(1.0, cap, 9):
                assert evaluate(curve, x) <= envelope_value(env, x) + 1e-9, (
                    name,
                    t,
                    x,
                )
                points += 1
    report(4, f"envelope dominated the curve at {points} sampled points")


def test_criterion_5_spectral_certificate():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    ring = ring_of_cliques(5, 6)
    bar = barbell(6)
    graphs = [
        ring.graph,
        bar.graph,
        path(30),
        complete(12),
        erdos_renyi(60, 0.1, rng_seed=7),
    ]
    subsets = []
    for g in graphs:
        for _ in range(10):
            subsets.append((g, random_connected_subset(g, rng)))
    subsets.append((ring.graph, list(ring.planted.members)))
    subsets.append((bar.graph, list(bar.planted.members)))
    for g, members in subsets:
        pair = restricted_eigenpair(g, members, tol=1e-12)
        phi = cut_of(g, members).conductance
        assert pair.value <= phi + 1e-10, (members, pair.value, phi)
        rep = certify_lower_bound(g, members, 100, tol=1e-10)
        assert rep.mass_margins.min() >= -1e-10
        assert rep.component_margins.min() >= -1e-10
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        5,
        f"lambda <= phi and retention held on {len(subsets)} sets in {elapsed:.1f}s",
    )


def planted_phi_k_is_trustworthy():
    """Enumeration confirms the generator conductance is the true minimum
    at the planted volume on every enumerable size, licensing the planted
    value as the oracle for larger instances of the same families."""
    for inst in (ring_of_cliques(3, 3), ring_of_cliques(4, 5), barbell(3), barbell(7)):
        phi, _ = exact_phi_k(inst.graph, inst.planted.volume)
        assert phi == inst.phi_planted


def test_criterion_6_global_bicriteria_soundness():
    started = time.monotonic()
    eps = 0.01
    # random connected sample, n <= 10
    sampled = 0
    trial = 0
    while sampled < 200:
        trial += 1
        rng = np.random.default_rng(9000 + trial)
        n = int(rng.integers(5, 11))
        g = erdos_renyi(n, float(rng.uniform(0.3, 0.75)), rng_seed=9000 + trial)
        if not g.connected:
            continue
        k = max(int(g.degrees.min()), (2 * g.edge_count) * 2 // 3)
        params = GlobalParams(k=k, epsilon=eps)
        out = global_sparsest_cut(g, params)
        assert out.found
        assert out.best.volume <= params.volume_cap
        phi_k, _ = exact_phi_k(g, k)
        if phi_k < eps:
            assert out.best.conductance <= 4 * math.sqrt(float(phi_k) / eps) + 1e-12
        sampled += 1
    # planted instances, generator conductance validated by enumeration
    planted_phi_k_is_trustworthy()
    planted = [
        ring_of_cliques(4, 5),    # n = 20, also enumerable directly
        barbell(7),               # n = 14
        ring_of_cliques(8, 8),    # n = 64
        ring_of_cliques(10, 10),  # n = 100
        ring_of_cliques(12, 10),  # n = 120
        ring_of_cliques(6, 15),   # phi_k < 0.01: the guarantee gate fires
        # relabelled: the planted set no longer sits at the lowest ids
        relabel(ring_of_cliques(4, 5), 1),
        relabel(barbell(7), 1),
        relabel(ring_of_cliques(8, 8), 1),
        relabel(barbell(11), 1),  # phi_k = 1/111 < 0.01: the gate fires
    ]
    for inst in planted:
        g = inst.graph
        k = inst.planted.volume
        phi_k = float(inst.phi_planted)
        params = GlobalParams(k=k, epsilon=eps)
        out = global_sparsest_cut(g, params)
        assert out.found
        assert out.best.volume <= params.volume_cap
        if phi_k < eps:
            assert out.best.conductance <= 4 * math.sqrt(phi_k / eps) + 1e-12
        # these instances are recovered exactly
        assert out.best.exact <= inst.phi_planted
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(
        6,
        f"bicriteria bound held on 200 random + {len(planted)} planted "
        f"instances in {elapsed:.1f}s",
    )


def test_criterion_7_tight_volume_corollary():
    for k in (10, 100, 1000):
        for eps in (0.1, 0.5):
            reduced = tight_volume_exponent(k, eps)
            assert k ** (1 + reduced) <= (1 + eps) * k + 1e-9, (k, eps)
    # criterion-6 style suite under the relaxed bound
    eps = 0.5
    instances = []
    for trial in range(40):
        g = erdos_renyi(8, 0.5, rng_seed=7000 + trial)
        if g.connected:
            k = max(int(g.degrees.min()), (2 * g.edge_count) * 2 // 3)
            instances.append((g, k, exact_phi_k(g, k)[0]))
    for inst in (ring_of_cliques(4, 5), barbell(7), ring_of_cliques(10, 10)):
        instances.append((inst.graph, inst.planted.volume, inst.phi_planted))
    for g, k, phi_k in instances:
        if eps <= 2.0 * math.log(k) / k:
            continue
        out = global_sparsest_cut_tight_volume(g, k, eps)
        assert out.found
        relaxed = 4 * math.sqrt(2 * float(phi_k) * math.log(k) / eps)
        assert out.best.conductance <= relaxed + 1e-12, (k, phi_k)
        assert out.best.volume <= (1 + eps) * k
    report(
        7,
        f"cap arithmetic and relaxed bound held on {len(instances)} instances",
    )


def test_criterion_8_local_recovery():
    started = time.monotonic()
    runs = 0
    for inst in (ring_of_cliques(10, 10), relabel(ring_of_cliques(10, 10), 1)):
        g = inst.graph
        k = inst.planted.volume
        phi = float(inst.phi_planted)
        for eps in (0.1, 0.2):
            probe = LocalParams(seed=0, k=k, phi=phi, epsilon=eps)
            seed = find_local_seed(g, inst.planted.members, probe)
            params = LocalParams(seed=seed, k=k, phi=phi, epsilon=eps)
            out = local_partition(g, params)
            assert out.found, eps
            assert out.best.conductance <= 8 * math.sqrt(phi / eps), eps
            assert out.best.volume <= 5 * k ** (1 + eps), eps
            runs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"runtime budget exceeded: {elapsed:.1f}s"
    report(8, f"{runs} certified-seed local runs recovered cuts in {elapsed:.1f}s")


def test_criterion_9_work_volume_trend():
    eps = 0.2
    ratios = []
    for s in (8, 12, 16, 20):
        inst = ring_of_cliques(8, s)
        g = inst.graph
        k = inst.planted.volume
        phi = float(inst.phi_planted)
        params = LocalParams(seed=0, k=k, phi=phi, epsilon=eps)
        out = local_partition(g, params)
        assert out.found, s
        scale = k**eps * phi**-2 * math.log(k) ** 3
        ratios.append((out.work / out.best.volume) / scale)
    fitted = 1.25 * ratios[0]
    assert all(r <= fitted for r in ratios[1:]), ratios
    report(
        9,
        "normalized work/volume ratios "
        + ", ".join(f"{r:.2e}" for r in ratios)
        + " stayed under the constant fitted on the smallest instance",
    )


def test_criterion_10_cli_determinism(tmp_path):
    env = cli_env()

    def run(argv):
        return subprocess.run(
            [sys.executable, "-m", "sparsecut", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            timeout=300,
        )

    gen = run(["generate", "ring-of-cliques", "--r", "4", "--s", "5", "--out", "g.txt"])
    assert gen.returncode == 0, gen.stderr
    (tmp_path / "set.txt").write_text("".join(f"{v}\n" for v in range(5)))
    invocations = [
        ["load", "g.txt"],
        ["generate", "barbell", "--s", "4", "--out", "b.txt"],
        ["global", "--k", "22", "--epsilon", "0.01", "g.txt"],
        ["global-tight", "--k", "22", "--epsilon", "0.5", "g.txt"],
        ["local", "--seed", "0", "--k", "22", "--phi", "0.091", "--epsilon", "0.2", "g.txt"],
        ["curve", "--seed", "0", "--steps", "6", "g.txt"],
        ["certify", "--set-file", "set.txt", "--horizon", "4", "g.txt"],
        ["oracle", "--k", "22", "g.txt"],
    ]
    for argv in invocations:
        first = run(argv)
        second = run(argv)
        assert first.returncode == 0 and second.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr, argv
    report(10, f"{len(invocations)} subcommands byte-identical across reruns")
