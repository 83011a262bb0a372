"""Tests of the benchmark itself, on tiny instances.

    python3 -m pytest bench/selftest.py -q

The file is not named ``test_*.py``, so the repository's own test run does
not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from sparsecut import Cut, LocalParams, cut_of, load_edge_list, ring_of_cliques  # noqa: E402

import inputs  # noqa: E402
import measure  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Op,
    check_certificate,
    check_global,
    check_local,
    check_seed,
    global_params,
    local_params,
)

TINY_SECONDS = 0.3


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(name, trace):
    report, result = measure.run(WORKLOADS[name].tiny(), seed=5, seconds=TINY_SECONDS, trace=trace)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = measure.PER_LAYER if trace else measure.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.dumps(result)  # the result line must serialise


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat_for_one_seed(name):
    tiny = WORKLOADS[name].tiny()
    first, _ = measure.run(tiny, seed=9, seconds=TINY_SECONDS, trace=True)
    second, _ = measure.run(tiny, seed=9, seconds=TINY_SECONDS, trace=True)
    assert first["counters"] == second["counters"]
    assert first["results_digest"] == second["results_digest"]


def test_relabelled_file_keeps_planted_cliques(tmp_path):
    inst = inputs.Instance(4, 5, noise=True)
    meta = inputs.write_instance(inst, 3, tmp_path / "g.txt")
    text = (tmp_path / "g.txt").read_text()
    assert "#" in text
    g = load_edge_list(tmp_path / "g.txt")
    assert (g.vertex_count, g.edge_count, g.duplicate_edges, g.connected) == (
        meta["vertex_count"], meta["edge_count"], meta["duplicate_edges"], meta["connected"]
    )
    assert meta["duplicate_edges"] >= 1
    for clique in meta["cliques"]:
        cut = cut_of(g, clique)
        assert (cut.boundary, cut.volume) == (2, inst.budget)
    # the shuffle moves the first clique away from ids 0..s-1
    assert meta["cliques"][0] != list(range(inst.clique_size))
    other = inputs.write_instance(inst, 4, tmp_path / "h.txt")
    assert other["cliques"] != meta["cliques"]


def _outcome(boundary, volume):
    best = Cut(members=(0,), volume=volume, boundary=boundary, conductance=boundary / volume)
    return SimpleNamespace(found=True, best=best, work=1)


def test_checks_count_bad_results_as_failed():
    gp = global_params(92)
    assert check_global(_outcome(2, 92), gp) is None
    assert "above the planted" in check_global(_outcome(3, 92), gp)
    assert "above the cap" in check_global(_outcome(1, 97), gp)
    assert "no cut" in check_global(SimpleNamespace(found=False, best=None), gp)

    lp = local_params(382, seed=0)
    assert check_local(SimpleNamespace(found=False, best=None), lp) is None
    assert check_local(_outcome(2, 382), lp) is None
    assert "above the cap" in check_local(_outcome(2, int(lp.volume_cap) + 1), lp)
    # with the workload's phi the threshold is 1.29 and cannot bind; a
    # smaller phi makes it testable
    tight = LocalParams(seed=0, k=382, phi=0.001, epsilon=0.2)
    assert "above the threshold" in check_local(_outcome(380, 382), tight)

    good = SimpleNamespace(
        eigenpair=SimpleNamespace(value=0.004),
        conductance=0.005,
        mass_margins=np.array([0.0, 1e-12]),
        component_margins=np.array([0.0, -1e-12]),
    )
    assert check_certificate(good) is None
    bad_margin = SimpleNamespace(**{**vars(good), "mass_margins": np.array([0.0, -1e-6])})
    assert "margin" in check_certificate(bad_margin)
    bad_value = SimpleNamespace(**{**vars(good), "eigenpair": SimpleNamespace(value=0.01)})
    assert "eigenvalue" in check_certificate(bad_value)

    assert check_seed(3, (1, 3, 5)) is None
    assert "not in the set" in check_seed(4, (1, 3, 5))


def test_tally_fails_an_op_whose_result_changes():
    tally = measure.Tally(22, [Op("global_solve")])
    tally.first[0] = (1, 22)  # pretend an earlier run returned another cut
    tally.run(ring_of_cliques(4, 5).graph, 0)
    assert tally.failed == 1 and "differs" in tally.problems[0]


def test_speed_probe_scales_to_nominal_and_restores_the_timer(monkeypatch):
    probe = measure.SpeedProbe()
    monkeypatch.setattr(probe, "sample", lambda: probe.samples.append(2 * probe.NOMINAL_S))
    probe.samples = [9.0] + [2 * probe.NOMINAL_S] * 3
    assert probe.nominal(1, 3.0) == pytest.approx(1.5)  # twice as slow as nominal

    before = signal.getsignal(signal.SIGALRM)
    with measure.SpeedProbe().running() as live:
        while not live.samples:
            sum(range(1000))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_data", "_out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "global", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
