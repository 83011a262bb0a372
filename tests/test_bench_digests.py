"""The benchmark's seed-1 results digests, pinned: a change to the library's bits shows here.

Each workload's report line carries ``results_digest``, a hash of every
operation's outcome. A change that moves any winner, origin or margin
changes it, and must re-pin it here with the reason.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "global": "8027b1fc4f47c625",
    "local": "e01c3e206fa3ccd2",
    "certify": "d9dc0fc542f7c7bc",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_seed_one_results_digest(workload):
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    res = subprocess.run(
        [*command, "--seed", "1", "--seconds", "0.2"],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout.splitlines()[-2])["report"]
    assert report["problems"] == []
    assert report["results_digest"] == DIGESTS[workload]
