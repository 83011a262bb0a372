"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload {global,local,certify} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The library is imported from ``src/`` next
to this directory, never from an installed copy; without it the script
exits with status 2 and prints no result. The last line of stdout is the
result object, the line before it a report (see ``measure.py``). Exit
status is 0 when every check passed and 1 when one failed.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread here and in the generator child (numpy links
# OpenBLAS); must be set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one sparsecut benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsecut" / "__init__.py").is_file():
        print(f"sparsecut sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from measure import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    report, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
