"""Exact vs. thresholded walk: the approximation sandwich and the work cap.

The thresholded walk zeroes any vertex whose mass falls below eps * degree
after each step. That keeps the touched volume per step at most 1/eps while
staying within eps * t * degree of the exact walk, componentwise.
"""

import numpy as np

from sparsecut import WalkSchedule, lazy_step, ring_of_cliques, run_walk

inst = ring_of_cliques(10, 10)
g = inst.graph
eps = 1e-3
steps = 60

trace = run_walk(g, seed=0, schedule=WalkSchedule(steps, eps))

exact = np.zeros(g.vertex_count)
exact[0] = 1.0
print(f"ring of 10 cliques of size 10: n={g.vertex_count}, 2m={g.total_volume}")
print(f"threshold eps={eps}, so per-step touched volume must stay <= {1/eps:.0f}")
print()
print(f"{'t':>4} {'support':>8} {'touched_vol':>12} {'lost_mass':>10} {'max_gap':>10}")
for t, dist in enumerate(trace):  # each step is taken as the loop reads it
    approx = dist.to_dense()
    gap = exact - approx
    touched = trace.touched_volume[t - 1] if t >= 1 else g.degree(0)
    if t % 10 == 0:
        print(
            f"{t:>4} {dist.support.size:>8} {touched:>12} "
            f"{1 - dist.total():>10.2e} {gap.max():>10.2e}"
        )
    assert gap.min() >= 0, "thresholding may only remove mass"
    assert np.all(gap <= eps * t * g.degrees + 1e-12), "deficit bound"
    if t < steps:
        exact = lazy_step(g, exact)

print()
print(f"total touched volume (work): {trace.total_work}")
print("sandwich 0 <= exact - thresholded <= eps*t*degree held at every step")
