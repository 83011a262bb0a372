"""The mass-vs-volume curve of a walk and its two runnable bounds.

A distribution's curve plots cumulative mass against cumulative volume in
the mass/degree order. Consecutive curves obey a chord-averaging bound
driven by level-set conductances, and while every level set under a cap has
conductance at least phi1 the whole curve sits below the decaying envelope
x/l + sqrt(x) * (1 - phi1^2/8)^t.
"""

from sparsecut import (
    Envelope,
    WalkSchedule,
    barbell,
    build_curve,
    check_chord_bound,
    envelope_value,
    evaluate,
    run_walk,
    sweep,
)

inst = barbell(6)
g = inst.graph
steps = 30

# a walk is one pass; this demo reads each step twice, so it keeps them
walk = list(run_walk(g, seed=0, schedule=WalkSchedule(steps, 0.0)))
curves = [build_curve(g, d) for d in walk]

violations = 0
for prev, nxt in zip(curves, curves[1:]):
    violations += len(check_chord_bound(g, prev, nxt, g.edge_count, tol=1e-9))
print(f"chord bound: {violations} violations over {steps} consecutive steps")

cap = g.edge_count
outcome = sweep(g, walk, cap)
phi1 = 1.0
print()
print(f"{'t':>4} {'phi1 (running min)':>20} {'C_t(cap)':>10} {'envelope(cap)':>14}")
for t in range(0, steps + 1, 5):
    for pair in outcome.step_min_cut[: t + 1]:
        if pair is not None:
            phi1 = min(phi1, pair[0] / pair[1])
    env = Envelope(cap=float(cap), phi1=phi1, steps=t)
    print(
        f"{t:>4} {phi1:>20.4f} {evaluate(curves[t], cap):>10.4f} "
        f"{envelope_value(env, cap):>14.4f}"
    )

print()
print("extreme points of the final curve (x, y), TSV:")
final = curves[-1]
for x, y in list(zip(final.x, final.y))[:8]:
    print(f"{int(x)}\t{float(y):.6f}")
print(f"... ({final.x.size} points total, ending at x={int(final.x[-1])})")
