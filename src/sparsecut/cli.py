"""Command-line entry point with stable, scriptable tab-separated output.

Results go to stdout (or --output) as ``key<TAB>value`` lines with a fixed
key set per subcommand; diagnostics go to stderr. Exit status 0 covers
success including a local not-found, 2 flags usage errors, 1 runtime errors.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO, Sequence

from . import generators
from .graph import Cut, load_edge_list, write_edge_list
from .partition import (
    GlobalParams,
    LocalParams,
    SweepOutcome,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    local_partition,
)
from .spectral import certify_lower_bound
from .walk import WalkSchedule, run_walk
from .curve import build_curve

def _emit(out: IO[str], pairs: Sequence[tuple[str, object]]) -> None:
    for key, value in pairs:
        out.write(f"{key}\t{value}\n")


def _write_members(path: str | None, cut: Cut | None) -> None:
    if path is None:
        return
    with open(path, "w", encoding="utf-8") as fh:
        if cut is not None:
            for v in cut.members:
                fh.write(f"{v}\n")


def _cut_fields(outcome: SweepOutcome) -> list[tuple[str, object]]:
    if outcome.found:
        cut = outcome.best
        origin = outcome.origin
        return [
            ("status", "ok"),
            ("conductance", repr(cut.conductance)),
            ("boundary", cut.boundary),
            ("volume", cut.volume),
            ("member_count", len(cut.members)),
            ("origin_seed", origin.seed),
            ("origin_step", origin.step),
            ("origin_prefix", origin.prefix),
            ("work", outcome.work),
        ]
    return [
        ("status", "not-found"),
        ("conductance", "-"),
        ("boundary", "-"),
        ("volume", "-"),
        ("member_count", 0),
        ("origin_seed", "-"),
        ("origin_step", "-"),
        ("origin_prefix", "-"),
        ("work", outcome.work),
    ]


def _cmd_load(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    degs = g.degrees
    _emit(
        out,
        [
            ("vertices", g.vertex_count),
            ("edges", g.edge_count),
            ("total_volume", g.total_volume),
            ("min_degree", int(degs.min()) if g.vertex_count else 0),
            ("max_degree", int(degs.max()) if g.vertex_count else 0),
            ("connected", str(g.connected).lower()),
            ("duplicate_edges", g.duplicate_edges),
        ],
    )
    return 0


def _cmd_generate(args, out: IO[str]) -> int:
    planted: Cut | None = None
    if args.family == "ring-of-cliques":
        inst = generators.ring_of_cliques(args.r, args.s)
        g, planted = inst.graph, inst.planted
    elif args.family == "barbell":
        inst = generators.barbell(args.s)
        g, planted = inst.graph, inst.planted
    elif args.family == "path":
        g = generators.path(args.n)
    elif args.family == "complete":
        g = generators.complete(args.n)
    else:
        g = generators.erdos_renyi(args.n, args.p, args.rng_seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    meta_path = args.meta_out or args.out + ".meta"
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.write(f"family\t{args.family}\n")
        fh.write(f"vertices\t{g.vertex_count}\n")
        fh.write(f"edges\t{g.edge_count}\n")
        fh.write(f"connected\t{str(g.connected).lower()}\n")
        if planted is not None:
            fh.write(f"planted_conductance\t{planted.boundary}/{planted.volume}\n")
            fh.write("planted_members\t" + ",".join(map(str, planted.members)) + "\n")
    _emit(
        out,
        [
            ("family", args.family),
            ("vertices", g.vertex_count),
            ("edges", g.edge_count),
            ("out", args.out),
            ("meta_out", meta_path),
            (
                "planted_conductance",
                f"{planted.boundary}/{planted.volume}" if planted else "-",
            ),
        ],
    )
    return 0


def _cmd_global(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    params = GlobalParams(
        k=args.k, epsilon=args.epsilon, horizon_override=args.horizon
    )
    outcome = global_sparsest_cut(g, params)
    _write_members(args.members_out, outcome.best)
    _emit(
        out,
        [
            ("k", params.k),
            ("epsilon", repr(params.epsilon)),
            ("epsilon_effective", repr(params.epsilon_effective)),
            ("horizon", params.horizon),
            ("volume_cap", repr(params.volume_cap)),
        ]
        + _cut_fields(outcome),
    )
    return 0


def _cmd_global_tight(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    outcome = global_sparsest_cut_tight_volume(g, args.k, args.epsilon)
    _write_members(args.members_out, outcome.best)
    from .partition import tight_volume_exponent

    reduced = tight_volume_exponent(args.k, args.epsilon)
    params = GlobalParams(k=args.k, epsilon=reduced)
    _emit(
        out,
        [
            ("k", args.k),
            ("epsilon", repr(args.epsilon)),
            ("epsilon_reduced", repr(reduced)),
            ("epsilon_effective", repr(params.epsilon_effective)),
            ("horizon", params.horizon),
            ("volume_cap", repr(params.volume_cap)),
        ]
        + _cut_fields(outcome),
    )
    return 0


def _cmd_local(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    params = LocalParams(seed=args.seed, k=args.k, phi=args.phi, epsilon=args.epsilon)
    outcome = local_partition(g, params)
    _write_members(args.members_out, outcome.best)
    _emit(
        out,
        [
            ("seed", params.seed),
            ("k", params.k),
            ("phi", repr(params.phi)),
            ("epsilon", repr(params.epsilon)),
            ("horizon", params.horizon),
            ("truncation", repr(params.truncation)),
            ("volume_cap", repr(params.volume_cap)),
            ("threshold", repr(params.conductance_threshold)),
        ]
        + _cut_fields(outcome),
    )
    return 0


def _cmd_curve(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    schedule = WalkSchedule(horizon=args.steps, truncation=args.truncation)
    for p in run_walk(g, args.seed, schedule):  # one pass to step T, one distribution held
        pass
    curve = build_curve(g, p)
    for x, y in zip(curve.x, curve.y):
        out.write(f"{int(x)}\t{float(y)!r}\n")
    return 0


def _cmd_certify(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    with open(args.set_file, "r", encoding="utf-8") as fh:
        members = [int(line) for line in fh if line.strip()]
    report = certify_lower_bound(g, members, args.horizon)
    out.write(f"lambda\t{float(report.eigenpair.value)!r}\n")
    out.write(f"phi\t{float(report.conductance)!r}\n")
    for t in range(report.horizon + 1):
        out.write(
            f"{t}\t{float(report.mass_margins[t])!r}"
            f"\t{float(report.component_margins[t])!r}\n"
        )
    return 0


def _cmd_oracle(args, out: IO[str]) -> int:
    g = load_edge_list(args.graph)
    phi_k, witness = generators.exact_phi_k(g, args.k)
    _write_members(args.members_out, witness)
    _emit(
        out,
        [
            ("k", args.k),
            ("phi_k", f"{witness.boundary}/{witness.volume}"),
            ("boundary", witness.boundary),
            ("volume", witness.volume),
            ("member_count", len(witness.members)),
        ],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecut",
        description="Small sparse cuts via lazy random walks",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write the result here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load", help="load a graph and print its stats")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_load)

    p = sub.add_parser("generate", help="write a synthetic edge list")
    fam = p.add_subparsers(dest="family", required=True)
    f = fam.add_parser("ring-of-cliques")
    f.add_argument("--r", type=int, required=True)
    f.add_argument("--s", type=int, required=True)
    f = fam.add_parser("barbell")
    f.add_argument("--s", type=int, required=True)
    f = fam.add_parser("path")
    f.add_argument("--n", type=int, required=True)
    f = fam.add_parser("complete")
    f.add_argument("--n", type=int, required=True)
    f = fam.add_parser("erdos-renyi")
    f.add_argument("--n", type=int, required=True)
    f.add_argument("--p", type=float, required=True)
    f.add_argument("--rng-seed", type=int, default=0)
    for name, f in fam.choices.items():
        f.add_argument("--out", required=True)
        f.add_argument("--meta-out", default=None)
        f.set_defaults(func=_cmd_generate, family=name)

    p = sub.add_parser("global", help="bicriteria sweep from every vertex")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--members-out", default=None)
    p.set_defaults(func=_cmd_global)

    p = sub.add_parser("global-tight", help="volume-tight bicriteria sweep")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--members-out", default=None)
    p.set_defaults(func=_cmd_global_tight)

    p = sub.add_parser("local", help="thresholded walk from one seed")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--members-out", default=None)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("curve", help="dump curve extreme points as TSV")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--truncation", type=float, default=0.0)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("certify", help="eigenvalue and retention margins of a set")
    p.add_argument("graph")
    p.add_argument("--set-file", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("oracle", help="exhaustive minimum conductance (small n)")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--members-out", default=None)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                return args.func(args, fh)
        return args.func(args, sys.stdout)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sparsecut: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
