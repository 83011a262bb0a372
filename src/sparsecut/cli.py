"""Command-line entry point with stable, scriptable tab-separated output.

Results go to stdout (or --output) as ``key<TAB>value`` lines with a fixed
key set per subcommand (``curve`` and ``certify`` add numbered rows);
diagnostics go to stderr. A subcommand computes all its lines before it
returns them, and ``main`` alone writes them, so a failed run writes no
result and leaves --output as it was. Exit status 0 covers success including
a local not-found, 2 flags usage errors, 1 runtime errors. Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Sequence

from . import generators
from .curve import build_curve
from .graph import Cut, GraphFormatError, load_edge_list, write_edge_list
from .partition import (
    GlobalParams,
    LocalParams,
    SweepOutcome,
    global_sparsest_cut,
    global_sparsest_cut_tight_volume,
    local_partition,
    tight_volume_exponent,
)
from .spectral import certify_lower_bound
from .walk import WalkSchedule, run_walk

Rows = Iterable[Sequence[object]]

_CUT_KEYS = ("status", "conductance", "boundary", "volume", "member_count",
             "origin_seed", "origin_step", "origin_prefix")


def _format(rows: Rows) -> Iterable[str]:
    """One tab-separated line a row, formatted as it is written."""
    return ("\t".join(map(str, row)) + "\n" for row in rows)


def _write_members(path: str | None, cut: Cut | None) -> None:
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v}\n" for v in (cut.members if cut is not None else ()))


def _cut_record(outcome: SweepOutcome) -> list[tuple[str, object]]:
    values = ("not-found", "-", "-", "-", 0, "-", "-", "-")
    if outcome.found:
        cut, origin = outcome.best, outcome.origin
        values = ("ok", repr(cut.conductance), cut.boundary, cut.volume, len(cut.members),
                  origin.seed, origin.step, origin.prefix)
    return [*zip(_CUT_KEYS, values), ("work", outcome.work)]


def _cmd_load(args) -> Rows:
    g = load_edge_list(args.graph)
    return [
        ("vertices", g.vertex_count),
        ("edges", g.edge_count),
        ("total_volume", g.total_volume),
        ("min_degree", int(g.degrees.min()) if g.vertex_count else 0),
        ("max_degree", int(g.degrees.max()) if g.vertex_count else 0),
        ("connected", str(g.connected).lower()),
        ("duplicate_edges", g.duplicate_edges),
    ]


# family -> (constructor, its size options); a trailing "!" marks a required option
_FAMILIES = {
    "ring-of-cliques": (generators.ring_of_cliques, "--r! --s!"),
    "barbell": (generators.barbell, "--s!"),
    "path": (generators.path, "--n!"),
    "complete": (generators.complete, "--n!"),
    "erdos-renyi": (generators.erdos_renyi, "--n! --p! --rng-seed"),
}


def _cmd_generate(args) -> Rows:
    make, sizes = _FAMILIES[args.family]
    made = make(*(getattr(args, o.strip("-!").replace("-", "_")) for o in sizes.split()))
    planted = made.planted if isinstance(made, generators.PlantedInstance) else None
    g = made.graph if planted is not None else made
    with open(args.out, "w", encoding="utf-8") as fh:
        write_edge_list(g, fh)
    phi = "-" if planted is None else f"{planted.boundary}/{planted.volume}"
    head = [("family", args.family), ("vertices", g.vertex_count), ("edges", g.edge_count)]
    meta = head + [("connected", str(g.connected).lower())]
    if planted is not None:
        members = ",".join(map(str, planted.members))
        meta += [("planted_conductance", phi), ("planted_members", members)]
    meta_path = args.meta_out or args.out + ".meta"
    with open(meta_path, "w", encoding="utf-8") as fh:
        fh.writelines(_format(meta))
    return head + [("out", args.out), ("meta_out", meta_path), ("planted_conductance", phi)]


def _cmd_global(args) -> Rows:
    """``global`` and ``global-tight``; the tight record adds epsilon_reduced."""
    g = load_edge_list(args.graph)
    reduced = []
    if args.command == "global":
        params = GlobalParams(k=args.k, epsilon=args.epsilon, horizon_override=args.horizon)
        outcome = global_sparsest_cut(g, params)
    else:
        outcome = global_sparsest_cut_tight_volume(g, args.k, args.epsilon)
        params = GlobalParams(k=args.k, epsilon=tight_volume_exponent(args.k, args.epsilon))
        reduced = [("epsilon_reduced", repr(params.epsilon))]
    _write_members(args.members_out, outcome.best)
    return [
        ("k", args.k),
        ("epsilon", repr(args.epsilon)),
        *reduced,
        ("horizon", params.horizon),
        ("volume_cap", repr(params.volume_cap)),
        *_cut_record(outcome),
    ]


def _cmd_local(args) -> Rows:
    g = load_edge_list(args.graph)
    params = LocalParams(seed=args.seed, k=args.k, phi=args.phi, epsilon=args.epsilon)
    outcome = local_partition(g, params)
    _write_members(args.members_out, outcome.best)
    return [
        ("seed", params.seed),
        ("k", params.k),
        ("phi", repr(params.phi)),
        ("epsilon", repr(params.epsilon)),
        ("horizon", params.horizon),
        ("truncation", repr(params.truncation)),
        ("volume_cap", repr(params.volume_cap)),
        ("threshold", repr(params.conductance_threshold)),
        *_cut_record(outcome),
    ]


def _cmd_curve(args) -> Rows:
    g = load_edge_list(args.graph)
    schedule = WalkSchedule(horizon=args.steps, truncation=args.truncation)
    for p in run_walk(g, args.seed, schedule):  # one pass to step T, one distribution held
        pass
    curve = build_curve(g, p)
    return ((int(x), repr(float(y))) for x, y in zip(curve.x, curve.y))


def _read_set(path: str) -> list[int]:
    members = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw_line in enumerate(fh, start=1):
            line = raw_line.strip()
            if line:
                try:
                    members.append(int(line))
                except ValueError:
                    raise GraphFormatError(f"non-integer vertex id {line!r}", lineno) from None
    return members


def _cmd_certify(args) -> Rows:
    g = load_edge_list(args.graph)
    report = certify_lower_bound(g, _read_set(args.set_file), args.horizon)
    margins = zip(range(report.horizon + 1), report.mass_margins, report.component_margins)
    return chain(
        [("lambda", repr(float(report.eigenpair.value))), ("phi", repr(float(report.conductance)))],
        ((t, repr(float(mass)), repr(float(component))) for t, mass, component in margins),
    )


def _cmd_oracle(args) -> Rows:
    g = load_edge_list(args.graph)
    _, witness = generators.exact_phi_k(g, args.k)
    _write_members(args.members_out, witness)
    return [
        ("k", args.k),
        ("phi_k", f"{witness.boundary}/{witness.volume}"),
        ("boundary", witness.boundary),
        ("volume", witness.volume),
        ("member_count", len(witness.members)),
    ]


# subcommand -> (help, function, options); a trailing "!" marks a required option
_COMMANDS = {
    "load": ("load a graph and print its stats", _cmd_load, "graph"),
    "generate": ("write a synthetic edge list", _cmd_generate, "--out! --meta-out"),
    "global": ("bicriteria sweep from every vertex", _cmd_global,
               "graph --k! --epsilon! --horizon --members-out"),
    "global-tight": ("volume-tight bicriteria sweep", _cmd_global,
                     "graph --k! --epsilon! --members-out"),
    "local": ("thresholded walk from one seed", _cmd_local,
              "graph --seed! --k! --phi! --epsilon! --members-out"),
    "curve": ("dump curve extreme points as TSV", _cmd_curve,
              "graph --seed! --steps! --truncation"),
    "certify": ("eigenvalue and retention margins of a set", _cmd_certify,
                "graph --set-file! --horizon!"),
    "oracle": ("exhaustive minimum conductance (small n)", _cmd_oracle, "graph --k! --members-out"),
}
_TYPES = {
    "--k": int, "--epsilon": float, "--horizon": int, "--seed": int, "--phi": float,
    "--steps": int, "--truncation": float, "--r": int, "--s": int, "--n": int,
    "--p": float, "--rng-seed": int,
}
_DEFAULTS = {"--truncation": 0.0, "--rng-seed": 0}


def _add_options(parser: argparse.ArgumentParser, options: str, func) -> None:
    for option in options.split():
        name = option.rstrip("!")
        if name.startswith("-"):
            required, default = option.endswith("!"), _DEFAULTS.get(name)
            parser.add_argument(name, type=_TYPES.get(name), required=required, default=default)
        else:
            parser.add_argument(name)
    parser.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecut",
        description="Small sparse cuts via lazy random walks",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write the result here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command != "generate":
            _add_options(p, options, func)
            continue
        families = p.add_subparsers(dest="family", required=True)
        for family, (_, sizes) in _FAMILIES.items():
            _add_options(families.add_parser(family), f"{sizes} {options}", func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rows = args.func(args)  # every row is computed before the sink is opened
        sink = nullcontext(sys.stdout)
        if args.output is not None:
            sink = open(args.output, "w", encoding="utf-8")
        with sink as out:
            out.writelines(_format(rows))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"sparsecut: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
