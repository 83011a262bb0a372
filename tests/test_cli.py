import argparse
import subprocess
import sys

import pytest

from sparsecut import cli, load_edge_list

from conftest import cli_env, traced_peak

PYTHON = sys.executable


def run_cli(args, cwd):
    return subprocess.run(
        [PYTHON, "-m", "sparsecut", *args],
        cwd=cwd,
        env=cli_env(),
        capture_output=True,
        timeout=300,
    )


def parse_record(stdout: bytes) -> dict:
    pairs = [line.split("\t") for line in stdout.decode().splitlines()]
    return {p[0]: p[1] for p in pairs if len(p) == 2}


@pytest.fixture()
def ring_file(tmp_path):
    out = tmp_path / "ring.txt"
    res = run_cli(
        ["generate", "ring-of-cliques", "--r", "4", "--s", "5", "--out", str(out)],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    return out


def test_generate_writes_graph_and_metadata(tmp_path, ring_file):
    record = parse_record(
        run_cli(
            ["generate", "ring-of-cliques", "--r", "3", "--s", "3", "--out", "g.txt"],
            cwd=tmp_path,
        ).stdout
    )
    assert record["planted_conductance"] == "2/8"
    meta = (tmp_path / "g.txt.meta").read_text()
    assert "planted_conductance\t2/8" in meta
    assert "planted_members\t0,1,2" in meta


def test_load_record(tmp_path, ring_file):
    res = run_cli(["load", str(ring_file)], cwd=tmp_path)
    assert res.returncode == 0
    record = parse_record(res.stdout)
    assert record["vertices"] == "20"
    assert record["edges"] == "44"
    assert record["connected"] == "true"
    assert record["duplicate_edges"] == "0"


def test_generate_then_oracle_pipeline(tmp_path, ring_file):
    res = run_cli(["oracle", "--k", "22", str(ring_file)], cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["phi_k"] == "2/22"
    assert record["member_count"] == "5"


def test_global_record_keys(tmp_path, ring_file):
    res = run_cli(
        ["global", "--k", "22", "--epsilon", "0.01", str(ring_file)], cwd=tmp_path
    )
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["status"] == "ok"
    expected = {
        "k", "epsilon", "horizon", "volume_cap", "status",
        "conductance", "boundary", "volume", "member_count", "origin_seed",
        "origin_step", "origin_prefix", "work",
    }
    assert set(record) == expected
    assert record["boundary"] == "2" and record["volume"] == "22"


def test_global_tight_record(tmp_path, ring_file):
    res = run_cli(
        ["global-tight", "--k", "22", "--epsilon", "0.5", str(ring_file)],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["status"] == "ok"
    assert "epsilon_reduced" in record


def test_local_ok_and_members_out(tmp_path, ring_file):
    res = run_cli(
        [
            "local", "--seed", "3", "--k", "22", "--phi", "0.0909090909",
            "--epsilon", "0.2", "--members-out", "members.txt", str(ring_file),
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["status"] == "ok"
    members = (tmp_path / "members.txt").read_text().split()
    assert len(members) == int(record["member_count"])


def test_local_not_found_exits_zero(tmp_path):
    out = tmp_path / "k.txt"
    res = run_cli(
        ["generate", "complete", "--n", "60", "--out", str(out)], cwd=tmp_path
    )
    assert res.returncode == 0
    res = run_cli(
        [
            "local", "--seed", "0", "--k", "40", "--phi", "0.002",
            "--epsilon", "0.5", str(out),
        ],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["status"] == "not-found"
    assert record["conductance"] == "-"
    assert int(record["work"]) > 0


def test_local_never_returns_the_whole_graph(tmp_path):
    # the cap 5 * 10^1.5 = 158.1 is past K12's total volume 132, and the
    # whole graph was printed as a cut of conductance 0
    out = tmp_path / "comp.txt"
    res = run_cli(["generate", "complete", "--n", "12", "--out", str(out)], cwd=tmp_path)
    assert res.returncode == 0
    res = run_cli(
        ["local", str(out), "--seed", "0", "--k", "10", "--phi", "0.002", "--epsilon", "0.5"],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    record = parse_record(res.stdout)
    assert record["status"] == "ok"
    assert (record["volume"], record["boundary"], record["member_count"]) == ("121", "11", "11")


def test_curve_tsv(tmp_path, ring_file):
    res = run_cli(
        ["curve", "--seed", "0", "--steps", "4", str(ring_file)], cwd=tmp_path
    )
    assert res.returncode == 0
    lines = res.stdout.decode().splitlines()
    assert lines[0] == "0\t0.0"
    xs = [int(line.split("\t")[0]) for line in lines]
    assert xs == sorted(xs)
    assert xs[-1] == 88  # total volume of ring_of_cliques(4, 5)


def test_curve_holds_one_distribution(tmp_path):
    # curve --steps T prints step T only: past loading the graph, it holds
    # one distribution at a time, not the T + 1 steps of the walk
    graph, out = tmp_path / "ring.txt", str(tmp_path / "curve.tsv")
    res = run_cli(
        ["generate", "ring-of-cliques", "--r", "200", "--s", "20", "--out", str(graph)],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert cli.main(["-o", out, "curve", str(graph), "--seed", "0", "--steps", "1"]) == 0
    _, load = traced_peak(lambda: load_edge_list(graph))
    argv = ["-o", out, "curve", str(graph), "--seed", "0", "--steps", "500"]
    assert traced_peak(lambda: cli.main(argv))[1] <= load + 1_000_000


def test_certify_output(tmp_path, ring_file):
    set_file = tmp_path / "set.txt"
    set_file.write_text("".join(f"{v}\n" for v in range(5)))
    res = run_cli(
        ["certify", "--set-file", str(set_file), "--horizon", "5", str(ring_file)],
        cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.decode().splitlines()
    assert lines[0].startswith("lambda\t")
    assert lines[1].startswith("phi\t")
    assert len(lines) == 2 + 6  # horizon + 1 margin rows


def test_byte_order_mark_files_read_as_plain(tmp_path, ring_file):
    # a graph file and a set file that open with a UTF-8 byte-order mark
    marked = tmp_path / "marked.txt"
    marked.write_text(ring_file.read_text(), encoding="utf-8-sig")
    loads = [run_cli(["load", str(path)], cwd=tmp_path) for path in (ring_file, marked)]
    assert loads[0].returncode == loads[1].returncode == 0, loads[1].stderr
    assert loads[0].stdout == loads[1].stdout
    runs = []
    for encoding in ("utf-8", "utf-8-sig"):
        set_file = tmp_path / f"set-{encoding}.txt"
        set_file.write_text("".join(f"{v}\n" for v in range(5)), encoding=encoding)
        args = ["certify", "--set-file", str(set_file), "--horizon", "3", str(marked)]
        runs.append(run_cli(args, cwd=tmp_path))
    assert runs[1].returncode == 0, runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_usage_error_exits_two(tmp_path):
    res = run_cli(["global", "--k", "10"], cwd=tmp_path)  # missing graph/epsilon
    assert res.returncode == 2


def test_runtime_error_exits_one(tmp_path):
    missing = tmp_path / "missing.txt"
    res = run_cli(["load", str(missing)], cwd=tmp_path)
    assert res.returncode == 1
    assert b"error" in res.stderr


def test_non_finite_parameters_exit_one(tmp_path, ring_file):
    # each is one error line, not a traceback, and not a run that exits 0
    graph = str(ring_file)
    local = ["local", graph, "--seed", "0", "--k", "22", "--phi", "0.1", "--epsilon"]
    curve = ["curve", graph, "--seed", "0", "--steps", "5", "--truncation", "nan"]
    # phi = 1e-320 overflowed the horizon's ceil, 1e-9 asked for 3e8 steps
    tiny = [local[:7] + [phi, "--epsilon", "0.2"] for phi in ("1e-320", "1e-9")]
    horizon = "local horizon exceeds 1000000 steps: raise phi"
    # k = 10**7 asks for 1,611,810 steps from every vertex
    large_k = ["global", graph, "--k", "10000000", "--epsilon", "0.5"]
    # a negative --horizon was reported as "horizon_override must be nonnegative"
    negative = ["global", graph, "--k", "2", "--epsilon", "0.5", "--horizon", "-1"]
    # 2,000,000 certificate steps were still walking after 4 s
    set_file = tmp_path / "set.txt"
    set_file.write_text("0\n1\n2\n")
    long_curve = ["curve", graph, "--seed", "0", "--steps", "1000001"]
    long_certify = ["certify", "--set-file", str(set_file), "--horizon", "1000001", graph]
    # a k past the float range raised OverflowError; 10**250 first walked 288 exact steps
    huge, cap = "1" + "0" * 400, "volume cap 5*k^(1+epsilon) overflows a float"
    huge_local = local[:5] + [huge, "--phi", "0.1", "--epsilon", "0.2"]
    huge_cap = local[:5] + [str(10**250), "--phi", "0.5", "--epsilon", "0.5"]
    huge_tight = ["global-tight", graph, "--k", huge, "--epsilon", "0.5"]
    for args, message in (
        (local + ["inf"], "epsilon must be finite"),
        (local + ["nan"], "epsilon must be finite"),
        (curve, "truncation threshold must be nonnegative"),
        (tiny[0], horizon),
        (tiny[1], horizon),
        (large_k, "global horizon exceeds 1000000 steps"),
        (negative, "horizon must be nonnegative"),
        (long_curve, "horizon exceeds 1000000 steps"),
        (long_certify, "horizon exceeds 1000000 steps"),
        (huge_local, cap),
        (huge_cap, cap),
        (huge_tight, "k overflows a float"),
    ):
        res = run_cli(args, cwd=tmp_path)
        assert res.returncode == 1, args
        assert res.stdout == b""
        assert res.stderr.decode() == f"sparsecut: error: {message}\n"


def test_self_loop_reports_line_number(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n3 3\n")
    res = run_cli(["load", str(bad)], cwd=tmp_path)
    assert res.returncode == 1
    assert b"line 2" in res.stderr


def test_bad_set_file_line_reports_line_number(tmp_path, ring_file):
    set_file = tmp_path / "set.txt"
    set_file.write_text("0\n\nx\n2\n")
    res = run_cli(
        ["certify", "--set-file", str(set_file), "--horizon", "5", str(ring_file)],
        cwd=tmp_path,
    )
    assert res.returncode == 1
    assert res.stdout == b""
    assert res.stderr == b"sparsecut: error: line 3: non-integer vertex id 'x'\n"


def test_failed_run_keeps_output_file(tmp_path, ring_file):
    # the file is opened only once the result is computed; seed 99 is out of range
    prev = tmp_path / "prev.txt"
    prev.write_bytes(b"earlier result\n")
    for argv in (
        ["local", str(ring_file), "--seed", "99", "--k", "22", "--phi", "0.1", "--epsilon", "0.2"],
        ["curve", str(ring_file), "--seed", "99", "--steps", "4"],
    ):
        res = run_cli(["-o", str(prev), *argv], cwd=tmp_path)
        assert res.returncode == 1, argv
        assert res.stderr == b"sparsecut: error: seed out of range\n"
        assert prev.read_bytes() == b"earlier result\n", argv


def test_output_flag_writes_file(tmp_path, ring_file):
    res = run_cli(
        ["--output", "rec.txt", "load", str(ring_file)], cwd=tmp_path
    )
    assert res.returncode == 0
    assert res.stdout == b""
    assert "vertices\t20" in (tmp_path / "rec.txt").read_text()


def test_global_rejects_workers_flag(tmp_path, ring_file):
    res = run_cli(
        ["global", "--workers", "2", "--k", "22", "--epsilon", "0.01", str(ring_file)],
        cwd=tmp_path,
    )
    assert res.returncode == 2
    assert res.stdout == b""


# parser path -> (option strings or positional name, type, required, default), in order
GRAPH = ("graph", None, True, None)
MEMBERS = ("--members-out", None, False, None)
OUT = [("--out", None, True, None), ("--meta-out", None, False, None)]
PARSER = {
    (): [("--output -o", None, False, None)],
    ("load",): [GRAPH],
    ("generate",): [],
    ("generate", "ring-of-cliques"): [("--r", int, True, None), ("--s", int, True, None), *OUT],
    ("generate", "barbell"): [("--s", int, True, None), *OUT],
    ("generate", "path"): [("--n", int, True, None), *OUT],
    ("generate", "complete"): [("--n", int, True, None), *OUT],
    ("generate", "erdos-renyi"): [
        ("--n", int, True, None), ("--p", float, True, None), ("--rng-seed", int, False, 0), *OUT
    ],
    ("global",): [
        GRAPH, ("--k", int, True, None), ("--epsilon", float, True, None),
        ("--horizon", int, False, None), MEMBERS,
    ],
    ("global-tight",): [
        GRAPH, ("--k", int, True, None), ("--epsilon", float, True, None), MEMBERS
    ],
    ("local",): [
        GRAPH, ("--seed", int, True, None), ("--k", int, True, None),
        ("--phi", float, True, None), ("--epsilon", float, True, None), MEMBERS,
    ],
    ("curve",): [
        GRAPH, ("--seed", int, True, None), ("--steps", int, True, None),
        ("--truncation", float, False, 0.0),
    ],
    ("certify",): [GRAPH, ("--set-file", None, True, None), ("--horizon", int, True, None)],
    ("oracle",): [GRAPH, ("--k", int, True, None), MEMBERS],
}


def test_parser_options_are_pinned():
    found = {}

    def read(parser, path):
        rows = found.setdefault(path, [])
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, child in action.choices.items():
                    read(child, path + (name,))
            elif not isinstance(action, argparse._HelpAction):
                name = " ".join(action.option_strings) or action.dest
                rows.append((name, action.type, action.required, action.default))

    read(cli.build_parser(), ())
    assert list(found.items()) == list(PARSER.items())  # the -h order too


def test_every_subcommand_deterministic(tmp_path, ring_file):
    set_file = tmp_path / "set.txt"
    set_file.write_text("".join(f"{v}\n" for v in range(5)))
    invocations = [
        ["load", str(ring_file)],
        ["generate", "ring-of-cliques", "--r", "3", "--s", "4", "--out", "d.txt"],
        ["global", "--k", "22", "--epsilon", "0.01", str(ring_file)],
        ["global-tight", "--k", "22", "--epsilon", "0.5", str(ring_file)],
        [
            "local", "--seed", "0", "--k", "22", "--phi", "0.0909090909",
            "--epsilon", "0.2", str(ring_file),
        ],
        ["curve", "--seed", "0", "--steps", "6", str(ring_file)],
        ["certify", "--set-file", str(set_file), "--horizon", "4", str(ring_file)],
        ["oracle", "--k", "22", str(ring_file)],
    ]
    for argv in invocations:
        first = run_cli(argv, cwd=tmp_path)
        second = run_cli(argv, cwd=tmp_path)
        assert first.returncode == second.returncode == 0, (argv, first.stderr)
        assert first.stdout == second.stdout, argv
