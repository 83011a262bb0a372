import dataclasses
import io
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sparsecut import (
    Graph,
    GraphFormatError,
    LocalParams,
    barbell,
    certify_lower_bound,
    complete,
    cut_of,
    erdos_renyi,
    find_local_seed,
    load_edge_list,
    ring_of_cliques,
    write_edge_list,
)
from sparsecut import graph as graph_module
from sparsecut import walk
from sparsecut.graph import (
    _components,
    _first_seen_labels,
    _gather_rows,
    _scan_edge_list,
    prefix_cut_profile,
)
from sparsecut.walk import SparseDistribution

from conftest import raises_message, traced_peak


def test_load_triangle():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0"))
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert list(g.degrees) == [2, 2, 2]
    assert g.total_volume == 6
    assert g.connected


def test_load_collapses_duplicates():
    g = load_edge_list(io.StringIO("0 1\n0 1"))
    assert g.edge_count == 1
    assert g.duplicate_edges == 1
    rev = load_edge_list(io.StringIO("0 1\n1 0"))
    assert rev.duplicate_edges == 1


def test_load_compacts_ids_first_seen():
    g = load_edge_list(io.StringIO("7 3\n3 9"))
    # 7 -> 0, 3 -> 1, 9 -> 2
    assert g.vertex_count == 3
    assert set(g.neighbors(1).tolist()) == {0, 2}
    # the bulk relabel against a first-seen dict, on repeats, 18-digit ids
    # and no ids at all
    rng = np.random.default_rng(3)
    for raw in (
        rng.integers(0, 50, size=(200, 2)),
        rng.choice([0, 1, 10**18 - 1, 10**17, 5], size=(40, 2)),
        np.empty((0, 2), dtype=np.int64),
    ):
        seen = {}
        want = [seen.setdefault(v, len(seen)) for v in raw.ravel().tolist()]
        assert _first_seen_labels(raw) == len(seen)
        assert raw.ravel().tolist() == want


def test_relabel_in_blocks_equals_first_seen(monkeypatch):
    # the relabel reads and writes the sorted ids a block at a time: runs of
    # one id across block boundaries, 18-digit ids, and blocks of one id
    rng = np.random.default_rng(8)
    big = rng.integers(10**17, 10**18, size=6)
    texts = [
        rng.integers(0, 4, size=(60, 2)),
        rng.choice(big, size=(45, 2)),
        rng.integers(0, 10**18, size=(33, 2)),
        np.full((9, 2), 10**18 - 1),
        np.empty((0, 2), dtype=np.int64),
    ]
    for block in (1, 2, 7, 64, 1 << 14):
        monkeypatch.setattr(graph_module, "_ID_BLOCK", block)
        for text in texts:
            raw = text.copy()
            seen = {}
            want = [seen.setdefault(v, len(seen)) for v in raw.ravel().tolist()]
            assert _first_seen_labels(raw) == len(seen)
            assert raw.ravel().tolist() == want


def test_relabel_peak_is_the_argsort_and_a_block():
    # 300,000 pairs of 2,000 ids: past the pairs, the relabel holds their
    # argsort, one block of ids and a few arrays of the 2,000, not a third
    # array of the ids (the pairs, the argsort and the sorted ids were 2.25x)
    rng = np.random.default_rng(4)
    raw = rng.choice(rng.integers(0, 10**18, size=2000), size=(300_000, 2))
    seen = {}
    want = [seen.setdefault(v, len(seen)) for v in raw.ravel().tolist()]
    _first_seen_labels(raw[:10].copy())  # loads what numpy imports lazily
    tracemalloc.start()
    try:
        n = _first_seen_labels(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n == len(seen) and raw.ravel().tolist() == want
    assert peak < 1.3 * raw.nbytes


def test_relabel_peak_on_ids_seen_twice():
    # a shuffled path of 300,000 vertices with 15-digit ids: each id is on
    # two lines, so an array of the distinct ids is half the pairs' bytes;
    # past the argsort, the relabel holds three at once and read 2.53x (five
    # read 3.50x)
    rng = np.random.default_rng(6)
    ids = rng.choice(9 * 10**14, size=300_000, replace=False) + 10**14
    raw = np.stack([ids[:-1], ids[1:]], axis=1)[rng.permutation(ids.size - 1)]
    seen = {}
    want = [seen.setdefault(v, len(seen)) for v in raw.ravel().tolist()]
    _first_seen_labels(raw[:10].copy())  # loads what numpy imports lazily
    n, peak = traced_peak(lambda: _first_seen_labels(raw))
    assert n == len(seen) == ids.size and raw.ravel().tolist() == want
    assert peak < 2.6 * raw.nbytes


def test_load_rejects_self_loop_with_line():
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO("0 1\n2 2"))
    assert err.value.line == 2


def test_load_rejects_malformed_line():
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO("0 1\nnope"))
    assert err.value.line == 2


def test_load_skips_comments_and_blank_lines():
    g = load_edge_list(io.StringIO("# header\n\n0 1\n"))
    assert g.edge_count == 1


def test_load_allows_disconnected():
    g = load_edge_list(io.StringIO("0 1\n2 3"))
    assert not g.connected


def test_connected_holds_no_labels(monkeypatch):
    # the labels take 8 bytes a vertex: ``connected`` keeps its bool alone,
    # and reads labels that ``components`` already holds without a second pass
    g = load_edge_list(io.StringIO("0 1\n2 3"))
    assert not g.connected and "components" not in vars(g)
    g = load_edge_list(io.StringIO("0 1\n2 3"))
    labels = g.components
    monkeypatch.setattr(graph_module, "_components", None)  # a second pass would raise
    assert not g.connected and g.components is labels


def test_round_trip_through_generator():
    g = ring_of_cliques(4, 5).graph
    buf = io.StringIO()
    write_edge_list(g, buf)
    reloaded = load_edge_list(io.StringIO(buf.getvalue()))
    assert reloaded.vertex_count == g.vertex_count
    assert reloaded.edge_count == g.edge_count
    assert np.array_equal(reloaded.indptr, g.indptr)
    assert np.array_equal(reloaded.indices, g.indices)


def test_cut_singleton_in_k4():
    g = complete(4)
    c = cut_of(g, [0])
    assert (c.volume, c.boundary, c.conductance) == (3, 3, 1.0)


def test_cut_barbell_triangle(barbell3):
    c = cut_of(barbell3.graph, [0, 1, 2])
    assert (c.volume, c.boundary) == (7, 1)
    assert c.exact == barbell3.phi_planted


def test_cut_whole_graph_has_zero_conductance(barbell3):
    g = barbell3.graph
    c = cut_of(g, range(g.vertex_count))
    assert c.boundary == 0
    assert c.conductance == 0.0


def test_cut_rejects_empty_and_out_of_range(barbell3):
    isolated = Graph.from_edges(3, [(0, 1)])
    for g, members, message in (
        (barbell3.graph, [], "vertex set must be nonempty"),
        (barbell3.graph, [99], "vertex id out of range"),
        (isolated, [2], "vertex set has zero volume; conductance undefined"),
    ):
        with raises_message(message):
            cut_of(g, members)


def test_vertex_sets_reject_non_integer_ids(barbell3):
    # a cast to int64 would truncate 0.5 and 1.7 to {0, 1} and parse '1'
    g = barbell3.graph
    params = LocalParams(seed=0, k=8, phi=0.2, epsilon=0.5)
    calls = (
        lambda ids: cut_of(g, ids),
        lambda ids: prefix_cut_profile(g, ids),
        lambda ids: certify_lower_bound(g, ids, 3),
        lambda ids: find_local_seed(g, ids, params),
    )
    bad = (
        [0.5, 1.7], ["1", "2"], np.array([0.0, 1.0]), [True, False], [0, 1.0],
        [0, True], (2, False), np.array([0, True], dtype=object),  # was the set {0, 1}
    )
    for call in calls:
        for ids in bad:
            with raises_message("vertex ids must be integers"):
                call(ids)
    assert find_local_seed(g, [0, 1, 2], params) in (0, 1, 2)  # the integer ids still work
    assert cut_of(g, np.array([0, 1, 2], dtype=np.uint8)) == cut_of(g, [0, 1, 2])
    with raises_message("vertex set must be nonempty"):
        cut_of(g, [])


def test_brute_force_oracle_confirms_barbell_count(barbell3):
    # independent recount of (volume, boundary) straight from edge pairs
    g = barbell3.graph
    members = {0, 1, 2}
    volume = sum(g.degree(v) for v in members)
    boundary = 0
    for u in range(g.vertex_count):
        for w in g.neighbors(u):
            if u < w and (u in members) != (int(w) in members):
                boundary += 1
    assert (volume, boundary) == (7, 1)


def test_boundary_symmetry_random_sets():
    rng = np.random.default_rng(3)
    g = erdos_renyi(30, 0.15, rng_seed=11)
    all_v = set(range(g.vertex_count))
    for _ in range(25):
        size = int(rng.integers(1, g.vertex_count))
        s = set(map(int, rng.choice(g.vertex_count, size=size, replace=False)))
        comp = all_v - s
        if not comp or cut_of(g, s).volume == 0:
            continue
        try:
            c1, c2 = cut_of(g, s), cut_of(g, comp)
        except ValueError:
            continue  # zero-volume complement
        assert c1.boundary == c2.boundary
        # independent recount from edge pairs
        assert c1.boundary == sum(
            1
            for u in range(g.vertex_count)
            for w in g.neighbors(u)
            if u < w and (u in s) != (int(w) in s)
        )
        assert 0.0 <= c1.conductance <= 1.0


def test_conductance_zero_iff_component_union():
    g = load_edge_list(io.StringIO("0 1\n1 2\n2 0\n3 4"))
    assert cut_of(g, [0, 1, 2]).conductance == 0.0
    assert cut_of(g, [3, 4]).conductance == 0.0
    assert cut_of(g, [0, 1, 2, 3, 4]).conductance == 0.0
    assert cut_of(g, [0, 3]).conductance > 0.0


def test_degree_sum_after_every_load():
    rng = np.random.default_rng(5)
    for trial in range(10):
        g = erdos_renyi(25, float(rng.uniform(0.05, 0.5)), rng_seed=trial)
        assert int(g.degrees.sum()) == 2 * g.edge_count == g.total_volume


def test_prefix_profile_matches_cut_of():
    g = erdos_renyi(20, 0.3, rng_seed=2)
    rng = np.random.default_rng(9)
    order = rng.permutation(g.vertex_count)
    volumes, boundaries = prefix_cut_profile(g, order)
    for j in range(1, g.vertex_count + 1):
        c = cut_of(g, order[:j])
        assert volumes[j - 1] == c.volume
        assert boundaries[j - 1] == c.boundary


def test_prefix_profile_on_subset_ordering():
    g = barbell(4).graph
    order = [0, 5, 1]  # spans both cliques, not all vertices
    volumes, boundaries = prefix_cut_profile(g, order)
    for j in range(1, len(order) + 1):
        c = cut_of(g, order[:j])
        assert volumes[j - 1] == c.volume
        assert boundaries[j - 1] == c.boundary


def test_prefix_profile_matches_edge_pair_recount():
    # random orderings of random subsets, recounted prefix by prefix from
    # the edge pairs; vertices 25-29 have no neighbors
    rng = np.random.default_rng(17)
    for trial in range(30):
        er = erdos_renyi(25, float(rng.uniform(0.05, 0.4)), rng_seed=trial)
        pairs = [(u, int(w)) for u in range(25) for w in er.neighbors(u) if u < w]
        g = Graph.from_edges(30, pairs)
        size = int(rng.integers(1, 31))
        order = rng.choice(30, size=size, replace=False)
        volumes, boundaries = prefix_cut_profile(g, order)
        assert volumes.dtype == boundaries.dtype == np.int64
        for j in range(1, size + 1):
            prefix = set(order[:j].tolist())
            assert volumes[j - 1] == sum(g.degree(v) for v in prefix)
            assert boundaries[j - 1] == sum((u in prefix) != (w in prefix) for u, w in pairs)
        repeated = np.insert(order, int(rng.integers(0, size + 1)), order[rng.integers(size)])
        with pytest.raises(ValueError, match="repeated"):
            prefix_cut_profile(g, repeated)
    # no selection, or only vertices of no neighbor, gathers no arc
    for none in (np.empty(0, dtype=np.int64), np.arange(25, 30)):
        arcs = _gather_rows(g, none)
        assert arcs.dtype == np.int64 and arcs.size == 0


def test_merge_by_marks_matches_the_sorted_merge():
    # from n arcs on, a merge finds its union by marks in place of a sort: the
    # same union, degrees and slots as np.unique gives, on supports just below,
    # at and above n arcs and on the full support; the last graph's vertex 25
    # has no neighbor
    rng = np.random.default_rng(36)
    er = erdos_renyi(25, 0.2, rng_seed=3)
    graphs = [
        erdos_renyi(int(rng.integers(10, 40)), float(rng.uniform(0.05, 0.4)), rng_seed=s)
        for s in range(20)
    ]
    pairs = [(u, int(w)) for u in range(25) for w in er.neighbors(u) if u < w]
    graphs.append(Graph.from_edges(26, pairs))
    sides = set()
    for g in graphs:
        n = g.vertex_count
        order = rng.permutation(n)
        below = int(np.searchsorted(g.degrees[order].cumsum(), n))  # prefixes under n arcs
        for size in {below, below + 1, below + 2, n} & set(range(1, n + 1)):
            ids = np.sort(order[:size])
            merge = graph_module._merge(g, ids)
            targets = np.concatenate([g.neighbors(v) for v in ids])
            union, slot = np.unique(np.concatenate([ids, targets]), return_inverse=True)
            assert np.array_equal(merge.union, union)
            assert np.array_equal(merge.union_deg, g.degrees[union])
            assert np.array_equal(merge.id_slot, slot[:size])
            assert np.array_equal(merge.arc_slot, slot[size:])
            sides.add(int(np.sign(merge.volume - n)))
    assert sides == {-1, 0, 1}


def test_prefix_profile_rejects_out_of_range_ids():
    # negative ids must not wrap around to the last vertices
    g = ring_of_cliques(4, 5).graph
    for order in ([-20], [0, -20], [-1, 3], [20], [3, 20], [0, 1 << 40]):
        with pytest.raises(ValueError, match="vertex id out of range"):
            prefix_cut_profile(g, order)


def test_bare_profile_equals_the_profile_through_a_support_plan():
    # a bare call merges the sorted ordering, a sparse step's plan merges its
    # support: on random labels, with vertices of no neighbor and orderings
    # that fill the support or leave some of it out, both give the same arrays
    rng = np.random.default_rng(31)
    strict = 0
    for trial in range(40):
        er = erdos_renyi(25, float(rng.uniform(0.05, 0.4)), rng_seed=trial)
        label = rng.permutation(30)  # the labels label[25:] have no neighbors
        src = np.repeat(np.arange(25), er.degrees)
        forward = src < er.indices
        g = Graph.from_edges(30, zip(label[src[forward]], label[er.indices[forward]]))
        support = np.sort(rng.choice(30, size=int(rng.integers(1, 31)), replace=False))
        merge = walk._plan_of(g, SparseDistribution(support, rng.random(support.size), 30))
        order = rng.choice(support, size=int(rng.integers(1, support.size + 1)), replace=False)
        strict += order.size < support.size
        for got, want in zip(prefix_cut_profile(g, order), prefix_cut_profile(g, order, merge)):
            assert got.dtype == want.dtype == np.int64 and np.array_equal(got, want)
        # the bare call still checks the ordering it merges
        at = int(rng.integers(order.size + 1))
        with raises_message("vertex id out of range"):
            prefix_cut_profile(g, np.insert(order, at, rng.choice([-1, -30, 30, 1 << 40])))
        with raises_message("ordering contains repeated vertices"):
            prefix_cut_profile(g, np.insert(order, at, rng.choice(order)))
    assert strict >= 20


def test_graph_record_is_its_arrays_and_load_metadata():
    # counts, degrees and connectivity are derived from the arrays, not stored
    assert [f.name for f in dataclasses.fields(Graph)] == ["indptr", "indices", "duplicate_edges"]


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])


# --- bulk ingest against the line-by-line reference -------------------------


def reference_from_edges(n, edges):
    """The set-and-lexsort builder: its arrays, loop-computed counts and a DFS connectivity flag."""
    seen, duplicates = set(), 0
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        key = (min(u, v), max(u, v))
        duplicates += key in seen
        seen.add(key)
    pairs = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    degrees = np.bincount(src, minlength=n).astype(np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return SimpleNamespace(
        vertex_count=n,
        edge_count=len(seen),
        indptr=indptr,
        indices=dst,
        degrees=degrees,
        total_volume=int(degrees.sum()),
        connected=dfs_connected(n, indptr, dst),
        duplicate_edges=duplicates,
    )


def dfs_components(n, indptr, indices):
    """Each vertex's component, labelled by its least vertex, by depth-first search."""
    label = np.full(n, -1)
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = root
        stack = [root]
        while stack:
            v = stack.pop()
            for w in indices[indptr[v] : indptr[v + 1]]:
                if label[w] < 0:
                    label[w] = root
                    stack.append(int(w))
    return label


def dfs_connected(n, indptr, indices):
    return not dfs_components(n, indptr, indices).any()


def reference_load(text):
    """The line-by-line loader: first-seen ids, line-numbered errors."""
    ids, edges = {}, []
    for lineno, raw_line in enumerate(io.StringIO(text), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"expected two vertex ids, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id in {line!r}", lineno) from None
        if a < 0 or b < 0:
            raise GraphFormatError(f"negative vertex id in {line!r}", lineno)
        if a == b:
            raise GraphFormatError(f"self-loop at vertex {a}", lineno)
        edges.append((ids.setdefault(a, len(ids)), ids.setdefault(b, len(ids))))
    return reference_from_edges(len(ids), edges)


def assert_same_graph(got, want):
    for field in ("vertex_count", "edge_count", "total_volume", "connected", "duplicate_edges"):
        assert type(getattr(got, field)) is type(getattr(want, field)), field
        assert getattr(got, field) == getattr(want, field), field
    for field in ("indptr", "indices", "degrees"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype == np.int64, field
        assert np.array_equal(a, b), field


def assert_loads_like_reference(text):
    try:
        want = reference_load(text)
    except GraphFormatError as err:
        with pytest.raises(GraphFormatError) as got:
            load_edge_list(io.StringIO(text))
        assert (got.value.line, str(got.value)) == (err.line, str(err))
        return "error"
    assert_same_graph(load_edge_list(io.StringIO(text)), want)
    return "graph"


# lines the bulk scan declines: errors, and a few odd but valid lines
DECLINED = [
    "+5 3", "1_0 2", "1\xa02", "3 4 # x", "1 2 3", "9", "7 7", "-1 2", "x y",
    "1 2\r3 4", "5\r6", "0x1 2", "\u0663 4", "12345678901234567890 1", "4\x1c5", "# café",
    "1\x0e2", "3\x085",
]


def random_edge_text(rng, lines, odd_rate):
    ids = [str(x) for x in rng.integers(0, 40, size=30)]
    ids += ["0" * int(rng.integers(1, 4)) + ids[0], "9" * 18, "0" * 17 + "1", "000"]
    seps = [" ", "  ", "\t", " \t ", "\x0b", "\x0c"]
    out = []
    for _ in range(lines):
        roll = rng.random()
        if roll < odd_rate:
            out.append(DECLINED[int(rng.integers(len(DECLINED)))])
        elif roll < 0.15:
            lead = ["", " ", "\t", " \t  "][int(rng.integers(4))]
            body = ["", " 1 2", "# 3 4 x", "#", "!"][int(rng.integers(5))]
            out.append(f"{lead}#{body}")
        elif roll < 0.22:
            out.append(["", " ", "\t", "\x0c "][int(rng.integers(4))])
        else:
            a, b = rng.choice(len(ids), size=2, replace=False)
            lead, trail = (["", " ", "\t"][int(x)] for x in rng.integers(3, size=2))
            sep = seps[int(rng.integers(len(seps)))]
            out.append(f"{lead}{ids[a]}{sep}{ids[b]}{trail}")
    ends = ["\n", "\r\n"]
    text = "".join(line + ends[int(rng.random() < 0.2)] for line in out)
    return text if rng.random() < 0.5 else text.rstrip("\r\n")


def test_bulk_loader_matches_line_parser_on_random_texts():
    rng = np.random.default_rng(20)
    outcomes = {"graph": 0, "error": 0}
    bulk = 0
    for trial in range(400):
        lines = int(rng.integers(0, 40))
        text = random_edge_text(rng, lines, odd_rate=[0.0, 0.01, 0.05][trial % 3])
        bulk += _scan_edge_list(text) is not None
        outcomes[assert_loads_like_reference(text)] += 1
    # the bulk path takes most texts; both outcomes are well covered
    assert bulk > 200 and min(outcomes.values()) > 50


BULK_EDGE_CASES = [
    "",
    "\n\n",
    "# only a comment",
    "  # indented comment\n\t#tabbed 5 6\n1 2",
    "1 2\r\n2 3\r\n",
    "1 2\r",
    "1 2\r\r\n",
    "007 7\n7 007",
    "5 6\n6 5\n5 6",
    f"{'9' * 18} 1\n1 {'9' * 17}",
    f"{'9' * 19} 1",
    "1\x0b2\n3\x0c4",
    "1 2 # trailing comment",
    "1 2\n#\n3 3",
    "1 2",
    "+5 3",
    "1_0 2",
    "1 2\r3 4\n",
    "1\r2\n",
    "3 4\n4 5 6",
    "1\n2",
    f"{2**64 + 2} 3\n1 2",
]


@pytest.mark.parametrize("text", BULK_EDGE_CASES)
def test_bulk_loader_edge_cases(text):
    assert_loads_like_reference(text)


def test_bulk_loader_reports_late_self_loop():
    rng = np.random.default_rng(4)
    pairs = rng.integers(0, 5000, size=(100_000, 2))
    pairs[pairs[:, 0] == pairs[:, 1], 1] += 1
    lines = [f"{a} {b}" for a, b in pairs.tolist()]
    lines[97_531] = "123 123"
    text = "\n".join(lines)
    assert assert_loads_like_reference(text) == "error"
    with pytest.raises(GraphFormatError) as err:
        load_edge_list(io.StringIO(text))
    assert err.value.line == 97_532


def test_load_from_path_matches_stream(tmp_path):
    text = "# header\r\n3 1\r\n1 2\r\n\r\n2 3\r\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    assert_same_graph(load_edge_list(path), reference_load(text.replace("\r\n", "\n")))


def test_load_follows_the_stream_line_ends():
    # a stream that splits lines at a bare carriage return keeps it in read()
    text = "1 2\r2 3\r# note\r3 1"
    g = load_edge_list(io.StringIO(text, newline=""))
    assert_same_graph(g, reference_load(text.replace("\r", "\n")))
    for text, line in [("1 2\r2 2", 2), ("1\r2\n", 1)]:
        with pytest.raises(GraphFormatError) as err:
            load_edge_list(io.StringIO(text, newline=""))
        assert err.value.line == line


# texts whose lines meet the edges of small scan blocks: a \r\n, a lone
# trailing \r, a comment line, a line longer than a block, a late self-loop
BLOCK_EDGE_TEXTS = [
    "1 2\r\n2 3\r\n3 1",
    "1 2\n2 3\r",
    "1 2\n# 5 6 x\n2 3\n#\n3 1",
    f"1{' ' * 70}2\n# {'x' * 70}\n2\t{'0' * 17}3",
    "1 2\n2 3\n3 1\n4 4",
]


@pytest.mark.parametrize("block", [1, 7, 64])
def test_block_scan_matches_the_line_parser(monkeypatch, block):
    whole = [_scan_edge_list(text) for text in BLOCK_EDGE_TEXTS]
    monkeypatch.setattr(graph_module, "_BLOCK_CHARS", block)
    rng = np.random.default_rng(20)
    bulk = 0
    for trial in range(400):
        lines = int(rng.integers(0, 40))
        text = random_edge_text(rng, lines, odd_rate=[0.0, 0.01, 0.05][trial % 3])
        bulk += _scan_edge_list(text) is not None
        assert_loads_like_reference(text)
    assert bulk > 200  # most texts take the block scan
    for text in BULK_EDGE_CASES:
        assert_loads_like_reference(text)
    # each text after a first line that moves it across one block's end
    for text, pairs in zip(BLOCK_EDGE_TEXTS, whole):
        for pad in range(block + 3):
            assert_loads_like_reference(f"{' ' * pad}8 9\n{text}")
        got = _scan_edge_list(text)
        assert got is None if pairs is None else np.array_equal(got, pairs)
    assert sum(pairs is None for pairs in whole) == 1  # the self-loop declines


def test_bulk_load_peak_is_text_csr_and_one_block(tmp_path):
    g = ring_of_cliques(2000, 20).graph
    path = tmp_path / "ring.txt"
    with open(path, "w") as sink:
        write_edge_list(g, sink)
    assert _scan_edge_list(path.read_text()) is not None  # the bulk path, no fall-back
    loaded, peak = traced_peak(lambda: load_edge_list(path))
    assert_same_graph(loaded, g)
    # 382k edges: the scan's text (11 bytes an edge) and pairs (16) and one
    # 128 KiB block's temporaries read 41 bytes an edge; 1 MiB blocks read
    # 61, and a whole-text scan 136
    assert peak < 47 * g.edge_count


def test_write_edge_list_peak_is_one_slice(tmp_path):
    g = ring_of_cliques(1000, 20).graph
    with open(tmp_path / "ring.txt", "w") as sink:
        _, peak = traced_peak(lambda: write_edge_list(g, sink))
    # 191k lines: int64 arrays of the edges and one slice of 65k lines'
    # strings read 85 bytes an edge; one join of every line read 166
    assert peak < 120 * g.edge_count


def test_from_edges_matches_reference_on_random_edges():
    rng = np.random.default_rng(8)
    for trial in range(60):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(0, 3 * n))
        edges = rng.integers(0, n, size=(m, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        want = reference_from_edges(n, edges.tolist())
        assert_same_graph(Graph.from_edges(n, edges), want)
        assert_same_graph(Graph.from_edges(n, map(tuple, edges.tolist())), want)


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (3, [(0, 1), (5, 1), (2, 2)], "edge (5,1) out of range for n=3"),
        (3, [(0, 1), (2, 2), (5, 1)], "self-loop at vertex 2"),
        (3, [(7, 7)], "self-loop at vertex 7"),
        (3, [(1, -1)], "edge (1,-1) out of range for n=3"),
        (0, [(0, 1)], "edge (0,1) out of range for n=0"),
        (3, [(0, 1, 2)], "edges must be (u, v) pairs"),
        (-1, [], "vertex_count must be nonnegative"),
    ],
)
def test_from_edges_reports_first_bad_edge(n, edges, message):
    with pytest.raises(ValueError) as err:
        Graph.from_edges(n, edges)
    assert str(err.value) == message


def test_from_edges_million_random_edges():
    # 1M edges build without a Python loop per edge; counts and symmetry
    rng = np.random.default_rng(1)
    n = 200_000
    edges = rng.integers(0, n, size=(1_000_000, 2))
    edges = edges[edges[:, 0] != edges[:, 1]]
    g = Graph.from_edges(n, edges)
    distinct = np.unique(np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1]))
    assert g.edge_count == distinct.size
    assert g.duplicate_edges == len(edges) - distinct.size
    assert g.total_volume == 2 * g.edge_count == int(g.degrees.sum()) == g.indices.size
    assert np.array_equal(np.diff(g.indptr), g.degrees)
    src = np.repeat(np.arange(n), g.degrees)
    forward = np.sort(src * n + g.indices)
    assert np.array_equal(forward, np.sort(g.indices * n + src))  # symmetric
    assert (np.diff(forward) > 0).all()  # rows sorted, no parallel arcs
    assert not g.connected  # 200k vertices, 1M random edges: some isolated


def test_from_edges_peak_is_the_arc_array_and_the_keys():
    g = ring_of_cliques(2000, 20).graph
    src = np.repeat(np.arange(g.vertex_count), g.degrees)
    forward = src < g.indices
    pairs = np.stack([src[forward], g.indices[forward]], axis=1)
    pairs = pairs[np.random.default_rng(5).permutation(len(pairs))]
    built, peak = traced_peak(lambda: Graph.from_edges(g.vertex_count, pairs))
    assert np.array_equal(built.indptr, g.indptr) and np.array_equal(built.indices, g.indices)
    # 382k distinct edges: the arc array (16 bytes an edge) beside the
    # distinct keys (8) read 24.0 bytes an edge; the range check's mask,
    # held to the end, read 25.0
    assert peak < 24.5 * len(pairs)


# --- connectivity -------------------------------------------------------------


def connectivity_cases():
    rng = np.random.default_rng(12)
    cases = [
        Graph.from_edges(0, []),
        Graph.from_edges(1, []),
        Graph.from_edges(3, []),
        Graph.from_edges(3, [(0, 1)]),
        Graph.from_edges(4, [(2, 3), (0, 1)]),
        Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
        ring_of_cliques(6, 5).graph,
    ]
    perm = rng.permutation(3000)
    cases.append(Graph.from_edges(3000, np.stack([perm[:-1], perm[1:]], axis=1)))
    cases.append(Graph.from_edges(3000, np.stack([perm[:-2], perm[1:-1]], axis=1)))
    g = ring_of_cliques(30, 6).graph
    relabel = rng.permutation(g.vertex_count)
    src = np.repeat(np.arange(g.vertex_count), g.degrees)
    cases.append(Graph.from_edges(g.vertex_count, np.stack([relabel[src], relabel[g.indices]], axis=1)))
    for trial in range(40):
        n = int(rng.integers(2, 60))
        cases.append(erdos_renyi(n, float(rng.uniform(0.0, 0.15)), rng_seed=trial))
    return cases


def test_connectivity_matches_dfs():
    flags = []
    for g in connectivity_cases():
        labels = _components(g.vertex_count, g.indptr, g.indices)
        assert np.array_equal(labels, dfs_components(g.vertex_count, g.indptr, g.indices))
        assert np.array_equal(g.components, labels)
        flags.append(not labels.any())
        assert flags[-1] is g.connected
    assert 10 < sum(flags) < len(flags) - 10


def shuffled_path(n, rng, cut=None):
    """A path through a random order of n vertices; with ``cut``, less that edge."""
    perm = rng.permutation(n)
    pairs = np.stack([perm[:-1], perm[1:]], axis=1)
    return Graph.from_edges(n, pairs if cut is None else np.delete(pairs, cut, axis=0))


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 14])
def test_blocked_connectivity_matches_dfs(monkeypatch, block):
    # the first round reads the arcs a block at a time: rows cut by a block's
    # ends, a hub row over many blocks, and shuffled paths, where a third of
    # the vertices have no smaller neighbor, so round one leaves a third of
    # the edges between two trees
    rng = np.random.default_rng(13)
    cases = connectivity_cases()
    for hub in (0, 50, 99):
        leaves = np.delete(np.arange(100), hub)
        cases.append(Graph.from_edges(100, np.stack([np.full(99, hub), leaves], axis=1)))
        cases.append(Graph.from_edges(101, np.stack([np.full(98, hub), leaves[1:]], axis=1)))
    paths = [shuffled_path(n, rng) for n in (2, 3, 500, 9_000)]
    paths += [shuffled_path(n, rng, cut=n // 2) for n in (3, 500, 9_000)]
    for g in paths[2:4] + paths[5:]:
        least = g.indices[g.indptr[:-1]]  # each vertex's least neighbor
        assert (least > np.arange(g.vertex_count)).sum() > g.vertex_count // 4
    monkeypatch.setattr(graph_module, "_ID_BLOCK", block)
    flags = []
    for g in cases + paths:
        labels = _components(g.vertex_count, g.indptr, g.indices)
        assert np.array_equal(labels, dfs_components(g.vertex_count, g.indptr, g.indices))
        flags.append(not labels.any())
    assert flags[-7:] == [True] * 4 + [False] * 3


def test_connected_peak_is_a_fraction_of_the_arcs():
    # the check holds n-length arrays and one block of arcs at a time: on
    # 764k arcs its extra peak read 0.22x the arcs' bytes; all arcs at once,
    # with their hooks, read 3.1x
    g = ring_of_cliques(2000, 20).graph
    fresh = Graph(g.indptr, g.indices)
    connected, peak = traced_peak(lambda: fresh.connected)
    assert connected
    assert peak < 0.5 * g.indices.nbytes


# --- writing ------------------------------------------------------------------


def reference_write(g):
    out = io.StringIO()
    for v in range(g.vertex_count):
        for u in g.neighbors(v):
            if u < v:
                out.write(f"{int(u)} {v}\n")
    return out.getvalue()


def test_write_edge_list_matches_loop_reference():
    for g in (
        ring_of_cliques(4, 5).graph,
        barbell(7).graph,
        erdos_renyi(40, 0.2, rng_seed=3),
        Graph.from_edges(3, []),
        Graph.from_edges(0, []),
    ):
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert buf.getvalue() == reference_write(g)


def test_non_integer_vertex_ids_are_rejected_not_cast():
    # a cast to int64 would truncate floats and parse strings: the first
    # graph would be the path 0-1-2, the distribution a walk from 0 and 2
    for edges in ([(0.5, 1.7), (1.2, 2.9)], np.array([[0.0, 1.0]]), [("0", "1")]):
        with raises_message("vertex ids must be integers"):
            Graph.from_edges(3, edges)
    for support in ([0.5, 2.7], ["0", "2"]):
        with raises_message("vertex ids must be integers"):
            SparseDistribution(support, [0.5, 0.5], 4)
    # integer ids of any width still build, and an empty edge list is no id
    narrow = Graph.from_edges(3, np.array([[0, 1], [1, 2]], dtype=np.uint8))
    assert narrow.indices.dtype == np.int64 and narrow.edge_count == 2
    assert Graph.from_edges(3, []).edge_count == 0
    assert SparseDistribution(np.array([1], dtype=np.int32), [1.0], 3).support.dtype == np.int64


def test_ids_past_int64_are_out_of_range(barbell3):
    # NumPy holds such ints in an object array, or in a float one beside
    # smaller ints; they were reported as non-integers. An object array of
    # smaller ints reads as the same list: floats in it are still refused
    g = barbell3.graph
    for call in (
        lambda: Graph.from_edges(3, [(0, 1 << 70)]),
        lambda: Graph.from_edges(3, np.array([(0, 1), (1, -(1 << 64))], dtype=object)),
        lambda: cut_of(g, [1 << 70]),
        lambda: cut_of(g, [0, 1 << 63]),
        lambda: prefix_cut_profile(g, [1, 1 << 70]),
    ):
        with raises_message("vertex id out of range"):
            call()
    for call in (
        lambda: cut_of(g, [1 << 40, 0.5]),
        lambda: Graph.from_edges(3, np.array([(0, 1), (1, 2.0)], dtype=object)),
        lambda: Graph.from_edges(3, np.array([(False, True)], dtype=object)),
        # a bool among ints: NumPy reads it as 0 or 1 in an int64 array
        lambda: Graph.from_edges(3, np.array([(0, True)], dtype=object)),
        lambda: Graph.from_edges(3, [(0, 1), (1, True)]),
        lambda: Graph.from_edges(3, [[0, np.True_]]),
    ):
        with raises_message("vertex ids must be integers"):
            call()
    line = Graph.from_edges(3, np.array([(0, 1), (1, 2)], dtype=object))
    assert line.indptr.tolist() == [0, 1, 3, 4] and line.indices.tolist() == [1, 0, 2, 1]


def test_byte_order_mark_is_skipped(tmp_path):
    # the bulk scan and the line parser (a '+1' id) both read a marked file
    # as the plain text, and a bad line keeps its number
    for text in ("# ring\n0 1\n1 2\n2 0\n", "0 +1\n1 2\n"):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
        want, got = load_edge_list(plain), load_edge_list(marked)
        assert np.array_equal(want.indptr, got.indptr)
        assert np.array_equal(want.indices, got.indices)
    marked.write_text("0 1\n1 x\n", encoding="utf-8-sig")
    with pytest.raises(GraphFormatError, match="^line 2: non-integer vertex id in '1 x'$"):
        load_edge_list(marked)
