import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from commdyn import graphgen, spectral
from commdyn.graphgen import (Graph, SbmParams, block_labels, check_assumptions,
                              is_connected, max_expected_degree, read_edge_list, sample_sbm,
                              write_edge_list)
from oracles import bernoulli_pairs_sbm, expected_adjacency


def test_params_validation():
    with pytest.raises(ValueError):
        SbmParams(0, 3, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SbmParams(2, 2, 1.2, 0.5, 0.5)


def test_is_symmetric():
    assert SbmParams.ssbm(10, 0.3, 0.1).is_symmetric()
    assert not SbmParams(5, 5, 0.3, 0.1, 0.2).is_symmetric()
    assert not SbmParams(4, 6, 0.3, 0.1, 0.3).is_symmetric()


def test_zero_probability_gives_edgeless_graph():
    g = sample_sbm(SbmParams(3, 2, 0.0, 0.0, 0.0), seed=1)
    assert g.adjacency.sum() == 0


def test_unit_probability_gives_complete_graph():
    g = sample_sbm(SbmParams(2, 2, 1.0, 1.0, 1.0), seed=5)
    expected = np.ones((4, 4)) - np.eye(4)
    assert np.array_equal(g.adjacency.toarray(), expected)


def test_sampled_adjacency_symmetric_zero_diagonal():
    p = SbmParams(6, 10, 0.4, 0.2, 0.7)
    for seed in range(5):
        g = sample_sbm(p, seed)
        assert np.array_equal(g.adjacency.toarray(), g.adjacency.toarray().T)
        assert np.all(np.diag(g.adjacency.toarray()) == 0)
        assert np.array_equal(g.labels, np.repeat([1, 2], [6, 10]))


def test_seed_determinism_and_variation():
    p = SbmParams(25, 25, 0.5, 0.5, 0.5)
    a = sample_sbm(p, 123).adjacency.toarray()
    b = sample_sbm(p, 123).adjacency.toarray()
    assert np.array_equal(a, b)
    differing = sum(
        not np.array_equal(sample_sbm(p, 2 * k).adjacency.toarray(),
                           sample_sbm(p, 2 * k + 1).adjacency.toarray())
        for k in range(10))
    assert differing >= 1


def test_single_pair_edge_frequency():
    # one cross-community pair, 10^4 independent graphs
    p = SbmParams(1, 1, 0.0, 0.3, 0.0)
    draws = 10_000
    hits = sum(sample_sbm(p, seed).adjacency[0, 1] for seed in range(draws))
    sigma = math.sqrt(0.3 * 0.7 / draws)
    assert abs(hits / draws - 0.3) <= 4 * sigma


def test_mean_intra_degree_matches_binomial_moment():
    p = SbmParams.ssbm(400, 0.3, 0.05)
    n1 = 200
    seeds = 100
    means = []
    for seed in range(seeds):
        block = sample_sbm(p, seed).adjacency[:n1, :n1]
        means.append(block.sum(axis=1).mean())
    # the community mean degree is 2E/n1 with E ~ Bin(C(n1,2), 0.3)
    pairs = n1 * (n1 - 1) / 2
    sigma_graph = 2.0 * math.sqrt(pairs * 0.3 * 0.7) / n1
    sigma_mean = sigma_graph / math.sqrt(seeds)
    assert abs(np.mean(means) - 0.3 * (n1 - 1)) <= 3 * sigma_mean


def test_expected_adjacency_two_by_two():
    exp = expected_adjacency(SbmParams(1, 1, 0.0, 0.7, 0.0))
    assert np.array_equal(exp, [[0.0, 0.7], [0.7, 0.0]])


def test_expected_adjacency_block_structure():
    exp = expected_adjacency(SbmParams.ssbm(4, 0.3, 0.05))
    assert np.all(np.diag(exp) == 0)
    assert exp[0, 1] == 0.3 and exp[2, 3] == 0.3
    assert exp[0, 2] == 0.05 and exp[1, 3] == 0.05


@pytest.mark.parametrize("p", [
    SbmParams(8, 4, 0.5, 0.25, 0.125),   # dyadic probs: row sums are exact
    SbmParams(30, 11, 0.13, 0.31, 0.77),
])
def test_expected_adjacency_row_sums(p):
    exp = expected_adjacency(p)
    row1 = p.l11 * (p.n1 - 1) + p.l12 * p.n2
    row2 = p.l22 * (p.n2 - 1) + p.l12 * p.n1
    assert np.allclose(exp[:p.n1].sum(axis=1), row1, rtol=0, atol=1e-12)
    assert np.allclose(exp[p.n1:].sum(axis=1), row2, rtol=0, atol=1e-12)


def test_max_expected_degree():
    assert abs(max_expected_degree(SbmParams.ssbm(200, 0.3, 0.05)) - 34.7) < 1e-12
    assert max_expected_degree(SbmParams(3, 2, 1.0, 1.0, 1.0)) == 4.0
    # the denser small community dominates in the leader-follower model
    assert abs(max_expected_degree(SbmParams(500, 25, 0.05, 0.1, 0.5)) - 62.0) < 1e-12


def test_is_connected():
    edgeless = Graph(np.zeros((3, 3)), np.array([1, 1, 2]))
    assert not is_connected(edgeless)
    k4 = Graph(np.ones((4, 4)) - np.eye(4), np.array([1, 1, 2, 2]))
    assert is_connected(k4)
    path = np.zeros((3, 3))
    path[0, 1] = path[1, 0] = path[1, 2] = path[2, 1] = 1.0
    assert is_connected(Graph(path, np.array([1, 1, 2])))


def _connectivity_cases(tmp_path):
    """Graphs named for what they show: connected and two-block SBM draws, an
    isolated vertex, a path whole and cut in two, and the smallest edge
    lists."""
    cases = {f"ssbm-{seed}": sample_sbm(SbmParams.ssbm(200, 0.1, 0.05), seed)
             for seed in range(3)}
    cases.update({f"decoupled-{seed}": sample_sbm(SbmParams(30, 20, 0.5, 0.0, 0.5), seed)
                  for seed in range(2)})
    k4 = np.zeros((5, 5))
    k4[:4, :4] = 1.0 - np.eye(4)
    cases["isolated-vertex"] = Graph(k4, np.array([1, 1, 2, 2, 2]))
    # a path takes one search level per vertex; cut in the middle, it is two
    # components
    path = sparse.diags_array([np.ones(29), np.ones(29)], offsets=[-1, 1], shape=(30, 30))
    cases["path"] = Graph(path, block_labels(30, 15))
    cut = path.tolil()
    cut[14, 15] = cut[15, 14] = 0.0
    cases["two-paths"] = Graph(cut, block_labels(30, 15))
    for name, text in (("n0", "# n=0 n1=0\n"), ("n1", "# n=1 n1=1\n"),
                       ("n3-one-edge", "# n=3 n1=1\n0 1\n")):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        cases[name] = read_edge_list(path)
    return cases


def test_is_connected_agrees_with_connected_components(tmp_path):
    cases = _connectivity_cases(tmp_path)
    answers = {}
    for name, graph in cases.items():
        answers[name] = is_connected(graph)
        reference = connected_components(graph.adjacency, directed=False,
                                         return_labels=False) == 1
        assert answers[name] == reference, name
    # both answers occur, and the small cases keep their meaning
    assert all(answers[f"ssbm-{seed}"] for seed in range(3)) and answers["n1"]
    assert answers["path"]
    assert not (answers["decoupled-0"] or answers["isolated-vertex"] or answers["two-paths"]
                or answers["n0"] or answers["n3-one-edge"])


def test_sampled_graph_is_int32_and_small(tmp_path):
    """sample_sbm's CSR holds int32 `indices` and `indptr`, so do the same
    graph's arrays after an edge-list round trip, and sampling peaks at no
    more than 72 traced bytes per edge (int64 indices and their copies took
    112)."""
    params = SbmParams.ssbm(4000, 0.005, 0.03)
    tracemalloc.start()
    try:
        g = sample_sbm(params, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    edges = g.adjacency.nnz // 2
    assert peak <= 72 * edges, peak / edges
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    for a in (g.adjacency, back.adjacency):
        assert a.indices.dtype == a.indptr.dtype == np.int32
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.adjacency, name), getattr(g.adjacency, name)), name


@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_graph_eigenpairs_do_not_depend_on_the_order_asked(which):
    """Each Graph.extreme_eigenpair(which, tol) pair depends only on the
    graph: every order of asking the loose, the default and the machine
    precision tol gives each pair the same bits, each order on a fresh Graph
    of the same adjacency. The tight pairs start from the loose pair's
    vector, so they need it whether or not it was asked for."""
    g = sample_sbm(SbmParams.ssbm(300, 0.02, 0.05), 2)
    tols = (spectral.LOOSE_EIG_TOL, graphgen._EIGENPAIR_TOL, 0.0)
    first = {tol: g.extreme_eigenpair(which, tol) for tol in tols}
    for order in itertools.permutations(tols):
        fresh = Graph(g.adjacency, g.labels)
        for tol in order:
            value, vector = fresh.extreme_eigenpair(which, tol)
            assert value == first[tol][0] and np.array_equal(vector, first[tol][1])
    assert g.extreme_eigenpair(which) is first[graphgen._EIGENPAIR_TOL]


def test_check_assumptions():
    assert check_assumptions(SbmParams.ssbm(500, 0.3, 0.3))
    # 0.001 < log(500)/500
    assert not check_assumptions(SbmParams.ssbm(500, 0.001, 0.001))
    # assortative SSBM: connected, but l12 < sqrt(l11 * log n)
    assert not check_assumptions(SbmParams.ssbm(500, 0.3, 0.05))
    # disassortative SSBM: the extra condition does not apply
    assert check_assumptions(SbmParams.ssbm(500, 0.05, 0.3))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1, 2]))
    with pytest.raises(ValueError):
        Graph(np.eye(2), np.array([1, 2]))
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1, 2]))
    # each check names what it found; the binary check runs first, so the
    # structure-only symmetry check never meets a symmetric pattern with
    # unequal values
    with pytest.raises(ValueError, match="must be binary"):
        Graph(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([1, 2]))
    with pytest.raises(ValueError, match="must be binary"):
        Graph(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1, 2]))
    with pytest.raises(ValueError, match="must be symmetric"):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1, 2]))
    # a directed 3-cycle: every row and column holds one entry, so only the
    # column indices tell it from its transpose
    cycle = np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(ValueError, match="must be symmetric"):
        Graph(cycle, np.array([1, 1, 2]))
    with pytest.raises(ValueError, match="no self-loops"):
        Graph(np.eye(2), np.array([1, 2]))
    with pytest.raises(ValueError, match="must be square"):
        Graph(np.zeros((2, 3)), np.array([1, 2]))
    with pytest.raises(ValueError, match="labels length"):
        Graph(np.zeros((2, 2)), np.array([1, 2, 2]))
    # explicit zeros and duplicate entries are resolved before the checks
    coo = sparse.coo_array(([1.0, 0.0, 0.5, 0.5], ([0, 0, 1, 1], [1, 0, 0, 0])), shape=(2, 2))
    assert np.array_equal(Graph(coo, np.array([1, 2])).adjacency.toarray(), [[0, 1], [1, 0]])


def test_edge_list_round_trip(tmp_path):
    g = sample_sbm(SbmParams(5, 7, 0.6, 0.3, 0.8), seed=42)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    first = path.read_text().splitlines()[0]
    assert first == "# n=12 n1=5"
    back = read_edge_list(path)
    assert np.array_equal(back.adjacency.toarray(), g.adjacency.toarray())
    assert np.array_equal(back.labels, g.labels)


# sha256 of write_edge_list output. The per-pair (stream v1) hashes were
# recorded from the dense n x n sampler that preceded the blocked and the
# O(edges) samplers, so stream v1 stays reproducible through the oracle.
_GOLDEN_CASES = [(SbmParams.ssbm(1000, 0.005, 0.03), 11),
                 (SbmParams(500, 25, 0.05, 0.1, 0.5), 7),
                 (SbmParams(1, 6, 0.3, 0.6, 0.8), 3)]


def _edge_list_digest(graph, tmp_path):
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("params, seed, digest", [
    (*_GOLDEN_CASES[0], "1e71d4fe1a2b61d7f927b1b2c2115d98d898181fae5e78daea6b51a258872f1c"),
    (*_GOLDEN_CASES[1], "01b754a6f1b07c97a9f1ca13a5316dc8e3d120d5a9907cfab78073cd1491d1de"),
    (*_GOLDEN_CASES[2], "483c6dd3221f4141c46c8dd62d0f0d8bfb01c64cdc07798dda35796c7a6b1c02"),
])
def test_sampler_golden_edge_lists(tmp_path, params, seed, digest):
    assert _edge_list_digest(bernoulli_pairs_sbm(params, seed), tmp_path) == digest


@pytest.mark.parametrize("params, seed, digest", [
    (*_GOLDEN_CASES[0], "e19b2e37d74dce80612e85731b81378f734c1a8d74a896ce452d9246bfac2f67"),
    (*_GOLDEN_CASES[1], "69cf955a6d450cd2eed873d1e30fa443ee4c2f484e92c02cbb195a72a808f263"),
    (*_GOLDEN_CASES[2], "5c1b46c4de9cfe3b36c14f5c44fc636fb2a4d8bbee38c8b8f5f0188d8ccb4d92"),
], ids=["params0-11", "params1-7", "params2-3"])
def test_sample_sbm_golden_edge_lists(tmp_path, params, seed, digest):
    assert _edge_list_digest(sample_sbm(params, seed), tmp_path) == digest


@pytest.mark.parametrize("params", [SbmParams.ssbm(2000, 0.005, 0.03),
                                    SbmParams.ssbm(10_000, 0.005, 0.03),
                                    SbmParams(1000, 50, 0.05, 0.01, 0.05)],
                         ids=["2000", "10000", "1000-50-0.05-0.01-0.05"])
def test_sample_sbm_peak_memory_per_edge(params):
    """Sampling peaks at no more than 44 traced bytes per edge next to the
    24-byte CSR it returns: int8 COO ones, a structure-only symmetry check
    and no upper-edge copy alive through the CSR build (the float64 ones, a
    float64 CSC and the caller's upper copy took 64). The dense block of the
    third case took 164 when stream v2 drew positions with
    Generator.choice, which shuffles an arange of the whole run."""
    tracemalloc.start()
    try:
        g = sample_sbm(params, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 44 * (g.adjacency.nnz // 2), peak / (g.adjacency.nnz // 2)


def test_edge_list_read_back_is_the_sampled_csr_and_small(tmp_path):
    """A written and read-back graph has the sampled graph's CSR arrays,
    and reading it peaks at no more than 48 traced bytes per edge (a set of
    tuples took about 213)."""
    g = sample_sbm(SbmParams.ssbm(10_000, 0.005, 0.03), 5)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    tracemalloc.start()
    try:
        back = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * (g.adjacency.nnz // 2), peak / (g.adjacency.nnz // 2)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.adjacency, name), getattr(g.adjacency, name)), name
        assert getattr(back.adjacency, name).dtype == getattr(g.adjacency, name).dtype, name
    assert np.array_equal(back.labels, g.labels)


def test_read_edge_list_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# n=4 n1=2\n# a comment line\n0 1\n\n  \n2 3  # a trailing comment\n"
                    "1 2\n0 1\n")
    g = read_edge_list(path)
    expected = np.zeros((4, 4))
    for i, j in ((0, 1), (1, 2), (2, 3)):
        expected[i, j] = expected[j, i] = 1.0
    assert np.array_equal(g.adjacency.toarray(), expected)
    assert np.array_equal(g.labels, [1, 1, 2, 2])


BAD_EDGE_LINES = {
    "three-agents": ("0 1 2", "'0 1 2' is not an edge"),
    "word": ("0 x", "'0 x' is not an edge"),
    "float": ("0 1.0", "'0 1.0' is not an edge"),
    "one-agent": ("1", "'1' is not an edge"),
    "past-n": ("0 4", "bad edge 0 4"),
    "self-loop": ("1 1", "bad edge 1 1"),
    "lower-first": ("2 1", "bad edge 2 1"),
    "negative": ("-1 1", "bad edge -1 1"),
}


@pytest.mark.parametrize("line, message", BAD_EDGE_LINES.values(), ids=BAD_EDGE_LINES.keys())
def test_read_edge_list_names_the_first_bad_line(line, message, tmp_path):
    """Whatever stops the bulk parse, the error names the first bad edge
    line (line 4, after a good line and a blank one, before another bad
    one) with the line-by-line scan's message."""
    path = tmp_path / "graph.txt"
    path.write_text(f"# n=4 n1=2\n2 3\n\n{line}\n0 a\n")
    with pytest.raises(ValueError, match=f"graph.txt:4: {message}"):
        read_edge_list(path)


def test_write_edge_list_formats_every_digit_count(tmp_path):
    """Indices of one to four digits, 0 and powers of ten among them, are
    written as `i j` lines in CSR order."""
    edges = [(0, 1), (0, 10), (9, 100), (10, 1000), (99, 100), (999, 1000)]
    a = np.zeros((1001, 1001))
    for i, j in edges:
        a[i, j] = a[j, i] = 1.0
    path = tmp_path / "graph.txt"
    write_edge_list(Graph(a, np.ones(1001, dtype=int)), path)
    assert path.read_text() == "# n=1001 n1=1001\n" + "".join(f"{i} {j}\n" for i, j in edges)


def test_read_edge_list_ignores_repeated_edge(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# n=3 n1=1\n0 1\n1 2\n0 1\n")
    g = read_edge_list(path)
    assert np.array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def _scalar_loop_sbm(params, seed, batch):
    """Stream v3 as a dense boolean adjacency, one gap at a time: each
    block's pairs listed row by row in lexicographic order, and from position
    -1 on, each Geometric(l) gap read from batches of batch(R, l) draws (R
    the pairs after the last edge) moves to the next edge until one passes
    the last pair, which drops the rest of its batch. Python integers, so no
    clipping and no overflow. The reference for the sampler's array
    arithmetic and position-to-pair mapping."""
    rng = np.random.Generator(np.random.Philox(seed))
    n1, n = params.n1, params.n
    upper = np.zeros((n, n), dtype=bool)
    for rows, cols, p in ((range(n1), range(n1), params.l11),
                          (range(n1), range(n1, n), params.l12),
                          (range(n1, n), range(n1, n), params.l22)):
        pairs = [(i, j) for i in rows for j in cols if i < j]
        last, ended = -1, p == 0.0
        while not ended and last < len(pairs) - 1:
            remaining = len(pairs) - 1 - last
            for gap in rng.geometric(p, batch(remaining, p)):
                if gap > len(pairs) - 1 - last:
                    ended = True
                    break
                last += int(gap)
                upper[pairs[last]] = True
    return upper | upper.T


def _v3_batch(remaining, p):
    """Stream v3's batch rule, written out: the expected edges plus four
    standard deviations and 16, at most the pairs left and 2^63 - 1 over
    one more than them."""
    e = remaining * p
    return min(int(e + 4.0 * math.sqrt(e)) + 16, remaining, (2**63 - 1) // (remaining + 1))


SAMPLER_CASES = [
    SbmParams(1, 1, 0.5, 0.5, 0.5),
    SbmParams(1, 1, 0.0, 1.0, 0.0),
    SbmParams(1, 6, 0.3, 0.6, 0.8),
    SbmParams(6, 1, 0.3, 0.6, 0.8),
    SbmParams(30, 7, 0.0, 1.0, 0.4),
    SbmParams(7, 30, 1.0, 0.0, 0.2),
    SbmParams(40, 3, 0.05, 0.1, 0.5),
    SbmParams.ssbm(60, 0.2, 0.05),
]


@pytest.mark.parametrize("params", SAMPLER_CASES,
                         ids=lambda p: f"{p.n1}-{p.n2}-{p.l11}-{p.l12}-{p.l22}")
@pytest.mark.parametrize("batch", [None, 1, 7, 64])
def test_blocked_sampler_matches_row_by_row(params, batch, monkeypatch):
    """The sampler gives the scalar loop's graph, under stream v3's batch
    rule (None) and under fixed batches of 1, 7 and 64 gaps, which end
    batches mid-block, mid-row and exactly at a block's last pair."""
    rule = _v3_batch
    if batch is not None:
        rule = lambda remaining, p: batch  # noqa: E731
        monkeypatch.setattr(graphgen, "_gap_batch", rule)
    for seed in (0, 3, 11):
        sampled = sample_sbm(params, seed).adjacency.toarray()
        assert np.array_equal(sampled, _scalar_loop_sbm(params, seed, rule)), seed


@pytest.mark.parametrize("pairs, p, expected", [
    (0, 0.5, []), (0, 1.0, []), (5, 0.0, []), (5, 1.0, [0, 1, 2, 3, 4]), (1, 1.0, [0]),
    (10**15, 1e-300, []), (2**62, 1e-300, [])])
def test_edge_positions_edge_cases(pairs, p, expected):
    """No pairs or l = 0 draw nothing; l = 1 links every pair; at l = 1e-300
    numpy's gaps saturate at 2^63 - 1 and, clipped before their running
    sum, overflow nothing."""
    positions = graphgen._edge_positions(np.random.Generator(np.random.Philox(1)), pairs, p)
    assert positions.dtype == np.int64 and positions.tolist() == expected


# every link probability 0 or 1, so every stream gives the one graph: each
# block empty or complete, including one-agent communities and n = 2
DETERMINISTIC_CASES = [
    SbmParams(1, 1, 0.0, 1.0, 0.0),
    SbmParams(1, 1, 1.0, 0.0, 1.0),
    SbmParams(2, 2, 1.0, 1.0, 1.0),
    SbmParams(3, 2, 0.0, 0.0, 0.0),
    SbmParams(1, 6, 1.0, 0.0, 1.0),
    SbmParams(6, 1, 0.0, 1.0, 0.0),
    SbmParams(30, 7, 0.0, 1.0, 1.0),
    SbmParams(7, 30, 1.0, 0.0, 1.0),
    SbmParams(12, 9, 1.0, 1.0, 0.0),
]


@pytest.mark.parametrize("params", DETERMINISTIC_CASES,
                         ids=lambda p: f"{p.n1}-{p.n2}-{p.l11}-{p.l12}-{p.l22}")
def test_sampler_matches_pair_oracle_at_zero_one_probabilities(params):
    for seed in (0, 3, 11):
        sampled = sample_sbm(params, seed).adjacency
        reference = bernoulli_pairs_sbm(params, seed).adjacency
        assert np.array_equal(sampled.toarray(), reference.toarray()), seed


@pytest.mark.parametrize("params", [
    SbmParams(1, 6, 0.3, 0.6, 0.8),
    SbmParams(6, 1, 0.3, 0.6, 0.8),
    SbmParams(40, 3, 0.05, 0.1, 0.5),
    SbmParams(30, 11, 0.13, 0.31, 0.77),
    SbmParams.ssbm(60, 0.2, 0.05),
], ids=lambda p: f"{p.n1}-{p.n2}-{p.l11}-{p.l12}-{p.l22}")
def test_block_edge_counts_match_binomial_mean(params):
    seeds = 200
    n1, n2 = params.n1, params.n2
    counts = np.zeros(3)
    for seed in range(seeds):
        a = sample_sbm(params, seed).adjacency
        counts += [a[:n1, :n1].sum() / 2, a[:n1, n1:].sum(), a[n1:, n1:].sum() / 2]
    # a block of C pairs has Bin(C, l) edges: mean C*l, variance C*l*(1-l)
    for count, pairs, p in zip(counts / seeds, (n1 * (n1 - 1) // 2, n1 * n2, n2 * (n2 - 1) // 2),
                               (params.l11, params.l12, params.l22)):
        assert abs(count - pairs * p) <= 4 * math.sqrt(pairs * p * (1 - p) / seeds)
