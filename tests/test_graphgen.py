import hashlib
import math

import numpy as np
import pytest

from commdyn import graphgen
from commdyn.graphgen import (Graph, SbmParams, check_assumptions, is_connected,
                              max_expected_degree, read_edge_list, sample_sbm,
                              write_edge_list)
from oracles import expected_adjacency


def test_params_validation():
    with pytest.raises(ValueError):
        SbmParams(0, 3, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        SbmParams(2, 2, 1.2, 0.5, 0.5)
    with pytest.raises(ValueError):
        SbmParams.from_matrix(2, 2, [[0.5, 0.3], [0.4, 0.5]])
    p = SbmParams.from_matrix(2, 3, [[0.5, 0.3], [0.3, 0.4]])
    assert (p.l11, p.l12, p.l22) == (0.5, 0.3, 0.4)


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


def test_check_assumptions():
    ok = check_assumptions(SbmParams.ssbm(500, 0.3, 0.3))
    assert ok.connectivity_ok
    bad = check_assumptions(SbmParams.ssbm(500, 0.001, 0.001))
    assert not bad.connectivity_ok
    # disassortative SSBM: the extra condition is vacuous
    dis = check_assumptions(SbmParams.ssbm(100, 0.005, 0.03))
    assert not dis.ssbm_condition_applies and dis.ssbm_condition_ok


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([1, 2]))
    with pytest.raises(ValueError):
        Graph(np.eye(2), np.array([1, 2]))
    with pytest.raises(ValueError):
        Graph(np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1, 2]))


def test_edge_list_round_trip(tmp_path):
    g = sample_sbm(SbmParams(5, 7, 0.6, 0.3, 0.8), seed=42)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    first = path.read_text().splitlines()[0]
    assert first == "# n=12 n1=5"
    back = read_edge_list(path)
    assert np.array_equal(back.adjacency.toarray(), g.adjacency.toarray())
    assert np.array_equal(back.labels, g.labels)


# sha256 of write_edge_list output, recorded from the dense n x n sampler the
# row-by-row sampler replaced: equal hashes mean the same Philox stream
@pytest.mark.parametrize("params, seed, digest", [
    (SbmParams.ssbm(1000, 0.005, 0.03), 11,
     "1e71d4fe1a2b61d7f927b1b2c2115d98d898181fae5e78daea6b51a258872f1c"),
    (SbmParams(500, 25, 0.05, 0.1, 0.5), 7,
     "01b754a6f1b07c97a9f1ca13a5316dc8e3d120d5a9907cfab78073cd1491d1de"),
    (SbmParams(1, 6, 0.3, 0.6, 0.8), 3,
     "483c6dd3221f4141c46c8dd62d0f0d8bfb01c64cdc07798dda35796c7a6b1c02"),
])
def test_sampler_golden_edge_lists(tmp_path, params, seed, digest):
    path = tmp_path / "graph.txt"
    write_edge_list(sample_sbm(params, seed), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_read_edge_list_ignores_repeated_edge(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# n=3 n1=1\n0 1\n1 2\n0 1\n")
    g = read_edge_list(path)
    assert np.array_equal(g.adjacency.toarray(), [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def _row_by_row_sbm(params, seed):
    """The sampler's pair stream drawn one row at a time, as a dense boolean
    adjacency: the reference the blocked sampler must reproduce exactly."""
    rng = np.random.Generator(np.random.Philox(seed))
    labels = params.labels()
    probs = params.ell[:, labels - 1]
    upper = np.zeros((params.n, params.n), dtype=bool)
    for i in range(params.n - 1):
        upper[i, i + 1:] = rng.random(params.n - 1 - i) < probs[labels[i] - 1, i + 1:]
    return upper | upper.T


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
@pytest.mark.parametrize("block_pairs", [None, 1, 7, 64])
def test_blocked_sampler_matches_row_by_row(params, block_pairs, monkeypatch):
    # tiny blocks put block boundaries at every row and make rows longer than a block
    if block_pairs is not None:
        monkeypatch.setattr(graphgen, "_SAMPLE_BLOCK_PAIRS", block_pairs)
    for seed in (0, 3, 11):
        sampled = sample_sbm(params, seed).adjacency.toarray()
        assert np.array_equal(sampled, _row_by_row_sbm(params, seed)), seed
