import itertools

import numpy as np
import pytest
from scipy import sparse

from commdyn.errors import NotSymmetric
from commdyn.graphgen import SbmParams, sample_sbm
from commdyn.spectral import extreme_eigpairs, kmeans_two_1d, least_squares_min_norm, sym_eig
from commdyn.theory import expected_spectrum
from oracles import corrected_expected_matrix


def test_sym_eig_identity():
    pairs = sym_eig(np.eye(3))
    assert np.allclose(pairs.values, 1.0)


def test_sym_eig_two_agent_graph():
    pairs = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(pairs.values, [-1.0, 1.0])
    r = 1 / np.sqrt(2)
    assert np.allclose(np.abs(pairs.vectors[:, 0]), r)
    assert np.allclose(pairs.vectors[:, 1], [r, r])


def test_sym_eig_matches_ssbm_closed_forms():
    p = SbmParams.ssbm(40, 0.3, 0.05)
    values = sym_eig(corrected_expected_matrix(p)).values
    spec = expected_spectrum(p)
    assert abs(values[-1] - spec.lambda_max_bar) < 1e-10
    assert abs(values[-2] - spec.lambda_minus_bar) < 1e-10


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eig(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_sym_eig_invariants_random():
    rng = np.random.Generator(np.random.Philox(1))
    for n in (2, 7, 50, 200):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        pairs = sym_eig(a)
        norm_a = np.linalg.norm(a, 2)
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        assert np.linalg.norm(recon - a, 2) <= 1e-8 * norm_a
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(n)).max() <= 1e-8
        for j in range(n):
            residual = a @ pairs.vectors[:, j] - pairs.values[j] * pairs.vectors[:, j]
            assert np.linalg.norm(residual) <= 1e-8 * (1 + abs(pairs.values[j])) * norm_a
            k = np.argmax(np.abs(pairs.vectors[:, j]))
            assert pairs.vectors[k, j] > 0
        assert np.all(np.diff(pairs.values) >= 0)


def test_sym_eig_accepts_sparse():
    a = sample_sbm(SbmParams.ssbm(30, 0.4, 0.1), seed=3).adjacency
    dense = sym_eig(a.toarray())
    pairs = sym_eig(a)
    assert np.array_equal(pairs.values, dense.values)
    assert np.array_equal(pairs.vectors, dense.vectors)


# n = 12 takes the dense fallback (ARPACK's basis would be the whole space);
# n = 200 runs ARPACK
@pytest.mark.parametrize("n", [12, 200])
@pytest.mark.parametrize("which", ["LA", "SA"])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_extreme_eigpairs_matches_sym_eig(n, which, as_sparse):
    a = sample_sbm(SbmParams.ssbm(n, 0.4, 0.1), seed=5).adjacency
    matrix = a if as_sparse else a.toarray()
    full = sym_eig(a)
    k = 2
    pairs = extreme_eigpairs(matrix, k, which)
    cols = slice(n - k, n) if which == "LA" else slice(0, k)
    scale = float(np.abs(full.values).max())
    assert np.abs(pairs.values - full.values[cols]).max() <= 1e-10 * scale
    assert np.abs(pairs.vectors - full.vectors[:, cols]).max() <= 1e-8
    again = extreme_eigpairs(matrix, k, which)
    assert np.array_equal(again.values, pairs.values)
    assert np.array_equal(again.vectors, pairs.vectors)


def test_extreme_eigpairs_largest_magnitude():
    a = np.diag([-5.0, 1.0, 2.0, 4.0])
    pairs = extreme_eigpairs(a, 2, "LM")
    assert np.array_equal(pairs.values, [-5.0, 4.0])
    assert np.array_equal(np.abs(pairs.vectors), np.eye(4)[:, [0, 3]])


def test_extreme_eigpairs_zero_operator():
    # ARPACK fails on the zero operator (error -9); the dense fallback answers
    pairs = extreme_eigpairs(sparse.csr_array((50, 50)), 1, "LM")
    assert pairs.values[0] == 0.0
    assert np.linalg.norm(pairs.vectors[:, 0]) == pytest.approx(1.0)


def test_extreme_eigpairs_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        extreme_eigpairs(np.array([[0.0, 1.0], [0.5, 0.0]]), 1, "LA")
    with pytest.raises(NotSymmetric):
        extreme_eigpairs(sparse.csr_array(np.triu(np.ones((30, 30)), 1)), 1, "LA")
    with pytest.raises(ValueError):
        extreme_eigpairs(np.eye(3), 1, "BE")
    with pytest.raises(ValueError):
        extreme_eigpairs(np.eye(3), 4, "LA")


def test_least_squares_exact_inverse_case():
    rng = np.random.Generator(np.random.Philox(2))
    a = rng.standard_normal((6, 6))
    x = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    estimate = least_squares_min_norm(a @ x, x)
    assert np.abs(estimate - a).max() < 1e-10


def test_least_squares_rank_one():
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.standard_normal((5, 1))
    y = rng.standard_normal((5, 1))
    estimate = least_squares_min_norm(y, x)
    expected = y @ x.T / float(x[:, 0] @ x[:, 0])  # pinv of a column is x^T / ||x||^2
    assert np.abs(estimate - expected).max() < 1e-12


def test_least_squares_zero_input():
    assert np.all(least_squares_min_norm(np.zeros((4, 2)), np.zeros((4, 2))) == 0.0)


def test_least_squares_consistency():
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.standard_normal((8, 8))
    x = rng.standard_normal((8, 12))  # full row rank w.p. 1
    y = a @ x
    estimate = least_squares_min_norm(y, x)
    assert np.linalg.norm(estimate @ x - y) <= 1e-8 * np.linalg.norm(y)


def test_pseudo_inverse_moore_penrose_properties():
    rng = np.random.Generator(np.random.Philox(5))
    for _ in range(10):
        n = int(rng.integers(2, 51))
        m = int(rng.integers(1, n + 1))
        x = rng.standard_normal((n, m))
        if rng.random() < 0.3:
            x[:, rng.integers(0, m)] = 0.0  # exercise rank deficiency
        pinv = np.linalg.pinv(x, rcond=max(n, m) * np.finfo(float).eps)
        assert np.abs(x @ pinv @ x - x).max() <= 1e-8 * max(1, np.abs(x).max())
        assert np.abs(pinv @ x @ pinv - pinv).max() <= 1e-8 * max(1, np.abs(pinv).max())


def test_kmeans_separated_pairs():
    result = kmeans_two_1d([0.0, 0.0, 10.0, 10.0])
    assert np.array_equal(result.labels, [1, 1, 2, 2])
    assert result.centers == (0.0, 10.0)
    assert not result.degenerate


def test_kmeans_outlier_split():
    # exhaustive SSE over the 3 contiguous splits isolates the outlier
    values = [1.0, 2.0, 3.0, 100.0]
    best = min(range(1, 4), key=lambda k: np.var(values[:k]) * k + np.var(values[k:]) * (4 - k))
    assert best == 3
    result = kmeans_two_1d(values)
    assert np.array_equal(result.labels, [1, 1, 1, 2])


def test_kmeans_degenerate():
    result = kmeans_two_1d([5.0, 5.0, 5.0])
    assert result.degenerate
    assert np.array_equal(result.labels, [1, 1, 1])


def test_kmeans_rejects_short_input():
    with pytest.raises(ValueError):
        kmeans_two_1d([1.0])


def _brute_force_sse(values):
    n = len(values)
    best = np.inf
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(left)] = True
            a, b = values[mask], values[~mask]
            sse = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
            best = min(best, sse)
    return best


def test_kmeans_matches_brute_force_over_all_partitions():
    rng = np.random.Generator(np.random.Philox(6))
    for _ in range(20):
        n = int(rng.integers(2, 13))
        values = rng.standard_normal(n)
        result = kmeans_two_1d(values)
        a = values[result.labels == 1]
        b = values[result.labels == 2]
        sse = ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum()
        assert sse <= _brute_force_sse(values) + 1e-12


def test_kmeans_partition_invariant_under_negation():
    rng = np.random.Generator(np.random.Philox(7))
    for _ in range(20):
        values = rng.standard_normal(int(rng.integers(2, 30)))
        lab = kmeans_two_1d(values).labels
        neg = kmeans_two_1d(-values).labels
        flipped = np.sum(lab == 3 - neg)
        assert np.sum(lab == neg) == lab.size or flipped == lab.size
