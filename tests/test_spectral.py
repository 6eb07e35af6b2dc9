import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, aslinearoperator
from scipy.sparse.linalg import minres as scipy_minres

from commdyn import dynamics, spectral, theory
from commdyn.detect import estimate_adjacency
from commdyn.dynamics import ModelParams
from commdyn.graphgen import Graph, SbmParams, block_labels, max_expected_degree, sample_sbm
from commdyn.harness import Preset, build_config
from commdyn.spectral import Operator, extreme_eigpairs, kmeans_two_1d, minres, sym_eig
from commdyn.theory import expected_spectrum
from oracles import corrected_expected_matrix


def test_sym_eig_identity():
    values, _ = sym_eig(np.eye(3))
    assert np.allclose(values, 1.0)


def test_sym_eig_two_agent_graph():
    values, vectors = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(values, [-1.0, 1.0])
    r = 1 / np.sqrt(2)
    assert np.allclose(np.abs(vectors[:, 0]), r)
    assert np.allclose(vectors[:, 1], [r, r])


def test_sym_eig_matches_ssbm_closed_forms():
    p = SbmParams.ssbm(40, 0.3, 0.05)
    values, _ = sym_eig(corrected_expected_matrix(p))
    spec = expected_spectrum(p)
    assert abs(values[-1] - spec.lambda_max_bar) < 1e-10
    assert abs(values[-2] - spec.lambda_minus_bar) < 1e-10


def test_sym_eig_invariants_random():
    rng = np.random.Generator(np.random.Philox(1))
    for n in (2, 7, 50, 200):
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        values, vectors = sym_eig(a)
        norm_a = np.linalg.norm(a, 2)
        recon = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(recon - a, 2) <= 1e-8 * norm_a
        assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-8
        for j in range(n):
            residual = a @ vectors[:, j] - values[j] * vectors[:, j]
            assert np.linalg.norm(residual) <= 1e-8 * (1 + abs(values[j])) * norm_a
            k = np.argmax(np.abs(vectors[:, j]))
            assert vectors[k, j] > 0
        assert np.all(np.diff(values) >= 0)


def test_sym_eig_accepts_sparse():
    a = sample_sbm(SbmParams.ssbm(30, 0.4, 0.1), seed=3).adjacency
    dense_values, dense_vectors = sym_eig(a.toarray())
    values, vectors = sym_eig(a)
    assert np.array_equal(values, dense_values)
    assert np.array_equal(vectors, dense_vectors)


def test_spectral_import_loads_no_scipy():
    """Only graphgen knows the sparse format: `import commdyn.spectral`
    in a fresh interpreter loads no scipy module."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    probe = ("import sys, commdyn.spectral\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "[]"


# n = 12 takes the dense path (a Lanczos basis would be the whole space);
# n = 200 runs the Lanczos
@pytest.mark.parametrize("n", [12, 200])
@pytest.mark.parametrize("which", ["LA", "SA"])
@pytest.mark.parametrize("as_sparse", [False, True])
def test_extreme_eigpairs_matches_sym_eig(n, which, as_sparse):
    a = sample_sbm(SbmParams.ssbm(n, 0.4, 0.1), seed=5).adjacency
    matrix = a if as_sparse else a.toarray()
    full_values, full_vectors = sym_eig(a)
    value, vector = extreme_eigpairs(matrix, which)
    col = n - 1 if which == "LA" else 0
    assert np.ndim(value) == 0 and vector.shape == (n,)
    scale = float(np.abs(full_values).max())
    assert abs(value - full_values[col]) <= 1e-10 * scale
    assert np.abs(vector - full_vectors[:, col]).max() <= 1e-8
    again_value, again_vector = extreme_eigpairs(matrix, which)
    assert again_value == value
    assert np.array_equal(again_vector, vector)


@pytest.mark.parametrize("n", [12, 200])
@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_extreme_eigpairs_same_bits_for_csr_and_its_operator(n, which):
    """Graph.extreme_eigenpair passes its CSR adjacency straight in: the pair
    has the bits of the same CSR wrapped as a LinearOperator. A dense copy
    gives the same bits on the dense path (n = 12); under the Lanczos
    (n = 200) its BLAS matvec sums in another order, so only the last bits
    may differ."""
    a = sample_sbm(SbmParams.ssbm(n, 0.4, 0.1), seed=5).adjacency
    value, vector = extreme_eigpairs(a, which)
    operator_value, operator_vector = extreme_eigpairs(aslinearoperator(a), which)
    assert operator_value == value
    assert np.array_equal(operator_vector, vector)
    dense_value, dense_vector = extreme_eigpairs(a.toarray(), which)
    if n <= 20:
        assert dense_value == value
        assert np.array_equal(dense_vector, vector)
    else:
        assert abs(dense_value - value) <= 1e-12 * abs(value)
        assert np.abs(dense_vector - vector).max() <= 1e-12


def test_extreme_eigpairs_largest_magnitude():
    a = np.diag([-5.0, 1.0, 2.0, 4.0])
    full_values, full_vectors = sym_eig(a)
    value, vector = extreme_eigpairs(a, "LM")
    assert value == full_values[0]  # |-5| > 4
    assert np.array_equal(vector, full_vectors[:, 0])
    # a tie in magnitude goes to the larger value, as with the stable sort of |values|
    tie = np.diag([-4.0, 1.0, 4.0])
    assert np.array_equal(extreme_eigpairs(tie, "LM")[1], sym_eig(tie)[1][:, 2])


def test_extreme_eigpairs_zero_operator():
    # the Lanczos breaks down at every step: fresh seeded vectors fill its basis
    value, vector = extreme_eigpairs(sparse.csr_array((50, 50)), "LM")
    assert value == 0.0
    assert np.linalg.norm(vector) == pytest.approx(1.0)


def _deviation_operator(p, seed, monkeypatch):
    """The operator A - E{A} that theory._deviation_norm hands the Lanczos."""
    captured = []
    monkeypatch.setattr(theory, "extreme_eigpairs",
                        lambda operator, which, tol: captured.append(operator) or (0.0, None))
    theory._deviation_norm(sample_sbm(p, seed), p)
    return captured[0]


def _oracle_matrix(case, monkeypatch):
    """(dense matrix, operator the program builds or None) of each case."""
    if case == "ssbm-21":  # the smallest n the Lanczos runs on
        return sample_sbm(SbmParams(11, 10, 0.5, 0.2, 0.5), 2).adjacency.toarray(), None
    if case == "ssbm-200":
        return sample_sbm(SbmParams.ssbm(200, 0.1, 0.03), 5).adjacency.toarray(), None
    if case == "disconnected":  # two blocks with no edge between them
        return sample_sbm(SbmParams(30, 20, 0.5, 0.0, 0.5), 1).adjacency.toarray(), None
    # the deviation of a saturation-sweep graph: its spectrum is a semicircle
    # bulk, so the largest magnitudes cluster
    p = build_config(Preset.SATURATION_SWEEP, n1_values=[300]).points[0].sbm
    operator = _deviation_operator(p, 3, monkeypatch)
    return np.column_stack([operator @ e for e in np.eye(p.n)]), operator


@pytest.mark.parametrize("case", ["ssbm-21", "ssbm-200", "disconnected", "deviation"])
@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
@pytest.mark.parametrize("form", ["dense", "csr", "operator"])
def test_lanczos_matches_dense_eigh(case, which, form, monkeypatch):
    """The Lanczos pair at tol = 0 against np.linalg.eigh: the extreme value
    to 1e-12 of the spectral radius, a unit vector with sym_eig's sign
    convention and an eigen-residual at rounding level, and the vector itself
    wherever the extreme eigenvalue is apart from the rest."""
    dense, operator = _oracle_matrix(case, monkeypatch)
    n = dense.shape[0]
    if form == "csr":
        matrix = sparse.csr_array(dense)
    elif form == "operator":
        matrix = operator or Operator(n, sparse.csr_array(dense).__matmul__)
    else:
        matrix = dense
    values, vectors = np.linalg.eigh(dense)
    col = {"LA": n - 1, "SA": 0, "LM": int(np.argsort(np.abs(values), kind="stable")[-1])}[which]
    scale = float(np.abs(values).max())
    value, vector = extreme_eigpairs(matrix, which)
    assert abs(value - values[col]) <= 1e-12 * scale
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
    assert vector[np.argmax(np.abs(vector))] > 0
    assert np.linalg.norm(dense @ vector - value * vector) <= 1e-10 * scale
    gap = np.delete(np.abs(values - values[col]), col).min()
    if gap > 1e-3 * scale:
        assert min(np.abs(vector - vectors[:, col]).max(),
                   np.abs(vector + vectors[:, col]).max()) <= 1e-8


def _counting(matrix, calls):
    """matrix as an Operator that appends to `calls` at each matvec."""
    return Operator(matrix.shape[0], lambda x: calls.append(1) or matrix @ x)


@pytest.mark.parametrize("which", ["LA", "SA", "LM"])
def test_lanczos_breaks_down_on_an_edgeless_graph(which):
    """An edgeless n = 3000 graph makes every Lanczos step break down: fresh
    seeded vectors fill one basis, and the pair is (0, a unit vector) after
    its 20 matvecs, with no n x n matrix."""
    n = 3000
    graph = Graph(sparse.csr_array((n, n)), block_labels(n, n // 2))
    calls = []
    value, vector = extreme_eigpairs(_counting(graph.adjacency, calls), which,
                                     tol=spectral.LOOSE_EIG_TOL)
    assert value == 0.0
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
    assert len(calls) <= 20
    value, vector = graph.extreme_eigenpair(which)
    assert value == 0.0 and np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)


def test_complete_graph_deviation_is_rounding():
    """A complete graph equals its expectation, so A - E{A}, applied
    blockwise as theory._deviation_norm would, is zero up to the rounding of
    its matvec, and the Lanczos on it breaks down at once. Its norm is at
    rounding level, found after 8 matvecs: the acceptance test runs as the
    basis grows, every spectral._TEST_EVERY steps, and the second test
    passes. (_deviation_norm itself returns exactly 0 here without a solve:
    tests/test_theory.py.)"""
    p = SbmParams.ssbm(400, 1.0, 1.0)
    graph = sample_sbm(p, 1)
    assert graph.adjacency.nnz == p.n * (p.n - 1)
    sizes = [p.n1, p.n2]

    def deviation(x):
        block = np.repeat(p.ell @ np.array([x[:p.n1].sum(), x[p.n1:].sum()]), sizes)
        return graph.adjacency @ x - (block - x)

    calls = []
    value, _ = extreme_eigpairs(_counting(Operator(p.n, deviation), calls), "LM",
                                tol=theory._DEVIATION_EIG_TOL)
    assert abs(value) <= 1e-12 * p.n
    assert len(calls) == 2 * spectral._TEST_EVERY == 8


def _indefinite_k():
    """The symmetrized Jacobian K at a random state of an n = 400 SSBM with
    gamma < 0, where K is indefinite, and a right-hand side."""
    p = SbmParams.ssbm(400, 0.05, 0.01)
    graph = sample_sbm(p, 6)
    rng = np.random.Generator(np.random.Philox(6))
    model = ModelParams(1.0, 1.5, 1.0, -1.0 / max_expected_degree(p))
    k = dynamics.jacobian(rng.uniform(-0.5, 0.5, p.n), model, graph).symmetrized()
    spectrum = np.linalg.eigvalsh(np.column_stack([k @ e for e in np.eye(p.n)]))
    assert spectrum.min() < 0.0 < spectrum.max()
    return k, rng.standard_normal(p.n), rng.standard_normal(p.n)


@pytest.mark.parametrize("rtol", [0.1, 1e-4, 1e-12])
@pytest.mark.parametrize("start", [False, True], ids=["x0-none", "x0"])
def test_minres_is_scipys_minres_bit_for_bit(rtol, start):
    """Every vector MINRES applies the operator to (x0, then one Lanczos
    vector per step), and so the answer, has the bits of scipy's minres on
    the same operator, from 0 or from a start x0."""
    k, b, x0 = _indefinite_k()
    x0 = x0 if start else None
    ours, theirs = [], []
    x = minres(Operator(k.shape[0], lambda v: ours.append(v.copy()) or k.matvec(v)), b,
               x0=x0, rtol=rtol)
    reference, _ = scipy_minres(LinearOperator(
        k.shape, matvec=lambda v: theirs.append(v.copy()) or k.matvec(v), dtype=float), b,
        x0=x0, rtol=rtol)
    assert np.array_equal(x, reference)
    assert len(ours) == len(theirs) >= 1
    assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))


def test_minres_on_a_zero_right_hand_side_returns_the_start():
    k, _, x0 = _indefinite_k()
    assert np.array_equal(minres(k, np.zeros(400)), np.zeros(400))
    assert np.array_equal(minres(k, k @ x0, x0=x0), x0)


def test_extreme_eigpairs_rejects_bad_input():
    with pytest.raises(ValueError):
        extreme_eigpairs(np.eye(3), "BE")


def test_least_squares_rank_one():
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.standard_normal((5, 1))
    y = rng.standard_normal((5, 1))
    tilde = y @ x.T / float(x[:, 0] @ x[:, 0])  # pinv of a column is x^T / ||x||^2
    assert np.abs(estimate_adjacency(x, y) - (tilde + tilde.T) / 2).max() < 1e-12


def test_least_squares_zero_input():
    # every singular value of a zero X is truncated: pinv(0) = 0
    assert np.all(estimate_adjacency(np.zeros((4, 2)), np.zeros((4, 2))) == 0.0)


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


@pytest.mark.parametrize("ulps, degenerate", [(3, True), (64, True), (65, False)])
@pytest.mark.parametrize("scale", [2.0 ** -10, 1.0, -8.0])
def test_kmeans_near_flat_is_degenerate(ulps, degenerate, scale):
    """A set whose spread is at most 64 ulps of its largest magnitude is
    flat up to rounding and degenerate; a wider one is split. (A power-of-two
    scale keeps the spread exact.)"""
    values = np.full(10, scale)
    values[3] += ulps * np.finfo(float).eps * scale
    result = kmeans_two_1d(values)
    assert result.degenerate == degenerate
    assert sorted(np.bincount(result.labels)[1:]) == ([10] if degenerate else [1, 9])


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
