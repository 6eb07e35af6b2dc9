import numpy as np
import pytest

from commdyn.detect import (DetectionMethod, PairSet, _cluster_second_eigenvector, accuracy,
                            detect_covariance_baseline, detect_multi, detect_single,
                            estimate_adjacency, invert_pairs)
from commdyn.dynamics import Equilibrium, ModelParams
from commdyn.errors import DomainError, NeutralState
from commdyn.graphgen import Graph, SbmParams
from commdyn.harness import generate_pair_set
from commdyn.theory import expected_threshold
from oracles import connected_sample, expected_adjacency, fixed_point_residuals


def _eq(state):
    return Equilibrium(np.asarray(state, dtype=float), 0.0, True, 1.0)


# ---------------------------------------------------------------------------
# single equilibrium

def test_detect_single_two_point_clusters():
    est = detect_single(_eq([0.3, 0.3, -0.3, -0.3]))
    assert accuracy(np.array([1, 1, 2, 2]), est.labels) == 1.0
    assert est.method is DetectionMethod.SINGLE_EQUILIBRIUM
    assert len(est.diagnostics["centers"]) == 2


def test_detect_single_neutral_state():
    with pytest.raises(NeutralState):
        detect_single(_eq([1e-8, -1e-8, 1e-9]))


def test_detect_single_requires_convergence():
    bad = Equilibrium(np.array([0.5, -0.5]), 1.0, False, 1.0)
    with pytest.raises(ValueError):
        detect_single(bad)


def test_detect_single_branch_sign_invariance():
    rng = np.random.Generator(np.random.Philox(31))
    x = rng.standard_normal(15)
    a = detect_single(_eq(x)).labels
    b = detect_single(_eq(-x)).labels
    assert accuracy(a, b) == 1.0


# ---------------------------------------------------------------------------
# fixed-point inversion

def _two_agent_path():
    return Graph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 2]))


def test_invert_pairs_zero_fixed_point():
    model = ModelParams(1.0, 0.5, 1.0, 0.7)
    pairs = PairSet(np.zeros((3, 1)), np.zeros((3, 1)), model)
    assert np.all(invert_pairs(pairs) == 0.0)


def test_invert_pairs_recovers_network_action():
    from commdyn.dynamics import equilibria_for_inputs
    g = _two_agent_path()
    model = ModelParams(1.0, 0.5, 1.0, 0.7)
    rng = np.random.Generator(np.random.Philox(32))
    b = rng.standard_normal((2, 1))
    eq = equilibria_for_inputs(g, model, b)[0]
    pairs = PairSet(eq.state[:, None], b, model)
    y = invert_pairs(pairs)
    assert np.abs(y[:, 0] - g.adjacency @ eq.state).max() < 1e-9


def test_invert_pairs_domain_error_reports_index():
    model = ModelParams(1.0, 0.5, 1.0, 0.7)
    x = np.zeros((3, 2))
    b = np.zeros((3, 2))
    x[2, 1] = 0.75  # (d*x - b)/u = 1.5 at pair 1, agent 2
    with pytest.raises(DomainError, match="pair 1, agent 2:"):
        invert_pairs(PairSet(x, b, model))


def test_invert_pairs_nan_cell_is_domain_error():
    """A NaN state cell makes (d*x - b)/u NaN, which is outside (-1, 1)."""
    model = ModelParams(1.0, 0.5, 1.0, 0.7)
    x = np.zeros((3, 2))
    x[1, 0] = np.nan
    with pytest.raises(DomainError, match="pair 0, agent 1: .* = nan"):
        invert_pairs(PairSet(x, np.zeros((3, 2)), model))


def test_pair_set_residual_invariant():
    p = SbmParams.ssbm(12, 0.6, 0.2)
    g = connected_sample(p)
    u_bar, gamma, _ = expected_threshold(p, 1)
    model = ModelParams(1.0, u_bar + 0.02, 1.0, gamma)
    pairs, eqs = generate_pair_set(g, model, 6, seed=9)
    assert all(eq.converged for eq in eqs)
    assert fixed_point_residuals(pairs, g).max() <= 1e-10


# ---------------------------------------------------------------------------
# adjacency estimation

def test_estimate_adjacency_exact_square_case():
    p = SbmParams.ssbm(10, 0.6, 0.2)
    g = connected_sample(p)
    u_bar, gamma, _ = expected_threshold(p, 1)
    model = ModelParams(1.0, u_bar + 0.02, 1.0, gamma)
    pairs, _ = generate_pair_set(g, model, 10, seed=3)
    a_hat = estimate_adjacency(pairs.X, invert_pairs(pairs))
    assert np.abs(a_hat - g.adjacency).max() <= 1e-6
    assert np.array_equal(a_hat, a_hat.T)


def test_estimate_adjacency_exact_inverse_case():
    rng = np.random.Generator(np.random.Philox(2))
    a = rng.standard_normal((6, 6))
    x = rng.standard_normal((6, 6)) + 3 * np.eye(6)
    estimate = estimate_adjacency(x, a @ x)
    assert np.abs(estimate - (a + a.T) / 2).max() < 1e-10


def test_estimate_adjacency_wide_pairs():
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.standard_normal((8, 8))
    x = rng.standard_normal((8, 12))  # full row rank w.p. 1
    y = a @ x
    estimate = estimate_adjacency(x, y)
    assert np.linalg.norm(estimate @ x - (a + a.T) / 2 @ x) <= 1e-8 * np.linalg.norm(y)


def test_estimate_adjacency_zero_targets():
    rng = np.random.Generator(np.random.Philox(33))
    x = rng.standard_normal((5, 3))
    assert np.all(estimate_adjacency(x, np.zeros((5, 3))) == 0.0)


def test_estimate_adjacency_rank_one():
    rng = np.random.Generator(np.random.Philox(34))
    x = rng.standard_normal((6, 1))
    y = rng.standard_normal((6, 1))
    a_hat = estimate_adjacency(x, y)
    assert np.linalg.matrix_rank(a_hat) <= 2  # symmetrized rank-1 map
    tilde = y @ x.T / float(x[:, 0] @ x[:, 0])
    assert np.abs(a_hat - (tilde + tilde.T) / 2).max() < 1e-12


# ---------------------------------------------------------------------------
# multi-equilibria detection

def test_detect_from_expected_matrix_is_perfect():
    p = SbmParams.ssbm(40, 0.3, 0.05)
    est = _cluster_second_eigenvector(expected_adjacency(p), DetectionMethod.MULTI_EQUILIBRIA)
    assert accuracy(p.labels(), est.labels) == 1.0
    assert len(est.diagnostics["top_eigenvalues"]) == 3


def test_detect_multi_single_pair_degenerate_rank():
    g = _two_agent_path()
    model = ModelParams(1.0, 0.5, 1.0, 0.7)
    from commdyn.dynamics import equilibria_for_inputs
    rng = np.random.Generator(np.random.Philox(35))
    b = rng.standard_normal((2, 1))
    eq = equilibria_for_inputs(g, model, b)[0]
    est = detect_multi(PairSet(eq.state[:, None], b, model))
    assert est.labels.size == 2
    assert "sigma_min_x" in est.diagnostics


# ---------------------------------------------------------------------------
# accuracy metric

def test_accuracy_identity_and_flip():
    truth = np.array([1, 1, 2, 2])
    assert accuracy(truth, truth) == 1.0
    assert accuracy(truth, 3 - truth) == 1.0


def test_accuracy_partial():
    assert accuracy([1, 1, 2, 2], [1, 2, 2, 2]) == 0.75


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError, match="lengths"):
        accuracy([1, 2], [1, 2, 1])


def test_accuracy_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1, 3])


def test_accuracy_flip_invariance_and_lower_bound():
    rng = np.random.Generator(np.random.Philox(36))
    for _ in range(50):
        n = int(rng.integers(2, 40))
        truth = rng.integers(1, 3, n)
        est = rng.integers(1, 3, n)
        value = accuracy(truth, est)
        assert value == accuracy(truth, 3 - est)
        assert 0.5 <= value <= 1.0


# ---------------------------------------------------------------------------
# covariance baseline

def test_covariance_baseline_identical_columns_degenerate():
    x = np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 4))
    est = detect_covariance_baseline(x)
    assert est.degenerate
    assert est.method is DetectionMethod.COVARIANCE_SPECTRAL


def test_covariance_baseline_needs_three_columns():
    """Two centred samples give a rank-one covariance, whose second
    eigenvector is an arbitrary vector of its zero eigenspace."""
    for m in (1, 2):
        with pytest.raises(ValueError, match="three sample columns"):
            detect_covariance_baseline(np.arange(3.0 * m).reshape(3, m))


def test_covariance_baseline_recovers_block_structure():
    # states A @ g with Gaussian g have covariance A^2, whose second
    # eigenvector carries the block signs
    n = 20
    p = SbmParams.ssbm(n, 1.0, 0.2)
    a = expected_adjacency(p)
    rng = np.random.Generator(np.random.Philox(37))
    x = a @ rng.standard_normal((n, 600))
    est = detect_covariance_baseline(x)
    assert accuracy(p.labels(), est.labels) == 1.0
