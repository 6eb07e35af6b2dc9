import numpy as np
import pytest

from commdyn.detect import PairSet
from commdyn.dynamics import (Equilibrium, IntegrationControls, ModelParams, Saturation,
                              bifurcation_threshold, equilibria_for_inputs,
                              integrate_to_equilibrium, newton_refine, read_equilibria_csv,
                              rhs, saturation_deriv, saturation_eval, saturation_inverse,
                              write_equilibria_csv)
from commdyn.errors import DomainError, InvalidRegime
from commdyn.graphgen import Graph, SbmParams, is_connected, max_expected_degree, sample_sbm

ALL_KINDS = list(Saturation)

# float64 caps: near |z| where S(z) rounds into 1, the inverse loses digits,
# so tanh and the scaled erf cannot round-trip at 1e-10 out to 20
ROUND_TRIP_CAP = {
    Saturation.TANH: 8.0,
    Saturation.ALG_ABS: 20.0,
    Saturation.ALG_SQRT: 20.0,
    Saturation.ERF: 4.0,
}


def _connected_ssbm(n, l_same, l_diff, start_seed=0):
    p = SbmParams.ssbm(n, l_same, l_diff)
    for seed in range(start_seed, start_seed + 50):
        g = sample_sbm(p, seed)
        if is_connected(g):
            return p, g
    raise RuntimeError("no connected sample found")


@pytest.fixture(scope="module")
def small_graph():
    return _connected_ssbm(30, 0.4, 0.1)


# ---------------------------------------------------------------------------
# saturation families

def test_saturation_at_zero():
    for kind in ALL_KINDS:
        assert saturation_eval(kind, 0.0) == 0.0


def test_saturation_alg_abs_at_one():
    assert saturation_eval(Saturation.ALG_ABS, 1.0) == 0.5


def test_saturation_oddness():
    grid = np.linspace(-10, 10, 81)
    for kind in ALL_KINDS:
        assert np.array_equal(saturation_eval(kind, -grid), -saturation_eval(kind, grid))


def test_saturation_unit_slope_at_origin():
    h = 1e-6
    for kind in ALL_KINDS:
        slope = (saturation_eval(kind, h) - saturation_eval(kind, -h)) / (2 * h)
        assert abs(slope - 1.0) < 1e-6


def test_saturation_curvature_sign():
    h = 1e-3
    grid = np.concatenate([np.linspace(0.1, 5, 25), -np.linspace(0.1, 5, 25)])
    for kind in ALL_KINDS:
        for z in grid:
            second = (saturation_eval(kind, z + h) - 2 * saturation_eval(kind, z)
                      + saturation_eval(kind, z - h)) / h ** 2
            assert np.sign(second) == -np.sign(z), (kind, z)


def test_saturation_bounded():
    for kind in ALL_KINDS:
        values = saturation_eval(kind, np.array([3.0, 7.5, 50.0, 1e6]))
        assert np.all(np.abs(values) < 1.0 + 1e-15)


def test_saturation_deriv_matches_finite_difference():
    h = 1e-6
    grid = np.linspace(-4, 4, 17)
    grid = grid[grid != 0.0]  # |x| kink: central difference is only O(h) at 0
    for kind in ALL_KINDS:
        fd = (saturation_eval(kind, grid + h) - saturation_eval(kind, grid - h)) / (2 * h)
        assert np.abs(saturation_deriv(kind, grid) - fd).max() < 1e-8


def test_saturation_inverse_values():
    assert saturation_inverse(Saturation.TANH, 0.0) == 0.0
    assert abs(saturation_inverse(Saturation.ALG_SQRT, 0.6) - 0.75) < 1e-15


def test_saturation_inverse_domain_error():
    with pytest.raises(DomainError):
        saturation_inverse(Saturation.TANH, 1.0)
    with pytest.raises(DomainError):
        saturation_inverse(Saturation.ALG_ABS, -1.5)


def test_saturation_inverse_clamp():
    z = saturation_inverse(Saturation.ALG_SQRT, 1.5, clamp=True)
    assert np.isfinite(z) and z > 0


def test_round_trip_z_direction():
    for kind in ALL_KINDS:
        cap = ROUND_TRIP_CAP[kind]
        grid = np.linspace(-cap, cap, 41)
        grid = grid[np.abs(grid) > 1e-12]
        back = saturation_inverse(kind, saturation_eval(kind, grid))
        assert np.abs(back - grid).max() / np.abs(grid).max() < 1e-10, kind
        rel = np.abs(back - grid) / np.abs(grid)
        assert rel.max() < 1e-10, kind


def test_round_trip_y_direction():
    ys = np.array([0.0, 0.1, -0.5, 0.9, -0.99, 0.999999, -(1 - 1e-12)])
    for kind in ALL_KINDS:
        back = saturation_eval(kind, saturation_inverse(kind, ys))
        assert np.abs(back - ys).max() < 1e-10


# ---------------------------------------------------------------------------
# vector field

def test_rhs_origin_without_input():
    g = Graph(np.zeros((2, 2)), np.array([1, 2]))
    m = ModelParams(1.0, 0.7, 1.0, 1.0)
    assert np.all(rhs(np.zeros(2), m, g) == 0.0)


def test_rhs_single_agent_linear_damping():
    g = Graph(np.zeros((1, 1)), np.array([1]))
    m = ModelParams(1.0, 0.0, 1.0, 1.0)
    out = rhs(np.array([3.0]), m, g, np.array([2.0]))
    assert out == pytest.approx(-1.0)


def test_rhs_matches_agent_form_sum():
    rng = np.random.Generator(np.random.Philox(11))
    adjacency = np.ones((3, 3)) - np.eye(3)
    g = Graph(adjacency, np.array([1, 1, 2]))
    for kind in ALL_KINDS:
        m = ModelParams(1.3, 0.8, 0.5, -0.4, kind)
        x = rng.standard_normal(3)
        b = rng.standard_normal(3)
        compact = rhs(x, m, g, b)
        for i in range(3):
            acc = sum(adjacency[i, k] * x[k] for k in range(3))
            agent = -m.d * x[i] + m.u * saturation_eval(kind, m.alpha * x[i] + m.gamma * acc) + b[i]
            assert abs(compact[i] - agent) < 1e-14


# ---------------------------------------------------------------------------
# integration and refinement

def test_origin_is_fixed_point():
    g = Graph(np.zeros((2, 2)), np.array([1, 2]))
    m = ModelParams(1.0, 0.5, 1.0, 1.0)
    eq = integrate_to_equilibrium(np.zeros(2), m, g)
    assert eq.converged and eq.residual_inf == 0.0 and eq.elapsed_model_time == 0.0


def test_below_threshold_decays_to_origin(small_graph):
    _, g = small_graph
    gamma = 1.0 / max_expected_degree(SbmParams.ssbm(30, 0.4, 0.1))
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    m = ModelParams(1.0, 0.9 * u1, 1.0, gamma)
    rng = np.random.Generator(np.random.Philox(21))
    for _ in range(20):
        x0 = rng.uniform(-1e-3, 1e-3, g.n)
        eq = integrate_to_equilibrium(x0, m, g)
        assert eq.converged
        assert np.abs(eq.state).max() < 1e-6
        assert np.abs(rhs(eq.state, m, g)).max() <= 1e-10


def test_above_threshold_positive_gamma_same_sign(small_graph):
    _, g = small_graph
    gamma = 1.0 / max_expected_degree(SbmParams.ssbm(30, 0.4, 0.1))
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    m = ModelParams(1.0, u1 + 0.05, 1.0, gamma)
    rng = np.random.Generator(np.random.Philox(22))
    eq = integrate_to_equilibrium(rng.uniform(-1e-3, 1e-3, g.n), m, g)
    assert eq.converged
    assert np.abs(eq.state).max() > 1e-3
    signs = np.sign(eq.state)
    assert np.all(signs == signs[0])
    assert np.abs(rhs(eq.state, m, g)).max() <= 1e-10


def test_above_threshold_negative_gamma_mixed_signs():
    p, g = _connected_ssbm(30, 0.1, 0.5)
    gamma = -1.0 / max_expected_degree(p)
    u2 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    m = ModelParams(1.0, u2 + 0.05, 1.0, gamma)
    rng = np.random.Generator(np.random.Philox(23))
    eq = integrate_to_equilibrium(rng.uniform(-1e-3, 1e-3, g.n), m, g)
    assert eq.converged
    assert np.abs(eq.state).max() > 1e-3
    assert np.any(eq.state > 0) and np.any(eq.state < 0)


def _above_threshold_model(p, g, offset=0.05):
    gamma = 1.0 / max_expected_degree(p)
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    return ModelParams(1.0, u1 + offset, 1.0, gamma)


def test_single_start_is_one_column_input_solve(small_graph):
    p, g = small_graph
    m = _above_threshold_model(p, g)
    b = np.random.Generator(np.random.Philox(25)).standard_normal(g.n)
    single = integrate_to_equilibrium(np.zeros(g.n), m, g, b)
    column = equilibria_for_inputs(g, m, b[:, None])[0]
    assert np.array_equal(single.state, column.state)
    assert single.residual_inf == column.residual_inf
    assert single.converged == column.converged
    assert single.elapsed_model_time == column.elapsed_model_time
    assert single.converged and single.elapsed_model_time > 0.0


def test_input_columns_meet_their_own_fixed_points(small_graph):
    p, g = small_graph
    m = _above_threshold_model(p, g)
    inputs = np.random.Generator(np.random.Philox(26)).standard_normal((g.n, 3))
    eqs = equilibria_for_inputs(g, m, inputs)
    assert all(eq.converged for eq in eqs)
    pairs = PairSet(np.column_stack([eq.state for eq in eqs]), inputs, m)
    assert pairs.fixed_point_residuals(g).max() <= IntegrationControls().steady_tol


def test_newton_exact_input_unchanged(small_graph):
    _, g = small_graph
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    eq = newton_refine(np.zeros(g.n), m, g)
    assert eq.converged and eq.residual_inf == 0.0
    assert np.all(eq.state == 0.0)


def test_newton_polishes_ode_endpoint(small_graph):
    p, g = small_graph
    gamma = 1.0 / max_expected_degree(p)
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    m = ModelParams(1.0, u1 + 0.05, 1.0, gamma)
    rng = np.random.Generator(np.random.Philox(24))
    eq = integrate_to_equilibrium(rng.uniform(-1e-3, 1e-3, g.n), m, g)
    noisy = eq.state + 1e-8 * rng.standard_normal(g.n)
    refined = newton_refine(noisy, m, g, tol=1e-12, max_iter=5)
    assert refined.converged and refined.residual_inf <= 1e-12


def test_newton_budget_exhausted(small_graph):
    _, g = small_graph
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    far = np.full(g.n, 50.0)
    eq = newton_refine(far, m, g, tol=1e-12, max_iter=1)
    assert not eq.converged


def test_bifurcation_threshold_two_agent_graph():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = ModelParams(1.0, 0.1, 1.0, 1.0)
    assert bifurcation_threshold(a, m) == pytest.approx(0.5)


def test_bifurcation_threshold_negative_gamma():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = ModelParams(1.0, 0.1, 1.0, -0.5)
    # lambda_min = -1 -> denominator 1 + 0.5
    assert bifurcation_threshold(a, m) == pytest.approx(1.0 / 1.5)


def test_bifurcation_threshold_invalid_regime():
    m = ModelParams(1.0, 0.1, 1.0, -1.0)
    with pytest.raises(InvalidRegime):
        bifurcation_threshold(np.diag([5.0, 2.0]), m)


def test_integration_controls_validation():
    with pytest.raises(ValueError):
        IntegrationControls(rtol=-1.0)
    with pytest.raises(ValueError):
        IntegrationControls(t_max=np.inf)


def test_non_convergence_reported_not_raised(small_graph):
    _, g = small_graph
    m = ModelParams(1.0, 0.9, 1.0, 1.0)
    controls = IntegrationControls(t_max=1e-2, steady_tol=1e-14, polish=False)
    eq = integrate_to_equilibrium(np.full(g.n, 0.5), m, g, controls=controls)
    assert not eq.converged
    assert eq.residual_inf > 1e-14


def test_equilibria_csv_round_trip(tmp_path):
    eqs = [Equilibrium(np.array([0.1, -0.25, 1e-17]), 3.2e-13, True, 12.5),
           Equilibrium(np.array([0.4, 0.7, -0.9]), 2e-6, False, 99.0)]
    path = tmp_path / "eq.csv"
    write_equilibria_csv(path, eqs)
    back = read_equilibria_csv(path)
    assert len(back) == 2
    for orig, loaded in zip(eqs, back):
        assert np.array_equal(orig.state, loaded.state)  # repr round-trips exactly
        assert loaded.residual_inf == orig.residual_inf
        assert loaded.converged == orig.converged
