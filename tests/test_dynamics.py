import numpy as np
import pytest

from commdyn import dynamics
from commdyn.detect import PairSet, detect_single
from commdyn.dynamics import (DENSE_NEWTON_MAX_N, Equilibrium, IntegrationControls,
                              ModelParams, Saturation, bifurcation_threshold,
                              equilibria_for_inputs, integrate_to_equilibrium, jacobian,
                              newton_refine, read_equilibria_csv, rhs, saturation_deriv,
                              saturation_eval, saturation_inverse, write_equilibria_csv)
from commdyn.errors import DomainError, InvalidRegime, SingularJacobian
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
    refined = newton_refine(noisy, m, g, max_iter=5)
    assert refined.converged and refined.residual_inf <= 1e-12


def test_newton_budget_exhausted(small_graph):
    _, g = small_graph
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    far = np.full(g.n, 50.0)
    eq = newton_refine(far, m, g, max_iter=1)
    assert not eq.converged


# ---------------------------------------------------------------------------
# Newton step: dense LAPACK at small n, MINRES on the symmetrized Jacobian above

@pytest.fixture(scope="module")
def krylov_graph():
    """A connected SSBM just above the dense-solve cutoff."""
    return _connected_ssbm(DENSE_NEWTON_MAX_N + 100, 0.06, 0.02)


def _model_above_threshold(p, g, sign, kind, offset):
    gamma = sign / max_expected_degree(p)
    u = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma)) + offset
    return ModelParams(1.0, u, 1.0, gamma, kind)


def _relative_error(step, reference):
    return np.linalg.norm(step - reference) / np.linalg.norm(reference)


def _symmetrized_dense(jac):
    return jac.symmetrized() @ np.eye(jac.slope.size)


def test_jacobian_forms_agree(small_graph):
    p, g = small_graph
    m = _model_above_threshold(p, g, -1, Saturation.ERF, 0.3)
    x = np.random.Generator(np.random.Philox(30)).uniform(-1.0, 1.0, g.n)
    jac = jacobian(x, m, g)
    h = 1e-7
    columns = [(rhs(x + h * e, m, g) - rhs(x - h * e, m, g)) / (2 * h) for e in np.eye(g.n)]
    assert np.abs(jac.toarray() - np.column_stack(columns)).max() < 1e-7
    s = np.random.Generator(np.random.Philox(31)).standard_normal(g.n)
    assert np.allclose(jac.matvec(s), jac.toarray() @ s, rtol=0, atol=1e-14)
    k = _symmetrized_dense(jac)
    assert np.abs(k - k.T).max() <= 1e-15
    # J = diag(h) K diag(h)^-1, so both have one spectrum
    assert np.allclose(np.sort(np.linalg.eigvals(jac.toarray()).real),
                       np.linalg.eigvalsh(k), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_minres_step_near_equilibrium(krylov_graph, sign, kind):
    p, g = krylov_graph
    m = _model_above_threshold(p, g, sign, kind, 0.05)
    rng = np.random.Generator(np.random.Philox(32))
    eq = integrate_to_equilibrium(rng.uniform(-1e-3, 1e-3, g.n), m, g)
    assert eq.converged and np.abs(eq.state).max() > 1e-3
    x = eq.state + 1e-6 * rng.standard_normal(g.n)
    r = rhs(x, m, g)
    jac = jacobian(x, m, g)
    assert np.linalg.eigvalsh(_symmetrized_dense(jac)).max() < 0  # a stable point
    assert _relative_error(jac.solve(r), np.linalg.solve(jac.toarray(), r)) <= 1e-8


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_minres_step_far_point(krylov_graph, sign, kind):
    p, g = krylov_graph
    m = _model_above_threshold(p, g, sign, kind, 0.5)
    x = np.random.Generator(np.random.Philox(33)).uniform(-3.0, 3.0, g.n)
    r = rhs(x, m, g)
    jac = jacobian(x, m, g)
    spectrum = np.linalg.eigvalsh(_symmetrized_dense(jac))
    assert spectrum.min() < 0 < spectrum.max()  # K is indefinite here
    assert _relative_error(jac.solve(r), np.linalg.solve(jac.toarray(), r)) <= 1e-8


@pytest.mark.parametrize("kind", [Saturation.TANH, Saturation.ERF], ids=lambda k: k.value)
def test_minres_step_with_exactly_saturated_rows(krylov_graph, kind):
    p, g = krylov_graph
    m = _model_above_threshold(p, g, 1, kind, 0.2)
    rng = np.random.Generator(np.random.Philox(34))
    x = rng.uniform(-0.5, 0.5, g.n)
    x[: g.n // 3] = 60.0  # S'(z) underflows or rounds to exactly 0 on these rows
    r = rhs(x, m, g)
    jac = jacobian(x, m, g)
    assert 0 < np.count_nonzero(jac.slope == 0.0) < g.n
    assert _relative_error(jac.solve(r), np.linalg.solve(jac.toarray(), r)) <= 1e-8


@pytest.mark.parametrize("sign", [1, -1])
def test_saturated_rows_are_eliminated_exactly(krylov_graph, sign, monkeypatch):
    """With weak coupling the other rows' h stay within a few hundred of each
    other, so an exact elimination of the S' = 0 rows needs one MINRES solve
    and no refinement round."""
    p, g = krylov_graph
    solves = []
    minres = dynamics.minres
    monkeypatch.setattr(dynamics, "minres",
                        lambda *args, **kwargs: solves.append(1) or minres(*args, **kwargs))
    m = ModelParams(1.0, 0.5, 1.0, sign * 0.1 / max_expected_degree(p))
    x = np.random.Generator(np.random.Philox(36)).uniform(-0.5, 0.5, g.n)
    x[::3] = 60.0
    r = rhs(x, m, g)
    jac = jacobian(x, m, g)
    saturated = jac.slope == 0.0
    assert 0 < np.count_nonzero(saturated) < g.n
    step = jac.solve(r)
    assert len(solves) == 1
    assert np.array_equal(step[saturated], -r[saturated] / m.d)
    assert _relative_error(step, np.linalg.solve(jac.toarray(), r)) <= 1e-8


def test_minres_newton_all_rows_saturated(krylov_graph):
    _, g = krylov_graph
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    far = np.full(g.n, 50.0)
    r = rhs(far, m, g)
    jac = jacobian(far, m, g)
    assert np.all(jac.slope == 0.0)
    assert np.array_equal(jac.solve(r), -r / m.d)
    assert not newton_refine(far, m, g, max_iter=1).converged


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("graph_fixture", ["small_graph", "krylov_graph"])
def test_newton_non_finite_step_raises(graph_fixture, request):
    _, g = request.getfixturevalue(graph_fixture)
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    x = np.full(g.n, 0.1)
    x[0] = np.inf
    with pytest.raises(SingularJacobian):
        newton_refine(x, m, g)


def test_stable_origin_passes_the_certificate():
    p, g = _connected_ssbm(DENSE_NEWTON_MAX_N + 100, 0.01, 0.06)
    gamma = -1.0 / max_expected_degree(p)
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    x0 = np.random.Generator(np.random.Philox(35)).uniform(-1e-3, 1e-3, g.n)
    below = integrate_to_equilibrium(x0, ModelParams(1.0, 0.99 * u1, 1.0, gamma), g)
    assert below.converged and np.abs(below.state).max() <= dynamics.NEUTRAL_TOL
    above = integrate_to_equilibrium(x0, ModelParams(1.0, 1.01 * u1, 1.0, gamma), g)
    assert above.converged and np.abs(above.state).max() > 1e-3


def test_certificate_decides_the_neutral_polish(small_graph, monkeypatch):
    _, g = small_graph
    verdicts = []
    certificate = dynamics._is_stable
    monkeypatch.setattr(dynamics, "_is_stable",
                        lambda *args: verdicts.append(certificate(*args)) or verdicts[-1])
    gamma = 1.0 / max_expected_degree(SbmParams.ssbm(30, 0.4, 0.1))
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    x = np.full(g.n, 5e-6)
    controls = IntegrationControls()
    assert dynamics._guarded_polish(x, ModelParams(1.0, 0.9 * u1, 1.0, gamma), g,
                                    None, controls) is not None
    assert dynamics._guarded_polish(x, ModelParams(1.0, 1.1 * u1, 1.0, gamma), g,
                                    None, controls) is None
    assert verdicts == [True, False]


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


# ---------------------------------------------------------------------------
# seeded start: Newton from the bifurcated branch c*w, the ODE path as fallback

@pytest.fixture(scope="module")
def dense_newton_graph():
    """A connected SSBM at or below the dense-solve cutoff."""
    return _connected_ssbm(200, 0.12, 0.04)


def _ode_path(x0, m, g, controls=IntegrationControls()):
    """integrate_to_equilibrium's RK45 path alone, without the seeded start."""
    return dynamics._stacked_equilibria(np.array(x0, dtype=float).reshape(-1, 1), m, g,
                                        None, controls)[0]


def _assert_same_equilibrium(eq, reference):
    assert np.array_equal(eq.state, reference.state)
    assert eq.residual_inf == reference.residual_inf
    assert eq.converged == reference.converged
    assert eq.elapsed_model_time == reference.elapsed_model_time


def _small_start(g, seed):
    return np.random.Generator(np.random.Philox(seed)).uniform(-1e-3, 1e-3, g.n)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_seeded_start_agrees_with_ode_path(graph_fixture, sign, kind, request):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, sign, kind, 0.02)
    x0 = _small_start(g, 40)
    seeded = integrate_to_equilibrium(x0, m, g)
    ode = _ode_path(x0, m, g)
    assert seeded.converged and ode.converged
    assert seeded.elapsed_model_time == 0.0 < ode.elapsed_model_time  # the seed ran
    assert seeded.residual_inf <= IntegrationControls().steady_tol
    assert np.abs(seeded.state - ode.state).max() <= 1e-8
    assert np.array_equal(detect_single(seeded).labels, detect_single(ode).labels)


@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_seeded_start_is_odd(graph_fixture, request):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, -1, Saturation.TANH, 0.02)
    x0 = _small_start(g, 41)
    plus, minus = integrate_to_equilibrium(x0, m, g), integrate_to_equilibrium(-x0, m, g)
    assert plus.elapsed_model_time == minus.elapsed_model_time == 0.0
    assert np.array_equal(minus.state, -plus.state)


def test_seeded_start_skips_a_start_at_equilibrium(dense_newton_graph, monkeypatch):
    p, g = dense_newton_graph
    m = _model_above_threshold(p, g, 1, Saturation.TANH, 0.02)
    root = integrate_to_equilibrium(_small_start(g, 43), m, g).state
    monkeypatch.setattr(dynamics, "_seeded_equilibrium", None)
    eq = integrate_to_equilibrium(root, m, g)
    _assert_same_equilibrium(eq, _ode_path(root, m, g))
    assert np.array_equal(eq.state, root)


@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_seeded_start_below_threshold_is_the_ode_path(graph_fixture, request):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, -1, Saturation.ERF, 0.0)
    m = ModelParams(m.d, 0.98 * m.u, m.alpha, m.gamma, m.saturation)
    assert dynamics._branch_seed(m, g) is None  # the origin is stable: no seed
    x0 = _small_start(g, 44)
    eq = integrate_to_equilibrium(x0, m, g)
    _assert_same_equilibrium(eq, _ode_path(x0, m, g))
    assert np.abs(eq.state).max() <= dynamics.NEUTRAL_TOL


@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_uncertified_seeded_root_falls_back(graph_fixture, request, monkeypatch):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, 1, Saturation.ALG_SQRT, 0.02)
    x0 = _small_start(g, 45)
    calls = []
    monkeypatch.setattr(dynamics, "_is_stable", lambda *args: calls.append(args) or False)
    eq = integrate_to_equilibrium(x0, m, g)
    assert len(calls) == 1  # the seeded root reached the certificate
    _assert_same_equilibrium(eq, _ode_path(x0, m, g))
    assert eq.elapsed_model_time > 0.0


def test_singular_seeded_newton_falls_back(krylov_graph, monkeypatch):
    p, g = krylov_graph
    m = _model_above_threshold(p, g, -1, Saturation.ALG_ABS, 0.02)
    x0 = _small_start(g, 46)
    reference = _ode_path(x0, m, g)
    refine, calls = dynamics.newton_refine, []

    def raise_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise SingularJacobian("injected")
        return refine(*args, **kwargs)

    monkeypatch.setattr(dynamics, "newton_refine", raise_first)
    _assert_same_equilibrium(integrate_to_equilibrium(x0, m, g), reference)
    assert len(calls) > 1  # the seed, then the ODE path's polish


@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_large_start_is_not_seeded(graph_fixture, request, monkeypatch):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, 1, Saturation.TANH, 0.02)
    root_norm = np.abs(integrate_to_equilibrium(_small_start(g, 47), m, g).state).max()
    x0 = 0.15 * root_norm * np.sign(_small_start(g, 48))
    calls = []
    monkeypatch.setattr(dynamics, "_is_stable", lambda *args: calls.append(args) or True)
    eq = integrate_to_equilibrium(x0, m, g)
    assert not calls  # rejected before the certificate
    _assert_same_equilibrium(eq, _ode_path(x0, m, g))
    assert eq.converged and eq.elapsed_model_time > 0.0


def test_integration_controls_validation():
    with pytest.raises(ValueError):
        IntegrationControls(rtol=-1.0)


def test_non_convergence_reported_not_raised(small_graph, monkeypatch):
    _, g = small_graph
    m = ModelParams(1.0, 0.9, 1.0, 1.0)
    monkeypatch.setattr(dynamics, "T_MAX", 1e-2)
    controls = IntegrationControls(steady_tol=1e-14)
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
