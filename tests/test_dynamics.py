import math

import numpy as np
import pytest
from scipy import sparse

from commdyn import dynamics, spectral
from commdyn.cli import read_equilibria_csv, write_equilibria_csv
from commdyn.detect import PairSet, detect_single
from commdyn.dynamics import (DENSE_NEWTON_MAX_N, Equilibrium, ModelParams, Saturation,
                              equilibria_for_inputs, integrate_to_equilibrium, jacobian,
                              newton_refine, rhs, saturation_deriv, saturation_eval,
                              saturation_inverse)
from commdyn.errors import DomainError
from commdyn.graphgen import SbmParams, max_expected_degree, sample_sbm
from commdyn.spectral import extreme_eigpairs
from commdyn.theory import expected_threshold
from oracles import (bifurcation_threshold, branch_amplitude, connected_sample,
                     fixed_point_residuals, graph_of, projected_fixed_point)

ALL_KINDS = list(Saturation)

# float64 caps: near |z| where S(z) rounds into 1, the inverse loses digits,
# so tanh and the scaled erf cannot round-trip at 1e-10 out to 20
ROUND_TRIP_CAP = {
    Saturation.TANH: 8.0,
    Saturation.ALG_ABS: 20.0,
    Saturation.ALG_SQRT: 20.0,
    Saturation.ERF: 4.0,
}


def _connected_ssbm(n, l_same, l_diff):
    """(SBM, its first connected sample) of the symmetric SBM."""
    p = SbmParams.ssbm(n, l_same, l_diff)
    return p, connected_sample(p)


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
    for kind in ALL_KINDS:  # every |y| >= 1, alone or in an array
        for y in (1.0, -1.0, np.nextafter(1.0, 2.0), -2.0, np.inf):
            with pytest.raises(DomainError):
                saturation_inverse(kind, y)
            with pytest.raises(DomainError):
                saturation_inverse(kind, np.array([0.5, y]))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_saturation_inverse_nan_is_domain_error(kind):
    """A NaN cell, alone or in an array, raises DomainError: `|y| >= 1` is
    False for NaN, so the guard tests `|y| < 1`."""
    for y in (np.nan, np.array([0.5, np.nan, -0.25])):
        with pytest.raises(DomainError, match="nan"):
            saturation_inverse(kind, y)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("k", range(1, 16))
def test_saturation_inverse_near_the_range_edge(kind, k):
    """At |y| = 1 - 10^-k the inverse is finite and S maps it back to y
    within one ulp."""
    y = 1.0 - 10.0 ** -k
    for signed in (y, -y):
        z = saturation_inverse(kind, signed)
        assert np.isfinite(z)
        assert abs(saturation_eval(kind, z) - signed) <= np.spacing(y)


def test_erf_saturation():
    """The erf family's S is math.erf at sqrt(pi)*z/2, bit for bit, scalar
    or array; S and S^-1 keep the sign of -0; and S^-1(S(z)) gives z back
    on [-4, 4] as closely as S's conditioning allows."""
    z = np.linspace(-6.0, 6.0, 1201)
    expected = [math.erf(np.sqrt(np.pi) / 2.0 * v) for v in z.tolist()]
    assert np.array_equal(saturation_eval(Saturation.ERF, z), expected)
    assert np.array_equal(saturation_eval(Saturation.ERF, z.reshape(-1, 1)),
                          np.reshape(expected, (-1, 1)))
    assert saturation_eval(Saturation.ERF, 0.5) == math.erf(np.sqrt(np.pi) / 2.0 * 0.5)
    assert np.signbit(saturation_eval(Saturation.ERF, -0.0))
    assert np.signbit(saturation_inverse(Saturation.ERF, -0.0))
    assert np.signbit(saturation_inverse(Saturation.ERF, np.array([0.5, -0.0]))[1])
    z = np.linspace(-4.0, 4.0, 8001)
    z = z[z != 0.0]
    s = saturation_eval(Saturation.ERF, z)
    back = saturation_inverse(Saturation.ERF, s)
    # an error of one ulp of S(z) moves S^-1 by spacing(S(z)) / S'(z)
    unit = np.spacing(np.abs(s)) / saturation_deriv(Saturation.ERF, z) + np.spacing(np.abs(z))
    assert np.all(np.abs(back - z) <= 4.0 * unit)


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
    g = graph_of(np.zeros((2, 2)), np.array([1, 2]))
    m = ModelParams(1.0, 0.7, 1.0, 1.0)
    assert np.all(rhs(np.zeros(2), m, g) == 0.0)


def test_rhs_single_agent_linear_damping():
    g = graph_of(np.zeros((1, 1)), np.array([1]))
    m = ModelParams(1.0, 0.0, 1.0, 1.0)
    out = rhs(np.array([3.0]), m, g, np.array([2.0]))
    assert out == pytest.approx(-1.0)


def test_rhs_matches_agent_form_sum():
    rng = np.random.Generator(np.random.Philox(11))
    adjacency = np.ones((3, 3)) - np.eye(3)
    g = graph_of(adjacency, np.array([1, 1, 2]))
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
    g = graph_of(np.zeros((2, 2)), np.array([1, 2]))
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


def _model_above_threshold(p, g, sign, kind, offset):
    gamma = sign / max_expected_degree(p)
    u = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma)) + offset
    return ModelParams(1.0, u, 1.0, gamma, kind)


def test_input_columns_meet_their_own_fixed_points(small_graph):
    p, g = small_graph
    m = _model_above_threshold(p, g, 1, Saturation.TANH, 0.05)
    inputs = np.random.Generator(np.random.Philox(26)).standard_normal((g.n, 3))
    eqs = equilibria_for_inputs(g, m, inputs)
    assert all(eq.converged for eq in eqs)
    pairs = PairSet(np.column_stack([eq.state for eq in eqs]), inputs, m)
    assert fixed_point_residuals(pairs, g).max() <= dynamics.STEADY_TOL


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


def _relative_error(step, reference):
    return np.linalg.norm(step - reference) / np.linalg.norm(reference)


def _symmetrized_dense(jac):
    k = jac.symmetrized()
    return np.column_stack([k @ e for e in np.eye(jac.slope.size)])


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


def _recording_minres(monkeypatch):
    """Patch MINRES to record the rtol of each call."""
    rtols, minres = [], dynamics.minres
    monkeypatch.setattr(dynamics, "minres", lambda *args, **kwargs: rtols.append(
        kwargs["rtol"]) or minres(*args, **kwargs))
    return rtols


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_inexact_newton_reaches_the_exact_steps_root(krylov_graph, sign, kind, monkeypatch):
    """From the branch seed, Newton whose MINRES steps run to the forcing
    term max(1e-12, min(0.1, ||F||_inf)) reaches NEWTON_TOL at the root that
    steps solved to 1e-12 reach."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, sign, kind, 0.02)
    c, w = dynamics._branch_seed(m, g)
    rtols, residuals, linearize = _recording_minres(monkeypatch), [], dynamics.jacobian
    first_rtols = []
    monkeypatch.setattr(dynamics, "jacobian", lambda x, *args: residuals.append(
        np.abs(rhs(x, m, g)).max()) or first_rtols.append(len(rtols)) or linearize(x, *args))
    inexact = newton_refine(c * w, m, g)
    assert [rtols[i] for i in first_rtols] == [max(1e-12, min(0.1, r)) for r in residuals]
    assert rtols[0] > 1e-12
    monkeypatch.setattr(dynamics, "_MAX_FORCING", 0.0)
    exact = newton_refine(c * w, m, g)
    assert inexact.converged and exact.converged
    assert inexact.residual_inf <= dynamics.NEWTON_TOL
    assert np.abs(inexact.state - exact.state).max() <= 1e-10


def _exact_steps_root_agrees(x, m, g, monkeypatch):
    inexact = newton_refine(x, m, g)
    monkeypatch.setattr(dynamics, "_MAX_FORCING", 0.0)
    exact = newton_refine(x, m, g)
    return (inexact.converged and exact.converged
            and np.abs(inexact.state - exact.state).max() <= 1e-10)


@pytest.mark.parametrize("at_root", [False, True], ids=["seed", "near-root"])
def test_loose_step_is_kept_only_as_an_inexact_newton_step(krylov_graph, at_root, monkeypatch):
    """At the gamma < 0 branch seed K is nearly singular, and MINRES stopped
    at Newton's forcing term (0.05 there) leaves a relative residual above
    0.1. The step continues from its own iterate, at an rtol scaled by that
    overshoot; here that still leaves it above 0.1, so the step is solved
    afresh at 1e-12 (at once when rescale is False), and Newton from the
    seed reaches the root that exact steps reach. Near the stable root the
    loose step is kept."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, -1, Saturation.TANH, 0.02)
    c, w = dynamics._branch_seed(m, g)
    x = c * w
    if at_root:
        x = integrate_to_equilibrium(_small_start(g, 40), m, g).state + 1e-6 * w
    r = rhs(x, m, g)
    jac = jacobian(x, m, g)
    forcing = min(0.1, np.abs(r).max())
    rtols = _recording_minres(monkeypatch)
    step = jac.solve(r, forcing)
    assert np.linalg.norm(r - jac.matvec(step)) / np.linalg.norm(r) <= 0.1
    if at_root:
        assert set(rtols) == {forcing}
        return
    assert rtols[0] == forcing and 1e-12 < rtols[1] < forcing and rtols[2:] == [1e-12]
    exact = np.linalg.solve(jac.toarray(), r)
    assert _relative_error(step, exact) <= 1e-8
    rtols.clear()
    assert _relative_error(jac.solve(r, forcing, rescale=False), exact) <= 1e-8
    assert rtols == [forcing, 1e-12]
    assert _exact_steps_root_agrees(x, m, g, monkeypatch)


def test_overshooting_step_continues_from_its_own_iterate(krylov_graph, monkeypatch):
    """At the gamma > 0 erf branch seed (u 0.1 above threshold) the loose
    step overshoots 0.1; one continuation from its iterate at the scaled
    rtol brings it below 0.1, in fewer MINRES matvecs (counted by the
    operator) than one solve at 1e-12, and Newton from the seed reaches the
    root that exact steps reach."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, 1, Saturation.ERF, 0.1)
    c, w = dynamics._branch_seed(m, g)
    r = rhs(c * w, m, g)
    jac = jacobian(c * w, m, g)
    forcing = min(0.1, np.abs(r).max())
    calls, minres = [], dynamics.minres

    def counting(operator, *args, **kwargs):
        matvecs = []
        counted = spectral.Operator(operator.shape[0],
                                    lambda v: matvecs.append(1) or operator @ v)
        result = minres(counted, *args, **kwargs)
        calls.append((kwargs["rtol"], len(matvecs)))
        return result

    monkeypatch.setattr(dynamics, "minres", counting)
    step = jac.solve(r, forcing)
    assert np.linalg.norm(r - jac.matvec(step)) / np.linalg.norm(r) <= 0.1
    (loose, _), (scaled, _) = calls
    assert loose == forcing and 1e-12 < scaled < forcing
    continued = sum(matvecs for _, matvecs in calls)
    calls.clear()
    jac.solve(r)
    assert calls[0][0] == 1e-12 and continued < calls[0][1]
    assert _exact_steps_root_agrees(c * w, m, g, monkeypatch)


def test_large_overshoot_goes_straight_to_the_tight_solve(monkeypatch):
    """Where K is indefinite and nearly singular (a random state and input
    near an unstable origin, gamma < 0: perfbench/nsweep.py's Newton cell at
    n = 1000) a loose step at rtol 0.1 overshoots the 0.1 cap more than
    _MAX_OVERSHOOT times; it is solved afresh at 1e-12 with no scaled
    continuation in between."""
    p = SbmParams.ssbm(1000, 0.005, 0.03)
    g = sample_sbm(p, 3)
    rng = np.random.Generator(np.random.Philox(3))
    x = rng.uniform(-0.1, 0.1, g.n)
    m = ModelParams(1.0, 1.5, 1.0, -1.0 / max_expected_degree(p))
    r, jac = rhs(x, m, g, rng.standard_normal(g.n)), jacobian(x, m, g)
    rtols = _recording_minres(monkeypatch)
    step = jac.solve(r, 0.1)
    assert rtols[:2] == [0.1, 1e-12] and set(rtols[2:]) <= {1e-12}
    assert _relative_error(step, np.linalg.solve(jac.toarray(), r)) <= 1e-8
    loose = jac._minres_step(r, 0.1)
    overshoot = np.linalg.norm(r - jac.matvec(loose)) / (0.1 * np.linalg.norm(r))
    assert overshoot > dynamics._MAX_OVERSHOOT


def test_newton_rescales_only_after_a_whole_step(krylov_graph, monkeypatch):
    """newton_refine lets a step's continuation use the scaled rtol only when
    the previous step was taken whole (the first step counts as such)."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, -1, Saturation.TANH, 0.05)
    c, w = dynamics._branch_seed(m, g)
    states, steps, rescales = [], [], []
    linearize, solve = dynamics.jacobian, dynamics.Jacobian.solve
    monkeypatch.setattr(dynamics, "jacobian", lambda x, *args: states.append(x.copy())
                        or linearize(x, *args))

    def recording_solve(jac, r, rtol=1e-12, rescale=True):
        if len(rescales) == len(states):  # the last resort's inner call
            return solve(jac, r, rtol, rescale)
        rescales.append(rescale)
        steps.append(solve(jac, r, rtol, rescale))
        return steps[-1]

    monkeypatch.setattr(dynamics.Jacobian, "solve", recording_solve)
    assert newton_refine(c * w, m, g).converged
    whole = [np.array_equal(x - step, after) for x, step, after in zip(states, steps, states[1:])]
    assert rescales == [True] + whole
    assert not all(whole)  # the line search damped at least one step here


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("graph_fixture", ["small_graph", "krylov_graph"])
def test_newton_non_finite_step_returns_unconverged(graph_fixture, request):
    """A linear solve that fails or gives a non-finite step ends the polish
    at its best iterate, here the start, unconverged."""
    _, g = request.getfixturevalue(graph_fixture)
    m = ModelParams(1.0, 0.4, 1.0, 0.05)
    x = np.full(g.n, 0.1)
    x[0] = np.inf
    result = newton_refine(x, m, g)
    assert not result.converged
    assert np.array_equal(result.state, x)


def test_newton_singular_jacobian_returns_unconverged():
    """Two isolated agents at x = (0, 0.5) with d = u = alpha = 1: the
    Jacobian's first row, -d + u*S'(0)*alpha, is exactly 0, so the dense
    solve raises LinAlgError and the polish ends at the start, unconverged."""
    g = graph_of(np.zeros((2, 2)), np.array([1, 2]))
    x = np.array([0.0, 0.5])
    result = newton_refine(x, ModelParams(1.0, 1.0, 1.0, 0.1), g)
    assert not result.converged
    assert np.array_equal(result.state, x)


def test_guarded_polish_rejects_a_jump_to_the_origin():
    """From 1e-4 * w above threshold Newton converges to the origin: the
    step is far more than 0.1 |x| and the start is not neutral, so the root
    is not the trajectory's and the polish gives None."""
    p, g = _connected_ssbm(100, 0.3, 0.05)
    u_bar, gamma, _ = expected_threshold(p, 1)
    m = ModelParams(1.0, u_bar + 0.05, 1.0, gamma)
    x = 1e-4 * g.extreme_eigenpair("LA")[1]
    refined = newton_refine(x, m, g)
    assert refined.converged and np.abs(refined.state).max() <= dynamics.NEUTRAL_TOL
    assert dynamics._guarded_polish(x, m, g, None) is None


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
    assert dynamics._guarded_polish(x, ModelParams(1.0, 0.9 * u1, 1.0, gamma), g,
                                    None) is not None
    assert dynamics._guarded_polish(x, ModelParams(1.0, 1.1 * u1, 1.0, gamma), g,
                                    None) is None
    assert verdicts == [True, False]


def _counting_lanczos(monkeypatch):
    """Patch the Lanczos kernel to record the tol of each call."""
    tols, lanczos = [], spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos", lambda matrix, which, tol, v0: tols.append(
        tol) or lanczos(matrix, which, tol, v0))
    return tols


def _tight_lambda_max(x, m, g):
    return extreme_eigpairs(dynamics._linearize(x, m, g).symmetrized(), "LA")[0]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_certificate_proves_a_positive_gamma_root_without_arpack(krylov_graph, kind,
                                                                 monkeypatch):
    """gamma > 0 and a root of one sign: the Collatz-Wielandt stage decides,
    with no eigensolve, and agrees with the tight Ritz value."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, 1, kind, 0.05)
    root = integrate_to_equilibrium(_small_start(g, 50), m, g).state
    assert np.all(root > 0) or np.all(root < 0)
    tols = _counting_lanczos(monkeypatch)
    assert dynamics._is_stable(root, m, g)
    assert tols == []
    assert _tight_lambda_max(root, m, g) < 0.0


@pytest.mark.parametrize("sign", [1, -1])
def test_certificate_of_a_mixed_sign_state_is_the_loose_solve(krylov_graph, sign,
                                                              monkeypatch):
    """A state with entries of both signs skips the Collatz-Wielandt stage
    (for gamma > 0 one entry of a stable root is flipped); one loose Lanczos
    solve decides, and agrees with the tight Ritz value."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, sign, Saturation.TANH, 0.05)
    x = integrate_to_equilibrium(_small_start(g, 51), m, g).state.copy()
    x[0] = -x[0]
    assert x.min() < 0.0 < x.max()
    tols = _counting_lanczos(monkeypatch)
    verdict = dynamics._is_stable(x, m, g)
    assert tols == [spectral.LOOSE_EIG_TOL]
    assert verdict == (_tight_lambda_max(x, m, g) < 0.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_certificate_rejects_an_unstable_origin_in_the_loose_solve(krylov_graph, sign,
                                                                   monkeypatch):
    """Near the origin above threshold, theta - ||r|| > 0 proves an eigenvalue
    above 0: one loose Lanczos solve rejects, with no tight one. The state has
    one sign, and for gamma < 0 J|x| < 0 there, so the Collatz-Wielandt stage
    must not run for gamma < 0 (J is not Metzler)."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, sign, Saturation.TANH, 0.05)
    x = np.full(g.n, 1e-8)
    tols = _counting_lanczos(monkeypatch)
    assert not dynamics._is_stable(x, m, g)
    assert tols == [spectral.LOOSE_EIG_TOL]
    assert _tight_lambda_max(x, m, g) > 0.0


@pytest.mark.parametrize("offset, stable, theta", [(0.05, True, 1e-9), (-0.05, True, 1e-9),
                                                  (0.05, False, -1e-9)])
def test_inconclusive_loose_solve_falls_back_to_the_tight_one(krylov_graph, offset, stable,
                                                              theta, monkeypatch):
    """A loose Ritz pair whose residual bound straddles 0 (theta patched to
    +-1e-9, of the sign opposite to the verdict) leaves the verdict to the
    tight solve."""
    p, g = krylov_graph
    m = _model_above_threshold(p, g, -1, Saturation.ERF, offset)
    x = (integrate_to_equilibrium(_small_start(g, 52), m, g).state if stable
         else np.full(g.n, 1e-8))
    solve, tols = dynamics.extreme_eigpairs, []

    def inconclusive(operator, which, tol=0.0, v0=None):
        tols.append(tol)
        value, vector = solve(operator, which, tol=tol, v0=v0)
        return (theta, vector) if tol else (value, vector)

    monkeypatch.setattr(dynamics, "extreme_eigpairs", inconclusive)
    assert dynamics._is_stable(x, m, g) == stable
    assert tols == [spectral.LOOSE_EIG_TOL, 0.0]
    assert (_tight_lambda_max(x, m, g) < 0.0) == stable


def test_certificate_start_reaches_a_component_where_the_state_is_zero():
    """A branch root on one component and an unstable origin on a second
    one, K_{7,8}, whose -d + u*(alpha + gamma*lambda_min) is +0.27: K is
    block diagonal, and D^-1 x is 0 on the second block. From D^-1 x alone
    the loose Lanczos never leaves the first block and would certify the
    state stable; the seeded part of _is_stable's start finds the +0.27
    and rejects it."""
    p, g1 = _connected_ssbm(100, 0.12, 0.04)
    gamma = -1.0 / max_expected_degree(p)
    m = ModelParams(1.0, 1.0 / (1.0 + gamma * g1.extreme_eigenpair("SA")[0]) + 0.05, 1.0, gamma)
    root = integrate_to_equilibrium(_small_start(g1, 53), m, g1)
    assert root.converged and root.elapsed_model_time == 0.0  # the seeded root
    bipartite = np.zeros((15, 15))
    bipartite[:7, 7:] = 1.0
    g = graph_of(sparse.block_diag([g1.adjacency, bipartite + bipartite.T]),
                 np.r_[g1.labels, np.repeat([1, 2], [7, 8])])
    x = np.r_[root.state, np.zeros(15)]
    assert np.abs(rhs(x, m, g)).max() <= dynamics.STEADY_TOL
    jac = dynamics._linearize(x, m, g)
    k = jac.symmetrized()
    top = np.linalg.eigvalsh(np.column_stack([k @ e for e in np.eye(g.n)]))[-1]
    assert top == pytest.approx(-1.0 + m.u * (1.0 + gamma * -np.sqrt(56.0)), rel=1e-12)
    assert top == pytest.approx(0.27, abs=0.01)
    h = np.sqrt(jac.slope)
    branch = np.divide(x, h, out=np.zeros(g.n), where=h > 0.0)
    theta, v = extreme_eigpairs(k, "LA", tol=spectral.LOOSE_EIG_TOL, v0=branch)
    assert theta + np.linalg.norm(k @ v - theta * v) < 0.0  # fooled
    assert not dynamics._is_stable(x, m, g)
    assert not dynamics._is_stable(x, m, g, dynamics._field(x, m, g)[1])


@pytest.mark.parametrize("sign", [1, -1])
def test_k_norm_is_the_dense_infinity_norm(sign):
    """Jacobian._k_norm, taken from the binary adjacency itself, equals
    ||K||_inf of the dense symmetrized Jacobian."""
    p, g = _connected_ssbm(DENSE_NEWTON_MAX_N + 100, 0.06, 0.02)
    m = _model_above_threshold(p, g, sign, Saturation.TANH, 0.3)
    x = np.random.Generator(np.random.Philox(36)).uniform(-1.0, 1.0, g.n)
    jac = jacobian(x, m, g)
    dense = np.abs(_symmetrized_dense(jac)).sum(axis=1).max()
    assert jac._k_norm() == pytest.approx(dense, rel=1e-13, abs=0)


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
    with pytest.raises(ValueError, match="not positive"):
        bifurcation_threshold(np.diag([5.0, 2.0]), m)


# ---------------------------------------------------------------------------
# seeded start: Newton from the bifurcated branch c*w, the ODE path as fallback

@pytest.fixture(scope="module")
def dense_newton_graph():
    """A connected SSBM at or below the dense-solve cutoff."""
    return _connected_ssbm(200, 0.12, 0.04)


def _ode_path(x0, m, g):
    """integrate_to_equilibrium's RK45 path alone, without the seeded start."""
    return dynamics._stacked_equilibria(np.array(x0, dtype=float).reshape(-1, 1), m, g, None)[0]


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
    assert seeded.residual_inf <= dynamics.STEADY_TOL
    assert np.abs(seeded.state - ode.state).max() <= 1e-8
    assert np.array_equal(detect_single(seeded).labels, detect_single(ode).labels)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("graph_fixture", ["dense_newton_graph", "krylov_graph"])
def test_branch_seed_amplitude_is_the_bracketed_root(graph_fixture, sign, kind, request):
    p, g = request.getfixturevalue(graph_fixture)
    m = _model_above_threshold(p, g, sign, kind, 0.02)
    c, _ = dynamics._branch_seed(m, g)
    reference = branch_amplitude(m, g)
    assert abs(c - reference) <= 1e-12 * reference
    # the terms -d*c and u*w.S are each about d*c at the root
    assert abs(projected_fixed_point(m, g, c)) <= 8.0 * np.finfo(float).eps * m.d * c


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("sign", [1, -1])
def test_branch_seed_across_the_sampled_threshold(dense_newton_graph, sign, kind):
    """At the sampled graph's threshold u* = d/(alpha + gamma*lambda) and
    just below it there is no seed; above it the amplitude c grows with u."""
    p, g = dense_newton_graph
    gamma = sign / max_expected_degree(p)
    mu = 1.0 + gamma * g.extreme_eigenpair("LA" if sign > 0 else "SA")[0]

    def seed(factor):
        return dynamics._branch_seed(ModelParams(1.0, factor / mu, 1.0, gamma, kind), g)

    assert all(seed(factor) is None for factor in (1.0 - 1e-2, 1.0 - 1e-8, 1.0))
    amplitudes = [seed(1.0 + offset)[0] for offset in (1e-6, 1e-4, 1e-2, 1e-1)]
    assert all(0.0 < low < high for low, high in zip(amplitudes, amplitudes[1:]))


def test_branch_seed_root_below_its_floor_gives_no_seed(dense_newton_graph):
    """Just above threshold the root is about 1e-3 times the floor
    _SEED_LOW * u*sqrt(n)/d: the origin is unstable at the loose pair the
    seed reads, yet no seed."""
    p, g = dense_newton_graph
    m = _model_above_threshold(p, g, 1, Saturation.ALG_ABS, 0.0)
    mu = m.alpha + m.gamma * g.extreme_eigenpair("LA", spectral.LOOSE_EIG_TOL)[0]
    m = ModelParams(m.d, m.d / mu * (1.0 + 1e-12), m.alpha, m.gamma, m.saturation)
    assert -m.d + m.u * mu > 0.0
    assert dynamics._branch_seed(m, g) is None


def test_branch_seed_at_an_exact_root_takes_no_newton_step(monkeypatch):
    """On K4 with its exact top pair (3, 1/2) at every tol, tanh rounds to 1
    at the start c = u*sqrt(n)/d = 20, where g is then exactly 0: c is
    returned as is."""
    g = graph_of(np.ones((4, 4)) - np.eye(4), np.array([1, 1, 2, 2]))
    monkeypatch.setattr(g, "extreme_eigenpair", lambda which, tol: (3.0, np.full(4, 0.5)))
    m = ModelParams(1.0, 10.0, 0.0, 1.0)
    assert projected_fixed_point(m, g, 20.0) == 0.0

    def no_slope(kind, z):
        raise AssertionError("Newton step taken at an exact root")

    monkeypatch.setattr(dynamics, "saturation_deriv", no_slope)
    c, w = dynamics._branch_seed(m, g)
    assert c == 20.0 and np.array_equal(w, np.full(4, 0.5))


def test_ode_solve_builds_the_rk45_set_on_the_module(small_graph, monkeypatch):
    """_stacked_equilibria reads dynamics.RK45 per call, so a subclass set on
    the module in its place is the solver an ODE solve builds."""
    built = []

    class Recording(dynamics.RK45):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(dynamics, "RK45", Recording)
    p, g = small_graph
    m = _model_above_threshold(p, g, 1, Saturation.TANH, 0.05)
    assert _ode_path(_small_start(g, 45), m, g).converged
    assert len(built) == 1 and type(built[0]) is Recording


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

    def fail_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            return Equilibrium(args[0], np.inf, False, 0.0)
        return refine(*args, **kwargs)

    monkeypatch.setattr(dynamics, "newton_refine", fail_first)
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


@pytest.mark.parametrize("field", ["d", "u", "alpha", "gamma"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_model_params_reject_non_finite(field, bad):
    values = dict(d=1.0, u=0.5, alpha=1.0, gamma=0.1)
    values[field] = bad
    with pytest.raises(ValueError, match="finite"):
        ModelParams(**values)


def test_non_convergence_reported_not_raised(small_graph, monkeypatch):
    _, g = small_graph
    m = ModelParams(1.0, 0.9, 1.0, 1.0)
    monkeypatch.setattr(dynamics, "T_MAX", 1e-2)
    monkeypatch.setattr(dynamics, "STEADY_TOL", 1e-14)
    eq = integrate_to_equilibrium(np.full(g.n, 0.5), m, g)
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
