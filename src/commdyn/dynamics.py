"""Saturating opinion model: vector field, equilibria, bifurcation thresholds.

The model is dx/dt = -d*x + u*S(alpha*x + gamma*A*x) + b with an odd
saturating S (unit slope at 0, range (-1, 1)).
"""

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import RK45
from scipy.optimize import brentq  # already imported by scipy.integrate
from scipy.sparse.linalg import LinearOperator, aslinearoperator, minres
from scipy.special import erf, erfinv

from .errors import DomainError, InvalidRegime, SingularJacobian
from .graphgen import Graph
from .spectral import extreme_eigpairs

# States below this sup-norm are treated as the neutral (origin) equilibrium.
NEUTRAL_TOL = 1e-6

_ERF_SCALE = np.sqrt(np.pi) / 2.0

# Newton steps on at most this many agents are a dense LAPACK solve; larger
# ones run MINRES on the symmetrized Jacobian. Set at the measured crossover.
DENSE_NEWTON_MAX_N = 300

# MINRES stops once K's residual is below _MINRES_RTOL * ||K|| * ||y||. A step
# whose residual in J s = r exceeds _REFINE_TOL * ||K|| * ||s|| gets one round
# of iterative refinement (see Jacobian.solve).
_MINRES_RTOL = 1e-12
_REFINE_TOL = 1e-10

# The branch seed's root search brackets c in [_SEED_BRACKET_LOW, 1] times
# its upper bound u*sqrt(n)/d (see _branch_seed).
_SEED_BRACKET_LOW = 1e-9

# Every equilibrium solve runs RK45 over at most [0, T_MAX] model time from a
# first step of FIRST_STEP. The integrator cannot push the residual much below
# rtol * ||x||, so once it drops under POLISH_TRIGGER a guarded Newton polish
# takes over: to a sup-norm residual of NEWTON_TOL in at most NEWTON_MAX_ITER
# iterations.
T_MAX = 1e5
FIRST_STEP = 1e-3
POLISH_TRIGGER = 1e-5
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 25


class Saturation(str, Enum):
    """The four saturation families: tanh, x/(1+|x|), x/sqrt(1+x^2), and
    erf(sqrt(pi)*x/2). All are odd with S'(0) = 1 and |S| < 1."""

    TANH = "tanh"
    ALG_ABS = "alg-abs"
    ALG_SQRT = "alg-sqrt"
    ERF = "erf"


def _tanh_deriv(z):
    t = np.tanh(z)
    return 1.0 - t * t


# (S, S', S^-1) of each family; S^-1 is only called on the open range (-1, 1).
_FAMILIES = {
    Saturation.TANH: (np.tanh, _tanh_deriv, np.arctanh),
    Saturation.ALG_ABS: (lambda z: z / (1.0 + np.abs(z)),
                         lambda z: 1.0 / (1.0 + np.abs(z)) ** 2,
                         lambda y: y / (1.0 - np.abs(y))),
    Saturation.ALG_SQRT: (lambda z: z / np.hypot(1.0, z),
                          lambda z: (1.0 + z * z) ** -1.5,
                          lambda y: y / np.sqrt((1.0 - y) * (1.0 + y))),
    Saturation.ERF: (lambda z: erf(_ERF_SCALE * z),
                     lambda z: np.exp(-np.pi * z * z / 4.0),
                     lambda y: erfinv(y) / _ERF_SCALE),
}


def _apply(kind: Saturation, which: int, z):
    """kind's S, S' or S^-1 (which = 0, 1, 2) at z; a float for a scalar z."""
    out = _FAMILIES[Saturation(kind)][which](np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def saturation_eval(kind: Saturation, z):
    return _apply(kind, 0, z)


def saturation_deriv(kind: Saturation, z):
    return _apply(kind, 1, z)


def saturation_inverse(kind: Saturation, y):
    """Inverse saturation. Raises DomainError for |y| >= 1."""
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) >= 1.0):
        bad = float(y.ravel()[np.argmax(np.abs(y))])
        raise DomainError(f"value {bad} outside the open range (-1, 1)")
    return _apply(kind, 2, y)


@dataclass(frozen=True)
class ModelParams:
    """Homogeneous model parameters (d, u, alpha, gamma) and the saturation."""

    d: float
    u: float
    alpha: float
    gamma: float
    saturation: Saturation = Saturation.TANH

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError("damping d must be positive")
        if self.u < 0:
            raise ValueError("attention u must be nonnegative")
        if self.alpha < 0:
            raise ValueError("self weight alpha must be nonnegative")
        if self.gamma == 0:
            raise ValueError("influence weight gamma must be nonzero")


@dataclass
class Equilibrium:
    """Steady state with its fixed-point residual and convergence metadata."""

    state: np.ndarray
    residual_inf: float
    converged: bool
    elapsed_model_time: float


@dataclass(frozen=True)
class IntegrationControls:
    """Tolerances of the adaptive integrator (rtol, atol) and the residual
    at which a state counts as an equilibrium (steady_tol).

    The horizon, the first step and the Newton polish settings are module
    constants: T_MAX, FIRST_STEP, POLISH_TRIGGER, NEWTON_TOL, NEWTON_MAX_ITER.
    """

    rtol: float = 1e-9
    atol: float = 1e-9
    steady_tol: float = 1e-10

    def __post_init__(self):
        if min(self.rtol, self.atol, self.steady_tol) <= 0:
            raise ValueError("integration controls must be positive")


def rhs(x, params: ModelParams, graph: Graph, b=None):
    """Vector field -d*x + u*S(alpha*x + gamma*A*x) + b (elementwise S)."""
    x = np.asarray(x, dtype=float)
    z = params.alpha * x + params.gamma * (graph.adjacency @ x)
    out = -params.d * x + params.u * saturation_eval(params.saturation, z)
    if b is not None:
        out = out + b
    return out


class Jacobian:
    """The Jacobian J = -d*I + diag(slope) @ (alpha*I + gamma*A) at one state,
    kept factored: slope = u*S'(z) >= 0 and the CSR adjacency.

    With h = sqrt(slope), J = diag(h) @ K @ diag(h)^-1 on the rows where
    h > 0, and K = diag(h) @ (alpha*I + gamma*A) @ diag(h) - d*I is
    symmetric. A row with h = 0 (S' rounded to 0 in a saturated tanh or erf)
    reads -d*s_i in both J and K. So J and K have the same eigenvalues, and K
    serves both the matrix-free Newton step and the stability certificate.
    """

    def __init__(self, slope, params: ModelParams, adjacency):
        self.slope = slope
        self.params = params
        self.adjacency = adjacency

    def toarray(self) -> np.ndarray:
        """Dense J, filled straight from the CSR arrays."""
        n, adjacency, p = self.slope.size, self.adjacency, self.params
        jac = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
        jac[rows, adjacency.indices] = p.gamma * adjacency.data
        jac[np.diag_indices(n)] = p.alpha
        jac *= self.slope[:, None]
        jac[np.diag_indices(n)] -= p.d
        return jac

    def matvec(self, s) -> np.ndarray:
        """J @ s without forming J."""
        p = self.params
        return self.slope * (p.alpha * s + p.gamma * (self.adjacency @ s)) - p.d * s

    def symmetrized(self) -> LinearOperator:
        """K as a matrix-free operator: two scalings and one CSR matvec."""
        h, p = np.sqrt(self.slope), self.params

        def matvec(y):
            y = y.ravel()
            v = h * y
            return h * (p.alpha * v + p.gamma * (self.adjacency @ v)) - p.d * y

        return LinearOperator((h.size, h.size), matvec=matvec, dtype=float)

    def solve(self, r) -> np.ndarray:
        """The Newton step s with J s = r.

        At most DENSE_NEWTON_MAX_N agents this is a dense LAPACK solve; above
        it, MINRES on K. Rows whose slope is below machine epsilon times the
        largest are decoupled to rounding and solved as -d*s_i = r_i, which
        keeps the 1/h scaling of the MINRES right-hand side within 1e8.

        MINRES bounds K's residual relative to ||y||, and y = s/h. Far from
        an equilibrium h spans orders of magnitude, the rows of small h
        dominate ||y||, and the bound says little about the rows of large h.
        The step's residual in J s = r shows this, and one round of
        iterative refinement on it then recovers the step. A solve stopped
        short of its tolerance still returns its iterate: the caller's line
        search judges the step.
        """
        if self.slope.size <= DENSE_NEWTON_MAX_N:
            return np.linalg.solve(self.toarray(), r)
        coupled = self.slope > np.finfo(float).eps * self.slope.max()
        split = Jacobian(np.where(coupled, self.slope, 0.0), self.params, self.adjacency)
        step = split._minres_step(r)
        residual = r - self.matvec(step)
        if np.linalg.norm(residual) > _REFINE_TOL * split._k_norm() * np.linalg.norm(step):
            step += split._minres_step(residual)
        return step

    def _k_norm(self) -> float:
        """The infinity norm of K, a bound on its 2-norm."""
        h, p = np.sqrt(self.slope), self.params
        off_diagonal = abs(p.gamma) * h * (abs(self.adjacency) @ h)
        return float(np.max(np.abs(self.slope * p.alpha - p.d) + off_diagonal))

    def _minres_step(self, r) -> np.ndarray:
        """J s = r by MINRES on K: rows with h = 0 give s_i = -r_i/d, the
        others s = h*y with K y = r/h - h*gamma*(A @ s_sat), where s_sat holds
        the h = 0 rows' steps. The h = 0 rows form a -d block of K with a
        zero right-hand side, which MINRES never leaves."""
        h, p = np.sqrt(self.slope), self.params
        free = h > 0
        saturated = np.where(free, 0.0, -r / p.d)
        if not free.any():
            return saturated
        rhs_free = np.divide(r, h, out=np.zeros_like(r), where=free)
        if not free.all():
            rhs_free -= h * (p.gamma * (self.adjacency @ saturated))
        y, _ = minres(self.symmetrized(), rhs_free, rtol=_MINRES_RTOL)
        return saturated + h * y


def jacobian(x, params: ModelParams, graph: Graph) -> Jacobian:
    """The analytic Jacobian of `rhs` at x, in factored form (see Jacobian).

    `newton_refine` calls it once per Newton iteration, and nothing else in
    the package calls it, so its call count is the Newton iteration count.
    """
    return _linearize(x, params, graph)


def _linearize(x, params: ModelParams, graph: Graph) -> Jacobian:
    x = np.asarray(x, dtype=float)
    z = params.alpha * x + params.gamma * (graph.adjacency @ x)
    return Jacobian(params.u * saturation_deriv(params.saturation, z), params,
                    graph.adjacency)


def newton_refine(x, params: ModelParams, graph: Graph, b=None,
                  max_iter: int = NEWTON_MAX_ITER) -> Equilibrium:
    """Damped Newton polish of a near-equilibrium point, to a sup-norm
    residual of NEWTON_TOL.

    Raises SingularJacobian when the linear solve fails or gives a
    non-finite step, which near a bifurcation is expected; callers fall back
    to the unpolished point.
    """
    x = np.array(x, dtype=float)
    residual = rhs(x, params, graph, b)
    res_norm = float(np.abs(residual).max())
    for _ in range(max_iter):
        if res_norm <= NEWTON_TOL:
            return Equilibrium(x, res_norm, True, 0.0)
        try:
            step = jacobian(x, params, graph).solve(residual)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        damping = 1.0
        while damping >= 2.0 ** -10:
            candidate = x - damping * step
            cand_res = rhs(candidate, params, graph, b)
            cand_norm = float(np.abs(cand_res).max())
            if cand_norm < res_norm:
                x, residual, res_norm = candidate, cand_res, cand_norm
                break
            damping /= 2.0
        else:
            break  # no descent direction left; return best iterate
    return Equilibrium(x, res_norm, res_norm <= NEWTON_TOL, 0.0)


def _is_stable(x, params: ModelParams, graph: Graph) -> bool:
    """Stability certificate: the largest eigenvalue of the symmetrized
    Jacobian at x (the same spectrum as J's) is negative."""
    operator = _linearize(x, params, graph).symmetrized()
    return bool(extreme_eigpairs(operator, 1, "LA").values[0] < 0.0)


def _guarded_polish(x, params, graph, b, controls):
    """Newton-polish x and accept only a root the trajectory point belongs to:
    either the step stayed small relative to x, or both points are
    numerically neutral and the stability certificate holds at the root (a
    trajectory passing near an unstable origin does not belong to it).
    Returns (state, residual) or None."""
    try:
        refined = newton_refine(x, params, graph, b)
    except SingularJacobian:
        return None
    if refined.residual_inf > controls.steady_tol:
        return None
    x_norm = float(np.abs(x).max())
    moved = float(np.abs(refined.state - x).max())
    if moved <= 0.1 * x_norm:
        return refined.state, refined.residual_inf
    both_neutral = (float(np.abs(refined.state).max()) <= NEUTRAL_TOL
                    and x_norm <= 10.0 * NEUTRAL_TOL)
    if both_neutral and _is_stable(refined.state, params, graph):
        return refined.state, refined.residual_inf
    return None


def _stacked_equilibria(x0, params: ModelParams, graph: Graph, b,
                        controls: IntegrationControls) -> list:
    """One Equilibrium per column of the (n, m) start block x0, column k
    driven by b[:, k] (no input when b is None), integrated as one matrix ODE
    so the network matvec runs once per stage for all columns. The early
    polish is all-or-nothing over the columns above steady_tol; a column
    still above it at the end gets one last guarded polish."""
    n, m = x0.shape
    tol = controls.steady_tol

    def polish(states, k):
        return _guarded_polish(states[:, k], params, graph,
                               None if b is None else b[:, k], controls)

    solver = RK45(lambda _t, y: rhs(y.reshape(n, m), params, graph, b).ravel(), 0.0,
                  x0.ravel(), t_bound=T_MAX, rtol=controls.rtol,
                  atol=controls.atol, first_step=FIRST_STEP)
    # RK45 keeps the field at solver.y in solver.f: the residuals cost no rhs call
    states, res = x0, np.abs(solver.f.reshape(n, m)).max(axis=0)
    next_trigger, attempts = POLISH_TRIGGER, 0
    while res.max() > tol and solver.status == "running":
        solver.step()
        states = solver.y.reshape(n, m)
        res = np.abs(solver.f.reshape(n, m)).max(axis=0)
        if tol < res.max() <= next_trigger and attempts < 12:
            attempts += 1
            polished = []
            for k in range(m):
                polished.append(polish(states, k) if res[k] > tol else (states[:, k], res[k]))
                if polished[-1] is None:
                    break
            else:
                return [Equilibrium(x, float(rk), True, float(solver.t)) for x, rk in polished]
            next_trigger = res.max() / 4.0
    out = []
    for k in range(m):
        x, rk = states[:, k], float(res[k])
        if rk > tol:
            x, rk = polish(states, k) or (x, rk)  # accepted only at <= steady_tol
        out.append(Equilibrium(x, rk, rk <= tol, float(solver.t)))
    return out


def _branch_seed(params: ModelParams, graph: Graph):
    """(c, w): the bifurcated branch's projected amplitude c > 0 and the
    extreme eigenvector w of A on the gamma side, or None when the origin is
    stable (-d + u*mu <= 0, mu = alpha + gamma*lambda).

    c is the positive root of g(c) = -d*c + u*w.S(c*mu*w), the fixed point
    projected on w. g'(0) = -d + u*mu > 0, and |w.S| <= ||w||_1 <= sqrt(n)
    puts the root at or below u*sqrt(n)/d.
    """
    which = "LA" if params.gamma > 0 else "SA"
    pairs = extreme_eigpairs(aslinearoperator(graph.adjacency), 1, which)
    w = pairs.vectors[:, 0]
    mu = params.alpha + params.gamma * pairs.values[0]
    if -params.d + params.u * mu <= 0.0:
        return None

    def projected(c):
        return -params.d * c + params.u * float(w @ saturation_eval(params.saturation,
                                                                    c * mu * w))

    high = params.u * np.sqrt(w.size) / params.d
    low = _SEED_BRACKET_LOW * high
    if projected(low) <= 0.0:  # so close to threshold that the root is below low
        return None
    return brentq(projected, low, high), w


def _seeded_equilibrium(x0, params: ModelParams, graph: Graph,
                        controls: IntegrationControls):
    """Newton from the branch seed +-c*w, the sign taken from x0.w, or None
    when the root is not the equilibrium the trajectory from x0 would reach:
    unconverged, neutral, on the other side of the origin, not certified by
    _is_stable, or so small that x0 is not a small perturbation of the
    origin next to it (max|x0| > 0.1*max|x*|, the polish guard's factor)."""
    seed = _branch_seed(params, graph)
    if seed is None:
        return None
    c, w = seed
    sign = 1.0 if x0 @ w >= 0.0 else -1.0
    try:
        root = newton_refine(sign * c * w, params, graph)
    except SingularJacobian:
        return None
    root_norm = float(np.abs(root.state).max())
    if (root.residual_inf <= controls.steady_tol and root_norm > NEUTRAL_TOL
            and sign * float(root.state @ w) > 0.0
            and float(np.abs(x0).max()) <= 0.1 * root_norm
            and _is_stable(root.state, params, graph)):
        return Equilibrium(root.state, root.residual_inf, True, 0.0)
    return None


def integrate_to_equilibrium(x0, params: ModelParams, graph: Graph, b=None,
                             controls: IntegrationControls = IntegrationControls()) -> Equilibrium:
    """Adaptive Runge-Kutta 4(5) to steady state, then a Newton polish.

    Stepping stops once the residual reaches steady_tol, once a guarded
    Newton polish from the current point succeeds (the integrator alone
    cannot push the residual below its rtol * ||x|| error floor), or at
    T_MAX. `converged` reflects the final residual against steady_tol, so a
    T_MAX exit with a large residual is reported rather than raised.

    Without an input, a start that is not yet an equilibrium first tries the
    seeded start: Newton from the bifurcated branch c*w (see
    _seeded_equilibrium), which skips the slow transit out of the origin
    near threshold. An accepted seeded root reports elapsed_model_time 0.0;
    any rejection runs the ODE path from x0.
    """
    x0 = np.array(x0, dtype=float).reshape(-1, 1)
    b = None if b is None else np.asarray(b, dtype=float).reshape(-1, 1)
    if b is None and float(np.abs(rhs(x0[:, 0], params, graph)).max()) > controls.steady_tol:
        seeded = _seeded_equilibrium(x0[:, 0], params, graph, controls)
        if seeded is not None:
            return seeded
    return _stacked_equilibria(x0, params, graph, b, controls)[0]


def equilibria_for_inputs(graph: Graph, params: ModelParams, inputs,
                          controls: IntegrationControls = IntegrationControls()) -> list:
    """One equilibrium per input column, each integrated from the origin.

    The independent trajectories are stacked into a single matrix ODE so the
    network matvec runs once per stage for all columns; columns are
    Newton-polished separately, with the same guarded early polish as
    integrate_to_equilibrium.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != graph.n:
        raise ValueError("inputs must be an (n, m) matrix")
    return _stacked_equilibria(np.zeros(inputs.shape), params, graph, inputs, controls)


def bifurcation_threshold(matrix, params: ModelParams) -> float:
    """Attention value where the origin loses stability.

    d / (alpha + gamma*lambda_max) for gamma > 0, d / (alpha + gamma*lambda_min)
    for gamma < 0; works for both a sampled adjacency and an expected matrix.
    """
    extreme = extreme_eigpairs(matrix, 1, "LA" if params.gamma > 0 else "SA").values[0]
    denom = params.alpha + params.gamma * extreme
    if denom <= 0:
        raise InvalidRegime(f"alpha + gamma*lambda = {denom} is not positive")
    return params.d / denom


def write_equilibria_csv(path, equilibria) -> None:
    """Rows: trial id, convergence flag, residual, then the n state entries."""
    equilibria = list(equilibria)
    if not equilibria:
        raise ValueError("nothing to write")
    n = equilibria[0].state.size
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "converged", "residual"] + [f"x{i}" for i in range(n)])
        for t, eq in enumerate(equilibria):
            writer.writerow([t, "true" if eq.converged else "false", repr(eq.residual_inf)]
                            + [repr(float(v)) for v in eq.state])


def read_equilibria_csv(path) -> list:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])  # an empty file has no header either
        if header[:3] != ["trial", "converged", "residual"]:
            raise ValueError("not an equilibrium CSV")
        for row in reader:
            state = np.array([float(v) for v in row[3:]])
            out.append(Equilibrium(state, float(row[2]), row[1] == "true", 0.0))
    return out
