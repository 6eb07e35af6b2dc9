"""Saturating opinion model: vector field, equilibria, bifurcation thresholds.

The model is dx/dt = -d*x + u*S(alpha*x + gamma*A*x) + b with an odd
saturating S (unit slope at 0, range (-1, 1)).
"""

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import RK45
from scipy.special import erf, erfinv

from .errors import DomainError, InvalidRegime, SingularJacobian
from .graphgen import Graph
from .spectral import extreme_eigpairs

# States below this sup-norm are treated as the neutral (origin) equilibrium.
NEUTRAL_TOL = 1e-6

_ERF_SCALE = np.sqrt(np.pi) / 2.0


class Saturation(str, Enum):
    """The four saturation families: tanh, x/(1+|x|), x/sqrt(1+x^2), and
    erf(sqrt(pi)*x/2). All are odd with S'(0) = 1 and |S| < 1."""

    TANH = "tanh"
    ALG_ABS = "alg-abs"
    ALG_SQRT = "alg-sqrt"
    ERF = "erf"


def saturation_eval(kind: Saturation, z):
    z = np.asarray(z, dtype=float)
    if kind == Saturation.TANH:
        out = np.tanh(z)
    elif kind == Saturation.ALG_ABS:
        out = z / (1.0 + np.abs(z))
    elif kind == Saturation.ALG_SQRT:
        out = z / np.hypot(1.0, z)
    elif kind == Saturation.ERF:
        out = erf(_ERF_SCALE * z)
    else:
        raise ValueError(f"unknown saturation {kind}")
    return out if out.ndim else float(out)


def saturation_deriv(kind: Saturation, z):
    z = np.asarray(z, dtype=float)
    if kind == Saturation.TANH:
        t = np.tanh(z)
        out = 1.0 - t * t
    elif kind == Saturation.ALG_ABS:
        out = 1.0 / (1.0 + np.abs(z)) ** 2
    elif kind == Saturation.ALG_SQRT:
        out = (1.0 + z * z) ** -1.5
    elif kind == Saturation.ERF:
        out = np.exp(-np.pi * z * z / 4.0)
    else:
        raise ValueError(f"unknown saturation {kind}")
    return out if out.ndim else float(out)


def saturation_inverse(kind: Saturation, y, clamp: bool = False):
    """Inverse saturation. Raises DomainError for |y| >= 1 unless `clamp`
    pulls such values back to sign(y)*(1 - 1e-12) (noisy-data escape hatch;
    exact equilibria never need it)."""
    y = np.asarray(y, dtype=float)
    if clamp:
        y = np.clip(y, -1.0 + 1e-12, 1.0 - 1e-12)
    elif np.any(np.abs(y) >= 1.0):
        bad = float(np.asarray(y).ravel()[np.argmax(np.abs(y))])
        raise DomainError(f"value {bad} outside the open range (-1, 1)")
    if kind == Saturation.TANH:
        out = np.arctanh(y)
    elif kind == Saturation.ALG_ABS:
        out = y / (1.0 - np.abs(y))
    elif kind == Saturation.ALG_SQRT:
        out = y / np.sqrt((1.0 - y) * (1.0 + y))
    elif kind == Saturation.ERF:
        out = erfinv(y) / _ERF_SCALE
    else:
        raise ValueError(f"unknown saturation {kind}")
    return out if out.ndim else float(out)


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
    """Tolerances for the adaptive integrator and the Newton polish.

    The integrator cannot push the residual much below rtol * ||x||, so once
    it drops under `polish_trigger` the Newton polish takes over; a basin
    guard rejects polishes that jump away from the trajectory point (e.g. to
    the unstable origin during a slow near-threshold transit).
    """

    rtol: float = 1e-9
    atol: float = 1e-9
    steady_tol: float = 1e-10
    t_max: float = 1e5
    first_step: float = 1e-3
    newton_tol: float = 1e-12
    newton_max_iter: int = 25
    polish: bool = True
    polish_trigger: float = 1e-5

    def __post_init__(self):
        if min(self.rtol, self.atol, self.steady_tol, self.t_max, self.first_step,
               self.polish_trigger) <= 0:
            raise ValueError("integration controls must be positive")
        if not np.isfinite(self.t_max):
            raise ValueError("t_max must be finite")


def rhs(x, params: ModelParams, graph: Graph, b=None):
    """Vector field -d*x + u*S(alpha*x + gamma*A*x) + b (elementwise S)."""
    x = np.asarray(x, dtype=float)
    z = params.alpha * x + params.gamma * (graph.adjacency @ x)
    out = -params.d * x + params.u * saturation_eval(params.saturation, z)
    if b is not None:
        out = out + b
    return out


def jacobian(x, params: ModelParams, graph: Graph) -> np.ndarray:
    """Analytic Jacobian -d*I + u*diag(S'(z)) @ (alpha*I + gamma*A), dense.

    The Newton solve stays on dense LAPACK: sparse LU fill-in on these
    random graphs made `splu` slower than a dense solve at every measured n.
    The dense matrix is filled straight from the CSR arrays.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    adjacency = graph.adjacency
    z = params.alpha * x + params.gamma * (adjacency @ x)
    sp = params.u * saturation_deriv(params.saturation, z)
    jac = np.zeros((n, n))
    rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    jac[rows, adjacency.indices] = params.gamma * adjacency.data
    jac[np.diag_indices(n)] = params.alpha
    jac *= sp[:, None]
    jac[np.diag_indices(n)] -= params.d
    return jac


def newton_refine(x, params: ModelParams, graph: Graph, b=None,
                  tol: float = 1e-12, max_iter: int = 25) -> Equilibrium:
    """Damped Newton polish of a near-equilibrium point.

    Raises SingularJacobian when the linear solve fails, which near a
    bifurcation is expected; callers fall back to the unpolished point.
    """
    x = np.array(x, dtype=float)
    residual = rhs(x, params, graph, b)
    res_norm = float(np.abs(residual).max())
    for _ in range(max_iter):
        if res_norm <= tol:
            return Equilibrium(x, res_norm, True, 0.0)
        jac = jacobian(x, params, graph)
        try:
            step = np.linalg.solve(jac, residual)
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
    return Equilibrium(x, res_norm, res_norm <= tol, 0.0)


def _guarded_polish(x, params, graph, b, controls):
    """Newton-polish x and accept only a root the trajectory point belongs to:
    either the step stayed small relative to x, or both points are
    numerically neutral. Returns (state, residual) or None."""
    try:
        refined = newton_refine(x, params, graph, b, tol=controls.newton_tol,
                                max_iter=controls.newton_max_iter)
    except SingularJacobian:
        return None
    if refined.residual_inf > controls.steady_tol:
        return None
    x_norm = float(np.abs(x).max())
    moved = float(np.abs(refined.state - x).max())
    near = moved <= 0.1 * x_norm
    both_neutral = (float(np.abs(refined.state).max()) <= NEUTRAL_TOL
                    and x_norm <= 10.0 * NEUTRAL_TOL)
    if near or both_neutral:
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
                  x0.ravel(), t_bound=controls.t_max, rtol=controls.rtol,
                  atol=controls.atol, first_step=controls.first_step)
    # RK45 keeps the field at solver.y in solver.f: the residuals cost no rhs call
    states, res = x0, np.abs(solver.f.reshape(n, m)).max(axis=0)
    next_trigger, attempts = controls.polish_trigger, 0
    while res.max() > tol and solver.status == "running":
        solver.step()
        states = solver.y.reshape(n, m)
        res = np.abs(solver.f.reshape(n, m)).max(axis=0)
        if controls.polish and tol < res.max() <= next_trigger and attempts < 12:
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
        if controls.polish and rk > tol:
            x, rk = polish(states, k) or (x, rk)  # accepted only at <= steady_tol
        out.append(Equilibrium(x, rk, rk <= tol, float(solver.t)))
    return out


def integrate_to_equilibrium(x0, params: ModelParams, graph: Graph, b=None,
                             controls: IntegrationControls = IntegrationControls()) -> Equilibrium:
    """Adaptive Runge-Kutta 4(5) to steady state, then a Newton polish.

    Stepping stops once the residual reaches steady_tol, once a guarded
    Newton polish from the current point succeeds (the integrator alone
    cannot push the residual below its rtol * ||x|| error floor), or at
    t_max. `converged` reflects the final residual against steady_tol, so a
    t_max exit with a large residual is reported rather than raised.
    """
    x0 = np.array(x0, dtype=float).reshape(-1, 1)
    b = None if b is None else np.asarray(b, dtype=float).reshape(-1, 1)
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
        header = next(reader)
        if header[:3] != ["trial", "converged", "residual"]:
            raise ValueError("not an equilibrium CSV")
        for row in reader:
            state = np.array([float(v) for v in row[3:]])
            out.append(Equilibrium(state, float(row[2]), row[1] == "true", 0.0))
    return out
