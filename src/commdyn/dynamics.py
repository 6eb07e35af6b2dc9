"""Saturating opinion model: vector field, Jacobian, equilibria.

The model is dx/dt = -d*x + u*S(alpha*x + gamma*A*x) + b with an odd
saturating S (unit slope at 0, range (-1, 1)).

The Newton steps (MINRES) and the eigensolves of the seeded start and the
stability certificate (Lanczos) run on spectral's numpy kernels, not on
scipy.sparse.linalg. The ODE solver class RK45 is loaded from scipy.integrate
on first use (see __getattr__), so a run whose equilibria all come from the
seeded start never imports scipy.integrate, the scipy.optimize it pulls in,
or the scipy.linalg and scipy.sparse.linalg those load.
"""

import sys
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError
from .graphgen import Graph
from .spectral import LOOSE_EIG_TOL, Operator, extreme_eigpairs, minres, seeded_start

# States below this sup-norm are treated as the neutral (origin) equilibrium.
NEUTRAL_TOL = 1e-6

_ERF_SCALE = np.sqrt(np.pi) / 2.0

# Newton steps on at most this many agents are a dense LAPACK solve; larger
# ones run MINRES on the symmetrized Jacobian. Set at the measured crossover.
DENSE_NEWTON_MAX_N = 300

# MINRES stops once K's residual is below rtol * ||K|| * ||y||; rtol is
# _MINRES_RTOL, or Newton's forcing term of at most _MAX_FORCING. A step whose
# residual in J s = r exceeds max(_REFINE_TOL, rtol) * ||K|| * ||s|| gets one
# round of iterative refinement. A loose step's relative residual above
# _MAX_FORCING is continued at a scaled rtol while it is at most
# _MAX_OVERSHOOT times _MAX_FORCING (see Jacobian.solve).
_MINRES_RTOL = 1e-12
_REFINE_TOL = 1e-10
_MAX_FORCING = 0.1
_MAX_OVERSHOOT = 3.0

# The branch seed's amplitude c lies in (0, 1] times u*sqrt(n)/d; a root below
# _SEED_LOW times that bound gives no seed. Newton on c stops once its step is
# at most _SEED_XTOL + _SEED_RTOL * c (see _branch_seed).
_SEED_LOW = 1e-9
_SEED_XTOL = 2e-12
_SEED_RTOL = 4.0 * np.finfo(float).eps

# Every equilibrium solve runs RK45 over at most [0, T_MAX] model time from a
# first step of FIRST_STEP, at relative tolerance RTOL and absolute tolerance
# ATOL. A state is an equilibrium once its sup-norm residual is at most
# STEADY_TOL. The integrator cannot push the residual much below
# RTOL * ||x||, so once it drops under POLISH_TRIGGER a guarded Newton polish
# takes over: to a sup-norm residual of NEWTON_TOL in at most NEWTON_MAX_ITER
# iterations. The solvers read these names from the module at call time.
T_MAX = 1e5
FIRST_STEP = 1e-3
RTOL = 1e-7
ATOL = 1e-9
STEADY_TOL = 1e-10
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


# Cephes's rational approximations (ndtr.c): erf(a) = a*T(a^2)/U(a^2) for
# 0 <= a <= 1 and erfc(a) = exp(-a^2)*P(a)/Q(a) for 1 <= a < 8, each kept as
# its (numerator, denominator) coefficient rows, highest degree first: T
# padded with a leading 0, U and Q with their implicit leading 1.
_ERF_TU = np.array([
    [0.0, 9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
     7.00332514112805075473E3, 5.55923013010394962768E4],
    [1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
     2.26290000613890934246E4, 4.92673942608635921086E4]])
_ERFC_PQ = np.array([
    [2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
     4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
     9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2],
    [1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
     9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
     1.65666309194161350182E3, 5.57535340817727675546E2]])

# erfinv's start: Winitzki's closed form ("A handy approximation for the error
# function and its inverse", 2008) with a = 0.147, relative error below 2e-3.
_WINITZKI_A = 0.147
_WINITZKI_H = 2.0 / (np.pi * _WINITZKI_A)


def _horner(x, coefs):
    """Both coefficient rows of `coefs` at the 1-d x, as a (2, x.size) array,
    by Cephes's Horner recurrence (polevl), so with its roundings."""
    acc = coefs[:, :1] * x
    for k in range(1, coefs.shape[1] - 1):
        acc += coefs[:, k:k + 1]
        acc *= x
    acc += coefs[:, -1:]
    return acc


def _erf_small(a):
    p, q = _horner(a * a, _ERF_TU)
    return a * p / q


def _erfc_large(a):
    p, q = _horner(a, _ERFC_PQ)
    return np.exp(-a * a) * p / q


def _erf_abs(a):
    """Cephes's erf at the 1-d a >= 0, each rational evaluated only on the
    entries of its branch. From a = 6 on, erfc(a) < 2^-54 and erf(a) rounds
    to 1; NaN stays NaN."""
    out = np.minimum(a, 1.0)
    small = a <= 1.0
    out[small] = _erf_small(a[small])
    mid = ~small & (a < 6.0)
    out[mid] = 1.0 - _erfc_large(a[mid])
    return out


def _erfc_abs(a):
    """Cephes's erfc at the 1-d a, 0 <= a < 8."""
    out = np.empty_like(a)
    small = a < 1.0
    out[small] = 1.0 - _erf_small(a[small])
    out[~small] = _erfc_large(a[~small])
    return out


def _erf(x):
    """Cephes's erf, elementwise."""
    flat = np.ravel(x)
    return np.copysign(_erf_abs(np.abs(flat)), flat).reshape(np.shape(x))


def _erfinv(y):
    """erfinv for |y| < 1: three Halley steps on erf(x) = |y| from Winitzki's
    start. Where |y| > 0.5 the residual is (1 - |y|) - erfc(x), whose first
    term is exact, so the tail keeps its relative accuracy and S^-1 inverts
    the same erf as S."""
    flat = np.ravel(y)
    b = np.abs(flat)
    log = np.log1p(-b * b)  # ln(1 - y^2)
    h = _WINITZKI_H + 0.5 * log
    c = -log / _WINITZKI_A
    x = np.sqrt(c / (np.sqrt(h * h + c) + h))  # sqrt(sqrt(h^2 + c) - h), without cancellation
    tail = b > 0.5
    head = ~tail
    for _ in range(3):
        residual = np.empty_like(b)
        residual[head] = _erf_abs(x[head]) - b[head]
        residual[tail] = (1.0 - b[tail]) - _erfc_abs(x[tail])
        t = residual * _ERF_SCALE * np.exp(x * x)  # residual / erf'(x)
        x -= t / (1.0 + x * t)
    return np.copysign(x, flat).reshape(np.shape(y))


# (S, S', S^-1) of each family; S^-1 is only called on the open range (-1, 1).
_FAMILIES = {
    Saturation.TANH: (np.tanh, _tanh_deriv, np.arctanh),
    Saturation.ALG_ABS: (lambda z: z / (1.0 + np.abs(z)),
                         lambda z: 1.0 / (1.0 + np.abs(z)) ** 2,
                         lambda y: y / (1.0 - np.abs(y))),
    Saturation.ALG_SQRT: (lambda z: z / np.hypot(1.0, z),
                          lambda z: (1.0 + z * z) ** -1.5,
                          lambda y: y / np.sqrt((1.0 - y) * (1.0 + y))),
    Saturation.ERF: (lambda z: _erf(_ERF_SCALE * z),
                     lambda z: np.exp(-np.pi * z * z / 4.0),
                     lambda y: _erfinv(y) / _ERF_SCALE),
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
    """Inverse saturation. Raises DomainError for |y| >= 1 and for NaN."""
    y = np.asarray(y, dtype=float)
    if not np.all(np.abs(y) < 1.0):
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
        if not np.isfinite([self.d, self.u, self.alpha, self.gamma]).all():
            raise ValueError("model parameters must be finite")
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
    """Steady state with its fixed-point residual and convergence metadata.
    `argument` is alpha*x + gamma*A*x at the state, where the solver that
    found it kept it (newton_refine), so a stability certificate needs no
    CSR product for it; None otherwise."""

    state: np.ndarray
    residual_inf: float
    converged: bool
    elapsed_model_time: float
    argument: np.ndarray = field(default=None, repr=False, compare=False)


def rhs(x, params: ModelParams, graph: Graph, b=None):
    """Vector field -d*x + u*S(alpha*x + gamma*A*x) + b (elementwise S)."""
    return _field(x, params, graph, b)[0]


def _field(x, params: ModelParams, graph: Graph, b=None):
    """(rhs at x, the argument z of S there), for the callers that also
    linearize at x: z is all the Jacobian needs of x."""
    x = np.asarray(x, dtype=float)
    z = _argument(x, params, graph)
    out = -params.d * x + params.u * saturation_eval(params.saturation, z)
    if b is not None:
        out = out + b
    return out, z


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
        """Dense J, from gamma*A densified: its zeros stay +0.0."""
        p = self.params
        jac = (p.gamma * self.adjacency).toarray()
        jac *= self.slope[:, None]
        np.fill_diagonal(jac, self.slope * p.alpha - p.d)
        return jac

    def matvec(self, s) -> np.ndarray:
        """J @ s without forming J."""
        p = self.params
        return self.slope * (p.alpha * s + p.gamma * (self.adjacency @ s)) - p.d * s

    def symmetrized(self) -> Operator:
        """K as a matrix-free operator: h*(alpha*v + gamma*(A @ v)) - d*y with
        v = h*y, computed in the array of the one CSR matvec."""
        h, p = np.sqrt(self.slope), self.params

        def matvec(y):
            v = h * y
            out = self.adjacency @ v
            out *= p.gamma
            out += p.alpha * v
            out *= h
            out -= p.d * y
            return out

        return Operator(h.size, matvec)

    def solve(self, r, rtol: float = _MINRES_RTOL, rescale: bool = True) -> np.ndarray:
        """The Newton step s with J s = r.

        At most DENSE_NEWTON_MAX_N agents this is a dense LAPACK solve; above
        it, MINRES on K to the relative tolerance rtol (at least
        _MINRES_RTOL). Rows whose slope is below machine epsilon times the
        largest are decoupled to rounding and solved as -d*s_i = r_i, which
        keeps the 1/h scaling of the MINRES right-hand side within 1e8.

        MINRES bounds K's residual relative to ||K|| ||y||, and y = s/h. Far
        from an equilibrium h spans orders of magnitude, the rows of small h
        dominate ||y||, and the bound says little about the rows of large h.
        The step's residual in J s = r shows this, and one round of
        iterative refinement on it then recovers the step. A solve stopped
        short of its tolerance still returns its iterate: the caller's line
        search judges the step.

        For the same reason a loose rtol does not bound ||r - J s|| / ||r||,
        the relative residual an inexact Newton step must keep below 1: with
        K nearly singular it can stay near 1, and Newton stalls. A loose
        step whose relative residual exceeds _MAX_FORCING continues MINRES
        from its own iterate once, at rtol divided by that overshoot. If the
        residual still exceeds _MAX_FORCING, the step is solved afresh at
        _MINRES_RTOL, as it is at once when rescale is False or the
        overshoot is above _MAX_OVERSHOOT: there K is so ill conditioned
        along the step that a relative residual of 0.1 leaves the step's
        error near 1.
        """
        if self.slope.size <= DENSE_NEWTON_MAX_N:
            return np.linalg.solve(self.toarray(), r)
        coupled = self.slope > np.finfo(float).eps * self.slope.max()
        split = Jacobian(np.where(coupled, self.slope, 0.0), self.params, self.adjacency)
        rtol = max(_MINRES_RTOL, rtol)
        step = split._minres_step(r, rtol)
        residual = r - self.matvec(step)
        res_norm, cap = np.linalg.norm(residual), _MAX_FORCING * np.linalg.norm(r)
        if rtol > _MINRES_RTOL and res_norm > cap:
            if rescale and res_norm <= _MAX_OVERSHOOT * cap:
                rtol = max(_MINRES_RTOL, rtol * cap / res_norm)
                step = split._minres_step(r, rtol, start=step)
                residual = r - self.matvec(step)
                res_norm = np.linalg.norm(residual)
            if res_norm > cap:
                return self.solve(r)  # not an inexact Newton step
        # max|K_ii| <= ||K||_inf, in floating point too: where the residual
        # is within the refinement bound at max|K_ii|, it is within it at
        # ||K||_inf, and _k_norm's CSR product is skipped
        scale, step_norm = max(_REFINE_TOL, rtol), np.linalg.norm(step)
        if (res_norm > scale * float(split._k_diagonal().max()) * step_norm
                and res_norm > scale * split._k_norm() * step_norm):
            step += split._minres_step(residual, rtol)
        return step

    def _k_diagonal(self) -> np.ndarray:
        """|K_ii| = |slope_i*alpha - d|."""
        return np.abs(self.slope * self.params.alpha - self.params.d)

    def _k_norm(self) -> float:
        """The infinity norm of K, a bound on its 2-norm."""
        h, p = np.sqrt(self.slope), self.params
        # the adjacency is binary, so |K|'s off-diagonal part is |gamma| h A h
        return float(np.max(self._k_diagonal() + abs(p.gamma) * h * (self.adjacency @ h)))

    def _minres_step(self, r, rtol, start=None) -> np.ndarray:
        """J s = r by MINRES on K: rows with h = 0 give s_i = -r_i/d, the
        others s = h*y with K y = r/h - h*gamma*(A @ s_sat), where s_sat holds
        the h = 0 rows' steps. The h = 0 rows form a -d block of K with a
        zero right-hand side, which MINRES never leaves. MINRES starts from
        y = start/h when a previous step `start` is given, else from 0."""
        h, p = np.sqrt(self.slope), self.params
        free = h > 0
        saturated = np.where(free, 0.0, -r / p.d)
        if not free.any():
            return saturated
        rhs_free = np.divide(r, h, out=np.zeros_like(r), where=free)
        if not free.all():
            rhs_free -= h * (p.gamma * (self.adjacency @ saturated))
        y0 = None if start is None else np.divide(start, h, out=np.zeros_like(r), where=free)
        y = minres(self.symmetrized(), rhs_free, x0=y0, rtol=rtol)
        return saturated + h * y


def jacobian(x, params: ModelParams, graph: Graph, z=None) -> Jacobian:
    """The analytic Jacobian of `rhs` at x, in factored form (see Jacobian).
    z, when given, is x's alpha*x + gamma*A*x (from _field), and x is not
    read.

    `newton_refine` calls it once per Newton iteration, and nothing else in
    the package calls it, so its call count is the Newton iteration count.
    """
    return _linearize(x, params, graph, z)


def _argument(x, params: ModelParams, graph: Graph):
    """z = alpha*x + gamma*A*x, the argument of S at the float array x."""
    return params.alpha * x + params.gamma * (graph.adjacency @ x)


def _linearize(x, params: ModelParams, graph: Graph, z=None) -> Jacobian:
    if z is None:
        z = _argument(np.asarray(x, dtype=float), params, graph)
    return Jacobian(params.u * saturation_deriv(params.saturation, z), params,
                    graph.adjacency)


def newton_refine(x, params: ModelParams, graph: Graph, b=None,
                  max_iter: int = NEWTON_MAX_ITER) -> Equilibrium:
    """Damped inexact Newton polish of a near-equilibrium point, to a
    sup-norm residual of NEWTON_TOL.

    A MINRES step (n > DENSE_NEWTON_MAX_N) at residual F runs to the forcing
    term max(_MINRES_RTOL, min(_MAX_FORCING, ||F||_inf)): a forcing term of
    order ||F|| keeps Newton's local quadratic convergence (Dembo, Eisenstat
    & Steihaug, "Inexact Newton Methods", 1982; Eisenstat & Walker,
    "Choosing the forcing terms in an inexact Newton method", 1996).
    Jacobian.solve continues MINRES from its iterate when that tolerance
    failed to bound the step's relative residual by _MAX_FORCING. That bound
    serves Newton's local phase, where steps are taken whole; where K is
    nearly singular it does not bound the step's error. So once the line
    search has damped a step, the next step's continuation skips the
    scaled rtol and goes straight to _MINRES_RTOL.

    A linear solve that fails or gives a non-finite step, as near a
    bifurcation, ends the polish like a line search that finds no descent:
    the best iterate comes back unconverged.

    Each Jacobian and the returned Equilibrium's `argument` take the
    argument z of S that the line search computed at the accepted point.
    """
    x = np.array(x, dtype=float)
    residual, z = _field(x, params, graph, b)
    res_norm = float(np.abs(residual).max())
    damped = False
    for _ in range(max_iter):
        if res_norm <= NEWTON_TOL:
            return Equilibrium(x, res_norm, True, 0.0, z)
        forcing = min(_MAX_FORCING, res_norm)
        try:
            step = jacobian(x, params, graph, z).solve(residual, forcing, rescale=not damped)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        damping = 1.0
        while damping >= 2.0 ** -10:
            candidate = x - damping * step
            cand_res, cand_z = _field(candidate, params, graph, b)
            cand_norm = float(np.abs(cand_res).max())
            if cand_norm < res_norm:
                x, residual, res_norm, z = candidate, cand_res, cand_norm, cand_z
                break
            damping /= 2.0
        else:
            break  # no descent direction left; return best iterate
        damped = damping < 1.0
    return Equilibrium(x, res_norm, res_norm <= NEWTON_TOL, 0.0, z)


def _is_stable(x, params: ModelParams, graph: Graph, z=None) -> bool:
    """Stability certificate: the largest eigenvalue of the symmetrized
    Jacobian K at x (the same spectrum as J's) is negative. z, when given,
    is x's alpha*x + gamma*A*x (an Equilibrium's `argument`).

    Only the sign of lambda_max(K) is used, so it is settled in stages; a
    stage that cannot settle it passes it on:
    (a) gamma > 0 and x of one strict sign: J is Metzler (its off-diagonal
        entries slope*gamma*A are >= 0), and if J|x| < 0 in every entry the
        Collatz-Wielandt bound lambda_max(J) <= max_i (J|x|)_i / |x_i| < 0
        proves stability with one matvec (Horn & Johnson, Matrix Analysis,
        ch. 8). This is a proof, up to the rounding of that matvec.
    (b) a loose Lanczos solve (tol LOOSE_EIG_TOL) gives a unit Ritz pair
        (theta, v) and r = Kv - theta*v; K is symmetric, so an eigenvalue
        lies within ||r|| of theta. Reject when theta - ||r|| > 0: that is a
        proof of instability. Accept when theta + ||r|| < 0.
    (c) otherwise, the sign of the Ritz value at machine precision.
    A Lanczos Ritz value approaches lambda_max from below, so neither (b)'s
    accepting branch nor (c) proves lambda_max < 0: both trust the Lanczos
    to have found the largest eigenvalue.

    (b) starts from D^-1 x / ||D^-1 x|| plus the seeded start, with
    D = diag(h), h = sqrt(slope) and (D^-1 x)_i = 0 where h_i = 0.
    J = D K D^-1, so D^-1 x is K's direction of the branch x lies on, the
    one a root's lambda_max belongs to near threshold. The seeded part
    keeps every eigenvector in reach: K is block diagonal on a graph of
    several components, and from D^-1 x alone an unstable origin on a
    component where x is 0 would never be seen.
    """
    jac = _linearize(x, params, graph, z)
    if params.gamma > 0 and (np.all(x > 0) or np.all(x < 0)):
        if np.all(jac.matvec(np.abs(x)) < 0.0):
            return True
    operator = jac.symmetrized()
    h = np.sqrt(jac.slope)
    branch = np.divide(x, h, out=np.zeros(h.size), where=h > 0.0)
    start = seeded_start(h.size)
    norm = np.linalg.norm(branch)
    if norm > 0.0:
        start += branch / norm
    theta, v = extreme_eigpairs(operator, "LA", tol=LOOSE_EIG_TOL, v0=start)
    bound = float(np.linalg.norm(operator.matvec(v) - theta * v))
    if theta + bound < 0.0:
        return True
    if theta - bound > 0.0:
        return False
    return bool(extreme_eigpairs(operator, "LA")[0] < 0.0)


def _guarded_polish(x, params, graph, b):
    """Newton-polish x and accept only a root the trajectory point belongs to:
    either the step stayed small relative to x, or both points are
    numerically neutral and the stability certificate holds at the root (a
    trajectory passing near an unstable origin does not belong to it).
    Returns (state, residual) or None."""
    refined = newton_refine(x, params, graph, b)
    if refined.residual_inf > STEADY_TOL:
        return None
    x_norm = float(np.abs(x).max())
    moved = float(np.abs(refined.state - x).max())
    if moved <= 0.1 * x_norm:
        return refined.state, refined.residual_inf
    both_neutral = (float(np.abs(refined.state).max()) <= NEUTRAL_TOL
                    and x_norm <= 10.0 * NEUTRAL_TOL)
    if both_neutral and _is_stable(refined.state, params, graph, refined.argument):
        return refined.state, refined.residual_inf
    return None


def _stacked_equilibria(x0, params: ModelParams, graph: Graph, b) -> list:
    """One Equilibrium per column of the (n, m) start block x0, column k
    driven by b[:, k] (no input when b is None), integrated as one matrix ODE
    so the network matvec runs once per stage for all columns. The early
    polish is all-or-nothing over the columns above STEADY_TOL; a column
    still above it at the end gets one last guarded polish."""
    n, m = x0.shape
    tol = STEADY_TOL

    def polish(states, k):
        return _guarded_polish(states[:, k], params, graph,
                               None if b is None else b[:, k])

    # read from the module per call: the first read imports scipy.integrate
    # (see __getattr__), and a class set on the module in its place is used
    rk45 = sys.modules[__name__].RK45
    solver = rk45(lambda _t, y: rhs(y.reshape(n, m), params, graph, b).ravel(), 0.0,
                  x0.ravel(), t_bound=T_MAX, rtol=RTOL,
                  atol=ATOL, first_step=FIRST_STEP)
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
            x, rk = polish(states, k) or (x, rk)  # accepted only at <= STEADY_TOL
        out.append(Equilibrium(x, rk, rk <= tol, float(solver.t)))
    return out


def _branch_seed(params: ModelParams, graph: Graph):
    """(c, w): the bifurcated branch's projected amplitude c > 0 and the
    extreme eigenvector w of A on the gamma side, or None when the origin is
    stable (-d + u*mu <= 0, mu = alpha + gamma*lambda) or the root is below
    _SEED_LOW times its bound.

    (lambda, w) is A's pair at LOOSE_EIG_TOL: the seed only has to lie in
    Newton's basin. A Ritz value lies inside the spectrum, so mu can only
    err low, toward "origin stable": a trial that close to threshold takes
    the ODE path, and never the reverse.

    c is the positive root of g(c) = -d*c + u*w.S(c*mu*w), the fixed point
    projected on w. g'(0) = -d + u*mu > 0, and |w.S| <= ||w||_1 <= sqrt(n)
    puts the root at or below high = u*sqrt(n)/d, where g(high) <= 0. S is
    odd and concave on [0, inf), so each term w_i*S(c*mu*w_i) =
    |w_i|*S(c*mu*|w_i|) and with it g are concave for c >= 0: Newton from
    high falls monotonically to the root, never below it.
    """
    value, w = graph.extreme_eigenpair("LA" if params.gamma > 0 else "SA", LOOSE_EIG_TOL)
    mu = params.alpha + params.gamma * value
    if -params.d + params.u * mu <= 0.0:
        return None

    def projected(c):
        return -params.d * c + params.u * float(w @ saturation_eval(params.saturation,
                                                                    c * mu * w))

    c = params.u * np.sqrt(w.size) / params.d
    if projected(_SEED_LOW * c) <= 0.0:  # so close to threshold that the root is below that
        return None
    while (residual := projected(c)) < 0.0:  # >= 0: at the root, or past it by rounding
        slope = -params.d + params.u * mu * float(
            (w * w) @ saturation_deriv(params.saturation, c * mu * w))
        if not slope < 0.0:  # g' < 0 above the root; >= 0 only by rounding at it
            break
        step = residual / slope
        c -= step
        if step <= _SEED_XTOL + _SEED_RTOL * c:
            break
    return c, w


def _seeded_equilibrium(x0, params: ModelParams, graph: Graph):
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
    root = newton_refine(sign * c * w, params, graph)
    root_norm = float(np.abs(root.state).max())
    if (root.residual_inf <= STEADY_TOL and root_norm > NEUTRAL_TOL
            and sign * float(root.state @ w) > 0.0
            and float(np.abs(x0).max()) <= 0.1 * root_norm
            and _is_stable(root.state, params, graph, root.argument)):
        return Equilibrium(root.state, root.residual_inf, True, 0.0)
    return None


def integrate_to_equilibrium(x0, params: ModelParams, graph: Graph) -> Equilibrium:
    """Adaptive Runge-Kutta 4(5) to steady state, then a Newton polish.

    Stepping stops once the residual reaches STEADY_TOL, once a guarded
    Newton polish from the current point succeeds (the integrator alone
    cannot push the residual below its RTOL * ||x|| error floor), or at
    T_MAX. `converged` reflects the final residual against STEADY_TOL, so a
    T_MAX exit with a large residual is reported rather than raised.

    A start that is not yet an equilibrium first tries the seeded start:
    Newton from the bifurcated branch c*w (see _seeded_equilibrium), which
    skips the slow transit out of the origin near threshold. An accepted
    seeded root reports elapsed_model_time 0.0; any rejection runs the ODE
    path from x0.
    """
    x0 = np.array(x0, dtype=float).reshape(-1, 1)
    if float(np.abs(rhs(x0[:, 0], params, graph)).max()) > STEADY_TOL:
        seeded = _seeded_equilibrium(x0[:, 0], params, graph)
        if seeded is not None:
            return seeded
    return _stacked_equilibria(x0, params, graph, None)[0]


def equilibria_for_inputs(graph: Graph, params: ModelParams, inputs) -> list:
    """One equilibrium per input column, each integrated from the origin.

    The independent trajectories are stacked into a single matrix ODE so the
    network matvec runs once per stage for all columns; columns are
    Newton-polished separately, with the same guarded early polish as
    integrate_to_equilibrium.
    """
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[0] != graph.n:
        raise ValueError("inputs must be an (n, m) matrix")
    return _stacked_equilibria(np.zeros(inputs.shape), params, graph, inputs)


def __getattr__(name):
    """RK45, imported from scipy.integrate on the first read (PEP 562) and
    kept as the module attribute from then on."""
    if name == "RK45":
        from scipy.integrate import RK45
        globals()[name] = RK45
        return RK45
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
