"""Numerical oracles for the spectral theory behind detection: the expected
adjacency E{A} in closed form (its spectra and the expected threshold), with
no n x n matrix; eigenvector perturbation and concentration diagnostics; and
equilibrium-eigenvector alignment."""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NEUTRAL_TOL, Equilibrium, ModelParams
from .errors import NeutralState
from .graphgen import Graph, SbmParams, max_expected_degree
from .spectral import Operator, extreme_eigpairs

# The Lanczos tol (spectral.extreme_eigpairs) for ||A - E{A}||_2 (see
# _deviation_norm), set like the stability certificate's loose stage
# (spectral.LOOSE_EIG_TOL) at the accuracy its consumers need: against
# tol = 0 it took about 40% fewer matvecs and moved the concentration ratio
# by at most 3.5e-15 relative.
_DEVIATION_EIG_TOL = 1e-8


@dataclass(frozen=True)
class ExpectedSpectrum:
    """The two nonzero eigenvalues of the block-corrected expected adjacency
    and the per-block values (w1, w2) of the top eigenvector
    [w1*1_{n1}; w2*1_{n2}], normalized so n1*w1^2 + n2*w2^2 = 1."""

    lambda_max_bar: float
    lambda_minus_bar: float
    w1: float
    w2: float


def _block_eigpair(params: SbmParams, a: float, b: float):
    """(lambda_max, lambda_minus, w1, w2) of [[a, l12*n2], [l12*n1, b]], an
    SBM block matrix acting on block-constant vectors [w1*1_{n1}; w2*1_{n2}],
    with the top eigenvector normalized so n1*w1^2 + n2*w2^2 = 1."""
    n1, n2 = params.n1, params.n2
    root = math.sqrt((a - b) ** 2 + 4.0 * n1 * n2 * params.l12 ** 2)
    lam_max = 0.5 * ((a + b) + root)
    lam_minus = 0.5 * ((a + b) - root)
    cross = params.l12 * n2
    if cross == 0.0:
        # decoupled blocks: the top eigenvector lives on the denser block
        if a >= b:
            w1, w2 = 1.0 / math.sqrt(n1), 0.0
        else:
            w1, w2 = 0.0, 1.0 / math.sqrt(n2)
    else:
        ratio = (lam_max - a) / cross  # w2 / w1 from the 2x2 eigenproblem
        norm = math.sqrt(n1 + n2 * ratio * ratio)
        w1, w2 = 1.0 / norm, ratio / norm
    return lam_max, lam_minus, w1, w2


def expected_spectrum(params: SbmParams) -> ExpectedSpectrum:
    """Closed-form extreme eigenpair of the corrected expected adjacency.

    For the symmetric model the forms reduce to (l_s + l_d)n/2 and
    (l_s - l_d)n/2 with a flat eigenvector, computed directly so they are
    exact rather than round-tripped through the radical.
    """
    if params.is_symmetric():
        n = params.n
        lam_max = (params.l11 + params.l12) * n / 2.0
        lam_minus = (params.l11 - params.l12) * n / 2.0
        w = 1.0 / math.sqrt(n)
        return ExpectedSpectrum(lam_max, lam_minus, w, w)
    return ExpectedSpectrum(*_block_eigpair(params, params.l11 * params.n1,
                                            params.l22 * params.n2))


def expected_threshold(sbm: SbmParams, gamma_sign: int, d: float = 1.0, alpha: float = 1.0):
    """(u_bar, gamma, delta): bifurcation threshold of the corrected expected
    matrix with gamma = gamma_sign / Delta. Returns u_bar = None when the
    denominator alpha + gamma*lambda is nonpositive, which gamma*lambda >= 0
    leaves to alpha <= 0; raises ValueError when Delta = 0 (no edges)."""
    delta = max_expected_degree(sbm)
    if delta == 0:
        raise ValueError(f"link probabilities l11={sbm.l11}, l12={sbm.l12}, l22={sbm.l22} at "
                         f"n1={sbm.n1}, n2={sbm.n2} give no edges and no gamma = +-1/Delta")
    gamma = gamma_sign / delta
    spec = expected_spectrum(sbm)
    lam = spec.lambda_max_bar if gamma_sign > 0 else min(spec.lambda_minus_bar, 0.0)
    denom = alpha + gamma * lam
    u_bar = d / denom if denom > 0 else None
    return u_bar, gamma, delta


@dataclass(frozen=True)
class DavisKahanReport:
    lhs: float
    rhs: float
    delta: float
    holds: bool
    ratio: float


def _deviation_norm(graph: Graph, params: SbmParams) -> float:
    """||A - E{A}||_2 without an n x n matrix: E{A} is a block-constant
    matrix minus its diagonal, applied blockwise. When every link
    probability is 0 or 1 the sample is E{A} itself, and the norm is 0."""
    if np.isin(params.ell, (0.0, 1.0)).all():
        return 0.0
    n1 = params.n1
    sizes = [n1, params.n2]
    ell = params.ell
    diag = np.repeat([params.l11, params.l22], sizes)
    adjacency = graph.adjacency

    def matvec(x):
        block = np.repeat(ell @ np.array([x[:n1].sum(), x[n1:].sum()]), sizes)
        block -= diag * x
        out = adjacency @ x
        out -= block
        return out

    return float(abs(extreme_eigpairs(Operator(graph.n, matvec), "LM",
                                      tol=_DEVIATION_EIG_TOL)[0]))


def _expected_top(params: SbmParams):
    """(delta, w_bar): the gap below lambda_max(E{A}) and its unit eigenvector.
    On block-constant vectors E{A} acts as [[l11(n1-1), l12*n2], [l12*n1,
    l22(n2-1)]], whose larger eigenvalue is E{A}'s top one (E{A} >= 0); on
    vectors summing to zero within each block it is -l11 and -l22."""
    n1, n2 = params.n1, params.n2
    lam_max, lam_minus, w1, w2 = _block_eigpair(params, params.l11 * (n1 - 1),
                                                params.l22 * (n2 - 1))
    rest = [lam_minus] + [-params.l11] * (n1 > 1) + [-params.l22] * (n2 > 1)
    delta = lam_max - max(rest)
    if delta == 0.0:
        raise ValueError("expected matrix has a degenerate top eigenvalue")
    return delta, np.repeat([w1, w2], [n1, n2])


def davis_kahan_check(graph: Graph, params: SbmParams) -> DavisKahanReport:
    """Empirical check of the eigenvector perturbation bound
    min_theta ||w_max(A) - theta*w_max(E{A})|| <= 2^{3/2} ||A - E{A}|| / delta,
    with delta the spectral gap below lambda_max(E{A})."""
    delta, w_bar = _expected_top(params)
    deviation = _deviation_norm(graph, params)
    if deviation == 0.0:
        # A = E{A}, whose top eigenvector is unique as delta > 0: w_bar itself
        return DavisKahanReport(0.0, 0.0, delta, True, 0.0)
    _, w = graph.extreme_eigenpair("LA")
    lhs = min(float(np.linalg.norm(w - w_bar)), float(np.linalg.norm(w + w_bar)))
    rhs = 2.0 ** 1.5 * deviation / delta
    return DavisKahanReport(lhs, rhs, delta, lhs <= rhs, lhs / rhs if rhs > 0 else math.inf)


def concentration_ratio(graph: Graph, params: SbmParams) -> float:
    """||A - E{A}||_2 / sqrt(Delta * log n), the empirical constant behind the
    spectral-norm concentration bound."""
    if graph.n < 2:
        raise ValueError("need n >= 2")
    diff_norm = _deviation_norm(graph, params)
    if diff_norm == 0.0:
        return 0.0
    return diff_norm / math.sqrt(max_expected_degree(params) * math.log(graph.n))


def alignment_check(equilibrium: Equilibrium, graph: Graph, params: ModelParams) -> float:
    """|cosine| between the equilibrium and the relevant extreme eigenvector
    of the sampled adjacency (lambda_max side for gamma > 0, lambda_min side
    for gamma < 0)."""
    x = np.asarray(equilibrium.state, dtype=float)
    if float(np.abs(x).max()) < NEUTRAL_TOL:
        raise NeutralState("equilibrium is numerically zero")
    _, w = graph.extreme_eigenpair("LA" if params.gamma > 0 else "SA")
    return float(abs(x @ w) / np.linalg.norm(x))

