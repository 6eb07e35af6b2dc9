"""Community detection from equilibria: single-equilibrium k-means clustering,
fixed-point inversion of input-equilibrium pairs with spectral clustering of
the recovered adjacency, the accuracy metric, and the covariance baseline."""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dynamics import NEUTRAL_TOL, Equilibrium, ModelParams, saturation_inverse
from .errors import DomainError, NeutralState
from .spectral import kmeans_two_1d, sym_eig


class DetectionMethod(str, Enum):
    SINGLE_EQUILIBRIUM = "single-equilibrium"
    MULTI_EQUILIBRIA = "multi-equilibria"
    COVARIANCE_SPECTRAL = "covariance-spectral"


@dataclass
class CommunityEstimate:
    labels: np.ndarray
    method: DetectionMethod
    diagnostics: dict = field(default_factory=dict)
    degenerate: bool = False


@dataclass
class PairSet:
    """Matched input-equilibrium columns: X[:, k] is the steady state reached
    under input B[:, k], generated by `params`."""

    X: np.ndarray
    B: np.ndarray
    params: ModelParams

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.B = np.asarray(self.B, dtype=float)
        if self.X.ndim != 2 or self.X.shape != self.B.shape:
            raise ValueError("X and B must be matrices of the same shape")
        if self.m < 1:
            raise ValueError("need at least one pair")

    @property
    def m(self):
        return self.X.shape[1]


def detect_single(equilibrium: Equilibrium) -> CommunityEstimate:
    """Cluster one equilibrium's entries into two communities."""
    if not equilibrium.converged:
        raise ValueError("equilibrium did not converge")
    x = np.asarray(equilibrium.state, dtype=float)
    if float(np.abs(x).max()) < NEUTRAL_TOL:
        raise NeutralState("neutral state carries no community information")
    km = kmeans_two_1d(x)
    return CommunityEstimate(km.labels, DetectionMethod.SINGLE_EQUILIBRIUM,
                             {"centers": km.centers}, degenerate=km.degenerate)


def invert_pairs(pairs: PairSet) -> np.ndarray:
    """Undo the saturation: column k is
    (S^{-1}((d*x - b)/u) - alpha*x) / gamma, which equals A @ x for exact
    equilibria of the generating graph."""
    p = pairs.params
    if p.u == 0:
        raise ValueError("inversion needs u > 0")
    w = (p.d * pairs.X - pairs.B) / p.u
    bad = ~(np.abs(w) < 1.0)  # NaN too
    if bad.any():
        k, i = map(int, np.argwhere(bad.T)[0])
        raise DomainError(f"pair {k}, agent {i}: (d*x - b)/u = {w[i, k]} outside (-1, 1)")
    return (saturation_inverse(p.saturation, w) - p.alpha * pairs.X) / p.gamma


def estimate_adjacency(X, Y) -> np.ndarray:
    """Minimum-norm least-squares adjacency estimate Y @ pinv(X), symmetrized.
    Singular values of X below max(X.shape) * eps * sigma_max count as zero."""
    X = np.asarray(X, dtype=float)
    rcond = max(X.shape) * np.finfo(float).eps
    a_tilde = np.asarray(Y, dtype=float) @ np.linalg.pinv(X, rcond=rcond)
    return (a_tilde + a_tilde.T) / 2.0


def _cluster_second_eigenvector(matrix, method: DetectionMethod) -> CommunityEstimate:
    values, vectors = sym_eig(matrix)
    km = kmeans_two_1d(vectors[:, -2])
    top3 = [float(x) for x in values[::-1][:3]]
    diagnostics = {"centers": km.centers, "top_eigenvalues": top3}
    if values.size >= 3:  # below three agents there is no gap to report
        diagnostics["eigen_gap"] = float(values[-2] - values[-3])
    return CommunityEstimate(km.labels, method, diagnostics, degenerate=km.degenerate)


def detect_multi(pairs: PairSet) -> CommunityEstimate:
    """Fixed-point inversion + least squares + spectral clustering of the
    eigenvector of the adjacency estimate's second largest eigenvalue."""
    a_hat = estimate_adjacency(pairs.X, invert_pairs(pairs))
    estimate = _cluster_second_eigenvector(a_hat, DetectionMethod.MULTI_EQUILIBRIA)
    sigma = np.linalg.svd(pairs.X, compute_uv=False)
    estimate.diagnostics["sigma_min_x"] = float(sigma[-1])
    return estimate


def detect_covariance_baseline(X) -> CommunityEstimate:
    """Spectral clustering of the sample covariance of the equilibria. The
    centred covariance of m samples has rank at most m - 1, so at m = 2 its
    second eigenvector is an arbitrary vector of a zero eigenspace; three
    samples are required."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 3:
        raise ValueError("need at least three sample columns")
    centered = X - X.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / X.shape[1]
    if not np.any(cov):
        labels = np.ones(X.shape[0], dtype=int)
        return CommunityEstimate(labels, DetectionMethod.COVARIANCE_SPECTRAL,
                                 {"centers": (0.0, 0.0)}, degenerate=True)
    return _cluster_second_eigenvector(cov, DetectionMethod.COVARIANCE_SPECTRAL)


def accuracy(truth, estimate) -> float:
    """Fraction of matching labels, maximized over the global label flip;
    always in [0.5, 1]."""
    truth = np.asarray(truth, dtype=int)
    estimate = np.asarray(estimate, dtype=int)
    if truth.shape != estimate.shape:
        raise ValueError(f"lengths {truth.shape} vs {estimate.shape}")
    if not (np.isin(truth, (1, 2)).all() and np.isin(estimate, (1, 2)).all()):
        raise ValueError("labels must be over {1, 2}")
    same = int(np.sum(truth == estimate))
    flipped = int(np.sum(truth == 3 - estimate))
    return max(same, flipped) / truth.size
