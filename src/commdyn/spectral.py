"""Numerical kernels: symmetric eigendecomposition (full and extreme pairs),
minimum-norm least squares, and exact two-cluster k-means on the line."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import NotSymmetric

# Fixed seed of the ARPACK start vector: eigsh's default start is random, and
# a seeded one makes extreme_eigpairs bit-reproducible across processes.
_V0_SEED = 0


@dataclass
class EigenPairs:
    """Eigenvalues sorted ascending; column j of `vectors` belongs to values[j].

    Columns are unit norm with a fixed sign: the entry of largest magnitude
    (lowest index on ties) is positive.
    """

    values: np.ndarray
    vectors: np.ndarray


def _check_symmetric(a) -> None:
    """Raise NotSymmetric unless `a` (dense or scipy.sparse) is square and
    symmetric within 1e-12 of its largest entry."""
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NotSymmetric("expected a square matrix")
    scale = max(1.0, float(abs(a).max()))
    if float(abs(a - a.T).max()) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12")


def _fix_signs(vectors) -> np.ndarray:
    """Flip each column so its entry of largest magnitude (lowest index on
    ties) is positive."""
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def sym_eig(matrix) -> EigenPairs:
    """Full eigendecomposition of a symmetric real matrix (dense or
    scipy.sparse; a sparse input is densified)."""
    a = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    _check_symmetric(a)
    values, vectors = np.linalg.eigh(a)
    return EigenPairs(values=values, vectors=_fix_signs(vectors))


def extreme_eigpairs(matrix, k: int = 1, which: str = "LA") -> EigenPairs:
    """The k extreme eigenpairs of a symmetric real operator, by ARPACK.

    `matrix` is a dense array, a scipy.sparse array or a LinearOperator (the
    last is trusted to be symmetric). Callers wrap a Graph's adjacency,
    checked symmetric when the Graph was built, in aslinearoperator: the
    check on a sparse matrix copies it about three times. `which` is "LA" (largest values), "SA"
    (smallest values) or "LM" (largest magnitudes). Pairs come sorted
    ascending by value with sym_eig's sign convention. ARPACK starts from a
    fixed seeded vector, so repeated calls are bit-identical.

    A dense solve replaces ARPACK where ARPACK cannot run as a partial
    method: when its Lanczos basis (scipy's default max(2k + 1, 20) vectors)
    would span the whole space, and when it fails, as it does with error -9
    on the zero operator.
    """
    if which not in ("LA", "SA", "LM"):
        raise ValueError(f"unknown which={which!r}")
    if not isinstance(matrix, LinearOperator):
        if not sparse.issparse(matrix):
            matrix = np.asarray(matrix, dtype=float)
        _check_symmetric(matrix)
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    if n > max(2 * k + 1, 20):
        v0 = np.random.Generator(np.random.Philox(_V0_SEED)).uniform(-1.0, 1.0, n)
        try:
            values, vectors = eigsh(matrix, k=k, which=which, v0=v0)
        except ArpackError:
            pass
        else:
            order = np.argsort(values, kind="stable")
            return EigenPairs(values[order], _fix_signs(vectors[:, order]))
    if isinstance(matrix, LinearOperator):
        matrix = matrix @ np.eye(n)
    full = sym_eig(matrix)
    if which == "LA":
        keep = np.arange(n - k, n)
    elif which == "SA":
        keep = np.arange(k)
    else:
        keep = np.sort(np.argsort(np.abs(full.values), kind="stable")[n - k:])
    return EigenPairs(full.values[keep], full.vectors[:, keep])


def least_squares_min_norm(y, x) -> np.ndarray:
    """Minimum-norm least-squares factor: y @ pinv(x).

    Singular values of x below max(n, m) * eps * sigma_max are truncated, so
    rank-deficient inputs are handled without error (pinv(0) = 0).
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ValueError("y and x must have matching shapes")
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("need at least one column")
    rcond = max(x.shape) * np.finfo(float).eps
    return y @ np.linalg.pinv(x, rcond=rcond)


@dataclass
class KMeansTwo1d:
    """Globally optimal 2-means of scalars. Label 1 is the cluster holding the
    smallest value; centers are (left, right) in value order."""

    labels: np.ndarray
    centers: tuple
    degenerate: bool = False


def kmeans_two_1d(values) -> KMeansTwo1d:
    """Exact 1-D 2-means by scanning the n-1 split points of the sorted order.

    The optimal 2-partition on a line is contiguous in sorted order, so the
    scan is exhaustive. Ties go to the first (leftmost) minimal split.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    order = np.argsort(v, kind="stable")
    s = v[order]
    if s[0] == s[-1]:
        return KMeansTwo1d(np.ones(n, dtype=int), (float(s[0]), float(s[0])), degenerate=True)
    prefix = np.concatenate([[0.0], np.cumsum(s)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(s * s)])
    k = np.arange(1, n)
    sse_left = prefix_sq[k] - prefix[k] ** 2 / k
    sse_right = (prefix_sq[n] - prefix_sq[k]) - (prefix[n] - prefix[k]) ** 2 / (n - k)
    best = int(np.argmin(sse_left + sse_right)) + 1
    labels = np.empty(n, dtype=int)
    labels[order[:best]] = 1
    labels[order[best:]] = 2
    centers = (float(prefix[best] / best), float((prefix[n] - prefix[best]) / (n - best)))
    return KMeansTwo1d(labels, centers)
