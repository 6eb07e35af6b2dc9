"""Numerical kernels: symmetric eigendecomposition (full and extreme pairs)
and exact two-cluster k-means on the line."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackError, eigsh

# Fixed seed of the ARPACK start vector: eigsh's default start is random, and
# a seeded one makes extreme_eigpairs bit-reproducible across processes.
_V0_SEED = 0


def _fix_signs(vectors) -> np.ndarray:
    """Flip each column so its entry of largest magnitude (lowest index on
    ties) is positive."""
    for j in range(vectors.shape[1]):
        k = int(np.argmax(np.abs(vectors[:, j])))
        if vectors[k, j] < 0:
            vectors[:, j] = -vectors[:, j]
    return vectors


def sym_eig(matrix):
    """(values, vectors) of a symmetric real matrix, as np.linalg.eigh gives
    them: values ascending, column j of `vectors` for values[j]. A sparse
    input is densified. Columns are unit norm with a fixed sign: the entry of
    largest magnitude (lowest index on ties) is positive. Only the lower
    triangle is read, so the caller supplies a symmetric matrix."""
    a = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eigh(a)
    return values, _fix_signs(vectors)


def extreme_eigpairs(matrix, which: str = "LA", tol: float = 0.0):
    """(value, unit vector) of the extreme eigenpair of a symmetric real
    operator, by ARPACK.

    `matrix` is a dense array, a scipy.sparse array or a LinearOperator, and
    is trusted to be symmetric: the program builds every operator it passes
    symmetric. `which` is "LA" (largest value), "SA" (smallest value) or "LM"
    (largest magnitude). The vector has sym_eig's sign convention. ARPACK
    starts from a fixed seeded vector, so repeated calls are bit-identical.
    `tol` is ARPACK's relative accuracy of the Ritz value; 0 asks for machine
    precision.

    A dense solve replaces ARPACK where ARPACK cannot run as a partial
    method: when its Lanczos basis (scipy's default of 20 vectors for one
    pair) would span the whole space, and when it fails, as it does with
    error -9 on the zero operator.
    """
    if which not in ("LA", "SA", "LM"):
        raise ValueError(f"unknown which={which!r}")
    n = matrix.shape[0]
    if n > 20:
        v0 = np.random.Generator(np.random.Philox(_V0_SEED)).uniform(-1.0, 1.0, n)
        try:
            values, vectors = eigsh(matrix, k=1, which=which, v0=v0, tol=tol)
        except ArpackError:
            pass
        else:
            return values[0], _fix_signs(vectors)[:, 0]
    values, vectors = sym_eig(matrix @ np.eye(n))
    last_largest = int(np.argsort(np.abs(values), kind="stable")[-1])
    keep = {"LA": n - 1, "SA": 0, "LM": last_largest}[which]
    return values[keep], vectors[:, keep]


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
