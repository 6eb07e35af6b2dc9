"""Numerical kernels: symmetric eigendecomposition (full, and one extreme
pair by thick-restart Lanczos), MINRES for symmetric systems, and exact
two-cluster k-means on the line."""

import math
from dataclasses import dataclass

import numpy as np

# Fixed seed of the Lanczos start vector (and of the fresh vectors drawn
# after a breakdown), so extreme_eigpairs is bit-reproducible across
# processes.
_V0_SEED = 0

# Lanczos basis size and the Ritz vectors kept at each restart: ARPACK's
# default ncv for one pair (scipy's eigsh), and half of it, which is what
# ARPACK's implicit restart keeps for one wanted pair. Until the first
# restart the acceptance test runs at every basis size that is a multiple of
# _TEST_EVERY, not only on a full basis: a test costs an eigh of the
# projection, which at every step cost more than the matvecs it saved. A
# solve that needed a restart converges slowly, and after it only the full
# basis is tested.
_NCV = 20
_KEEP = _NCV // 2
_TEST_EVERY = 4

# The Lanczos tol of a pair that only steers: the branch seed, which Newton
# corrects, and the stability certificate's stage that bounds its own
# Ritz residual (see dynamics._is_stable).
LOOSE_EIG_TOL = 1e-4

# Machine precision: a Lanczos tol of 0 asks for it, and its 2/3 power is
# the floor on |theta| in the convergence test, as in ARPACK.
_EPS = np.finfo(float).eps


def _fix_signs(vectors) -> np.ndarray:
    """Flip each column so its entry of largest magnitude (lowest index on
    ties) is positive."""
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, peaks < 0] *= -1.0
    return vectors


def sym_eig(matrix):
    """(values, vectors) of a symmetric real matrix, as np.linalg.eigh gives
    them: values ascending, column j of `vectors` for values[j]. An input
    with `toarray()`, such as a CSR array, is densified. Columns are unit
    norm with a fixed sign: the entry of largest magnitude (lowest index on
    ties) is positive. Only the lower triangle is read, so the caller
    supplies a symmetric matrix."""
    a = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eigh(a)
    return values, _fix_signs(vectors)


def extreme_eigpairs(matrix, which: str = "LA", tol: float = 0.0, v0=None):
    """(value, unit vector) of the extreme eigenpair of a symmetric real
    operator, by thick-restart Lanczos (Wu & Simon, SIAM J. Matrix Anal.
    Appl. 22, 2000).

    `matrix` is anything with `.shape` and `@` on one vector: a dense array,
    a Graph's CSR array or an Operator. It is trusted to be symmetric: the
    program builds every operator it passes symmetric. `which` is "LA" (largest
    value), "SA" (smallest value) or "LM" (largest magnitude). The
    vector has sym_eig's sign convention. The Lanczos starts from v0 (any
    nonzero vector) when given, else from seeded_start(n), so repeated
    calls are bit-identical. A v0 must not be orthogonal to the wanted
    eigenvector: a start inside an invariant subspace never leaves it.

    The pair is accepted by ARPACK's test: its Ritz residual estimate is at
    most tol * max(eps^(2/3), |value|), with tol = 0 meaning machine
    precision. Until the first restart the test runs every _TEST_EVERY
    steps as the basis grows.
    Up to _NCV agents, where the Lanczos basis would span the whole space,
    a dense solve of its columns A @ e_i answers instead, and v0 is unused.
    """
    if which not in ("LA", "SA", "LM"):
        raise ValueError(f"unknown which={which!r}")
    n = matrix.shape[0]
    if n > _NCV:
        return _lanczos(matrix, which, tol or _EPS, v0)
    values, vectors = sym_eig(np.column_stack([matrix @ e for e in np.eye(n)]))
    keep = _wanted_first(values, which)[0]
    return values[keep], vectors[:, keep]


def _seeded_stream(n):
    """(seeded_start(n), the Philox generator after drawing it)."""
    rng = np.random.Generator(np.random.Philox(_V0_SEED))
    start = rng.uniform(-1.0, 1.0, n)
    start /= np.linalg.norm(start)
    return start, rng


def seeded_start(n: int) -> np.ndarray:
    """The Lanczos's default start: a unit vector drawn uniformly on
    [-1, 1]^n from a Philox stream with a fixed seed. Such a draw has a
    component along every eigenvector of a given matrix with probability 1."""
    return _seeded_stream(n)[0]


def _wanted_first(theta, which):
    """Indices of the ascending values theta, the wanted end first."""
    if which == "LA":
        return np.arange(theta.size)[::-1]
    if which == "SA":
        return np.arange(theta.size)
    return np.argsort(np.abs(theta), kind="stable")[::-1]


def _orthogonalize(w, basis) -> tuple:
    """Subtract from w its projection on the orthonormal rows of `basis`, by
    two passes of classical Gram-Schmidt. Returns the summed coefficients
    and whether w is numerically outside the basis's span: the second pass
    kept over 0.717 of its norm (the DGKS test, as in ARPACK's dsaitr)."""
    coeffs = basis @ w
    w -= coeffs @ basis
    first = math.sqrt(w @ w)
    again = basis @ w
    w -= again @ basis
    return coeffs + again, math.sqrt(w @ w) > 0.717 * first


def _lanczos(matrix, which, tol, v0=None):
    """The extreme Ritz pair of `matrix` on the `which` side, converged to
    ARPACK's test at `tol`, from the start v0 or seeded_start (see
    extreme_eigpairs).

    Rows 0..m-1 of `basis` hold an orthonormal Krylov basis and row m the
    next Lanczos direction; t[:m, :m] is the matrix's projection on the
    basis, and the Ritz residual of its eigenvector s is beta * |s[-1]|.
    Each cycle extends the basis to _NCV rows, one matvec a row, and tests
    the wanted Ritz pair on the full basis and, in the first cycle, at every
    m that is a multiple of _TEST_EVERY. A restart keeps the _KEEP Ritz
    vectors nearest the wanted end, and the next direction as row _KEEP: t
    becomes their Ritz values on the diagonal, coupled to that row by beta
    times each one's last component (an arrow). A breakdown, a direction
    numerically inside the basis's span (an invariant subspace: the zero
    operator, an edgeless graph, the complete graph), gets beta = 0 and a
    fresh seeded vector orthogonal to the basis in its place: normalizing
    the rounding left would lose orthogonality.
    """
    n = matrix.shape[0]
    start, rng = _seeded_stream(n)
    basis = np.empty((_NCV + 1, n))
    basis[0] = start if v0 is None else v0 / np.linalg.norm(v0)
    t = np.zeros((_NCV, _NCV))
    first = 0
    for _ in range(10 * n):  # ARPACK's default limit on restarts
        for j in range(first, _NCV):
            w = np.asarray(matrix @ basis[j], dtype=float)
            coeffs, outside = _orthogonalize(w, basis[:j + 1])
            t[j, j] = coeffs[j]
            beta = float(np.linalg.norm(w)) if outside else 0.0
            if not outside:
                w = rng.uniform(-1.0, 1.0, n)
                _orthogonalize(w, basis[:j + 1])
            w /= np.linalg.norm(w)
            basis[j + 1] = w
            m = j + 1
            if m < _NCV:
                t[j, m] = t[m, j] = beta
                if first or m % _TEST_EVERY:
                    continue
            theta, s = np.linalg.eigh(t[:m, :m])
            order = _wanted_first(theta, which)
            best = order[0]
            if beta * abs(s[-1, best]) <= tol * max(_EPS ** (2.0 / 3.0), abs(theta[best])):
                vector = s[:, best] @ basis[:m]
                vector /= np.linalg.norm(vector)
                return theta[best], _fix_signs(vector[:, None])[:, 0]
        keep = order[:_KEEP]
        basis[:_KEEP] = s[:, keep].T @ basis[:_NCV]
        basis[_KEEP] = basis[_NCV]
        t[:] = 0.0
        np.fill_diagonal(t[:_KEEP, :_KEEP], theta[keep])
        t[_KEEP, :_KEEP] = t[:_KEEP, _KEEP] = beta * s[-1, keep]
        first = _KEEP
    raise np.linalg.LinAlgError(f"Lanczos did not converge in {10 * n} restarts")


class Operator:
    """A symmetric linear map of R^n given by its matvec: `.shape`, and `@`
    on one vector giving a new array, which the Krylov kernels update."""

    def __init__(self, n: int, matvec):
        self.shape = (n, n)
        self.matvec = matvec

    def __matmul__(self, x):
        return self.matvec(x)


def minres(operator, b, x0=None, *, rtol=1e-5):
    """x with operator @ x = b for a symmetric operator, by MINRES (Paige &
    Saunders, SIAM J. Numer. Anal. 12, 1975).

    A step-for-step transcription of scipy.sparse.linalg.minres with no
    preconditioner and no shift, so its iterates have scipy's bits: the
    same recurrences, the same 2-norms (numpy's, also of the 2-vectors in
    the plane rotations) and the same stopping tests. It stops once
    ||b - A x|| <= rtol * ||A|| ||x|| or ||A r|| <= rtol * ||A|| ||r||
    (||A|| estimated from the Lanczos tridiagonal; rtol below eps/2 acts as
    eps/2, where scipy's 1 + t <= 1 test fires), once that estimate says A
    is too ill conditioned to go on, or after 5n iterations. Starts from x0,
    or from 0.
    """
    n = b.size
    norm = np.linalg.norm
    if x0 is None:
        x = np.zeros(n)
        r1 = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r1 = b - operator @ x
    y = r1
    beta1 = r1 @ y
    if beta1 == 0:
        return x
    if norm(b) == 0:
        return b
    beta1 = math.sqrt(beta1)
    tol = max(rtol, _EPS / 2)
    oldb, beta, dbar, epsln, phibar = 0, beta1, 0, 0, beta1
    tnorm2, gmax, gmin = 0, 0, np.finfo(float).max
    cs, sn = -1, 0
    w = np.zeros(n)
    w2 = np.zeros(n)
    r2 = r1
    for itn in range(1, 5 * n + 1):
        v = (1.0 / beta) * y
        y = operator @ v
        if itn >= 2:
            y -= (beta / oldb) * r1
        alfa = v @ y
        y -= (alfa / beta) * r2
        r1 = r2
        r2 = y
        oldb = beta
        beta = math.sqrt(r2 @ y)
        tnorm2 += alfa ** 2 + oldb ** 2 + beta ** 2
        # b is an eigenvector: this step solves exactly
        eigenvector = itn == 1 and beta / beta1 <= 10 * _EPS
        # the plane rotation that eliminates beta from the tridiagonal
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = norm([gbar, dbar])
        gamma = max(norm([gbar, beta]), _EPS)
        cs = gbar / gamma
        sn = beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1 = w2
        w2 = w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x += phi * w
        gmax = max(gmax, gamma)
        gmin = min(gmin, gamma)
        # the stopping tests: ||r|| = phibar, ||A r|| = phibar * root
        anorm = math.sqrt(tnorm2)
        ynorm = norm(x)
        test1 = np.inf if ynorm == 0 or anorm == 0 else phibar / (anorm * ynorm)
        test2 = np.inf if anorm == 0 else root / anorm
        if (eigenvector or test1 <= tol or test2 <= tol
                or gmax / gmin >= 0.1 / _EPS or anorm * ynorm * _EPS >= beta1):
            break
    return x


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

    A set whose spread max - min is at most 64 ulps of max|value| is flat
    up to rounding, as an equilibrium on a complete graph is (3-7 ulps), and
    degenerate: a split would follow its last bits.
    """
    v = np.asarray(values, dtype=float).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need at least two values")
    order = np.argsort(v, kind="stable")
    s = v[order]
    if s[-1] - s[0] <= 64 * _EPS * max(abs(s[0]), abs(s[-1])):
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
