"""Reference oracles the package is checked against.

Dense ones: the per-pair SBM sampler and the expected SBM adjacency E{A}.
The package samples in O(edges) and computes everything it needs about E{A}
in closed form (see commdyn.theory), never building either densely. These
n x n versions are the definitions, so they are kept simple rather than
fast: O(n^2) memory and, for the Davis-Kahan reference, a full O(n^3)
eigendecomposition.

Model ones, which need a sampled graph or the ground truth and so have no
place in a detection run: the bifurcation threshold of a given matrix, the
equilibrium's amplitude along the top eigenvector, and the fixed-point
residuals of input-equilibrium pairs.

The seeded start's amplitude by bracketing: scipy's brentq on the projected
fixed point, which the package solves by Newton without scipy.optimize.

And the tests' graph fixture: the first connected sample of an SBM.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import brentq

from commdyn.dynamics import Equilibrium, ModelParams, rhs, saturation_eval
from commdyn.graphgen import Graph, SbmParams, is_connected, sample_sbm
from commdyn.spectral import LOOSE_EIG_TOL, extreme_eigpairs, sym_eig


def connected_sample(params: SbmParams) -> Graph:
    """The first connected graph sample_sbm draws for params over seeds
    0, 1, ..., 49; RuntimeError when none of them is connected."""
    for seed in range(50):
        graph = sample_sbm(params, seed)
        if is_connected(graph):
            return graph
    raise RuntimeError("no connected sample")


def bernoulli_pairs_sbm(params: SbmParams, seed: int) -> Graph:
    """The SBM drawn pair by pair (sampler stream v1): each unordered pair
    {i, j}, i < j in lexicographic order, takes one uniform from the
    Philox(seed) stream and is an edge when it falls below its link
    probability. graphgen.sample_sbm (stream v3) must give the same graph
    wherever every link probability is 0 or 1, and the same law elsewhere."""
    rng = np.random.Generator(np.random.Philox(seed))
    labels = params.labels()
    probs = params.ell[:, labels - 1]
    upper = np.zeros((params.n, params.n), dtype=bool)
    for i in range(params.n - 1):
        upper[i, i + 1:] = rng.random(params.n - 1 - i) < probs[labels[i] - 1, i + 1:]
    return Graph(sparse.csr_array(upper | upper.T, dtype=float), labels)


def expected_adjacency(params: SbmParams) -> np.ndarray:
    """Entrywise expectation of the sampled adjacency (zero diagonal kept)."""
    labels = params.labels()
    expected = params.ell[labels - 1][:, labels - 1]
    np.fill_diagonal(expected, 0.0)
    return expected


def corrected_expected_matrix(params: SbmParams) -> np.ndarray:
    """Expected adjacency with the diagonal filled back in (l11 / l22), the
    rank-2 block matrix whose spectrum the closed forms describe."""
    matrix = expected_adjacency(params)
    diag = np.repeat([params.l11, params.l22], [params.n1, params.n2])
    matrix[np.diag_indices(params.n)] = diag
    return matrix


def dense_expected_top(params: SbmParams):
    """(delta, w_bar) from a full eigendecomposition of the dense E{A}: the gap
    below its top eigenvalue and the top eigenvector. Raises ValueError when the
    computed gap is exactly 0."""
    values, vectors = sym_eig(expected_adjacency(params))
    delta = float(values[-1] - values[-2])
    if delta == 0.0:
        raise ValueError("expected matrix has a degenerate top eigenvalue")
    return delta, vectors[:, -1]


def dense_davis_kahan(graph: Graph, params: SbmParams):
    """(lhs, rhs, delta) of the Davis-Kahan check with E{A} built densely and
    ||A - E{A}||_2 taken from the dense difference."""
    delta, w_bar = dense_expected_top(params)
    _, w = extreme_eigpairs(graph.adjacency, "LA")
    lhs = min(float(np.linalg.norm(w - w_bar)), float(np.linalg.norm(w + w_bar)))
    deviation = float(np.abs(np.linalg.eigvalsh(graph.adjacency.toarray()
                                                - expected_adjacency(params))).max())
    return lhs, 2.0 ** 1.5 * deviation / delta, delta



def bifurcation_threshold(matrix, params: ModelParams) -> float:
    """Attention value where the origin loses stability.

    d / (alpha + gamma*lambda_max) for gamma > 0, d / (alpha + gamma*lambda_min)
    for gamma < 0; works for both a sampled adjacency and an expected matrix.
    Raises ValueError when the denominator is not positive.
    """
    extreme, _ = extreme_eigpairs(matrix, "LA" if params.gamma > 0 else "SA")
    denom = params.alpha + params.gamma * extreme
    if denom <= 0:
        raise ValueError(f"alpha + gamma*lambda = {denom} is not positive")
    return params.d / denom


def c_of_u(equilibrium: Equilibrium, graph: Graph) -> float:
    """Signed projection of the equilibrium on the top eigenvector; its
    magnitude shrinks to zero as the attention approaches the threshold."""
    x = np.asarray(equilibrium.state, dtype=float)
    _, w = graph.extreme_eigenpair("LA")
    return float(x @ w)


def fixed_point_residuals(pairs, graph: Graph) -> np.ndarray:
    """Per-column sup-norm of the fixed-point equation of a detect.PairSet;
    needs the ground-truth graph, so it is a test-time consistency check."""
    return np.abs(rhs(pairs.X, pairs.params, graph, pairs.B)).max(axis=0)


def projected_fixed_point(params: ModelParams, graph: Graph, c: float) -> float:
    """g(c) = -d*c + u*w.S(c*mu*w): the fixed-point equation along the
    extreme eigenvector w of A on the gamma side, mu = alpha + gamma*lambda,
    with (lambda, w) the pair the branch seed reads: A's at
    spectral.LOOSE_EIG_TOL."""
    value, w = graph.extreme_eigenpair("LA" if params.gamma > 0 else "SA", LOOSE_EIG_TOL)
    mu = params.alpha + params.gamma * value
    return -params.d * c + params.u * float(w @ saturation_eval(params.saturation, c * mu * w))


def branch_amplitude(params: ModelParams, graph: Graph) -> float:
    """The positive root of projected_fixed_point, by brentq to machine
    precision on [1e-9, 1] times its bound u*sqrt(n)/d (the origin must be
    unstable and the root above the bracket's low end)."""
    high = params.u * np.sqrt(graph.n) / params.d
    return brentq(lambda c: projected_fixed_point(params, graph, c), 1e-9 * high, high,
                  xtol=np.finfo(float).tiny)
