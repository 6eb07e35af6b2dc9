"""Dense reference oracles for the expected SBM adjacency E{A}.

The package computes everything it needs about E{A} in closed form (see
commdyn.theory) and never builds it. These n x n versions are the definitions
the closed forms are checked against, so they are kept simple rather than
fast: O(n^2) memory and, for the Davis-Kahan reference, a full O(n^3)
eigendecomposition.
"""

import numpy as np

from commdyn.errors import ZeroGap
from commdyn.graphgen import Graph, SbmParams
from commdyn.spectral import extreme_eigpairs, sym_eig


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
    below its top eigenvalue and the top eigenvector. Raises ZeroGap when the
    computed gap is exactly 0."""
    pairs = sym_eig(expected_adjacency(params))
    delta = float(pairs.values[-1] - pairs.values[-2])
    if delta == 0.0:
        raise ZeroGap("expected matrix has a degenerate top eigenvalue")
    return delta, pairs.vectors[:, -1]


def dense_davis_kahan(graph: Graph, params: SbmParams):
    """(lhs, rhs, delta) of the Davis-Kahan check with E{A} built densely and
    ||A - E{A}||_2 taken from the dense difference."""
    delta, w_bar = dense_expected_top(params)
    w = extreme_eigpairs(graph.adjacency, 1, "LA").vectors[:, 0]
    lhs = min(float(np.linalg.norm(w - w_bar)), float(np.linalg.norm(w + w_bar)))
    deviation = float(np.abs(np.linalg.eigvalsh(graph.adjacency.toarray()
                                                - expected_adjacency(params))).max())
    return lhs, 2.0 ** 1.5 * deviation / delta, delta

