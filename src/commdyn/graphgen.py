"""Two-community stochastic block model: seeded sampling, the maximum expected
degree, connectivity and assumption checks, edge-list IO."""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

# sample_sbm draws the pair stream in blocks of whole rows of about this many
# pairs (a longer row is a block of its own). 2^16 was no faster at
# n = 1000-2000 and added 0.6 MB to the ssbm-neg-large peak RSS.
_SAMPLE_BLOCK_PAIRS = 1 << 15


@dataclass(frozen=True)
class SbmParams:
    """Community sizes and link probabilities of a two-community SBM.

    Agents 0..n1-1 carry label 1, agents n1..n1+n2-1 carry label 2. The
    link probability matrix is [[l11, l12], [l12, l22]].
    """

    n1: int
    n2: int
    l11: float
    l12: float
    l22: float

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("community sizes must be positive")
        if self.n1 + self.n2 < 2:
            raise ValueError("need at least two agents")
        for p in (self.l11, self.l12, self.l22):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"link probability {p} outside [0, 1]")

    @classmethod
    def ssbm(cls, n, l_same, l_diff):
        """Symmetric SBM: two equal communities, intra prob l_same, inter l_diff."""
        if n % 2 != 0:
            raise ValueError("SSBM needs an even number of agents")
        return cls(n // 2, n // 2, l_same, l12=l_diff, l22=l_same)

    @classmethod
    def from_matrix(cls, n1, n2, ell):
        ell = np.asarray(ell, dtype=float)
        if ell.shape != (2, 2):
            raise ValueError("ell must be 2x2")
        if ell[0, 1] != ell[1, 0]:
            raise ValueError("ell must be symmetric")
        return cls(n1, n2, ell[0, 0], ell[0, 1], ell[1, 1])

    @property
    def n(self):
        return self.n1 + self.n2

    @property
    def ell(self):
        return np.array([[self.l11, self.l12], [self.l12, self.l22]])

    def is_symmetric(self):
        return self.n1 == self.n2 and self.l11 == self.l22

    def labels(self):
        return np.repeat(np.array([1, 2]), [self.n1, self.n2])


class CsrAdjacency(sparse.csr_array):
    """CSR array that, like an ndarray, reports its stored bytes as `nbytes`."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass
class Graph:
    """Sampled undirected graph with ground-truth community labels.

    `adjacency` is stored as a CSR scipy.sparse array (use `.toarray()` for a
    dense copy); a dense or sparse matrix is accepted and converted.
    """

    adjacency: CsrAdjacency
    labels: np.ndarray

    def __post_init__(self):
        a = CsrAdjacency(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        a.sum_duplicates()
        a.eliminate_zeros()
        if (a != a.T).nnz:
            raise ValueError("adjacency must be symmetric")
        if np.any(a.diagonal() != 0.0):
            raise ValueError("no self-loops allowed")
        if not np.all(a.data == 1.0):
            raise ValueError("adjacency must be binary")
        self.adjacency = a
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.shape != (a.shape[0],):
            raise ValueError("labels length must match adjacency size")

    @property
    def n(self):
        return self.adjacency.shape[0]

    @property
    def n1(self):
        return int(np.sum(self.labels == 1))

    @property
    def n2(self):
        return int(np.sum(self.labels == 2))


def _from_upper(n, rows, cols, labels) -> Graph:
    """Graph from the upper-triangle edges (rows[k] < cols[k])."""
    upper = sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    return Graph(adjacency=upper + upper.T, labels=labels)


def sample_sbm(params: SbmParams, seed: int) -> Graph:
    """Sample a graph from the SBM, deterministically for a fixed seed.

    Each unordered pair {i, j} (i < j, iterated in lexicographic order) is
    drawn from one counter-based Philox stream keyed by the seed, so the
    sample is bit-reproducible regardless of scheduling. The stream is drawn
    in blocks of whole rows of about _SAMPLE_BLOCK_PAIRS pairs, so no n x n
    buffer is built.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n, n1 = params.n, params.n1
    labels = params.labels()
    agents = np.arange(n)
    # row i's pairs are a run inside community 1 (j < n1), then a run of
    # j >= max(i + 1, n1), each with one link probability
    first = np.maximum(n1 - 1 - agents, 0)
    run_lengths = np.column_stack([first, n - 1 - agents - first]).ravel()
    run_probs = params.ell[labels - 1].ravel()
    offsets = np.concatenate([[0], np.cumsum(n - 1 - agents)])  # row i starts at offsets[i]
    hits, start = [], 0
    while start < n - 1:
        end = np.searchsorted(offsets, offsets[start] + _SAMPLE_BLOCK_PAIRS, side="right") - 1
        end = max(int(end), start + 1)
        probs = np.repeat(run_probs[2 * start:2 * end], run_lengths[2 * start:2 * end])
        hits.append(np.flatnonzero(rng.random(probs.size) < probs) + offsets[start])
        start = end
    hits = np.concatenate(hits)
    rows = np.searchsorted(offsets, hits, side="right") - 1
    return _from_upper(n, rows, hits - offsets[rows] + rows + 1, labels)


def max_expected_degree(params: SbmParams) -> float:
    """Largest expected degree over the two communities (the zero diagonal
    makes the own-community term l_cc * (n_c - 1))."""
    d1 = params.l11 * (params.n1 - 1) + params.l12 * params.n2
    d2 = params.l22 * (params.n2 - 1) + params.l12 * params.n1
    return max(d1, d2)


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single connected component."""
    return connected_components(graph.adjacency, directed=False, return_labels=False) == 1


@dataclass(frozen=True)
class AssumptionReport:
    """Advisory report on the finite-n surrogates of the asymptotic assumptions."""

    connectivity_ok: bool
    ssbm_condition_applies: bool
    ssbm_condition_ok: bool
    connectivity_threshold: float


def check_assumptions(params: SbmParams, c_conn: float = 1.0, c_dis: float = 1.0) -> AssumptionReport:
    """Check the link-probability growth conditions with surrogate constants.

    The conditions are asymptotic; at finite n these checks are heuristic and
    purely advisory. The extra condition only applies to an assortative SSBM.
    """
    if c_conn <= 0 or c_dis <= 0:
        raise ValueError("surrogate constants must be positive")
    n = params.n
    threshold = c_conn * math.log(n) / n
    connectivity_ok = all(p >= threshold for p in (params.l11, params.l12, params.l22))
    applies = params.is_symmetric() and params.l11 > params.l12
    if applies:
        ssbm_ok = params.l12 >= c_dis * math.sqrt(params.l11 * math.log(n))
    else:
        ssbm_ok = True
    return AssumptionReport(connectivity_ok, applies, ssbm_ok, threshold)


def write_edge_list(graph: Graph, path) -> None:
    """Write `# n=<n> n1=<n1>` then one `i j` line per edge, 0-indexed, i < j."""
    rows, cols = graph.adjacency.nonzero()
    upper = rows < cols
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.n} n1={graph.n1}\n")
        for i, j in zip(rows[upper], cols[upper]):
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n="):
            raise ValueError("missing edge-list header")
        fields = dict(part.split("=") for part in header[2:].split())
        n, n1 = int(fields["n"]), int(fields["n1"])
        edges = set()
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            i, j = (int(tok) for tok in line.split())
            if not 0 <= i < j < n:
                raise ValueError(f"bad edge {i} {j}")
            edges.add((i, j))
    # a set, not a list: COO assembly would sum a repeated line to weight 2
    pairs = np.array(sorted(edges), dtype=int).reshape(-1, 2)
    labels = np.repeat(np.array([1, 2]), [n1, n - n1])
    return _from_upper(n, pairs[:, 0], pairs[:, 1], labels)
