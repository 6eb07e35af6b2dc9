"""Two-community stochastic block model: seeded sampling, the maximum expected
degree, connectivity and assumption checks, edge-list IO."""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from .spectral import extreme_eigpairs

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
        for p in (self.l11, self.l12, self.l22):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"link probability {p} outside [0, 1]")

    @classmethod
    def ssbm(cls, n, l_same, l_diff):
        """Symmetric SBM: two equal communities, intra prob l_same, inter l_diff."""
        if n % 2 != 0:
            raise ValueError("SSBM needs an even number of agents")
        return cls(n // 2, n // 2, l_same, l12=l_diff, l22=l_same)

    @property
    def n(self):
        return self.n1 + self.n2

    @property
    def ell(self):
        return np.array([[self.l11, self.l12], [self.l12, self.l22]])

    def is_symmetric(self):
        return self.n1 == self.n2 and self.l11 == self.l22

    def labels(self):
        return block_labels(self.n, self.n1)


class CsrAdjacency(sparse.csr_array):
    """CSR array that, like an ndarray, reports its stored bytes as `nbytes`."""

    @property
    def nbytes(self):
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes


@dataclass
class Graph:
    """Sampled undirected graph with ground-truth community labels.

    `adjacency` is stored as a CSR scipy.sparse array (use `.toarray()` for a
    dense copy); a dense or sparse matrix is accepted and converted. It is
    not to be modified afterwards: `extreme_eigenpair` caches its results.
    """

    adjacency: CsrAdjacency
    labels: np.ndarray
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        a = CsrAdjacency(self.adjacency, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency must be square")
        a.sum_duplicates()
        a.eliminate_zeros()
        # canonical CSR is unique, and A's CSC arrays (sorted by conversion) are
        # A^T's CSR arrays, so A = A^T exactly when the two sets of arrays match
        t = a.tocsc()
        if not (np.array_equal(a.indptr, t.indptr) and np.array_equal(a.indices, t.indices)
                and np.array_equal(a.data, t.data)):
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

    def extreme_eigenpair(self, which: str):
        """(value, unit vector) of the adjacency's extreme eigenpair on the
        `which` side ("LA" largest, "SA" smallest, "LM" largest magnitude).

        The first call for a `which` runs spectral.extreme_eigpairs on the
        CSR adjacency (checked symmetric on construction); later calls return
        the same pair. The vector is read-only, as every caller shares it.
        """
        pair = self._eigenpairs.get(which)
        if pair is None:
            value, vector = extreme_eigpairs(self.adjacency, which)
            vector.flags.writeable = False
            pair = self._eigenpairs[which] = (value, vector)
        return pair


def _from_upper(n, rows, cols, labels) -> Graph:
    """Graph from the int32 upper-triangle edges (rows[k] < cols[k]).

    The mirrored entries go first. COO to CSR is a stable sort by row, so
    when each row's upper edges and each column's upper edges come in
    increasing order (as from a lexicographic edge list), every CSR row comes
    out sorted and scipy skips its own sort. Given int32 indices, scipy keeps
    int32 `indices` and `indptr` unless nnz or n needs int64.
    """
    adjacency = CsrAdjacency((np.ones(2 * len(rows)), (np.concatenate([cols, rows]),
                                                       np.concatenate([rows, cols]))),
                             shape=(n, n))
    return Graph(adjacency, labels)


# Pairs per position draw. numpy's choice without replacement either hashes
# its picks or, above a twentieth of its population, tail-shuffles an arange
# of the whole population; bounded runs keep both and the sort cache-sized.
_SAMPLE_BLOCK_PAIRS = 1 << 20


def _edge_positions(rng, pairs, p):
    """Sorted edge positions among `pairs` pairs linked with probability p:
    for each run of at most _SAMPLE_BLOCK_PAIRS consecutive pairs, a
    Binomial(run, p) count, then that many distinct positions in the run
    uniformly."""
    parts = []
    for start in range(0, pairs, _SAMPLE_BLOCK_PAIRS):
        run = min(_SAMPLE_BLOCK_PAIRS, pairs - start)
        part = rng.choice(run, rng.binomial(run, p), replace=False, shuffle=False)
        part.sort()
        part += start
        parts.append(part)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _triangle_pairs(rng, m, p, first):
    """Edges of a G(m, p) block on agents first..first+m-1, as int32 (rows,
    cols) with rows < cols, its pairs numbered in lexicographic order."""
    positions = _edge_positions(rng, m * (m - 1) // 2, p)
    row_lengths = np.arange(m - 1, 0, -1)
    offsets = np.cumsum(row_lengths) - row_lengths  # row i starts at offsets[i]
    rows = np.searchsorted(offsets, positions, side="right") - 1
    cols = (positions - offsets[rows] + rows + 1 + first).astype(np.int32)
    return (rows + first).astype(np.int32), cols


def _cross_pairs(rng, n1, n2, p):
    """Edges between agents 0..n1-1 and n1..n1+n2-1, as int32 (rows, cols),
    the n1*n2 pairs numbered row by row."""
    rows, cols = np.divmod(_edge_positions(rng, n1 * n2, p), n2)
    return rows.astype(np.int32), (cols + n1).astype(np.int32)


def sample_sbm(params: SbmParams, seed: int) -> Graph:
    """Sample a graph from the SBM, deterministically for a fixed seed.

    One counter-based Philox stream keyed by the seed is drawn in a fixed
    order: for the block pairs 11, 12 and 22 in turn, and within each block
    for runs of at most _SAMPLE_BLOCK_PAIRS pairs in lexicographic order, the
    edge count from Binomial(pairs in the run, l), then that many distinct
    pair positions uniformly without replacement. Conditioned on its count a
    uniform subset of pairs is exactly i.i.d. Bernoulli(l) per pair, so this
    is the SBM law; work and memory are O(n + edges), not O(n^2). The sample is
    bit-reproducible regardless of scheduling. This is sampler stream v2
    (README, Conventions).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n1, n2 = params.n1, params.n2
    blocks = [_triangle_pairs(rng, n1, params.l11, 0), _cross_pairs(rng, n1, n2, params.l12),
              _triangle_pairs(rng, n2, params.l22, n1)]
    rows, cols = (np.concatenate(side) for side in zip(*blocks))
    del blocks  # 8 bytes per edge that would stay alive through the CSR build
    return _from_upper(params.n, rows, cols, params.labels())


def max_expected_degree(params: SbmParams) -> float:
    """Largest expected degree over the two communities (the zero diagonal
    makes the own-community term l_cc * (n_c - 1))."""
    d1 = params.l11 * (params.n1 - 1) + params.l12 * params.n2
    d2 = params.l22 * (params.n2 - 1) + params.l12 * params.n1
    return max(d1, d2)


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single connected component (False for n = 0).

    One breadth-first search from agent 0: Graph has checked the adjacency
    symmetric, so the agents it reaches are agent 0's component."""
    return graph.n > 0 and breadth_first_order(
        graph.adjacency, 0, directed=True, return_predecessors=False).size == graph.n


def check_assumptions(params: SbmParams) -> bool:
    """True when the link probabilities meet the growth conditions with unit
    surrogate constants: every l >= log(n)/n, and for an assortative SSBM
    also l12 >= sqrt(l11*log(n)).

    The conditions are asymptotic; at finite n these checks are heuristic and
    purely advisory.
    """
    log_n = math.log(params.n)
    if any(p < log_n / params.n for p in (params.l11, params.l12, params.l22)):
        return False
    assortative_ssbm = params.is_symmetric() and params.l11 > params.l12
    return not assortative_ssbm or params.l12 >= math.sqrt(params.l11 * log_n)


def block_labels(n: int, n1: int) -> np.ndarray:
    """Label 1 for agents 0..n1-1 and 2 for the rest of the n. Raises
    ValueError when n1 is outside 0..n."""
    if not 0 <= n1 <= n:
        raise ValueError(f"n1={n1} is outside 0..n for n={n}")
    return np.repeat(np.array([1, 2]), [n1, n - n1])


def write_edge_list(graph: Graph, path) -> None:
    """Write `# n=<n> n1=<n1>` then one `i j` line per edge, 0-indexed, i < j."""
    rows, cols = graph.adjacency.nonzero()
    upper = rows < cols
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={graph.n} n1={graph.n1}\n")
        for i, j in zip(rows[upper], cols[upper]):
            fh.write(f"{i} {j}\n")


def read_edge_list(path) -> Graph:
    """Read write_edge_list's format. A malformed line is a ValueError naming
    `path:line` and, in the header, the field."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# n=") or " n1=" not in header:
            raise ValueError(f"{path}:1: missing edge-list header '# n=<n> n1=<n1>'")
        fields = {}
        for part in header[2:].split():
            key, _, value = part.partition("=")
            try:
                fields[key] = int(value)
            except ValueError:
                raise ValueError(f"{path}:1: header field {part!r} is not key=<integer>") from None
        n = fields["n"]
        labels = block_labels(n, fields["n1"])
        edges = set()
        for lineno, line in enumerate(fh, 2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = map(int, line.split())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {line!r} is not an edge 'i j'") from None
            if not 0 <= i < j < n:
                raise ValueError(f"{path}:{lineno}: bad edge {i} {j}")
            edges.add((i, j))
    # a set, not a list: COO assembly would sum a repeated line to weight 2
    pairs = np.array(sorted(edges), dtype=np.int32).reshape(-1, 2)
    return _from_upper(n, pairs[:, 0], pairs[:, 1], labels)
