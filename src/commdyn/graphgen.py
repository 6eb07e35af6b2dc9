"""Two-community stochastic block model: seeded sampling, the maximum expected
degree, connectivity and assumption checks, edge-list IO."""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .spectral import LOOSE_EIG_TOL, extreme_eigpairs

# The default Lanczos tol (spectral.extreme_eigpairs) of
# Graph.extreme_eigenpair, set at the accuracy the diagnostics need:
# alignment_check and davis_kahan_check. Against tol = 0 it saves up to one
# restart cycle (10 Lanczos steps) per graph and side.
_EIGENPAIR_TOL = 1e-12


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
        if not np.all(a.data == 1.0):
            raise ValueError("adjacency must be binary")
        # canonical CSR is unique, and a CSC's arrays (sorted by conversion) are
        # its transpose's CSR arrays; A being binary, A = A^T exactly when its
        # pattern matches the pattern's transpose, which an int8 copy sharing
        # A's index arrays gives at 10 bytes per stored entry
        pattern = sparse.csr_array((np.ones(a.nnz, dtype=np.int8), a.indices, a.indptr),
                                   shape=a.shape).tocsc()
        if not (np.array_equal(a.indptr, pattern.indptr)
                and np.array_equal(a.indices, pattern.indices)):
            raise ValueError("adjacency must be symmetric")
        if np.any(a.diagonal() != 0.0):
            raise ValueError("no self-loops allowed")
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

    def extreme_eigenpair(self, which: str, tol: float = _EIGENPAIR_TOL):
        """(value, unit vector) of the adjacency's extreme eigenpair on the
        `which` side ("LA" largest, "SA" smallest, "LM" largest magnitude),
        converged to the Lanczos tol `tol`.

        The first call for a (which, tol) runs spectral.extreme_eigpairs on
        the CSR adjacency (checked symmetric on construction); later calls
        return the same pair. A tol below spectral.LOOSE_EIG_TOL starts the
        Lanczos from the vector of the pair at LOOSE_EIG_TOL, which is
        computed first if it is not cached, so each pair depends only on
        the graph, not on which tol was asked for first. The vector is
        read-only, as every caller shares it.
        """
        pair = self._eigenpairs.get((which, tol))
        if pair is None:
            v0 = self.extreme_eigenpair(which, LOOSE_EIG_TOL)[1] if tol < LOOSE_EIG_TOL else None
            value, vector = extreme_eigpairs(self.adjacency, which, tol=tol, v0=v0)
            vector.flags.writeable = False
            pair = self._eigenpairs[which, tol] = (value, vector)
        return pair


def _from_upper(n, blocks, labels) -> Graph:
    """Graph from a list of int32 upper-triangle edge blocks (rows, cols),
    rows[k] < cols[k]. The list is emptied once the mirrored index arrays
    exist, so the caller's upper copy is not alive through the CSR build.

    The mirrored entries go first. COO to CSR is a stable sort by row, so
    when each row's upper edges and each column's upper edges come in
    increasing order (as from a lexicographic edge list), every CSR row comes
    out sorted and scipy skips its own sort. Given int32 indices, scipy keeps
    int32 `indices` and `indptr` unless nnz or n needs int64. The ones are
    int8; Graph makes the float64 data once.
    """
    rows = np.concatenate([c for _, c in blocks] + [r for r, _ in blocks])
    cols = np.concatenate([r for r, _ in blocks] + [c for _, c in blocks])
    blocks.clear()
    adjacency = CsrAdjacency((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n, n))
    del rows, cols  # the CSR has its own index arrays
    return Graph(adjacency, labels)


_INT64_MAX = 2**63 - 1


def _gap_batch(remaining, p):
    """Geometric gaps drawn at once when `remaining` pairs follow the last
    edge: the expected edges e = remaining * p plus four standard deviations
    and 16, so a second batch is rare; at most `remaining`, as no more edges
    fit, and few enough that `remaining + 1` times the count fits int64."""
    e = remaining * p
    return min(int(e + 4.0 * math.sqrt(e)) + 16, remaining, _INT64_MAX // (remaining + 1))


def _edge_positions(rng, pairs, p):
    """Sorted positions of the edges among `pairs` pairs, each linked with
    probability p (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).

    The gaps between successive edges, the first counted from position -1,
    are i.i.d. Geometric(p). They are drawn in batches of _gap_batch(R, p)
    for the R pairs after the last edge so far; a batch's draws past the last
    pair are dropped, and the block ends there. Gaps are clipped to R + 1
    before their running sum, which keeps it inside int64 and changes no
    position that is kept."""
    parts = []
    last = -1
    while p > 0.0 and last < pairs - 1:
        remaining = pairs - 1 - last
        gaps = rng.geometric(p, _gap_batch(remaining, p))
        np.minimum(gaps, remaining + 1, out=gaps)
        ahead = np.cumsum(gaps, out=gaps)  # positions after the last edge
        inside = np.searchsorted(ahead, remaining, side="right")
        part = ahead[:inside]
        part += last
        parts.append(part)
        if inside < len(ahead):
            break
        last = int(part[-1])
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
    order: for the block pairs 11, 12 and 22 in turn, with each block's pairs
    numbered in lexicographic order, the Geometric(l) gaps between its
    successive edges (_edge_positions). Geometric gaps are exactly i.i.d.
    Bernoulli(l) per pair, so this is the SBM law; work and memory are
    O(n + edges), not O(n^2), with no scratch per pair. The sample is
    bit-reproducible regardless of scheduling. This is sampler stream v3
    (README, Conventions).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    n1, n2 = params.n1, params.n2
    blocks = [_triangle_pairs(rng, n1, params.l11, 0), _cross_pairs(rng, n1, n2, params.l12),
              _triangle_pairs(rng, n2, params.l22, n1)]
    return _from_upper(params.n, blocks, params.labels())


def max_expected_degree(params: SbmParams) -> float:
    """Largest expected degree over the two communities (the zero diagonal
    makes the own-community term l_cc * (n_c - 1))."""
    d1 = params.l11 * (params.n1 - 1) + params.l12 * params.n2
    d2 = params.l22 * (params.n2 - 1) + params.l12 * params.n1
    return max(d1, d2)


def is_connected(graph: Graph) -> bool:
    """True when the graph has a single connected component (False for n = 0).

    A breadth-first search from agent 0, one level at a time: the next level
    is the unreached agents that one CSR product with the current level's
    indicator reaches. Graph has checked the adjacency symmetric, so the
    agents reached are agent 0's component. Each level costs one pass over
    the edges, so the search costs the graph's diameter (a few levels for
    the SBM graphs) such passes."""
    if graph.n == 0:
        return False
    reached = np.zeros(graph.n, dtype=bool)
    reached[0] = True
    level = reached
    while True:
        level = (graph.adjacency @ level.astype(float) > 0.0) & ~reached
        if not level.any():
            return bool(reached.all())
        reached |= level


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
    with open(path, "wb") as fh:
        fh.write(f"# n={graph.n} n1={graph.n1}\n".encode())
        fh.write(_edge_lines(rows[upper], cols[upper]))


def _edge_lines(rows, cols):
    """The ASCII lines `i j` of the edges as one uint8 array, formatted by
    array operations: each index right-aligned in a fixed-width grid, its
    unused leading places left 0 and dropped at the end."""
    values = np.column_stack([rows, cols])
    width = len(str(values.max(initial=0)))
    grid = np.zeros(values.shape + (width + 1,), dtype=np.uint8)
    grid[:, :, width] = (ord(" "), ord("\n"))
    for place in range(width):
        power = 10 ** place
        # a place is shown from the value's first digit on; 0 shows its ones
        shown = (values >= power) | (place == 0)
        grid[:, :, width - 1 - place] = np.where(shown, values // power % 10 + ord("0"), 0)
    return grid[grid != 0]


def read_edge_list(path) -> Graph:
    """Read write_edge_list's format. Blank lines are skipped, `#` starts a
    comment and a repeated edge counts once. A malformed line is a
    ValueError naming `path:line` and, in the header, the field.

    numpy parses the edges in bulk; only when that fails or an edge is out
    of range does a line-by-line scan run, to name the line."""
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
        try:
            with warnings.catch_warnings():
                # an edgeless file warns, and numpy < 2 reads '1.0' as an int
                # with a DeprecationWarning: both go to the scan
                warnings.simplefilter("error")
                pairs = np.loadtxt(fh, dtype=np.int64, comments="#", ndmin=2)
        except (ValueError, OverflowError, Warning):
            pairs = None
        if pairs is None or pairs.shape[1] != 2 or not np.all(
                (0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < n)):
            fh.seek(0)
            fh.readline()
            pairs = _scan_edges(fh, n, path)
    # sorted unique keys i*n + j: COO assembly would sum a repeated line to
    # weight 2. A sort, as np.unique's hash table (numpy 2.4) took 0.88 s
    # on 875,000 keys that this sorts and masks in 0.01 s.
    keys = pairs[:, 0] * n
    keys += pairs[:, 1]
    del pairs
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    upper = [((keys // n).astype(np.int32), (keys % n).astype(np.int32))]
    del keys
    return _from_upper(n, upper, labels)


def _scan_edges(fh, n, path):
    """The edges of the lines left in `fh` (line 2 on) as int64 (i, j) rows,
    read one line at a time; a malformed or out-of-range edge is a
    ValueError naming its line."""
    edges = []
    for lineno, line in enumerate(fh, 2):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            i, j = map(int, line.split())
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {line!r} is not an edge 'i j'") from None
        if not 0 <= i < j < n:
            raise ValueError(f"{path}:{lineno}: bad edge {i} {j}")
        edges.append((i, j))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)
