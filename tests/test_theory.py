import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import aslinearoperator

from commdyn import dynamics, graphgen, spectral, theory
from commdyn.dynamics import Equilibrium, ModelParams, integrate_to_equilibrium
from commdyn.errors import NeutralState
from commdyn.graphgen import Graph, SbmParams, max_expected_degree, sample_sbm
from commdyn.spectral import extreme_eigpairs, sym_eig
from commdyn.theory import (_expected_top, alignment_check, concentration_ratio,
                            davis_kahan_check, expected_spectrum)
from oracles import (bifurcation_threshold, c_of_u, connected_sample, corrected_expected_matrix,
                     dense_davis_kahan, dense_expected_top, expected_adjacency)


# ---------------------------------------------------------------------------
# closed-form expected spectrum

def test_expected_spectrum_ssbm_values():
    spec = expected_spectrum(SbmParams.ssbm(100, 0.3, 0.05))
    assert spec.lambda_max_bar == (0.3 + 0.05) * 100 / 2
    assert spec.lambda_minus_bar == (0.3 - 0.05) * 100 / 2
    assert abs(spec.lambda_max_bar - 17.5) < 1e-12
    assert abs(spec.lambda_minus_bar - 12.5) < 1e-12


def test_expected_spectrum_ssbm_flat_eigenvector():
    for n in (10, 100, 400):
        spec = expected_spectrum(SbmParams.ssbm(n, 0.4, 0.2))
        assert spec.w1 == spec.w2 == 1.0 / math.sqrt(n)


def test_expected_spectrum_decoupled_blocks():
    spec = expected_spectrum(SbmParams(10, 4, 0.5, 0.0, 0.3))
    assert spec.lambda_max_bar == pytest.approx(max(0.5 * 10, 0.3 * 4))
    assert spec.w2 == 0.0 and spec.w1 == pytest.approx(1 / math.sqrt(10))


def test_expected_spectrum_matches_dense_eigendecomposition():
    p = SbmParams(500, 25, 0.05, 0.1, 0.5)
    spec = expected_spectrum(p)
    values, vectors = sym_eig(corrected_expected_matrix(p))
    assert abs(values[-1] - spec.lambda_max_bar) < 1e-10
    assert abs(values[-2] - spec.lambda_minus_bar) < 1e-10
    blocks = np.repeat([spec.w1, spec.w2], [p.n1, p.n2])
    w = vectors[:, -1]
    assert min(np.abs(w - blocks).max(), np.abs(w + blocks).max()) < 1e-10


def test_expected_spectrum_random_draws_property():
    rng = np.random.Generator(np.random.Philox(41))
    for _ in range(100):
        n1 = int(rng.integers(1, 30))
        n2 = int(rng.integers(1, 30))
        if n1 + n2 < 2:
            continue
        p = SbmParams(n1, n2, float(rng.random()), float(rng.random()), float(rng.random()))
        spec = expected_spectrum(p)
        values, _ = sym_eig(corrected_expected_matrix(p))
        scale = max(1.0, abs(values[-1]))
        assert abs(values[-1] - spec.lambda_max_bar) < 1e-10 * scale
        candidates = [values[0]] + ([values[-2]] if values.size >= 2 else [])
        assert min(abs(c - spec.lambda_minus_bar) for c in candidates) < 1e-10 * scale
        norm = p.n1 * spec.w1 ** 2 + p.n2 * spec.w2 ** 2
        assert abs(norm - 1.0) < 1e-12


def test_disassortative_minimum_eigenvector_block_signs():
    p = SbmParams.ssbm(20, 0.1, 0.5)
    _, vectors = sym_eig(corrected_expected_matrix(p))
    signed = np.repeat([1.0, -1.0], [10, 10]) / math.sqrt(20)
    v = vectors[:, 0]
    assert min(np.abs(v - signed).max(), np.abs(v + signed).max()) < 1e-10


def test_leader_follower_centrality_margin_grows():
    # the centrality gap widens as the small community shrinks, within the
    # leader-follower regime l22*n2 ~ l11*n1 (holding every l fixed instead
    # would dilute the small community and shrink the gap)
    points = [(50, 0.25), (25, 0.5), (10, 1.0)]
    ratios = []
    for n2, l22 in points:
        spec = expected_spectrum(SbmParams(500, n2, 0.05, 0.1, l22))
        ratios.append(spec.w2 / spec.w1)
    assert all(r > 1 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2]


# ---------------------------------------------------------------------------
# perturbation and concentration diagnostics

def test_davis_kahan_deterministic_boundary():
    # probability-0/1 entries: the sample equals its expectation exactly
    p = SbmParams(4, 2, 1.0, 0.0, 1.0)
    g = sample_sbm(p, seed=1)
    report = davis_kahan_check(g, p)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.holds
    assert report.ratio == 0.0


def test_davis_kahan_holds_on_samples():
    p = SbmParams.ssbm(120, 0.3, 0.05)
    for seed in range(5):
        report = davis_kahan_check(sample_sbm(p, seed), p)
        assert report.holds
        assert 0.0 <= report.ratio <= 1.0


def test_davis_kahan_zero_gap():
    # two identical decoupled blocks make the top eigenvalue degenerate
    p = SbmParams(3, 3, 1.0, 0.0, 1.0)
    g = sample_sbm(p, seed=1)
    with pytest.raises(ValueError, match="degenerate top eigenvalue"):
        davis_kahan_check(g, p)


def _davis_kahan_cases():
    """SBMs with n <= 2000: a single-agent block on either side, decoupled
    blocks of unequal size, assortative and disassortative SSBMs, the
    unequal-size preset, complete blocks, and random draws."""
    cases = [SbmParams(1, 7, 0.3, 0.2, 0.6), SbmParams(9, 1, 0.3, 0.2, 0.6),
             SbmParams(1, 1, 0.0, 0.7, 0.0), SbmParams(1, 5, 0.0, 0.0, 0.3),
             SbmParams(10, 4, 0.5, 0.0, 0.3), SbmParams(4, 2, 1.0, 0.0, 1.0),
             SbmParams(2, 30, 0.9, 0.0, 0.01), SbmParams(20, 10, 1.0, 1.0, 1.0),
             SbmParams.ssbm(120, 0.3, 0.05), SbmParams.ssbm(1000, 0.005, 0.03),
             SbmParams.ssbm(2000, 0.3, 0.05), SbmParams(500, 25, 0.05, 0.1, 0.5)]
    rng = np.random.Generator(np.random.Philox(43))
    for _ in range(60):
        cases.append(SbmParams(int(rng.integers(1, 60)), int(rng.integers(1, 60)),
                               float(rng.random()), float(rng.random()), float(rng.random())))
    return cases


def test_davis_kahan_closed_form_matches_dense_oracle():
    for p in _davis_kahan_cases():
        delta, w_bar = _expected_top(p)
        dense_delta, dense_w = dense_expected_top(p)
        assert abs(delta - dense_delta) <= 1e-12 * dense_delta
        assert min(np.abs(w_bar - dense_w).max(), np.abs(w_bar + dense_w).max()) <= 1e-12
        assert np.linalg.norm(w_bar) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("p", [SbmParams(1, 7, 0.3, 0.2, 0.6), SbmParams(10, 4, 0.5, 0.0, 0.3),
                               SbmParams.ssbm(120, 0.3, 0.05), SbmParams.ssbm(400, 0.005, 0.03),
                               SbmParams(300, 15, 0.05, 0.1, 0.5)])
def test_davis_kahan_report_matches_dense_oracle(p):
    for seed in range(3):
        g = sample_sbm(p, seed)
        report = davis_kahan_check(g, p)
        lhs, rhs, delta = dense_davis_kahan(g, p)
        assert report.delta == pytest.approx(delta, rel=1e-12)
        assert report.lhs == pytest.approx(lhs, rel=1e-9, abs=1e-12)
        assert report.rhs == pytest.approx(rhs, rel=1e-9)
        assert report.holds == (lhs <= rhs)


@pytest.mark.parametrize("p", [SbmParams(4, 3, 0.0, 0.0, 0.0),
                               SbmParams(1, 1, 0.0, 0.0, 0.0), SbmParams(1, 5, 0.0, 0.0, 0.0),
                               SbmParams(6, 6, 0.2, 0.0, 0.2), SbmParams(3, 5, 0.5, 0.0, 0.25),
                               SbmParams(5, 9, 0.5, 0.0, 0.25)])
def test_davis_kahan_zero_gap_where_dense_gap_vanishes(p):
    # wherever the dense eigendecomposition finds a zero gap, so does the
    # closed form; on tied decoupled blocks of unequal size the closed gap is
    # exactly 0 and the dense one is rounding noise
    g = sample_sbm(p, seed=1)
    with pytest.raises(ValueError, match="degenerate top eigenvalue"):
        davis_kahan_check(g, p)
    try:
        dense_delta, _ = dense_expected_top(p)
    except ValueError:
        return
    assert dense_delta <= 1e-14 * max(1.0, p.n)


def test_davis_kahan_builds_no_dense_matrix():
    n = 2000
    p = SbmParams.ssbm(n, 0.005, 0.03)
    g = sample_sbm(p, seed=3)
    tracemalloc.start()
    try:
        report = davis_kahan_check(g, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds
    assert peak < n * n * 8 / 4


def test_alignment_check_copies_no_adjacency():
    p = SbmParams.ssbm(2000, 0.005, 0.03)
    g = sample_sbm(p, seed=3)
    eq = Equilibrium(np.repeat([0.5, -0.5], 1000), 0.0, True, 0.0)
    model = ModelParams(1.0, 0.5, 1.0, -1.0 / max_expected_degree(p))
    alignment_check(eq, g, model)  # warm up: lazy imports and caches
    fresh = Graph(g.adjacency, g.labels)  # its eigenpair cache is empty
    tracemalloc.start()
    try:
        alignment_check(eq, fresh, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.adjacency.nbytes


def test_spectral_callers_share_one_eigensolve_per_which(monkeypatch):
    """_branch_seed gets the bits of a direct extreme_eigpairs call on A at
    spectral.LOOSE_EIG_TOL; alignment_check, c_of_u and davis_kahan_check
    get those of a call at the graph's tolerance started from that loose
    vector. The Lanczos runs once per graph, `which` and tol (plus once on
    A - E{A} in davis_kahan_check)."""
    p = SbmParams.ssbm(200, 0.1, 0.03)
    g = sample_sbm(p, seed=4)
    a = aslinearoperator(g.adjacency)
    loose = {which: extreme_eigpairs(a, which, tol=spectral.LOOSE_EIG_TOL)
             for which in ("LA", "SA")}
    direct = {which: extreme_eigpairs(a, which, tol=graphgen._EIGENPAIR_TOL,
                                      v0=loose[which][1])
              for which in ("LA", "SA")}
    solves = []
    lanczos = spectral._lanczos
    monkeypatch.setattr(spectral, "_lanczos",
                        lambda matrix, which, tol, v0: solves.append((which, tol))
                        or lanczos(matrix, which, tol, v0))
    eq = Equilibrium(np.linspace(-1.0, 1.0, g.n), 0.0, True, 0.0)
    for sign, which in ((1, "LA"), (-1, "SA")):
        model = ModelParams(1.0, 2.0, 1.0, sign / max_expected_degree(p))
        _, w = dynamics._branch_seed(model, g)
        assert np.array_equal(w, loose[which][1])
        value, _ = g.extreme_eigenpair(which)
        assert value == direct[which][0]
        w = direct[which][1]
        assert alignment_check(eq, g, model) == float(abs(eq.state @ w)
                                                      / np.linalg.norm(eq.state))
    w = direct["LA"][1]
    assert c_of_u(eq, g) == float(eq.state @ w)
    _, w_bar = _expected_top(p)
    report = davis_kahan_check(g, p)
    assert report.lhs == min(float(np.linalg.norm(w - w_bar)), float(np.linalg.norm(w + w_bar)))
    loose_tol, tight_tol = spectral.LOOSE_EIG_TOL, graphgen._EIGENPAIR_TOL
    assert sorted(solves) == [("LA", tight_tol), ("LA", loose_tol),
                              ("LM", theory._DEVIATION_EIG_TOL),
                              ("SA", tight_tol), ("SA", loose_tol)]


def test_concentration_ratio_edgeless():
    p = SbmParams.ssbm(10, 0.0, 0.0)
    g = sample_sbm(p, seed=0)
    assert concentration_ratio(g, p) == 0.0


@pytest.mark.parametrize("n", [24, 400])
@pytest.mark.parametrize("ls, ld", [(1.0, 1.0), (0.0, 1.0)], ids=["complete", "bipartite"])
def test_deviation_is_zero_when_the_graph_is_its_expectation(n, ls, ld, monkeypatch):
    """With every link probability 0 or 1 the sample is E{A} itself: the
    deviation is exactly 0 with no eigensolve, at every n (above 20 agents
    the Lanczos would return rounding), so both diagnostics' zero cases
    fire."""
    p = SbmParams.ssbm(n, ls, ld)
    g = sample_sbm(p, seed=1)
    assert np.array_equal(g.adjacency.toarray(), expected_adjacency(p))
    monkeypatch.setattr(theory, "extreme_eigpairs", lambda *args, **kwargs: pytest.fail(
        "an eigensolve ran"))
    assert theory._deviation_norm(g, p) == 0.0
    assert concentration_ratio(g, p) == 0.0
    report = davis_kahan_check(g, p)
    assert report.lhs == report.rhs == report.ratio == 0.0 and report.holds


def test_concentration_ratio_community_relabel_invariant():
    p = SbmParams.ssbm(40, 0.4, 0.1)
    g = sample_sbm(p, seed=2)
    flip = np.concatenate([np.arange(20, 40), np.arange(20)])
    flipped = Graph(g.adjacency[np.ix_(flip, flip)], g.labels)
    assert concentration_ratio(g, p) == pytest.approx(concentration_ratio(flipped, p), abs=1e-12)


def test_concentration_ratio_median_calibration():
    p = SbmParams.ssbm(300, 0.3, 0.05)
    ratios = [concentration_ratio(sample_sbm(p, seed), p) for seed in range(100)]
    assert np.median(ratios) <= 3.0


GRAPH_FAMILIES = {
    "ssbm-sparse": SbmParams.ssbm(600, 0.005, 0.03),
    "ssbm-dense": SbmParams.ssbm(400, 0.3, 0.05),
    "unequal-leader": SbmParams(500, 25, 0.05, 0.1, 0.5),
    "unequal": SbmParams(300, 200, 0.02, 0.005, 0.04),
}


@pytest.mark.parametrize("p", GRAPH_FAMILIES.values(), ids=GRAPH_FAMILIES.keys())
@pytest.mark.parametrize("seed", [3, 4])
def test_concentration_ratio_matches_dense_oracle(p, seed, monkeypatch):
    """concentration_ratio stops its Lanczos solve at a loose tol and
    still matches ||A - E{A}||_2 / sqrt(Delta log n) from a dense
    eigendecomposition; its Ritz pair (theta, v) meets the Lanczos criterion
    ||D v - theta v|| <= tol |theta| on the dense difference D."""
    g = sample_sbm(p, seed)
    solves, solve = [], theory.extreme_eigpairs
    monkeypatch.setattr(theory, "extreme_eigpairs", lambda *args, **kwargs: solves.append(
        (kwargs["tol"], solve(*args, **kwargs))) or solves[-1][1])
    ratio = concentration_ratio(g, p)
    deviation = g.adjacency.toarray() - expected_adjacency(p)
    scale = math.sqrt(max_expected_degree(p) * math.log(g.n))
    assert ratio == pytest.approx(np.abs(np.linalg.eigvalsh(deviation)).max() / scale,
                                  rel=1e-12, abs=0)
    (tol, (theta, v)), = solves
    assert tol == theory._DEVIATION_EIG_TOL > 0.0
    assert np.linalg.norm(deviation @ v - theta * v) <= tol * abs(theta)


@pytest.mark.parametrize("p", [*GRAPH_FAMILIES.values(), SbmParams.ssbm(22, 0.5, 0.2)],
                         ids=[*GRAPH_FAMILIES.keys(), "ssbm-22"])
@pytest.mark.parametrize("which", ["LA", "SA"])
def test_graph_eigenpair_at_its_tolerance_matches_dense_oracle(p, which):
    """Graph.extreme_eigenpair stops the Lanczos at _EIGENPAIR_TOL, not machine
    precision, and still gives dense eigh's extreme value to 1e-12 relative;
    its pair (lam, w) meets the Lanczos criterion ||A w - lam w|| <= tol |lam|.
    The 22-agent SSBM is the smallest that runs the Lanczos (n > 20), not the
    dense path."""
    g = sample_sbm(p, seed=3)
    value, w = g.extreme_eigenpair(which)
    a = g.adjacency.toarray()
    values = np.linalg.eigvalsh(a)
    assert value == pytest.approx(values[-1 if which == "LA" else 0], rel=1e-12, abs=0)
    tol = graphgen._EIGENPAIR_TOL
    assert 0.0 < tol <= 1e-12
    assert np.linalg.norm(a @ w - value * w) <= tol * abs(value)


# ---------------------------------------------------------------------------
# equilibrium-eigenvector alignment

OFFSETS = (0.005, 0.01, 0.02, 0.04)


@pytest.fixture(scope="module")
def alignment_sweep():
    p = SbmParams.ssbm(50, 0.4, 0.1)
    g = connected_sample(p)
    gamma = 1.0 / max_expected_degree(p)
    u1 = bifurcation_threshold(g.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    rng = np.random.Generator(np.random.Philox(60))
    x0 = rng.uniform(-1e-3, 1e-3, 50)
    sweep = {}
    for offset in OFFSETS:
        model = ModelParams(1.0, u1 + offset, 1.0, gamma)
        eq = integrate_to_equilibrium(x0, model, g)
        assert eq.converged
        sweep[offset] = (eq, model)
    return p, g, gamma, u1, sweep


def test_alignment_high_near_threshold(alignment_sweep):
    _, g, _, _, sweep = alignment_sweep
    eq, model = sweep[0.005]
    assert alignment_check(eq, g, model) >= 0.99


def test_alignment_decreases_with_attention(alignment_sweep):
    _, g, _, _, sweep = alignment_sweep
    values = [alignment_check(sweep[offset][0], g, sweep[offset][1]) for offset in OFFSETS]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_alignment_exact_eigenvector_input(alignment_sweep):
    _, g, gamma, _, _ = alignment_sweep
    w = sym_eig(g.adjacency)[1][:, -1]
    eq = Equilibrium(0.3 * w, 0.0, True, 0.0)
    model = ModelParams(1.0, 0.5, 1.0, gamma)
    assert alignment_check(eq, g, model) == pytest.approx(1.0, abs=1e-12)


def test_alignment_neutral_state(alignment_sweep):
    _, g, gamma, _, _ = alignment_sweep
    eq = Equilibrium(np.zeros(g.n), 0.0, True, 0.0)
    with pytest.raises(NeutralState):
        alignment_check(eq, g, ModelParams(1.0, 0.5, 1.0, gamma))


def test_c_of_u_zero_equilibrium(alignment_sweep):
    _, g, _, _, _ = alignment_sweep
    eq = Equilibrium(np.zeros(g.n), 0.0, True, 0.0)
    assert c_of_u(eq, g) == 0.0


def test_c_of_u_shrinks_toward_threshold(alignment_sweep):
    _, g, _, _, sweep = alignment_sweep
    magnitudes = [abs(c_of_u(sweep[offset][0], g)) for offset in OFFSETS]
    assert all(m > 0 for m in magnitudes)
    # offsets ascending: |c| strictly increasing away from the threshold
    assert all(a < b for a, b in zip(magnitudes, magnitudes[1:]))


def test_c_of_u_branch_sign_symmetry(alignment_sweep):
    _, g, gamma, u1, _ = alignment_sweep
    model = ModelParams(1.0, u1 + 0.02, 1.0, gamma)
    projections = []
    for k in range(12):
        rng = np.random.Generator(np.random.Philox(700 + k))
        eq = integrate_to_equilibrium(rng.uniform(-1e-3, 1e-3, g.n), model, g)
        projections.append(c_of_u(eq, g))
    signs = {np.sign(c) for c in projections}
    assert signs == {1.0, -1.0}
    magnitudes = np.abs(projections)
    assert (magnitudes.max() - magnitudes.min()) / magnitudes.mean() < 0.05
