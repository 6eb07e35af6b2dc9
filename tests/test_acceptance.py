"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The experiment-backed criteria share module-scoped record fixtures so the
whole suite stays within a desk-scale runtime (run with `pytest -s
tests/test_acceptance.py` to watch the per-criterion lines).
"""

import itertools
import time

import numpy as np
import pytest

from commdyn.detect import accuracy, estimate_adjacency, invert_pairs
from commdyn.dynamics import (ModelParams, Saturation, integrate_to_equilibrium,
                              saturation_eval, saturation_inverse)
from commdyn.graphgen import SbmParams, is_connected, max_expected_degree, sample_sbm
from commdyn.harness import (Preset, build_config, derive_seed, generate_pair_set,
                             run_experiment, write_records_csv)
from commdyn.spectral import kmeans_two_1d, sym_eig
from commdyn.theory import (alignment_check, davis_kahan_check, expected_spectrum,
                            expected_threshold)
from oracles import bifurcation_threshold, c_of_u, corrected_expected_matrix

BASE_SEED = 20250809


def _check(criterion, passed, detail):
    state = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {criterion}: {state} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _mean_acc(records, **filters):
    values = [r.accuracy for r in records
              if r.failure == "" and r.accuracy is not None
              and all(getattr(r, k) == v for k, v in filters.items())]
    assert values, f"no successful trials for {filters}"
    return float(np.mean(values))


@pytest.fixture(scope="module")
def fig1a_records():
    config = build_config(Preset.UNEQUAL_SBM, base_seed=BASE_SEED,
                          n1_values=[100, 300, 500], u_offsets=[0.01], trials=20)
    start = time.time()
    records = run_experiment(config)
    return records, time.time() - start


@pytest.fixture(scope="module")
def fig1b_records():
    config = build_config(Preset.SATURATION_SWEEP, base_seed=BASE_SEED,
                          n1_values=[500], u_offsets=[0.04], trials=20)
    return run_experiment(config)


@pytest.fixture(scope="module")
def ssbm_pos_records():
    return run_experiment(build_config(Preset.SSBM_POSITIVE, base_seed=BASE_SEED))


@pytest.fixture(scope="module")
def ssbm_neg_records():
    config = build_config(Preset.SSBM_NEGATIVE, base_seed=BASE_SEED,
                          n_values=[200, 500, 1000], u_offsets=[0.01], trials=20)
    return run_experiment(config)


@pytest.fixture(scope="module")
def multipairs_records():
    config = build_config(Preset.MULTI_PAIRS, base_seed=BASE_SEED,
                          n_values=[100], m_fractions=[0.1, 0.5, 1.0])
    return run_experiment(config)


def test_criterion_1_fig1a_size_trend(fig1a_records):
    records, elapsed = fig1a_records
    means = {n1: _mean_acc(records, n1=n1) for n1 in (100, 300, 500)}
    nondecreasing = means[300] >= means[100] - 0.02 and means[500] >= means[300] - 0.02
    passed = nondecreasing and means[500] >= 0.9 and elapsed < 600
    _check(1, passed,
           f"means {means[100]:.3f}/{means[300]:.3f}/{means[500]:.3f} "
           f"(n1=100/300/500), runtime {elapsed:.0f}s < 600s")


def test_criterion_2_fig1a_u_sensitivity(fig1a_records, fig1b_records):
    small = _mean_acc(fig1a_records[0], n1=500, u_offset=0.01)
    large = _mean_acc(fig1b_records, n1=500, u_offset=0.04, saturation="tanh")
    _check(2, small >= large - 0.02,
           f"offset 0.01 mean {small:.3f} >= offset 0.04 mean {large:.3f} - 0.02")


def test_criterion_3_fig1b_saturation_ordering(fig1b_records):
    means = {sat: _mean_acc(fig1b_records, saturation=sat)
             for sat in ("tanh", "erf", "alg-sqrt", "alg-abs")}
    passed = (means["tanh"] >= means["alg-sqrt"] - 0.03
              and means["erf"] >= means["alg-sqrt"] - 0.03
              and means["alg-sqrt"] >= means["alg-abs"] - 0.03)
    _check(3, passed,
           "means tanh {tanh:.3f} erf {erf:.3f} alg-sqrt {alg-sqrt:.3f} "
           "alg-abs {alg-abs:.3f}, orderings hold within 0.03".format(**means))


def test_criterion_4_ssbm_positive_null_result(ssbm_pos_records):
    pooled = _mean_acc(ssbm_pos_records)
    _check(4, 0.5 <= pooled <= 0.65,
           f"pooled mean accuracy {pooled:.3f} in [0.5, 0.65] (random-guess regime)")


def test_criterion_5_disassortative_negative_trend(ssbm_neg_records):
    means = {n: _mean_acc(ssbm_neg_records, n=n) for n in (200, 500, 1000)}
    increasing = means[500] >= means[200] - 0.02 and means[1000] >= means[500] - 0.02
    passed = increasing and means[1000] >= 0.9
    _check(5, passed,
           f"means {means[200]:.3f}/{means[500]:.3f}/{means[1000]:.3f} "
           f"(n=200/500/1000), final >= 0.9")


def test_criterion_6_multipairs_trend_and_baseline(multipairs_records):
    records = multipairs_records
    alg = {m: _mean_acc(records, m=m, method="multi-equilibria") for m in (10, 50, 100)}
    cov = {m: _mean_acc(records, m=m, method="covariance-spectral") for m in (10, 50, 100)}
    nondecreasing = alg[50] >= alg[10] - 0.02 and alg[100] >= alg[50] - 0.02
    baseline_low = all(v < 0.65 for v in cov.values())
    dominates = np.mean(list(alg.values())) > np.mean(list(cov.values()))
    passed = nondecreasing and alg[100] >= 0.9 and baseline_low and dominates
    _check(6, passed,
           f"alg2 {alg[10]:.3f}/{alg[50]:.3f}/{alg[100]:.3f}, "
           f"covariance {cov[10]:.3f}/{cov[50]:.3f}/{cov[100]:.3f} (m=10/50/100)")


def test_criterion_7_exact_identification_oracle():
    sizes = (12, 16, 20, 24, 28)
    exact = 0
    full_rank_errors = []
    for rep, n in itertools.product(range(4), sizes):
        params = SbmParams.ssbm(n, 0.5, 0.2)
        graph = None
        for s in range(100):
            candidate = sample_sbm(params, derive_seed(42, "oracle-graph", n, rep, s))
            if is_connected(candidate):
                graph = candidate
                break
        u_bar, gamma, _ = expected_threshold(params, 1)
        model = ModelParams(1.0, u_bar + 0.01, 1.0, gamma)
        pairs, eqs = generate_pair_set(graph, model, n,
                                       seed=derive_seed(42, "oracle-pairs", n, rep))
        assert all(eq.converged for eq in eqs)
        a_hat = estimate_adjacency(pairs.X, invert_pairs(pairs))
        if np.array_equal(np.round(a_hat), graph.adjacency.toarray()):
            exact += 1
        sigma = np.linalg.svd(pairs.X, compute_uv=False)
        if sigma[-1] >= 1e-8 * sigma[0]:
            full_rank_errors.append(float(np.abs(a_hat - graph.adjacency.toarray()).max()))
    passed = exact >= 19 and max(full_rank_errors) <= 1e-6
    _check(7, passed,
           f"exact recovery {exact}/20, max |A_hat - A| = {max(full_rank_errors):.2e} "
           f"on {len(full_rank_errors)} full-rank trials")


def test_criterion_8_appendix_oracle_suite():
    rng = np.random.Generator(np.random.Philox(BASE_SEED))
    worst = 0.0
    for _ in range(100):
        p = SbmParams(int(rng.integers(1, 30)), int(rng.integers(1, 30)),
                      float(rng.random()), float(rng.random()), float(rng.random()))
        spec = expected_spectrum(p)
        values, _ = sym_eig(corrected_expected_matrix(p))
        scale = max(1.0, abs(values[-1]))
        err_max = abs(values[-1] - spec.lambda_max_bar)
        err_minus = min(abs(values[0] - spec.lambda_minus_bar),
                        abs(values[-2] - spec.lambda_minus_bar))
        worst = max(worst, err_max / scale, err_minus / scale)
    closed_forms_ok = worst <= 1e-10

    ssbm = SbmParams.ssbm(200, 0.3, 0.05)
    spec = expected_spectrum(ssbm)
    exact_ok = (spec.lambda_max_bar == (0.3 + 0.05) * 200 / 2
                and spec.lambda_minus_bar == (0.3 - 0.05) * 200 / 2)

    dk = SbmParams.ssbm(300, 0.3, 0.05)
    holds = sum(davis_kahan_check(sample_sbm(dk, seed), dk).holds for seed in range(50))

    passed = closed_forms_ok and exact_ok and holds == 50
    _check(8, passed,
           f"closed-form worst relative error {worst:.1e} <= 1e-10 over 100 draws, "
           f"SSBM forms exact, Davis-Kahan holds {holds}/50")


def test_criterion_9_alignment_and_amplitude_sweep():
    params = SbmParams.ssbm(50, 0.4, 0.1)
    graph = None
    for seed in range(50):
        candidate = sample_sbm(params, seed)
        if is_connected(candidate):
            graph = candidate
            break
    gamma = 1.0 / max_expected_degree(params)
    u1 = bifurcation_threshold(graph.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    rng = np.random.Generator(np.random.Philox(60))
    x0 = rng.uniform(-1e-3, 1e-3, graph.n)
    offsets = (0.005, 0.01, 0.02, 0.04)
    alignments, amplitudes = [], []
    for offset in offsets:
        model = ModelParams(1.0, u1 + offset, 1.0, gamma)
        eq = integrate_to_equilibrium(x0, model, graph)
        assert eq.converged
        alignments.append(alignment_check(eq, graph, model))
        amplitudes.append(abs(c_of_u(eq, graph)))
    near = alignments[0] >= 0.99
    align_monotone = all(a > b for a, b in zip(alignments, alignments[1:]))
    amp_monotone = all(a < b for a, b in zip(amplitudes, amplitudes[1:]))
    passed = near and align_monotone and amp_monotone and amplitudes[0] > 0
    _check(9, passed,
           f"alignment {alignments[0]:.5f} at offset 0.005, strictly decreasing "
           f"{[round(a, 5) for a in alignments]}; |c| strictly shrinking toward 0 "
           f"{[round(c, 4) for c in amplitudes]}")


def test_criterion_10_property_suites(tmp_path):
    failures = []

    # saturation: odd, unit slope, curvature sign, round trip
    grid = np.linspace(-6, 6, 25)
    caps = {Saturation.TANH: 8.0, Saturation.ALG_ABS: 20.0,
            Saturation.ALG_SQRT: 20.0, Saturation.ERF: 4.0}
    for kind in Saturation:
        if not np.array_equal(saturation_eval(kind, -grid), -saturation_eval(kind, grid)):
            failures.append(f"{kind.value} oddness")
        h = 1e-6
        if abs((saturation_eval(kind, h) - saturation_eval(kind, -h)) / (2 * h) - 1) > 1e-6:
            failures.append(f"{kind.value} slope")
        for z in (0.5, 2.0, -1.5):
            hh = 1e-3
            second = (saturation_eval(kind, z + hh) - 2 * saturation_eval(kind, z)
                      + saturation_eval(kind, z - hh)) / hh ** 2
            if np.sign(second) != -np.sign(z):
                failures.append(f"{kind.value} curvature at {z}")
        zs = np.linspace(-caps[kind], caps[kind], 21)
        zs = zs[np.abs(zs) > 1e-9]
        back = saturation_inverse(kind, saturation_eval(kind, zs))
        if (np.abs(back - zs) / np.abs(zs)).max() > 1e-10:
            failures.append(f"{kind.value} round trip")

    # accuracy: flip invariance and the 1/2 lower bound
    rng = np.random.Generator(np.random.Philox(10))
    for _ in range(30):
        n = int(rng.integers(2, 30))
        truth = rng.integers(1, 3, n)
        est = rng.integers(1, 3, n)
        value = accuracy(truth, est)
        if value != accuracy(truth, 3 - est) or not 0.5 <= value <= 1.0:
            failures.append("accuracy properties")

    # exact 1-D 2-means vs brute force over all 2-partitions
    for _ in range(10):
        n = int(rng.integers(2, 13))
        values = rng.standard_normal(n)
        result = kmeans_two_1d(values)
        got = sum(((values[result.labels == c] - values[result.labels == c].mean()) ** 2).sum()
                  for c in (1, 2))
        best = np.inf
        for size in range(1, n):
            for left in itertools.combinations(range(n), size):
                mask = np.zeros(n, dtype=bool)
                mask[list(left)] = True
                a, b = values[mask], values[~mask]
                best = min(best, ((a - a.mean()) ** 2).sum() + ((b - b.mean()) ** 2).sum())
        if got > best + 1e-12:
            failures.append("kmeans optimality")

    # bifurcation sign structure below/above threshold
    params = SbmParams.ssbm(24, 0.5, 0.2)
    graph = next(sample_sbm(params, s) for s in range(50)
                 if is_connected(sample_sbm(params, s)))
    gamma = 1.0 / max_expected_degree(params)
    u1 = bifurcation_threshold(graph.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    rng2 = np.random.Generator(np.random.Philox(11))
    for _ in range(5):
        eq = integrate_to_equilibrium(rng2.uniform(-1e-3, 1e-3, 24),
                                      ModelParams(1.0, 0.9 * u1, 1.0, gamma), graph)
        if np.abs(eq.state).max() >= 1e-6:
            failures.append("below-threshold stability")
    eq = integrate_to_equilibrium(rng2.uniform(-1e-3, 1e-3, 24),
                                  ModelParams(1.0, u1 + 0.05, 1.0, gamma), graph)
    if not (np.abs(eq.state).max() > 1e-3 and len(set(np.sign(eq.state))) == 1):
        failures.append("above-threshold agreement signs")
    dis = SbmParams.ssbm(24, 0.1, 0.5)
    graph_dis = next(sample_sbm(dis, s) for s in range(50)
                     if is_connected(sample_sbm(dis, s)))
    gamma_neg = -1.0 / max_expected_degree(dis)
    u2 = bifurcation_threshold(graph_dis.adjacency, ModelParams(1.0, 0.1, 1.0, gamma_neg))
    eq = integrate_to_equilibrium(rng2.uniform(-1e-3, 1e-3, 24),
                                  ModelParams(1.0, u2 + 0.05, 1.0, gamma_neg), graph_dis)
    if not (np.any(eq.state > 0) and np.any(eq.state < 0)):
        failures.append("above-threshold disagreement signs")

    # byte-identical CSV reproducibility (modulo the timestamp line)
    config = build_config(Preset.SSBM_POSITIVE, base_seed=BASE_SEED, n_values=[20],
                          ls=0.6, ld=0.2, u_offsets=[0.05], trials=3)
    blobs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        write_records_csv(path, run_experiment(config, workers=1))
        blobs.append(path.read_bytes().split(b"\r\n", 1)[1])
    if blobs[0] != blobs[1]:
        failures.append("CSV reproducibility")

    _check(10, not failures,
           "property suites green (saturation, accuracy metric, k-means, "
           "sign structure, CSV reproducibility)" if not failures
           else f"failed: {failures}")


# spec-level statistical examples tied to the same experiment fixtures

def test_single_equilibrium_recovery_rate_at_n500(fig1a_records):
    records, _ = fig1a_records
    rows = [r for r in records if r.n1 == 500]
    hits = sum(1 for r in rows
               if r.failure == "" and r.accuracy is not None and r.accuracy >= 0.9)
    rate = hits / len(rows)  # failed trials count against the rate
    assert rate >= 0.8
    print(f"[EXAMPLE] single-equilibrium accuracy >= 0.9 in {rate:.0%} of n1=500 runs")


def test_multi_pairs_mean_accuracy_at_m_equals_n(multipairs_records):
    mean = _mean_acc(multipairs_records, m=100, method="multi-equilibria")
    assert mean >= 0.9
    print(f"[EXAMPLE] multi-equilibria mean accuracy {mean:.3f} >= 0.9 at m = n = 100")
