import codecs
import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from commdyn import dynamics, harness
from commdyn.detect import DetectionMethod
from commdyn.dynamics import NEUTRAL_TOL, ModelParams, Saturation
from commdyn.errors import DomainError
from commdyn.harness import (Preset, TrialRecord, build_config, derive_seed,
                             load_config_file, read_records_csv, resolve_m_values,
                             run_experiment, summarize, write_records_csv,
                             write_summary_csv)
from commdyn.graphgen import SbmParams, max_expected_degree, sample_sbm
from commdyn.theory import expected_threshold
from oracles import bifurcation_threshold


def tiny_single_config(**overrides):
    defaults = dict(n_values=[20], ls=0.6, ld=0.2, u_offsets=[0.05],
                    trials=3, gamma_sign=1)
    defaults.update(overrides)
    return build_config(Preset.SSBM_POSITIVE, base_seed=777, **defaults)


def tiny_multi_config(**overrides):
    defaults = dict(n_values=[16], ls=0.6, ld=0.2, u_offsets=[0.05],
                    trials=2, pair_sets=2, m_fractions=[0.25, 1.0])
    defaults.update(overrides)
    return build_config(Preset.MULTI_PAIRS, base_seed=777, **defaults)


# ---------------------------------------------------------------------------
# configuration

def test_preset_point_grids():
    config = build_config(Preset.UNEQUAL_SBM)
    assert len(config.points) == 5 * 4
    n2_by_n1 = {p.sbm.n1: p.sbm.n2 for p in config.points}
    assert n2_by_n1 == {100: 5, 200: 10, 300: 15, 400: 20, 500: 25}
    assert all(p.gamma_sign == 1 for p in config.points)

    sweep = build_config(Preset.SATURATION_SWEEP)
    assert {p.saturation for p in sweep.points} == set(Saturation)

    neg = build_config(Preset.SSBM_NEGATIVE)
    assert {p.sbm.n for p in neg.points} == {200, 500, 1000}
    assert all(p.gamma_sign == -1 for p in neg.points)

    multi = build_config(Preset.MULTI_PAIRS)
    assert multi.is_multi and multi.pair_sets == 10
    assert DetectionMethod.COVARIANCE_SPECTRAL in multi.methods


def test_build_config_rejects_bad_offsets():
    with pytest.raises(ValueError):
        build_config(Preset.SSBM_POSITIVE, u_offsets=[0.0])


@pytest.mark.parametrize("overrides", [dict(u_offsets=[math.nan]), dict(u_offsets=[math.inf]),
                                       dict(u_offsets=[0.01, math.inf])],
                         ids=["offset-nan", "offset-inf", "one-offset-inf"])
def test_build_config_rejects_non_finite_values(overrides):
    """A non-finite sweep value fails in build_config, before any trial
    runs, instead of as failed rows or an exception mid-sweep."""
    with pytest.raises(ValueError, match="finite"):
        build_config(Preset.SSBM_POSITIVE, **overrides)


@pytest.mark.parametrize("preset, overrides", [
    (Preset.UNEQUAL_SBM, dict(n1_values=[20], n2_fraction=math.inf)),
    (Preset.UNEQUAL_SBM, dict(n1_values=[20], n2_fraction=math.nan)),
], ids=["n2-fraction-inf", "n2-fraction-nan"])
def test_build_config_rejects_non_finite_n2_fraction(preset, overrides):
    with pytest.raises(ValueError, match="n2_fraction must be finite"):
        build_config(preset, **overrides)


@pytest.mark.parametrize("preset, overrides, key", [
    (Preset.SSBM_POSITIVE, dict(trials=2.7), "trials"),
    (Preset.SSBM_POSITIVE, dict(n_values=[20.5]), "n_values"),
    (Preset.SSBM_POSITIVE, dict(n_values=[20, math.inf]), "n_values"),
    (Preset.UNEQUAL_SBM, dict(n1_values=[20.5]), "n1_values"),
    (Preset.MULTI_PAIRS, dict(pair_sets=1.5), "pair_sets"),
    (Preset.SSBM_POSITIVE, dict(trials=[2, 3]), "trials"),
], ids=["trials", "n-values", "n-values-inf", "n1-values", "pair-sets", "trials-list"])
def test_build_config_rejects_non_integral_counts(preset, overrides, key):
    """A count that is not a whole number is an error, not truncated; a
    whole float such as 4.0 is accepted."""
    with pytest.raises(ValueError, match=f"{key} must be a whole number"):
        build_config(preset, **overrides)
    config = build_config(Preset.SSBM_POSITIVE, n_values=[20.0], trials=4.0)
    assert config.trials == 4 and config.sbms[0].n1 == 10


@pytest.mark.parametrize("preset, overrides, key", [
    (Preset.SSBM_POSITIVE, dict(ls="abc"), "ls"),
    (Preset.SSBM_POSITIVE, dict(ls=[0.1, 0.2]), "ls"),
    (Preset.SSBM_POSITIVE, dict(ld=math.inf), "ld"),
    (Preset.UNEQUAL_SBM, dict(l12=math.nan), "l12"),
    (Preset.UNEQUAL_SBM, dict(l22=True), "l22"),
    (Preset.MULTI_PAIRS, dict(m_fractions="abc"), "m_fractions"),
    (Preset.MULTI_PAIRS, dict(m_fractions=[0.5, math.inf]), "m_fractions"),
    (Preset.MULTI_PAIRS, dict(m_fractions=[]), "m_fractions"),
    (Preset.MULTI_PAIRS, dict(pair_sets=0), "pair_sets"),
    (Preset.SSBM_POSITIVE, dict(diagnostics="no"), "diagnostics"),
    (Preset.SSBM_POSITIVE, dict(diagnostics=1), "diagnostics"),
    (Preset.SSBM_POSITIVE, dict(gamma_sign=-1.5), "gamma_sign"),
    (Preset.SSBM_POSITIVE, dict(gamma_sign=2), "gamma_sign"),
    (Preset.SSBM_POSITIVE, dict(base_seed=7.9), "base_seed"),
    (Preset.SSBM_POSITIVE, dict(trials=True), "trials"),
    (Preset.SSBM_POSITIVE, dict(d="abc"), "unknown config keys: d"),
], ids=["ls-word", "ls-list", "ld-inf", "l12-nan", "l22-bool", "m-fractions-word",
        "m-fractions-inf", "m-fractions-empty", "pair-sets-0", "diagnostics-word",
        "diagnostics-int", "gamma-sign-fraction", "gamma-sign-2", "base-seed-fraction",
        "trials-bool", "d-word"])
def test_build_config_rejects_values_of_the_wrong_kind(preset, overrides, key):
    """A value that is not what its key takes raises ValueError naming the
    key instead of a TypeError in SbmParams, an error mid-sweep or a silent
    misread (bool("no"), int(-1.5), int(True)). `d` is no config key (sweeps
    run at d = 1), so d-word's message is the unknown-key one, in full."""
    with pytest.raises(ValueError, match=rf"^{key}$" if " " in key else rf"\b{key}\b"):
        build_config(preset, **overrides)


@pytest.mark.parametrize("fractions", [0, -1, 5, [0.5, 1.5], [-1, 5, 0]])
def test_build_config_rejects_m_fractions_outside_unit_interval(fractions):
    """m = fraction * n pairs: resolve_m_values would turn 0 and -1 into one
    pair and 5 into 5n pairs without a word, so build_config names the key."""
    with pytest.raises(ValueError, match=r"\bm_fractions\b.*\(0, 1\]"):
        build_config(Preset.MULTI_PAIRS, m_fractions=fractions)


def test_build_config_accepts_m_fraction_one():
    assert build_config(Preset.MULTI_PAIRS, m_fractions=1.0).m_fractions == (1.0,)
    assert build_config(Preset.MULTI_PAIRS, m_fractions=[0.05, 1]).m_fractions == (0.05, 1)


def test_build_config_keeps_valid_values_as_given():
    """Checked values reach the SBMs and the config unconverted, so a record
    (and the graph seed hashed from the SBM) is the same as before the
    checks."""
    config = build_config(Preset.UNEQUAL_SBM, n1_values=[20], l11=1, l12=0, base_seed=7.0)
    assert (config.sbms[0].l11, config.sbms[0].l12) == (1, 0)
    assert type(config.sbms[0].l12) is int and type(config.base_seed) is int
    multi = build_config(Preset.MULTI_PAIRS, m_fractions=0.5, diagnostics=True)
    assert multi.m_fractions == (0.5,) and multi.diagnostics is True


def test_build_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: n_value, trails"):
        build_config("ssbm-negative", trails=3, n_value=[40])


def test_build_config_rejects_unknown_config_file_key(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("n_values = 40\ntrails = 3\n")
    with pytest.raises(ValueError, match="unknown config keys: trails"):
        build_config(Preset.SSBM_NEGATIVE, **load_config_file(path))


@pytest.mark.parametrize("preset, overrides, message", [
    ("unequal-sbm", dict(n_values=[100]), "missing config keys: ld, ls"),
    ("ssbm-negative", dict(l11=0.9, n2_fraction=0.5), "does not read: l11, n2_fraction"),
    ("unequal-sbm", dict(ls=0.9, ld=0.1), "does not read: ld, ls"),
    ("ssbm-positive", dict(pair_sets=3, m_fractions=[0.5]), "does not read: m_fractions, pair_sets"),
], ids=["n_values-for-unequal", "unequal-keys-for-ssbm", "ssbm-keys-for-unequal",
        "multi-keys-for-single"])
def test_build_config_rejects_keys_the_sweep_does_not_read(preset, overrides, message):
    """Every override the chosen sweep does not read, and every key it needs
    that neither the preset nor the overrides give, is named in the error."""
    with pytest.raises(ValueError, match=message):
        build_config(preset, **overrides)


def test_mixed_method_kinds_rejected():
    with pytest.raises(ValueError, match="cannot share a run"):
        build_config(Preset.SSBM_POSITIVE, m_fractions=[0.5],
                     methods=[DetectionMethod.SINGLE_EQUILIBRIUM,
                              DetectionMethod.MULTI_EQUILIBRIA])


def test_derive_seed_stability():
    a = derive_seed(1, "graph", (1, 2), 3)
    assert a == derive_seed(1, "graph", (1, 2), 3)
    assert a != derive_seed(1, "graph", (1, 2), 4)
    assert a != derive_seed(2, "graph", (1, 2), 3)
    assert 0 <= a < 2 ** 64


def test_resolve_m_values():
    assert resolve_m_values([0.1, 0.5, 1.0], 100) == [10, 50, 100]
    assert resolve_m_values([0.1], 20) == [2]
    assert resolve_m_values([0.01], 20) == [1]


def test_expected_threshold_matches_closed_form():
    p = SbmParams.ssbm(200, 0.3, 0.05)
    u_bar, gamma, delta = expected_threshold(p, 1)
    assert delta == pytest.approx(34.7)
    assert gamma == 1.0 / delta
    assert u_bar == pytest.approx(1.0 / (1.0 + 35.0 / delta))


# ---------------------------------------------------------------------------
# experiment runs

def test_single_equilibrium_run_shape():
    records = run_experiment(tiny_single_config(), workers=1)
    assert len(records) == 3
    for r in records:
        assert r.preset == "ssbm-positive"
        assert r.method == "single-equilibrium"
        assert r.gamma_sign in (1, -1)
        assert r.delta == pytest.approx(0.6 * 9 + 0.2 * 10)
        assert r.connected is not None
        if r.failure == "":
            assert 0.5 <= r.accuracy <= 1.0
            assert r.converged and r.residual <= 1e-10


def test_multi_run_shape():
    records = run_experiment(tiny_multi_config(), workers=1)
    # 2 graphs x 2 pair sets x 2 m values x 2 methods
    assert len(records) == 16
    methods = {r.method for r in records}
    assert methods == {"multi-equilibria", "covariance-spectral"}
    for r in records:
        assert r.m in (4, 16)
        if r.failure == "" and r.method == "multi-equilibria":
            assert r.sigma_min_x is not None and r.sigma_min_x >= 0


def test_rerun_is_deterministic():
    a = run_experiment(tiny_single_config(), workers=1)
    b = run_experiment(tiny_single_config(), workers=1)
    assert a == b


def tiny_shared_graph_config(**overrides):
    """Two SBMs with two saturations each, diagnostics on: four points, two
    tasks per trial."""
    defaults = dict(n1_values=[40, 60], u_offsets=[0.04], trials=2,
                    saturations=[Saturation.TANH, Saturation.ALG_ABS], diagnostics=True)
    defaults.update(overrides)
    return build_config(Preset.SATURATION_SWEEP, base_seed=777, **defaults)


def test_presets_given_the_same_keys_give_the_same_records():
    """A preset only supplies defaults: an ssbm-positive config that states
    the multi-pairs preset's keys gives its records apart from the preset
    column."""
    keys = dict(methods=["multi-equilibria", "covariance-spectral"], n_values=[20], ls=0.3,
                ld=0.05, u_offsets=[0.01], saturations=["tanh"], gamma_sign=1, trials=2,
                pair_sets=2, m_fractions=[0.5, 1.0])
    restated = run_experiment(build_config(Preset.SSBM_POSITIVE, **keys), workers=1)
    preset = run_experiment(build_config(Preset.MULTI_PAIRS, **keys), workers=1)
    assert len(restated) == 16
    assert {r.preset for r in restated} == {"ssbm-positive"}
    assert [dataclasses.replace(r, preset="multi-pairs") for r in restated] == preset


def test_parallel_matches_serial():
    for make_config in (tiny_multi_config, tiny_shared_graph_config):
        serial = run_experiment(make_config(), workers=1)
        parallel = run_experiment(make_config(), workers=2)
        assert serial == parallel


def test_pooled_run_enters_the_module_pool_class(monkeypatch):
    """run_experiment reads its pool class as harness.ProcessPoolExecutor,
    concurrent.futures' own until a class is set there in its place."""
    assert harness.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    entered = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    serial = run_experiment(tiny_shared_graph_config(), workers=1)
    assert not entered
    assert run_experiment(tiny_shared_graph_config(), workers=2) == serial
    assert len(entered) == 1


def _raise_for(predicate, function):
    """`function`, except that it raises LinAlgError on arguments that
    `predicate` accepts."""
    def patched(*args):
        if predicate(*args):
            raise np.linalg.LinAlgError("injected")
        return function(*args)
    return patched


def test_an_exception_in_a_task_ends_as_coded_rows(monkeypatch):
    """An unexpected exception in a point's equilibria codes that point's
    rows, one in a detection codes that row, and one in a graph's
    concentration ratio codes every row on that graph, as error:<type> with
    empty outcomes; every other row is the unpatched run's, serial or
    pooled."""
    single = tiny_single_config(u_offsets=[0.05, 0.09])
    multi = tiny_multi_config()
    shared = tiny_shared_graph_config()
    clean_single = run_experiment(single, workers=1)
    clean_multi = run_experiment(multi, workers=1)
    clean_shared = run_experiment(shared, workers=1)
    failed_u = {r.u for r in clean_single if r.u_offset == 0.09}
    monkeypatch.setattr(harness, "integrate_to_equilibrium", _raise_for(
        lambda x0, model, graph: model.u in failed_u, harness.integrate_to_equilibrium))
    monkeypatch.setattr(harness, "detect_multi", _raise_for(
        lambda pairs: pairs.X.shape[1] == 4, harness.detect_multi))
    monkeypatch.setattr(harness, "concentration_ratio", _raise_for(
        lambda graph, sbm: sbm.n1 == 60, harness.concentration_ratio))
    coded = dict(failure="error:LinAlgError", accuracy=None, eigen_gap=None, sigma_min_x=None)
    expected_single = [dataclasses.replace(r, converged=None, residual=None, **coded)
                       if r.u_offset == 0.09 else r for r in clean_single]
    expected_multi = [dataclasses.replace(r, **coded)
                      if r.method == "multi-equilibria" and r.m == 4 else r for r in clean_multi]
    expected_shared = [dataclasses.replace(r, concentration_ratio=None, converged=None,
                                           residual=None, alignment=None, **coded)
                       if r.n1 == 60 else r for r in clean_shared]
    for workers in (1, 2):
        assert run_experiment(single, workers=workers) == expected_single
        assert run_experiment(multi, workers=workers) == expected_multi
        assert run_experiment(shared, workers=workers) == expected_shared
    assert sum(r.u_offset == 0.09 for r in clean_single) == 3
    assert sum(r.method == "multi-equilibria" and r.m == 4 for r in clean_multi) == 4
    assert sum(r.n1 == 60 for r in clean_shared) == 4
    assert all(r.connected is not None for r in expected_shared)


EDGE_CASE_SWEEPS = {
    "decoupled-blocks-positive": (Preset.SSBM_POSITIVE, dict(
        n_values=[40], ls=0.5, ld=0.0, u_offsets=[0.05], trials=2, gamma_sign=1)),
    "decoupled-blocks-negative": (Preset.SSBM_NEGATIVE, dict(
        n_values=[40], ls=0.5, ld=0.0, u_offsets=[0.05], trials=2, gamma_sign=-1)),
    "n1-1": (Preset.UNEQUAL_SBM, dict(n1_values=[1], l12=0.3, u_offsets=[0.01, 0.04],
                                      trials=3)),
    "complete-graph": (Preset.SSBM_POSITIVE, dict(
        n_values=[24], ls=1.0, ld=1.0, u_offsets=[0.05], trials=2)),
    "ssbm-n2": (Preset.SSBM_POSITIVE, dict(n_values=[2], u_offsets=[0.05], trials=2)),
    "multi-pairs-n2": (Preset.MULTI_PAIRS, dict(n_values=[2], trials=2, pair_sets=1)),
}


@pytest.mark.parametrize("case", EDGE_CASE_SWEEPS)
def test_edge_case_sweeps_end_as_rows(case):
    """Decoupled blocks, n1 = 1, a complete graph and two-agent graphs run
    through the harness to rows with the failure codes these graphs call
    for, the same serial and pooled. At n1 = 1 the two agents agree when
    linked (degenerate labels) and stay neutral when not. On a complete
    graph every agent sits at one value, up to a few ulps of rounding
    (degenerate labels)."""
    preset, overrides = EDGE_CASE_SWEEPS[case]
    config = build_config(preset, base_seed=777, **overrides)
    records = run_experiment(config, workers=1)
    assert run_experiment(config, workers=2) == records
    failures = [r.failure for r in records]
    if case == "n1-1":
        assert len(records) == 6
        assert failures == ["degenerate" if r.connected else "neutral-state" for r in records]
        assert set(failures) == {"degenerate", "neutral-state"}
    elif case == "ssbm-n2":
        assert failures == ["neutral-state"] * 2
    elif case == "complete-graph":
        assert failures == ["degenerate"] * 2
    elif case == "multi-pairs-n2":
        # m in {1, 2}, two methods, two trials: the covariance baseline needs
        # three samples, so only the multi-equilibria rows are scored
        assert len(records) == 8
        assert sorted((r.method, r.m, r.failure) for r in records) == [
            ("covariance-spectral", 1, "too-few-samples"),
            ("covariance-spectral", 1, "too-few-samples"),
            ("covariance-spectral", 2, "too-few-samples"),
            ("covariance-spectral", 2, "too-few-samples"),
            ("multi-equilibria", 1, ""), ("multi-equilibria", 1, ""),
            ("multi-equilibria", 2, ""), ("multi-equilibria", 2, "")]
    else:
        assert failures == [""] * 2
        assert all(0.5 <= r.accuracy <= 1.0 for r in records)


def test_unconverged_equilibrium_rows_are_non_convergence(monkeypatch):
    """An equilibrium solve cut off at T_MAX, with no seeded start, gives
    non-convergence rows that keep the residual and no accuracy."""
    monkeypatch.setattr(dynamics, "T_MAX", 1e-2)
    monkeypatch.setattr(dynamics, "_seeded_equilibrium", lambda *args: None)
    records = run_experiment(tiny_single_config(), workers=1)
    assert [r.failure for r in records] == ["non-convergence"] * 3
    assert all(r.converged is False and r.residual > dynamics.STEADY_TOL
               and r.accuracy is None for r in records)


def test_domain_error_in_detection_is_domain_error(monkeypatch):
    """A detection that raises DomainError gives domain-error, not the
    error:DomainError of an unexpected exception."""
    def out_of_range(_equilibrium):
        raise DomainError("injected")

    monkeypatch.setattr(harness, "detect_single", out_of_range)
    records = run_experiment(tiny_single_config(), workers=1)
    assert [r.failure for r in records] == ["domain-error"] * 3
    assert all(r.converged and r.accuracy is None for r in records)


def test_neutral_row_has_an_empty_alignment():
    """With diagnostics on, a neutral equilibrium's alignment is an empty
    cell; the graph's concentration ratio is still filled in."""
    config = build_config(Preset.SSBM_POSITIVE, base_seed=777, n_values=[2], u_offsets=[0.05],
                          trials=2, diagnostics=True)
    records = run_experiment(config, workers=1)
    assert [r.failure for r in records] == ["neutral-state"] * 2
    assert all(r.alignment is None and r.concentration_ratio is not None for r in records)


def test_points_on_one_sbm_share_their_graph():
    """The points on one SBM share the trial's graph: its seed, connectivity
    and concentration ratio; each point's rows are those it gets when run on
    its own."""
    records = run_experiment(tiny_shared_graph_config(), workers=1)
    assert len(records) == 8
    by_graph = {}
    for r in records:
        by_graph.setdefault((r.n1, r.trial), []).append(r)
    assert len(by_graph) == 4
    for rows in by_graph.values():
        assert {r.saturation for r in rows} == {"tanh", "alg-abs"}
        assert len({(r.seed, r.connected, r.concentration_ratio) for r in rows}) == 1
        assert rows[0].concentration_ratio is not None
    assert len({rows[0].seed for rows in by_graph.values()}) == 4
    for saturation in (Saturation.TANH, Saturation.ALG_ABS):
        alone = run_experiment(tiny_shared_graph_config(saturations=[saturation]), workers=1)
        assert alone == [r for r in records if r.saturation == saturation.value]


def test_adding_points_keeps_existing_trials():
    base = run_experiment(tiny_single_config(), workers=1)
    extended = run_experiment(tiny_single_config(u_offsets=[0.05, 0.09]), workers=1)
    kept = [r for r in extended if r.u_offset == 0.05]
    assert kept == base


@pytest.mark.parametrize("make_config", [tiny_single_config, tiny_multi_config])
def test_records_csv_round_trip(tmp_path, make_config):
    records = run_experiment(make_config(), workers=1)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    assert read_records_csv(path) == records


def test_read_rows_skips_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark, as Windows editors write, is not part of the
    first cell: a records file keeps its `# generated` comment line and an
    inputs file its first number."""
    records = run_experiment(tiny_single_config(trials=1), workers=1)
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert read_records_csv(path) == records
    inputs = tmp_path / "inputs.csv"
    inputs.write_bytes(codecs.BOM_UTF8 + b"0.5,-0.5\r\n1.0,2.0\r\n")
    assert harness.read_rows(inputs, {}, rest=float) == [[0.5, -0.5], [1.0, 2.0]]


def test_records_csv_reproducible_bytes(tmp_path):
    config = tiny_single_config()
    paths = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        write_records_csv(path, run_experiment(config, workers=1))
        paths.append(path)
    first = paths[0].read_bytes().split(b"\r\n", 1)[1]
    second = paths[1].read_bytes().split(b"\r\n", 1)[1]
    assert first == second
    assert paths[0].read_bytes().startswith(b"# generated ")


# Columns computed by LAPACK or by the BLAS-backed Krylov kernels, whose last
# bits may differ between numpy/scipy builds; the golden hashes below are
# taken with them blanked.
_BUILD_DEPENDENT = {"residual", "alignment", "concentration_ratio", "eigen_gap",
                    "sigma_min_x"}

# (preset, overrides, records sha256, summary sha256) by test id: each
# preset's small config, and two configs above DENSE_NEWTON_MAX_N, where
# the Newton steps run MINRES and the certificate and the deviation norm
# run the Lanczos
_GOLDEN_RECORDS = {
    "unequal-sbm": (
        Preset.UNEQUAL_SBM,
        dict(n1_values=[40, 80], u_offsets=[0.02], trials=3),
        "dbc03c7baff3838a1fa94562b66806ee9e551374db6ca328dc7f277ac9caa7e4",
        "3415b23fb8539d3485543bf131518d1d63bd4c723554f75852f6421fce0e16e7"),
    "saturation-sweep": (
        Preset.SATURATION_SWEEP,
        dict(n1_values=[40], trials=2, diagnostics=True),
        "6534014dcb89f0e0ecc7a626ef0f2b3dad009772a4007dbb033a2548bce6da3a",
        "7cbd7852140230e949eb74a22517123b645d6197f11c69eb35e725f1be3c0378"),
    "ssbm-positive": (
        Preset.SSBM_POSITIVE,
        dict(n_values=[40], u_offsets=[0.02], trials=3),
        "0591cc89e57185215c20af0e20a3683a488bce0c1f2be1f0cd715da987a229cf",
        "41fcaae42d5a00159dbafe3b6b6d3a29397fc930e20b3a872d9e4d01beadb8da"),
    "ssbm-negative": (
        Preset.SSBM_NEGATIVE,
        dict(n_values=[60, 120], u_offsets=[0.01], trials=3),
        "a3355e0ca1ae149c714f13a29e99c5dc5d0e96ede2d6132e6734501d878f1f5c",
        "057ad74081fe33d27c2ada5ffb5447311d16f91b69b3da815077858b1a5f0e08"),
    "multi-pairs": (
        Preset.MULTI_PAIRS,
        dict(n_values=[16], trials=2, pair_sets=2, m_fractions=[0.25, 1.0]),
        "2f1a7f06c473b89092695e20f87d4d33e630546c46e01d80d8b17e8d08cd8a65",
        "5ab0a9c9a933c18a339cd84c2e8e1519876463cf1aba6a05bb076556b7e2bfe8"),
    # gamma < 0: the seeded start and the loose-Lanczos certificate
    "ssbm-negative-n400": (
        Preset.SSBM_NEGATIVE,
        dict(n_values=[400], u_offsets=[0.01], trials=2),
        "5752d8b8bbf767ef5736e9df1f73895acf4c6751716543a12be4798bbba99b1c",
        "d750764d518e8d3a425f6b8061384720df780332d520f8da8613f555f079b240"),
    # n = 315, all four saturations, with the diagnostics' deviation norm
    "saturation-sweep-n315": (
        Preset.SATURATION_SWEEP,
        dict(n1_values=[300], trials=1, diagnostics=True),
        "7ea9c52e88f3ef73a8ed942dd8861512d68bac325cae9e12035c05fbb948ec91",
        "bf8a0afa87372bebce218b74c470e239c1cb7d15f2044ed387ec4f5d77bd1658"),
}


@pytest.mark.parametrize("case", list(_GOLDEN_RECORDS))
def test_records_csv_golden(tmp_path, case):
    """The records of a small config of every preset, and of two configs at
    Krylov sizes, are pinned across commits, below the timestamp line and
    with the build-dependent numeric columns blanked; so is their whole
    summary CSV."""
    preset, overrides, digest, summary_digest = _GOLDEN_RECORDS[case]
    records = run_experiment(build_config(preset, base_seed=2024, **overrides), workers=1)
    summary_path = tmp_path / "summary.csv"
    write_summary_csv(summary_path, summarize(records))
    assert hashlib.sha256(summary_path.read_bytes()).hexdigest() == summary_digest
    path = tmp_path / "records.csv"
    write_records_csv(path, records)
    body = path.read_bytes().split(b"\r\n", 1)[1].decode()
    rows = list(csv.reader(io.StringIO(body)))
    blank = [i for i, name in enumerate(rows[0]) if name in _BUILD_DEPENDENT]
    for row in rows[1:]:
        for i in blank:
            row[i] = ""
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def _neutral_polish(offset, monkeypatch):
    """_guarded_polish from within 1e-8 of the origin of an n = 1000
    SSBM(0.005, 0.03) graph with gamma < 0, at u = the sampled graph's
    threshold + offset; returns its result and each certificate verdict."""
    params = SbmParams.ssbm(1000, 0.005, 0.03)
    graph = sample_sbm(params, 5)
    gamma = -1.0 / max_expected_degree(params)
    u1 = bifurcation_threshold(graph.adjacency, ModelParams(1.0, 0.1, 1.0, gamma))
    x = np.random.Generator(np.random.Philox(8)).uniform(-1e-8, 1e-8, graph.n)
    verdicts = []
    certificate = dynamics._is_stable
    monkeypatch.setattr(dynamics, "_is_stable",
                        lambda *args: verdicts.append(certificate(*args)) or verdicts[-1])
    result = dynamics._guarded_polish(x, ModelParams(1.0, u1 + offset, 1.0, gamma), graph, None)
    return result, verdicts


def test_unstable_origin_is_not_accepted_as_neutral_state(monkeypatch):
    """Near threshold the trajectory passes close to the origin on its way to
    the branch equilibrium. The polish there finds the origin; it is unstable
    at this u, so the stability certificate rejects it, once."""
    result, verdicts = _neutral_polish(0.01, monkeypatch)
    assert result is None
    assert verdicts == [False]


def test_stable_origin_is_accepted_as_neutral_state(monkeypatch):
    """Below threshold the same polish finds the origin, and the certificate
    accepts it as the neutral state."""
    result, verdicts = _neutral_polish(-0.01, monkeypatch)
    assert result is not None
    state, residual = result
    assert np.abs(state).max() <= NEUTRAL_TOL and residual <= dynamics.STEADY_TOL
    assert verdicts == [True]


# ---------------------------------------------------------------------------
# aggregation

def _record(acc, offset=0.01, failure="", m=None):
    return TrialRecord(
        preset="ssbm-positive", method="single-equilibrium", seed=1, trial=0, pair_set=None,
        n=20, n1=10, n2=10, l11=0.5, l12=0.1, l22=0.5, gamma_sign=1, delta=5.0,
        u_offset=offset, u=0.5, saturation="tanh", m=m, accuracy=acc,
        connected=True, converged=True, residual=1e-12, eigen_gap=None,
        sigma_min_x=None, concentration_ratio=None, alignment=None, failure=failure)


def test_summarize_single_record():
    rows = summarize([_record(0.8)])
    assert len(rows) == 1
    assert rows[0].mean_accuracy == 0.8
    assert rows[0].stderr == 0.0
    assert rows[0].count == 1


def test_summarize_mean():
    rows = summarize([_record(0.6), _record(0.8)])
    assert len(rows) == 1
    assert rows[0].mean_accuracy == pytest.approx(0.7)
    assert rows[0].stderr == pytest.approx(np.std([0.6, 0.8], ddof=1) / math.sqrt(2))


def test_summarize_groups_by_swept_parameters_only():
    rows = summarize([_record(0.6), _record(0.8), _record(0.9, offset=0.02)])
    assert len(rows) == 2
    assert [r.u_offset for r in rows] == [0.01, 0.02]


def test_summarize_counts_failures():
    rows = summarize([_record(0.6), _record(None, failure="neutral-state")])
    assert rows[0].count == 1 and rows[0].failures == 1


def test_summary_rows_follow_record_order():
    records = run_experiment(tiny_multi_config(), workers=1)
    first_seen = list(dict.fromkeys((r.n, r.m, r.method) for r in records))
    assert [(row.n, row.m, row.method) for row in summarize(records[::-1])] == first_seen


def test_summarize_empty():
    with pytest.raises(ValueError, match="no records to summarize"):
        summarize([])


# ---------------------------------------------------------------------------
# config files

def test_load_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "preset = ssbm-negative\n"
        "n_values = 200, 500\n"
        "trials = 4\n"
        "u_offsets = 0.01\n"
        "diagnostics = true\n"
        "ls = 0.005\n"
        "ld = 0.03\n")
    overrides = load_config_file(path)
    assert overrides["preset"] == "ssbm-negative"
    assert overrides["n_values"] == [200, 500]
    assert overrides["trials"] == 4
    assert overrides["diagnostics"] is True
    preset = overrides.pop("preset")
    config = build_config(preset, **overrides)
    assert config.trials == 4
    assert {p.sbm.n for p in config.points} == {200, 500}
    assert config.diagnostics


def test_load_config_file_skips_a_byte_order_mark(tmp_path):
    """A UTF-8 byte-order mark, as Windows editors write, is not part of the
    first key."""
    path = tmp_path / "exp.cfg"
    path.write_bytes(codecs.BOM_UTF8 + b"preset = ssbm-positive\ntrials = 2\n")
    assert load_config_file(path) == {"preset": "ssbm-positive", "trials": 2}


def test_load_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_config_file(path)
