import csv
import hashlib
import io
import math

import numpy as np
import pytest

from commdyn.detect import DetectionMethod
from commdyn.dynamics import Saturation
from commdyn.errors import EmptyInput
from commdyn.harness import (Preset, TrialRecord, build_config, derive_seed,
                             load_config_file, read_records_csv, resolve_m_values,
                             run_experiment, summarize, write_records_csv,
                             write_summary_csv)
from commdyn.graphgen import SbmParams
from commdyn.theory import expected_threshold


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


def test_build_config_custom_requires_shape():
    with pytest.raises(ValueError):
        build_config(Preset.CUSTOM, trials=2)


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
    ("custom", dict(n_values=[20], ls=0.6, ld=0.2),
     "missing config keys: gamma_sign, methods, saturations, trials, u_offsets"),
], ids=["n_values-for-unequal", "unequal-keys-for-ssbm", "ssbm-keys-for-unequal",
        "multi-keys-for-single", "custom-without-required"])
def test_build_config_rejects_keys_the_sweep_does_not_read(preset, overrides, message):
    """Every override the chosen sweep does not read, and every key it needs
    that neither the preset nor the overrides give, is named in the error."""
    with pytest.raises(ValueError, match=message):
        build_config(preset, **overrides)


def test_mixed_method_kinds_rejected():
    with pytest.raises(ValueError):
        build_config(Preset.SSBM_POSITIVE,
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


def test_parallel_matches_serial():
    serial = run_experiment(tiny_multi_config(), workers=1)
    parallel = run_experiment(tiny_multi_config(), workers=2)
    assert serial == parallel


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


# Columns computed by LAPACK/ARPACK, whose last bits may differ between
# numpy/scipy builds; the golden hashes below are taken with them blanked.
_BUILD_DEPENDENT = {"residual", "alignment", "concentration_ratio", "eigen_gap",
                    "sigma_min_x"}

# (overrides, records sha256, summary sha256)
_GOLDEN_RECORDS = {
    Preset.UNEQUAL_SBM: (
        dict(n1_values=[40, 80], u_offsets=[0.02], trials=3),
        "1922babf9873ffbbf7ec086f14d6d551538849b86a173e8cebadf36afc8055c5",
        "1fb757e94e11e7b352af6c0658e31b3e1a7dada8ddd0169b3afdebe4d391e813"),
    Preset.SATURATION_SWEEP: (
        dict(n1_values=[40], trials=2, diagnostics=True),
        "368bb1132d2b323902ca4daa35a753720beddd758b41aab8f9b5ae1b69a32301",
        "12f1ee5c00f1e6ee31d99ec583f6bd8a1583b568a03507d1bca64398325bd444"),
    Preset.SSBM_POSITIVE: (
        dict(n_values=[40], u_offsets=[0.02], trials=3),
        "efdfb44134c5a2120e9cef3f4f6239b6463f0d16c00ffb01355acfd38633c24c",
        "04d867139ff011aeb6ed46733ea1942fe0dd8201d4e241d994ac364204f82d65"),
    Preset.SSBM_NEGATIVE: (
        dict(n_values=[60, 120], u_offsets=[0.01], trials=3),
        "e8316af5aff123d028c327c1928d2fc0bed0d9056c030763bf8d0a3ea863d382",
        "f64701dfec4ee3c2cf910be3c5efe820d19f7f292dadd6b3ab8ed6a739737cd1"),
    Preset.MULTI_PAIRS: (
        dict(n_values=[16], trials=2, pair_sets=2, m_fractions=[0.25, 1.0]),
        "c1eea6c72c5f78a1560c755aa7a0cfa3f2115116a458afa0f89f108d20710b1c",
        "78e01eff79fe2db76a8a12db6c33840c05e17c9ba4c7831eac40958d4ae47ed9"),
}


@pytest.mark.parametrize("preset", list(_GOLDEN_RECORDS), ids=lambda p: p.value)
def test_records_csv_golden(tmp_path, preset):
    """The records of a small config of every preset are pinned across
    commits, below the timestamp line and with the build-dependent
    numeric columns blanked; so is their whole summary CSV."""
    overrides, digest, summary_digest = _GOLDEN_RECORDS[preset]
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


def test_unstable_origin_is_not_accepted_as_neutral_state():
    """Near threshold the trajectory passes close to the origin on its way to
    the branch equilibrium. The polish there finds the origin; it is unstable
    at this u, so the stability certificate rejects it and the trial goes on
    to the branch equilibrium instead of ending as neutral-state."""
    config = build_config(Preset.SSBM_NEGATIVE, base_seed=848297351135776325,
                          n_values=[1000, 2000], u_offsets=[0.01], trials=1)
    rows = {r.n: r for r in run_experiment(config, workers=1)}
    assert rows[2000].failure == ""
    assert rows[2000].converged and rows[2000].accuracy == 1.0


# ---------------------------------------------------------------------------
# aggregation

def _record(acc, offset=0.01, failure="", m=None):
    return TrialRecord(
        preset="custom", method="single-equilibrium", seed=1, trial=0, pair_set=None,
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
    with pytest.raises(EmptyInput):
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
    assert config.collect_diagnostics


def test_load_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_config_file(path)
