import csv
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commdyn import harness
from commdyn.cli import main, read_equilibria_csv, write_equilibria_csv
from commdyn.dynamics import Equilibrium
from commdyn.graphgen import SbmParams, read_edge_list
from commdyn.harness import build_config, derive_seed, read_records_csv, write_records_csv


SBM_FLAGS = ["--n1", "10", "--n2", "10", "--l11", "0.6", "--l12", "0.2", "--l22", "0.6"]


def _read_labels(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["agent", "label"]
    return np.array([int(r[1]) for r in rows[1:]])


def test_sample_graph_round_trip(tmp_path, capsys):
    out = tmp_path / "graph.txt"
    assert main(["sample-graph", *SBM_FLAGS, "--seed", "4", "--out", str(out)]) == 0
    graph = read_edge_list(out)
    assert graph.n == 20 and graph.n1 == 10
    assert "wrote" in capsys.readouterr().out


def test_simulate_and_detect_single(tmp_path, capsys):
    eq_csv = tmp_path / "eq.csv"
    code = main(["simulate", *SBM_FLAGS, "--graph-seed", "4", "--u-offset", "0.05",
                 "--ic-seed", "3", "--out", str(eq_csv)])
    assert code == 0
    eqs = read_equilibria_csv(eq_csv)
    assert len(eqs) == 1 and eqs[0].converged

    est_csv = tmp_path / "est.csv"
    code = main(["detect-single", "--states", str(eq_csv), "--n1", "10",
                 "--out", str(est_csv)])
    assert code == 0
    labels = _read_labels(est_csv)
    assert labels.size == 20 and set(labels) <= {1, 2}
    assert "accuracy=" in capsys.readouterr().out


def test_detect_single_rejects_row_out_of_range(tmp_path, capsys):
    eq_csv = tmp_path / "eq.csv"
    est_csv = tmp_path / "est.csv"
    main(["simulate", *SBM_FLAGS, "--graph-seed", "4", "--u-offset", "0.05",
          "--out", str(eq_csv)])
    capsys.readouterr()
    for row in ("1", "-1"):
        code = main(["detect-single", "--states", str(eq_csv), "--row", row,
                     "--out", str(est_csv)])
        assert code == 1
        assert f"error: --row {row} outside the 1 rows" in capsys.readouterr().err
    assert not est_csv.exists()


def test_simulate_pairs_and_detect_multi(tmp_path, capsys):
    x_csv = tmp_path / "x.csv"
    b_csv = tmp_path / "b.csv"
    code = main(["simulate", *SBM_FLAGS, "--graph-seed", "4", "--u-offset", "0.05",
                 "--pairs", "20", "--pair-seed", "8",
                 "--out", str(x_csv), "--inputs-out", str(b_csv)])
    assert code == 0
    stdout = capsys.readouterr().out
    model_line = next(line for line in stdout.splitlines() if line.startswith("model:"))
    with open(b_csv, newline="") as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh)]
    inputs = np.random.Generator(np.random.Philox(8)).standard_normal((20, 20))
    assert np.array_equal(np.array(rows), inputs.T)  # one row per pair, bit-exact
    fields = dict(tok.split("=") for tok in model_line.split()[1:])

    est_csv = tmp_path / "est.csv"
    code = main(["detect-multi", "--states", str(x_csv), "--inputs", str(b_csv),
                 "--u", fields["u"], "--gamma", fields["gamma"],
                 "--n1", "10", "--out", str(est_csv)])
    assert code == 0
    assert _read_labels(est_csv).size == 20


def test_simulate_offset_without_sbm_is_an_error(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    main(["sample-graph", *SBM_FLAGS, "--seed", "4", "--out", str(graph_file)])
    capsys.readouterr()
    code = main(["simulate", "--graph", str(graph_file), "--u-offset", "0.05",
                 "--out", str(tmp_path / "eq.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_experiment_and_summarize(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "preset = ssbm-positive\n"
        "n_values = 20\n"
        "ls = 0.6\n"
        "ld = 0.2\n"
        "u_offsets = 0.05\n"
        "trials = 2\n"
        "base_seed = 99\n")
    records_csv = tmp_path / "records.csv"
    code = main(["experiment", "--config", str(cfg), "--workers", "1",
                 "--out", str(records_csv)])
    assert code == 0
    assert "wrote 2 records" in capsys.readouterr().out

    summary_csv = tmp_path / "summary.csv"
    assert main(["summarize", "--records", str(records_csv),
                 "--out", str(summary_csv)]) == 0
    with open(summary_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "preset"
    assert len(rows) == 2


# sha256 of each file one small fixed CLI run writes; equilibria are hashed
# with the residual blanked and each state rounded to 9 significant digits,
# since the LAPACK solve of the Newton polish may differ in the last bits
# between numpy/scipy builds
_GOLDEN_CLI_FILES = {
    "graph.txt":
        "65552ca454d6bbb1fe7fa30eb5a176ce834c8668874368638979815015b89483",
    "eq.csv":
        "9554e9ac37ccfadabeb9e469fee53a18e1ad63a8311e87e49e4174e83ef1e7d9",
    "pairs.csv":
        "4c6e75fdbcba6ce7cce533278ce6adbb1d1271438eb7739ccdeb3a77fbd3d6ff",
    "inputs.csv":
        "41f80aa7d25c1de124cc95415d077de98ddce6890afb0552bbb812b8d82cc24b",
    "labels.csv":
        "92670aa8571a63002f93c166541b1a844af58c4aecfaa0c2b05e516bff6ebbe0",
    "labels_multi.csv":
        "6b748b12a6e336e2ee9e10610b24c4c8ccda004366d78727263e2f4f7996b7bc",
    "summary.csv":
        "e052c634bf14228a76f7b14e1db77c367351e562fea67e8349b88ebe102b9c96",
    "summary-stdout":
        "e052c634bf14228a76f7b14e1db77c367351e562fea67e8349b88ebe102b9c96",
}


def _equilibria_digest(text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    for row in rows[1:]:
        row[2:] = [""] + [format(float(cell), ".9g") for cell in row[3:]]
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_cli_written_files_golden(tmp_path, monkeypatch, capsys):
    """The edge list, equilibria, inputs, labels and summary (file and
    stdout) that the CLI writes on one small fixed run are pinned across
    commits."""
    monkeypatch.chdir(tmp_path)
    Path("exp.cfg").write_text("preset = ssbm-positive\nn_values = 20\nls = 0.6\nld = 0.2\n"
                               "u_offsets = 0.05, 0.1\ntrials = 3\nbase_seed = 99\n")
    assert main(["sample-graph", *SBM_FLAGS, "--seed", "4", "--out", "graph.txt"]) == 0
    assert main(["simulate", *SBM_FLAGS, "--graph-seed", "4", "--u-offset", "0.05",
                 "--ic-seed", "3", "--out", "eq.csv"]) == 0
    assert main(["simulate", *SBM_FLAGS, "--graph-seed", "4", "--u-offset", "0.05",
                 "--pairs", "20", "--pair-seed", "8", "--out", "pairs.csv",
                 "--inputs-out", "inputs.csv"]) == 0
    model_line = next(line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("model:"))
    fields = dict(tok.split("=") for tok in model_line.split()[1:])
    assert main(["detect-single", "--states", "eq.csv", "--n1", "10",
                 "--out", "labels.csv"]) == 0
    assert main(["detect-multi", "--states", "pairs.csv", "--inputs", "inputs.csv",
                 "--u", fields["u"], "--gamma", fields["gamma"], "--n1", "10",
                 "--out", "labels_multi.csv"]) == 0
    assert main(["experiment", "--config", "exp.cfg", "--workers", "1",
                 "--out", "records.csv"]) == 0
    assert main(["summarize", "--records", "records.csv", "--out", "summary.csv"]) == 0
    capsys.readouterr()
    assert main(["summarize", "--records", "records.csv"]) == 0
    digests = {"summary-stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    for name in _GOLDEN_CLI_FILES:
        if name in ("eq.csv", "pairs.csv"):
            digests[name] = _equilibria_digest(Path(name).read_bytes().decode())
        elif name != "summary-stdout":
            digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    assert digests == _GOLDEN_CLI_FILES


def test_experiment_preset_flag_overrides(tmp_path, capsys):
    records_csv = tmp_path / "records.csv"
    code = main(["experiment", "--preset", "ssbm-positive", "--trials", "1",
                 "--workers", "1", "--out", str(records_csv)])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote 4 records" in out  # 4 default offsets x 1 trial


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("preset = ssbm-negative\ntrails = 3\nn_value = 40\n")
    records_csv = tmp_path / "records.csv"
    code = main(["experiment", "--config", str(cfg), "--workers", "1",
                 "--out", str(records_csv)])
    assert code == 1
    assert "error: unknown config keys: n_value, trails" in capsys.readouterr().err
    assert not records_csv.exists()


def _experiment_seeds(tmp_path, config_text, *flags):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("preset = ssbm-positive\nn_values = 20\nls = 0.6\nld = 0.2\n"
                   "u_offsets = 0.05\ntrials = 2\n" + config_text)
    records_csv = tmp_path / "seed.csv"
    assert main(["experiment", "--config", str(cfg), *flags, "--workers", "1",
                 "--out", str(records_csv)]) == 0
    return [r.seed for r in read_records_csv(records_csv)]


def test_experiment_base_seed_reaches_build_config(tmp_path):
    """The config file's base_seed and --base-seed set the seeds; with
    neither, build_config's default holds."""
    default = _experiment_seeds(tmp_path, "")
    sbm = SbmParams.ssbm(20, 0.6, 0.2)
    assert default == [derive_seed(build_config("ssbm-positive").base_seed, "graph",
                                   (sbm.n1, sbm.n2, sbm.l11, sbm.l12, sbm.l22), trial)
                       for trial in range(2)]
    from_file = _experiment_seeds(tmp_path, "base_seed = 7\n")
    assert from_file != default
    assert _experiment_seeds(tmp_path, "", "--base-seed", "7") == from_file


def test_experiment_rejects_non_finite_offset(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("preset = ssbm-positive\nn_values = 20\nls = 0.6\nld = 0.2\n"
                   "u_offsets = inf\n")
    records_csv = tmp_path / "records.csv"
    code = main(["experiment", "--config", str(cfg), "--workers", "1",
                 "--out", str(records_csv)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not records_csv.exists()


_SSBM_CFG = "preset = ssbm-positive\nn_values = 20\nls = 0.6\nld = 0.2\n"
_MULTI_CFG = "preset = multi-pairs\nn_values = 20\n"
BAD_CONFIGS = {
    "n2-fraction-inf": ("preset = unequal-sbm\nn1_values = 20\nn2_fraction = inf\n",
                        "n2_fraction"),
    "trials-2.7": (_SSBM_CFG + "trials = 2.7\n", "trials"),
    "ls-word": ("preset = ssbm-positive\nn_values = 20\nls = abc\nld = 0.2\n", "ls"),
    "ls-list": ("preset = ssbm-positive\nn_values = 20\nls = 0.1, 0.2\nld = 0.2\n", "ls"),
    "l12-nan": ("preset = unequal-sbm\nn1_values = 20\nl12 = nan\n", "l12"),
    "m-fractions-word": (_MULTI_CFG + "m_fractions = abc\n", "m_fractions"),
    "m-fractions-inf": (_MULTI_CFG + "m_fractions = 0.5, inf\n", "m_fractions"),
    "m-fractions-5": (_MULTI_CFG + "m_fractions = 5\n", "m_fractions"),
    "m-fractions-0": (_MULTI_CFG + "m_fractions = 0, 0.5\n", "m_fractions"),
    "diagnostics-no": (_SSBM_CFG + "diagnostics = no\n", "diagnostics"),
    "diagnostics-off": (_SSBM_CFG + "diagnostics = off\n", "diagnostics"),
    "gamma-sign-fraction": (_SSBM_CFG + "gamma_sign = -1.5\n", "gamma_sign"),
    "base-seed-fraction": (_SSBM_CFG + "base_seed = 7.9\n", "base_seed"),
    "trials-true": (_SSBM_CFG + "trials = true\n", "trials"),
    "pair-sets-0": (_MULTI_CFG + "pair_sets = 0\n", "pair_sets"),
    "no-expected-edges": ("preset = ssbm-positive\nn_values = 20\nls = 0\nld = 0\n",
                          "link probabilities"),
    # sweeps run at d = alpha = 1: neither is a config key
    "d-0": (_SSBM_CFG + "d = 0\n", "error: unknown config keys: d\n"),
    "d-negative": (_SSBM_CFG + "d = -1\n", "error: unknown config keys: d\n"),
    "alpha-negative": (_SSBM_CFG + "alpha = -0.5\n", "error: unknown config keys: alpha\n"),
    "alpha-minus-5": (_SSBM_CFG + "alpha = -5\n", "error: unknown config keys: alpha\n"),
}


@pytest.mark.parametrize("config, key", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_experiment_rejects_bad_counts_and_fractions(config, key, tmp_path, monkeypatch,
                                                     capsys):
    """A config value of the wrong kind exits 1 with one error line naming
    its key, before any trial runs: no traceback, no misread value and no
    CSV. `d` and `alpha` are no config keys, so their cases give exactly
    the unknown-key line, whatever the value."""
    monkeypatch.setattr(harness, "_run_task", lambda job: pytest.fail("a trial ran"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(config)
    records_csv = tmp_path / "records.csv"
    code = main(["experiment", "--config", str(cfg), "--workers", "1",
                 "--out", str(records_csv)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert err == key if key.startswith("error: ") else key in err
    assert not records_csv.exists()


def test_experiment_preset_flag_overrides_the_file_preset(tmp_path, capsys):
    """--preset wins over a config file's preset key; a file-only preset
    still runs."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("preset = ssbm-negative\nn_values = 20\nls = 0.6\nld = 0.2\n"
                   "u_offsets = 0.05\ntrials = 1\n")
    records_csv = tmp_path / "records.csv"
    for flags, preset in ((["--preset", "ssbm-positive"], "ssbm-positive"),
                          ([], "ssbm-negative")):
        assert main(["experiment", *flags, "--config", str(cfg), "--workers", "1",
                     "--out", str(records_csv)]) == 0
        assert [r.preset for r in read_records_csv(records_csv)] == [preset]


def test_summarize_without_records_is_an_error_line(tmp_path, capsys):
    records_csv = tmp_path / "records.csv"
    write_records_csv(records_csv, [])
    assert main(["summarize", "--records", str(records_csv)]) == 1
    assert capsys.readouterr().err == "error: no records to summarize\n"


def test_simulate_rejects_nan_attention(tmp_path, capsys):
    eq_csv = tmp_path / "eq.csv"
    code = main(["simulate", *SBM_FLAGS, "--u", "nan", "--out", str(eq_csv)])
    assert code == 1
    assert "error: model parameters must be finite" in capsys.readouterr().err
    assert not eq_csv.exists()


# argv, and the `<file>:<line>` or flag the error line must name ("" for none)
_MULTI_ARGS = ["--u", "0.5", "--gamma", "0.1", "--out", "est.csv"]
BAD_INPUT_CASES = {
    "detect-multi-n-mismatch": (["detect-multi", "--states", "states.csv", "--inputs",
                                 "inputs.csv", *_MULTI_ARGS], ""),
    "summarize-not-records": (["summarize", "--records", "states.csv"], ""),
    "detect-single-unconverged": (["detect-single", "--states", "unconverged.csv",
                                   "--out", "est.csv"], ""),
    "simulate-graph-no-header": (["simulate", "--graph", "graph.txt", "--gamma", "0.1",
                                  "--u", "0.5", "--out", "eq.csv"], ""),
    "missing-file": (["summarize", "--records", "missing.csv"], ""),
    "simulate-graph-no-n1": (["simulate", "--graph", "graph_n.txt", "--gamma", "0.1",
                              "--u", "0.5", "--out", "eq.csv"], ""),
    "detect-single-empty-file": (["detect-single", "--states", "empty.csv", "--out", "est.csv"],
                                 ""),
    "records-short-row": (["summarize", "--records", "short.csv", "--out", "summary.csv"],
                          "short.csv:3:"),
    "records-extra-cell": (["summarize", "--records", "extra.csv", "--out", "summary.csv"],
                           "extra.csv:4:"),
    "records-converged-yes": (["summarize", "--records", "yes.csv", "--out", "summary.csv"],
                              "yes.csv:3:"),
    "equilibria-short-row": (["detect-single", "--states", "eq_short.csv", "--out", "est.csv"],
                             "eq_short.csv:3:"),
    "inputs-ragged": (["detect-multi", "--states", "states.csv", "--inputs", "ragged.csv",
                       *_MULTI_ARGS], "ragged.csv:2:"),
    "detect-single-nan-state": (["detect-single", "--states", "eq_nan.csv", "--out", "est.csv"],
                                "eq_nan.csv:3:"),
    "detect-single-empty-state": (["detect-single", "--states", "eq_empty.csv", "--out",
                                   "est.csv"], "eq_empty.csv:2:"),
    "detect-multi-nan-state": (["detect-multi", "--states", "eq_nan.csv", "--inputs",
                                "inputs3.csv", *_MULTI_ARGS], "eq_nan.csv:3:"),
    "detect-multi-inf-input": (["detect-multi", "--states", "states.csv", "--inputs",
                                "inputs_inf.csv", *_MULTI_ARGS], "inputs_inf.csv:2:"),
    "simulate-pairs-0": (["simulate", *SBM_FLAGS, "--u-offset", "0.05", "--pairs", "0",
                          "--out", "eq.csv"], "--pairs"),
    "simulate-pairs-negative": (["simulate", *SBM_FLAGS, "--u-offset", "0.05", "--pairs", "-1",
                                 "--out", "eq.csv"], "--pairs"),
    "simulate-no-expected-edges": (["simulate", "--n1", "10", "--n2", "10", "--l11", "0",
                                    "--l12", "0", "--l22", "0", "--u-offset", "0.1",
                                    "--out", "eq.csv"], "link probabilities"),
    "simulate-some-sbm-flags": (["simulate", "--n1", "10", "--u-offset", "0.1", "--out",
                                 "eq.csv"], "--n2 --l11 --l12 --l22"),
    "simulate-gamma-with-sbm-flags": (["simulate", *SBM_FLAGS, "--gamma", "5", "--u-offset",
                                       "0.05", "--out", "eq.csv"], "--gamma"),
    # --graph sets the graph and gamma: no flag that would set them goes unread
    "simulate-graph-with-sbm-flags": (["simulate", "--graph", "good.txt", *SBM_FLAGS,
                                       "--gamma", "0.1", "--u", "0.5", "--out", "eq.csv"],
                                      "--n1 --n2 --l11 --l12 --l22 cannot be given with --graph"),
    "simulate-graph-with-gamma-sign": (["simulate", "--graph", "good.txt", "--gamma-sign", "-1",
                                        "--gamma", "0.1", "--u", "0.5", "--out", "eq.csv"],
                                       "--gamma-sign cannot be given with --graph"),
    "simulate-graph-with-graph-seed": (["simulate", "--graph", "good.txt", "--graph-seed", "4",
                                        "--gamma", "0.1", "--u", "0.5", "--out", "eq.csv"],
                                       "--graph-seed cannot be given with --graph"),
    "experiment-workers-0": (["experiment", "--preset", "ssbm-positive", "--trials", "1",
                              "--workers", "0", "--out", "records.csv"], "--workers"),
    "experiment-workers-negative": (["experiment", "--preset", "ssbm-positive", "--trials", "1",
                                     "--workers", "-2", "--out", "records.csv"], "--workers"),
}


def _trial_record(trial):
    return harness.TrialRecord(
        preset="ssbm-positive", method="single-equilibrium", seed=7, trial=trial,
        pair_set=None, n=4, n1=2, n2=2, l11=0.6, l12=0.2, l22=0.6, gamma_sign=1, delta=0.1,
        u_offset=0.05, u=0.5, saturation="tanh", accuracy=1.0, connected=True,
        converged=True, residual=1e-13)


@pytest.mark.parametrize("argv, where", BAD_INPUT_CASES.values(), ids=BAD_INPUT_CASES.keys())
def test_bad_input_file_is_an_error_not_a_traceback(argv, where, tmp_path, monkeypatch, capsys):
    """A bad input file or count exits 1 with one error line, naming the
    malformed file's line or the flag, and writes no output file."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "_run_task", lambda job: pytest.fail("a trial ran"))
    states = [Equilibrium(np.array([0.1, -0.2, 0.3]), 1e-13, True, 1.0),
              Equilibrium(np.array([0.2, -0.1, 0.3]), 1e-13, True, 1.0)]
    write_equilibria_csv("states.csv", states)
    (tmp_path / "inputs.csv").write_text("0.5,-0.5\r\n1.0,2.0\r\n")  # n = 2, states' n = 3
    write_equilibria_csv("unconverged.csv",
                         [Equilibrium(np.array([0.1, -0.2, 0.3]), 0.5, False, 1e5)])
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n")
    (tmp_path / "graph_n.txt").write_text("# n=3\n0 1\n1 2\n")
    (tmp_path / "good.txt").write_text("# n=3 n1=1\n0 1\n1 2\n")
    (tmp_path / "empty.csv").write_text("")
    write_records_csv("records_ok.csv", [_trial_record(0), _trial_record(1)])
    stamp, header, first, second, _ = Path("records_ok.csv").read_bytes().decode().split("\r\n")
    yes = first.split(",")
    yes[harness.RECORD_FIELDS.index("converged")] = "yes"
    for name, rows in (("short.csv", [first.rsplit(",", 1)[0], second]),
                       ("extra.csv", [first, second + ",1"]),
                       ("yes.csv", [",".join(yes), second])):
        Path(name).write_bytes("\r\n".join([stamp, header, *rows, ""]).encode())
    (tmp_path / "eq_short.csv").write_text("trial,converged,residual,x0,x1,x2\n"
                                           "0,true,1e-13,0.1,-0.2,0.3\n1,true,1e-13,0.2,-0.1\n")
    (tmp_path / "ragged.csv").write_text("0.5,-0.5,0.1\n1.0,2.0\n")
    header = "trial,converged,residual,x0,x1,x2\n"
    (tmp_path / "eq_nan.csv").write_text(header + "0,true,1e-13,0.1,-0.2,0.3\n"
                                         "1,true,1e-13,0.2,nan,0.3\n")
    (tmp_path / "eq_empty.csv").write_text(header + "0,true,1e-13,0.1,,0.3\n"
                                           "1,true,1e-13,0.2,-0.1,0.3\n")
    (tmp_path / "inputs3.csv").write_text("0.5,-0.5,0.1\n1.0,2.0,-1.0\n")
    (tmp_path / "inputs_inf.csv").write_text("0.5,-0.5,0.1\n1.0,inf,-1.0\n")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert len(err.splitlines()) == 1 and where in err
    assert not any(Path(out).exists() for out in ("est.csv", "eq.csv", "records.csv",
                                                  "summary.csv"))


N1_OUT_OF_RANGE_CASES = {
    "edge-list-n1-above-n": (["simulate", "--graph", "graph.txt", "--gamma", "0.1",
                              "--u", "0.5", "--out", "eq.csv"], "n1=7", "n=4"),
    "edge-list-negative-n1": (["simulate", "--graph", "graph_neg.txt", "--gamma", "0.1",
                               "--u", "0.5", "--out", "eq.csv"], "n1=-1", "n=4"),
    "detect-single-n1-above-n": (["detect-single", "--states", "states.csv", "--n1", "9",
                                  "--out", "est.csv"], "n1=9", "n=4"),
    "detect-single-negative-n1": (["detect-single", "--states", "states.csv", "--n1", "-2",
                                   "--out", "est.csv"], "n1=-2", "n=4"),
    "detect-multi-negative-n1": (["detect-multi", "--states", "states.csv", "--inputs",
                                  "inputs.csv", "--u", "0.5", "--gamma", "0.1", "--n1", "-1",
                                  "--out", "est.csv"], "n1=-1", "n=4"),
}


@pytest.mark.parametrize("argv, n1_text, n_text", N1_OUT_OF_RANGE_CASES.values(),
                         ids=N1_OUT_OF_RANGE_CASES.keys())
def test_out_of_range_n1_is_an_error_naming_n1_and_n(argv, n1_text, n_text, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text("# n=4 n1=7\n0 1\n1 2\n2 3\n")
    (tmp_path / "graph_neg.txt").write_text("# n=4 n1=-1\n0 1\n1 2\n2 3\n")
    states = np.array([[0.1, -0.2, 0.3, -0.1], [0.2, -0.1, 0.1, -0.3],
                       [-0.1, 0.1, 0.2, -0.2], [0.3, 0.2, -0.1, 0.1]])
    write_equilibria_csv("states.csv", [Equilibrium(x, 1e-13, True, 1.0) for x in states])
    np.savetxt("inputs.csv", 0.5 * states, delimiter=",")  # one row per pair
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert n1_text in err and n_text in err
    assert not (tmp_path / "eq.csv").exists() and not (tmp_path / "est.csv").exists()


MALFORMED_EDGE_LISTS = {
    "header-field-without-equals": ("# n=4 n1=2 x\n0 1\n", "graph.txt:1:", "'x'"),
    "header-field-not-an-integer": ("# n=4 n1=two\n0 1\n", "graph.txt:1:", "'n1=two'"),
    "edge-agent-not-an-integer": ("# n=4 n1=2\n0 1\n0 a\n", "graph.txt:3:", "'0 a'"),
    "edge-with-three-agents": ("# n=4 n1=2\n0 1\n\n0 1 2\n", "graph.txt:4:", "'0 1 2'"),
}


@pytest.mark.parametrize("text, line, field", MALFORMED_EDGE_LISTS.values(),
                         ids=MALFORMED_EDGE_LISTS.keys())
def test_malformed_edge_list_is_an_error_naming_the_line(text, line, field, tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(text)
    assert main(["simulate", "--graph", "graph.txt", "--gamma", "0.1", "--u", "0.5",
                 "--out", "eq.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert line in err and field in err
    assert not (tmp_path / "eq.csv").exists()


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _unpinned_env():
    """The environment without the BLAS thread variables, importing commdyn
    from src/."""
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return env


def test_import_commdyn_pins_blas_threads_unless_set():
    """`import commdyn` sets each unset BLAS thread variable to 1 without
    loading numpy, and keeps a value the environment already gives."""
    env = _unpinned_env()
    probe = ("import os, sys, commdyn; assert 'numpy' not in sys.modules; "
             "print(' '.join(os.environ[v] for v in %r))" % (_THREAD_VARIABLES,))
    for preset, expected in ((None, "1 1 1"), ("3", "3 1 1")):
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == expected


def test_library_run_writes_the_cli_records(tmp_path):
    """With the thread variables unset, a fresh `harness.run_experiment`
    writes the records `commdyn experiment` writes for the same config, below
    the timestamp line: both pin one BLAS thread when commdyn is imported
    (`alignment` moves in its last bit at other thread counts)."""
    env = _unpinned_env()
    (tmp_path / "sat.cfg").write_text("preset = saturation-sweep\nn1_values = 100\ntrials = 1\n")
    library = ("from commdyn import harness\n"
               "config = harness.build_config('saturation-sweep', n1_values=[100], trials=1,\n"
               "                              diagnostics=True)\n"
               "harness.write_records_csv('library.csv', harness.run_experiment(config, workers=1))\n")
    cli = ["-m", "commdyn", "experiment", "--config", "sat.cfg", "--diagnostics",
           "--workers", "1", "--out", "cli.csv"]
    for argv in (["-c", library], cli):
        subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True,
                       check=True, timeout=300)
    library_rows, cli_rows = ((tmp_path / name).read_bytes().split(b"\r\n", 1)[1]
                              for name in ("library.csv", "cli.csv"))
    assert library_rows == cli_rows


def _run_fresh(probe):
    """Run `probe` in a fresh interpreter that imports commdyn from src/."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_leaves_the_ode_solver_for_the_first_ode_solve():
    """`import commdyn.cli` loads none of scipy.optimize, scipy.integrate and
    scipy.special; the first ODE solve imports scipy.integrate and keeps its
    RK45 as the module attribute dynamics.RK45."""
    probe = (
        "import sys, numpy as np, commdyn.cli\n"
        "from commdyn import dynamics, graphgen\n"
        "bad = {'scipy.optimize', 'scipy.integrate', 'scipy.special'} & set(sys.modules)\n"
        "assert not bad, f'loaded at import: {sorted(bad)}'\n"
        "g = graphgen.sample_sbm(graphgen.SbmParams(10, 10, 0.6, 0.2, 0.6), 4)\n"
        "dynamics.equilibria_for_inputs(g, dynamics.ModelParams(1.0, 0.5, 1.0, 0.1),\n"
        "                               np.ones((20, 1)))\n"
        "import scipy.integrate\n"
        "assert vars(dynamics)['RK45'] is dynamics.RK45 is scipy.integrate.RK45\n")
    done = _run_fresh(probe)
    assert done.returncode == 0, done.stderr


def test_cli_import_leaves_the_process_pool_for_the_first_pooled_run():
    """`import commdyn.cli` loads neither multiprocessing nor
    concurrent.futures.process; only a pooled run imports the pool class."""
    probe = (
        "import sys, commdyn.cli\n"
        "bad = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
        "assert not bad, f'loaded at import: {sorted(bad)}'\n")
    done = _run_fresh(probe)
    assert done.returncode == 0, done.stderr


def test_seeded_sweep_leaves_the_scipy_solvers_unloaded():
    """Neither `import commdyn.cli` nor an ssbm-negative sweep at n = 1000
    with diagnostics on, whose equilibria the seeded start solves, loads
    scipy.linalg, scipy.sparse.linalg or scipy.sparse.csgraph: eigenpairs,
    Newton steps and connectivity come from commdyn's own kernels."""
    probe = (
        "import sys, commdyn.cli\n"
        "from commdyn.harness import Preset, build_config, run_experiment\n"
        "solvers = {'scipy.linalg', 'scipy.sparse.linalg', 'scipy.sparse.csgraph'}\n"
        "assert not solvers & set(sys.modules), 'loaded at import'\n"
        "config = build_config(Preset.SSBM_NEGATIVE, base_seed=3, n_values=[1000],\n"
        "                      u_offsets=[0.02], trials=2, diagnostics=True)\n"
        "records = run_experiment(config, workers=1)\n"
        "assert all(r.failure == '' and r.converged and r.alignment for r in records)\n"
        "assert 'scipy.integrate' not in sys.modules, 'the seeded start did not solve'\n"
        "bad = solvers & set(sys.modules)\n"
        "assert not bad, f'loaded by the sweep: {sorted(bad)}'\n")
    done = _run_fresh(probe)
    assert done.returncode == 0, done.stderr


def test_saturation_sweep_leaves_scipy_special_unloaded():
    """A saturation-sweep run over all four saturations, whose equilibria
    the seeded start solves, loads neither scipy.special (the erf
    saturation is numpy code) nor scipy.integrate."""
    probe = (
        "import sys, commdyn.cli\n"
        "from commdyn.harness import Preset, build_config, run_experiment\n"
        "config = build_config(Preset.SATURATION_SWEEP, n1_values=[100], trials=1)\n"
        "records = run_experiment(config, workers=1)\n"
        "assert {r.saturation for r in records} == {'tanh', 'alg-abs', 'alg-sqrt', 'erf'}\n"
        "bad = {'scipy.special', 'scipy.integrate'} & set(sys.modules)\n"
        "assert not bad, f'loaded by the sweep: {sorted(bad)}'\n")
    done = _run_fresh(probe)
    assert done.returncode == 0, done.stderr


def test_tanh_seeded_equilibrium_leaves_scipy_special_unloaded():
    """A tanh integrate_to_equilibrium at n = 400 that the seeded start
    solves imports neither scipy.special nor scipy.integrate."""
    probe = (
        "import sys, numpy as np\n"
        "from commdyn import dynamics, graphgen\n"
        "p = graphgen.SbmParams.ssbm(400, 0.06, 0.02)\n"
        "g = next(g for g in (graphgen.sample_sbm(p, s) for s in range(50))\n"
        "         if graphgen.is_connected(g))\n"
        "gamma = -1.0 / graphgen.max_expected_degree(p)\n"
        "u = 1.0 / (1.0 + gamma * g.extreme_eigenpair('SA')[0])  # the origin's threshold\n"
        "m = dynamics.ModelParams(1.0, u + 0.02, 1.0, gamma, dynamics.Saturation.TANH)\n"
        "x0 = np.random.Generator(np.random.Philox(40)).uniform(-1e-3, 1e-3, g.n)\n"
        "eq = dynamics.integrate_to_equilibrium(x0, m, g)\n"
        "assert eq.converged and eq.elapsed_model_time == 0.0, 'the seeded start did not solve'\n"
        "bad = {'scipy.special', 'scipy.integrate'} & set(sys.modules)\n"
        "assert not bad, f'loaded by a tanh solve: {sorted(bad)}'\n")
    done = _run_fresh(probe)
    assert done.returncode == 0, done.stderr
