import csv

import numpy as np
import pytest

from commdyn.cli import main
from commdyn.dynamics import Equilibrium, read_equilibria_csv, write_equilibria_csv
from commdyn.graphgen import read_edge_list


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


BAD_INPUT_CASES = {
    "detect-multi-n-mismatch": ["detect-multi", "--states", "states.csv", "--inputs",
                                "inputs.csv", "--u", "0.5", "--gamma", "0.1", "--out", "est.csv"],
    "summarize-not-records": ["summarize", "--records", "states.csv"],
    "detect-single-unconverged": ["detect-single", "--states", "unconverged.csv",
                                  "--out", "est.csv"],
    "simulate-graph-no-header": ["simulate", "--graph", "graph.txt", "--gamma", "0.1",
                                 "--u", "0.5", "--out", "eq.csv"],
    "missing-file": ["summarize", "--records", "missing.csv"],
    "simulate-graph-no-n1": ["simulate", "--graph", "graph_n.txt", "--gamma", "0.1",
                             "--u", "0.5", "--out", "eq.csv"],
    "detect-single-empty-file": ["detect-single", "--states", "empty.csv", "--out", "est.csv"],
}


@pytest.mark.parametrize("argv", BAD_INPUT_CASES.values(), ids=BAD_INPUT_CASES.keys())
def test_bad_input_file_is_an_error_not_a_traceback(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    states = [Equilibrium(np.array([0.1, -0.2, 0.3]), 1e-13, True, 1.0),
              Equilibrium(np.array([0.2, -0.1, 0.3]), 1e-13, True, 1.0)]
    write_equilibria_csv("states.csv", states)
    (tmp_path / "inputs.csv").write_text("0.5,-0.5\r\n1.0,2.0\r\n")  # n = 2, states' n = 3
    write_equilibria_csv("unconverged.csv",
                         [Equilibrium(np.array([0.1, -0.2, 0.3]), 0.5, False, 1e5)])
    (tmp_path / "graph.txt").write_text("0 1\n1 2\n")
    (tmp_path / "graph_n.txt").write_text("# n=3\n0 1\n1 2\n")
    (tmp_path / "empty.csv").write_text("")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
