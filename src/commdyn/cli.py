"""Command line interface: graph sampling, simulation, detection, experiments."""

import argparse
import sys

import numpy as np

from . import detect, dynamics, graphgen, harness, theory

_SBM_FLAGS = ("n1", "n2", "l11", "l12", "l22")


def _add_sbm_flags(parser, required=False):
    parser.add_argument("--n1", type=int, required=required, help="size of community 1")
    parser.add_argument("--n2", type=int, required=required, help="size of community 2")
    parser.add_argument("--l11", type=float, required=required)
    parser.add_argument("--l12", type=float, required=required)
    parser.add_argument("--l22", type=float, required=required)


def _sbm_from_args(args):
    """The SBM of the SBM flags, None if none of them is given."""
    values = [getattr(args, flag) for flag in _SBM_FLAGS]
    missing = [f"--{flag}" for flag, value in zip(_SBM_FLAGS, values) if value is None]
    if len(missing) == len(values):
        return None
    if missing:
        raise ValueError(f"the SBM flags go together: missing {' '.join(missing)}")
    return graphgen.SbmParams(*values)


def _check_seeds(args, *names):
    """ValueError naming the first of the seed flags `names` that is
    negative: a Philox key is a non-negative integer."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative, got {value}")


def _add_model_flags(parser):
    parser.add_argument("--d", type=float, default=1.0, help="damping coefficient")
    parser.add_argument("--alpha", type=float, default=1.0, help="self weight")
    parser.add_argument("--saturation", default="tanh",
                        choices=[s.value for s in dynamics.Saturation])


def _cmd_sample_graph(args):
    _check_seeds(args, "seed")
    params = _sbm_from_args(args)
    graph = graphgen.sample_sbm(params, args.seed)
    graphgen.write_edge_list(graph, args.out)
    print(f"wrote {args.out}: n={graph.n}, edges={int(graph.adjacency.sum()) // 2}, "
          f"connected={graphgen.is_connected(graph)}")
    if not graphgen.check_assumptions(params):
        print("note: link probabilities fail the advisory growth conditions")
    return 0


def _resolve_model(args, params):
    """Resolve u (absolute or offset from the expected threshold) and gamma."""
    dynamics.ModelParams(args.d, 0.0, args.alpha, 1.0)  # --d and --alpha, before the threshold
    if params is not None:
        if args.gamma is not None:
            raise ValueError("--gamma cannot be given with the SBM flags, which set "
                             "gamma = --gamma-sign/Delta")
        u_bar, gamma, _ = theory.expected_threshold(params, args.gamma_sign or 1, args.d,
                                                    args.alpha)
    else:
        u_bar, gamma = None, args.gamma
    if args.u is not None:
        u = args.u
    elif params is None:
        raise ValueError("--u-offset needs the SBM flags to locate the threshold")
    elif u_bar is None:
        raise ValueError("threshold undefined for these parameters")
    else:
        u = u_bar + args.u_offset
    if gamma is None:
        raise ValueError("need --gamma when no SBM flags are given")
    return dynamics.ModelParams(args.d, u, args.alpha, gamma,
                                dynamics.Saturation(args.saturation))


def _cmd_simulate(args):
    _check_seeds(args, "graph_seed", "ic_seed", "pair_seed")
    if args.pairs is not None and args.pairs < 1:
        raise ValueError(f"--pairs must be at least 1, got {args.pairs}")
    if args.graph:
        given = [f"--{flag.replace('_', '-')}" for flag in (*_SBM_FLAGS, "gamma_sign", "graph_seed")
                 if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"{' '.join(given)} cannot be given with --graph, which sets the "
                             "graph and takes an absolute --gamma")
        graph = graphgen.read_edge_list(args.graph)
        if graph.n == 0:
            raise ValueError(f"{args.graph}: the edge list has no agents")
        params = None
    else:
        params = _sbm_from_args(args)
        if params is None:
            raise ValueError("give --graph or the SBM flags")
        graph = graphgen.sample_sbm(params, args.graph_seed or 0)
    model = _resolve_model(args, params)
    print(f"model: d={model.d} u={model.u!r} alpha={model.alpha} "
          f"gamma={model.gamma!r} saturation={model.saturation.value}")
    if args.pairs:
        pairs, eqs = harness.generate_pair_set(graph, model, args.pairs, args.pair_seed)
        write_equilibria_csv(args.out, eqs)
        if args.inputs_out:
            # one row per pair (column of B): its n entries, no header
            harness.write_rows(args.inputs_out, pairs.B.T.tolist())
        print(f"wrote {args.pairs} input-driven equilibria to {args.out}")
    else:
        x0 = harness.small_start(graph.n, args.ic_seed)
        eq = dynamics.integrate_to_equilibrium(x0, model, graph)
        write_equilibria_csv(args.out, [eq])
        print(f"wrote equilibrium to {args.out}: converged={eq.converged}, "
              f"residual={eq.residual_inf:.3e}, t={eq.elapsed_model_time:.1f}")
    return 0


def write_equilibria_csv(path, equilibria) -> None:
    """Rows: trial id, convergence flag, residual, then the n state entries."""
    rows = [[t, bool(eq.converged), float(eq.residual_inf), *eq.state.tolist()]
            for t, eq in enumerate(equilibria)]
    if not rows:
        raise ValueError("nothing to write")
    header = ["trial", "converged", "residual"] + [f"x{i}" for i in range(len(rows[0]) - 3)]
    harness.write_rows(path, [header, *rows])


def _finite_float(cell) -> float:
    """A state or input cell: a finite number, or ValueError."""
    value = float(cell)
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {cell!r}")
    return value


def read_equilibria_csv(path) -> list:
    rows = harness.read_rows(path, {"trial": int, "converged": bool, "residual": float},
                             rest=_finite_float)
    return [dynamics.Equilibrium(np.array(row[3:], dtype=float), row[2], row[1], 0.0)
            for row in rows]


def _write_estimate(path, estimate, acc):
    harness.write_rows(path, [("agent", "label"), *enumerate(estimate.labels.tolist())])
    extras = " ".join(f"{k}={v}" for k, v in estimate.diagnostics.items())
    acc_text = f" accuracy={acc!r}" if acc is not None else ""
    print(f"method={estimate.method.value}{acc_text} degenerate={estimate.degenerate} {extras}")


def _truth_accuracy(labels, n1):
    if n1 is None:
        return None
    return detect.accuracy(graphgen.block_labels(labels.size, n1), labels)


def _cmd_detect_single(args):
    eqs = read_equilibria_csv(args.states)
    if not 0 <= args.row < len(eqs):
        raise ValueError(f"--row {args.row} outside the {len(eqs)} rows of {args.states}")
    estimate = detect.detect_single(eqs[args.row])
    _write_estimate(args.out, estimate, _truth_accuracy(estimate.labels, args.n1))
    return 0


def _cmd_detect_multi(args):
    states = read_equilibria_csv(args.states)
    B = np.array(harness.read_rows(args.inputs, {}, rest=_finite_float), ndmin=2).T
    if len(states) != B.shape[1]:
        raise ValueError("states and inputs must pair up")
    X = np.column_stack([eq.state for eq in states])
    model = dynamics.ModelParams(args.d, args.u, args.alpha, args.gamma,
                                 dynamics.Saturation(args.saturation))
    estimate = detect.detect_multi(detect.PairSet(X, B, model))
    _write_estimate(args.out, estimate, _truth_accuracy(estimate.labels, args.n1))
    return 0


def _cmd_experiment(args):
    if args.workers is not None and args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    overrides = harness.load_config_file(args.config) if args.config else {}
    for key in ("trials", "base_seed", "pair_sets", "gamma_sign"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    if args.diagnostics:
        overrides["diagnostics"] = True
    file_preset = overrides.pop("preset", None)
    preset = args.preset or file_preset
    if preset is None:
        raise ValueError("give a preset name or a config file with a preset key")
    config = harness.build_config(preset, **overrides)
    records = harness.run_experiment(config, workers=args.workers)
    out = args.out or "records.csv"
    harness.write_records_csv(out, records)
    ok = sum(1 for r in records if r.failure == "")
    print(f"wrote {len(records)} records ({ok} ok) to {out}")
    for row in harness.summarize(records):
        print(f"  n={row.n} n1={row.n1} offset={row.u_offset} sat={row.saturation} "
              f"m={row.m} {row.method}: mean={row.mean_accuracy} "
              f"stderr={row.stderr} trials={row.count} failures={row.failures}")
    return 0


def _cmd_summarize(args):
    records = harness.read_records_csv(args.records)
    rows = harness.summarize(records)
    harness.write_summary_csv(args.out or sys.stdout, rows)
    if args.out:
        print(f"wrote {len(rows)} summary rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="commdyn",
                                     description="Opinion-dynamics community detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-graph", help="sample an SBM graph to an edge list")
    _add_sbm_flags(p, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_graph)

    p = sub.add_parser("simulate", help="integrate the opinion model to equilibrium")
    p.add_argument("--graph", help="edge-list file (alternative to the SBM flags)")
    _add_sbm_flags(p)
    p.add_argument("--graph-seed", type=int, help="SBM sample seed (default 0)")
    _add_model_flags(p)
    p.add_argument("--gamma-sign", type=int, choices=(1, -1),
                   help="sign of gamma = sign/Delta with the SBM flags (default 1)")
    p.add_argument("--gamma", type=float, help="absolute influence weight (with --graph)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--u", type=float, help="absolute attention value")
    group.add_argument("--u-offset", type=float, help="offset above the expected threshold")
    p.add_argument("--ic-seed", type=int, default=0)
    p.add_argument("--pairs", type=int, help="generate this many Gaussian-input equilibria")
    p.add_argument("--pair-seed", type=int, default=1)
    p.add_argument("--inputs-out", help="where to write the inputs (with --pairs)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("detect-single", help="cluster one equilibrium")
    p.add_argument("--states", required=True, help="equilibrium CSV")
    p.add_argument("--row", type=int, default=0)
    p.add_argument("--n1", type=int, help="true size of community 1, for accuracy")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect_single)

    p = sub.add_parser("detect-multi", help="detect from input-equilibrium pairs")
    p.add_argument("--states", required=True, help="equilibria CSV (one row per pair)")
    p.add_argument("--inputs", required=True, help="inputs CSV (one row of n floats per pair)")
    _add_model_flags(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--n1", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect_multi)

    p = sub.add_parser("experiment", help="run a preset or config-file experiment")
    p.add_argument("--preset", choices=[x.value for x in harness.Preset])
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--trials", type=int)
    p.add_argument("--base-seed", type=int, dest="base_seed")
    p.add_argument("--pair-sets", type=int, dest="pair_sets")
    p.add_argument("--gamma-sign", type=int, dest="gamma_sign", choices=(1, -1))
    p.add_argument("--diagnostics", action="store_true")
    p.add_argument("--workers", type=int, help="worker processes (default: the CPU count)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("summarize", help="aggregate a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_summarize)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; a ValueError or OSError prints `error: ...`."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
