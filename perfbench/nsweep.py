"""Layer n-sweep: the time of one call of each kernel on its own, over n.

Graphs are SSBM(n, ls=0.005, ld=0.03), the sparse near-threshold regime of
the ssbm-negative preset. Each cell reports the median time of one call;
calls faster than MIN_TOTAL_S are repeated until MIN_TOTAL_S is spent or
MAX_REPEATS calls are made.
`newton_refine` runs with max_iter=1, so a cell is one Jacobian build and
solve. `detect_multi` gets m = max(2, n // 10) pairs (the preset's smallest m
fraction) that satisfy the inversion's domain by construction.
"""

import statistics
import time

import numpy as np

N_VALUES = (100, 1000, 4000)
CELLS = ("graphgen.sample_sbm", "graphgen.is_connected", "dynamics.rhs",
         "dynamics.rk45_step", "dynamics.newton_refine", "spectral.sym_eig",
         "spectral.kmeans_two_1d", "detect.detect_multi")
MIN_TOTAL_S = 0.2
MAX_REPEATS = 50


def metric_names(n_values=N_VALUES):
    return [f"{cell}.n{n}_s" for cell in CELLS for n in n_values]


def _time_call(call):
    times = []
    while not times or (sum(times) < MIN_TOTAL_S and len(times) < MAX_REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _calls(n, seed):
    from commdyn import detect, dynamics, graphgen, spectral
    params = graphgen.SbmParams.ssbm(n, 0.005, 0.03)
    graph = graphgen.sample_sbm(params, seed)
    rng = np.random.Generator(np.random.Philox(seed))
    x = rng.uniform(-0.1, 0.1, n)
    gamma = -1.0 / graphgen.max_expected_degree(params)
    model = dynamics.ModelParams(1.0, 1.5, 1.0, gamma)
    b = rng.standard_normal(n)
    solver = dynamics.RK45(lambda _t, y: dynamics.rhs(y, model, graph), 0.0, x,
                           t_bound=1e5, rtol=1e-9, atol=1e-9, first_step=1e-3)
    m = max(2, n // 10)
    X = rng.uniform(-0.1, 0.1, (n, m))
    multi_model = dynamics.ModelParams(1.0, 1.5, 1.0, -gamma)
    B = X - multi_model.u * np.tanh(rng.standard_normal((n, m)))
    pairs = detect.PairSet(X, B, multi_model)
    return {
        "graphgen.sample_sbm": lambda: graphgen.sample_sbm(params, seed),
        "graphgen.is_connected": lambda: graphgen.is_connected(graph),
        "dynamics.rhs": lambda: dynamics.rhs(x, model, graph),
        "dynamics.rk45_step": solver.step,
        "dynamics.newton_refine": lambda: dynamics.newton_refine(x, model, graph, b,
                                                                 max_iter=1),
        "spectral.sym_eig": lambda: spectral.sym_eig(graph.adjacency),
        "spectral.kmeans_two_1d": lambda: spectral.kmeans_two_1d(x),
        "detect.detect_multi": lambda: detect.detect_multi(pairs),
    }


def layer_sweep(seed, n_values=N_VALUES):
    """{metric name: seconds per call} for every cell of the n-sweep."""
    metrics = {}
    for n in n_values:
        calls = _calls(n, seed)
        for cell in CELLS:
            metrics[f"{cell}.n{n}_s"] = _time_call(calls[cell])
    return metrics
