"""Spans and counters around commdyn's public functions, installed from outside.

The tracer replaces every public function of the layer modules, in every
commdyn module that holds a reference to it, with a wrapper that records a
span (name, start, end, parent, trial). `harness._run_task`, the function a
sweep calls once per task, becomes the trial root, and `dynamics.RK45` is
replaced by a subclass that counts steps. `restore()` puts every original
back. Nothing under src/ changes.
"""

import inspect
import json
import pickle
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("graphgen", "dynamics", "spectral", "detect", "theory", "harness")
TRIAL_ROOT = "harness.task"
_WRAPPED = "__perfbench_original__"


def _observe_newton(tracer, result):
    tracer.counts["newton_converged"] += bool(result.converged)


def _observe_equilibrium(tracer, result):
    eqs = result if isinstance(result, list) else [result]
    tracer.counts["equilibria"] += len(eqs)
    tracer.counts["converged"] += sum(bool(eq.converged) for eq in eqs)


def _observe_graph(tracer, result):
    tracer.counts["adjacency_bytes"] = max(tracer.counts["adjacency_bytes"],
                                           int(result.adjacency.nbytes))


_OBSERVERS = {
    "dynamics.newton_refine": _observe_newton,
    "dynamics.integrate_to_equilibrium": _observe_equilibrium,
    "dynamics.equilibria_for_inputs": _observe_equilibrium,
    "graphgen.sample_sbm": _observe_graph,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, trial id, child time]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.trial = -1
        self._trials = 0
        self.counts = Counter()
        self._solvers = []
        self._patches = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap the public functions of each layer module of `package`."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == module.__name__):
                    replacements[fn] = self._wrap(f"{layer}.{name}", fn)
        harness = sys.modules[f"{package.__name__}.harness"]
        replacements[harness._run_task] = self._trial_root(harness._run_task)
        dynamics = sys.modules[f"{package.__name__}.dynamics"]
        replacements[dynamics.RK45] = self._counting_solver(dynamics.RK45)
        for module in modules:
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = replacements.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @staticmethod
    def leftovers(package):
        """(module, attribute) pairs still bound to a tracer wrapper."""
        found = []
        for name, module in sorted(sys.modules.items()):
            if name == package.__name__ or name.startswith(package.__name__ + "."):
                for attr, value in vars(module).items():
                    if hasattr(value, _WRAPPED):
                        found.append((name, attr))
        return found

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, tracer.trial, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent >= 0:
                    spans[parent][5] += span[2] - span[1]
            if observe is not None:
                observe(tracer, result)
            return result

        wrapper.__name__ = fn.__name__
        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def _trial_root(self, fn):
        inner = self._wrap(TRIAL_ROOT, fn)
        tracer = self

        def trial(*args, **kwargs):
            tracer.trial = tracer._trials
            tracer._trials += 1
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.trial = -1
                tracer.counts["rk_nfev"] += sum(s.nfev for s in tracer._solvers)
                tracer._solvers.clear()

        setattr(trial, _WRAPPED, fn)
        return trial

    def _counting_solver(self, base):
        tracer = self

        class CountingRK45(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer._solvers.append(self)

            def step(self):
                tracer.counts["rk_steps"] += 1
                return super().step()

        setattr(CountingRK45, _WRAPPED, base)
        return CountingRK45

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per line; `parent` is the line number (from 0) of
        the enclosing span or -1, `trial` the trial id or -1 outside trials."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, trial, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "trial": trial}) + "\n")

    def summary(self):
        """Per-trial layer metrics from the spans recorded so far."""
        trials = self._trials
        inclusive = defaultdict(float)
        calls = Counter()
        layer_self = defaultdict(float)
        trial_walls, root_self = [], 0.0
        sweep_time = defaultdict(float)
        for name, start, end, _, trial, child in self.spans:
            duration = end - start
            if trial < 0:
                sweep_time[name] += duration
                continue
            if name == TRIAL_ROOT:
                trial_walls.append(duration)
                root_self += duration - child
                continue
            inclusive[name] += duration
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += duration - child
        wall = sum(trial_walls)
        counts = self.counts

        def per_trial(value):
            return value / trials

        def share(name):
            return inclusive[name] / wall

        newton_calls = calls["dynamics.newton_refine"]
        deciles = statistics.quantiles(trial_walls, n=10) if trials > 1 else trial_walls * 9
        metrics = {f"{layer}.self_s": per_trial(layer_self[layer]) for layer in LAYERS}
        metrics.update({
            "graphgen.sample_s": per_trial(inclusive["graphgen.sample_sbm"]),
            "graphgen.connected_s": per_trial(inclusive["graphgen.is_connected"]),
            "graphgen.adjacency_bytes": counts["adjacency_bytes"],
            "dynamics.integrate_s": per_trial(inclusive["dynamics.integrate_to_equilibrium"]
                                              + inclusive["dynamics.equilibria_for_inputs"]),
            "dynamics.rhs_s": per_trial(inclusive["dynamics.rhs"]),
            "dynamics.rk_steps": per_trial(counts["rk_steps"]),
            "dynamics.rk_nfev": per_trial(counts["rk_nfev"]),
            "dynamics.newton_calls": per_trial(newton_calls),
            "dynamics.newton_iters": per_trial(calls["dynamics.jacobian"]),
            "dynamics.newton_s": per_trial(inclusive["dynamics.newton_refine"]),
            "dynamics.polish_useful_frac": (counts["newton_converged"] / newton_calls
                                            if newton_calls else 0.0),
            "dynamics.converged_frac": (counts["converged"] / counts["equilibria"]
                                        if counts["equilibria"] else 0.0),
            "spectral.sym_eig_calls": per_trial(calls["spectral.sym_eig"]),
            "spectral.sym_eig_share": share("spectral.sym_eig"),
            "spectral.kmeans_s": per_trial(inclusive["spectral.kmeans_two_1d"]),
            "detect.single_s": per_trial(inclusive["detect.detect_single"]),
            "theory.alignment_share": share("theory.alignment_check"),
            "theory.concentration_share": share("theory.concentration_ratio"),
            "harness.trials": trials,
            "harness.trial_p50_s": statistics.median(trial_walls),
            "harness.trial_p90_s": deciles[-1],
            "harness.unattributed_frac": root_self / wall,
            "harness.csv_write_s": per_trial(sweep_time["harness.write_records_csv"]),
            "harness.summarize_s": per_trial(sweep_time["harness.summarize"]),
        })
        return metrics


def counting_pool(base, tally):
    """Subclass of the harness's pool class that adds up, in `tally`, the
    pickled size of every item a sweep submits to the pool."""

    class CountingPool(base):
        def map(self, fn, *iterables, **kwargs):
            columns = [list(it) for it in iterables]
            for item in zip(*columns):
                tally["bytes"] += len(pickle.dumps((fn, item)))
                tally["items"] += 1
            return super().map(fn, *columns, **kwargs)

    setattr(CountingPool, _WRAPPED, base)
    return CountingPool
