"""Workload definitions and the acceptance trends each workload must show.

A workload is one commdyn preset sweep. A run measures it as a sequence of
sub-sweeps k = 0, 1, 2, ...; sub-sweep k is the preset config with one trial
per parameter point and a base seed hashed from (workload, benchmark seed,
k). Many short sub-sweeps with distinct seeds average over more graphs per
second of measurement than repeating one sweep, which keeps the throughput
steady across benchmark seeds.

A third workload, the multi-pairs preset at n=100, was measured and left
out: on a shared 2-CPU machine its serial throughput moved by 15-25%
(quartile spread over ten runs) with the machine's speed over minutes,
too unsteady for a regression bound of 25%.
"""

import dataclasses
import hashlib

# Sub-sweeps a throughput median needs at the least.
MIN_SWEEPS = 3

# Overrides handed to harness.build_config, per workload and size class.
# "full" is what the benchmark measures; "tiny" is for the self-check only.
WORKLOADS = {
    # Near threshold (criterion 5's regime): dense matvec and Newton polish
    # dominate, few long tasks, so pool dispatch hardly matters.
    "ssbm-neg-large": {
        "preset": "ssbm-negative",
        "full": dict(n_values=[1000, 2000], u_offsets=[0.01], trials=1,
                     diagnostics=False),
        "tiny": dict(n_values=[40, 60], u_offsets=[0.01], trials=1, diagnostics=False),
    },
    # Far above threshold, all four saturations, diagnostics on: the full
    # eigensolves in theory.alignment_check / concentration_ratio show here.
    # About 5% of tanh trials at n1=500 land near 0.8 accuracy, so criterion
    # 3's 0.03 slack needs many records: resampling measured accuracies puts
    # a false FAIL at ~2% of runs with 6 sub-sweeps and ~0.2% with 12.
    "saturation-diagnostics": {
        "preset": "saturation-sweep",
        "min_sweeps": 12,
        "full": dict(n1_values=[500, 1000], u_offsets=[0.04], trials=1,
                     diagnostics=True),
        "tiny": dict(n1_values=[40], u_offsets=[0.04], trials=1, diagnostics=True),
    },
}


def min_sweeps(workload: str) -> int:
    """Sub-sweeps a run needs before its acceptance check is meaningful."""
    return WORKLOADS[workload].get("min_sweeps", MIN_SWEEPS)


def sub_seed(workload: str, seed: int, k: int) -> int:
    """Base seed of sub-sweep k, a pure function of its arguments."""
    digest = hashlib.sha256(f"perfbench|{workload}|{seed}|{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def build(harness, workload: str, seed: int, k: int, sizes: str = "full"):
    """Sub-sweep k of the workload as an ExperimentConfig."""
    spec = WORKLOADS[workload]
    return harness.build_config(spec["preset"], base_seed=sub_seed(workload, seed, k),
                                **spec[sizes])


def gate(config):
    """The first two tasks of a sub-sweep config: enough to run the process
    pool, and few enough that a pool stalled by oversubscribed BLAS threads
    (seconds per task on the seed) keeps a run short."""
    return dataclasses.replace(config, points=config.points[:2], trials=1)


def tasks(config) -> int:
    """Harness tasks in a sweep of `config`: one per (point, trial), each
    giving one record for the single-equilibrium presets used here."""
    return len(config.points) * config.trials


def _mean(records, **filters):
    values = [r.accuracy for r in records
              if r.failure == "" and r.accuracy is not None
              and all(getattr(r, key) == value for key, value in filters.items())]
    return sum(values) / len(values) if values else None


def acceptance(workload: str, records):
    """(holds, detail) for the paper trend the workload's regime must show."""
    if workload == "ssbm-neg-large":
        n = min(r.n for r in records)
        mean = _mean(records, n=n)
        return (mean is not None and mean >= 0.9,
                f"criterion 5: mean accuracy at n={n} is {mean} (>= 0.9)")
    if workload == "saturation-diagnostics":
        means = {sat: _mean(records, saturation=sat)
                 for sat in ("tanh", "erf", "alg-sqrt", "alg-abs")}
        if None in means.values():
            return False, f"criterion 3: a saturation has no successful trial: {means}"
        holds = (means["tanh"] >= means["alg-sqrt"] - 0.03
                 and means["erf"] >= means["alg-sqrt"] - 0.03
                 and means["alg-sqrt"] >= means["alg-abs"] - 0.03)
        return holds, ("criterion 3: tanh, erf >= alg-sqrt >= alg-abs within 0.03: "
                       + ", ".join(f"{k} {v:.4f}" for k, v in means.items()))
    raise ValueError(f"unknown workload {workload}")
