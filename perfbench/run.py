"""commdyn sweep benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Each workload (see workloads.py) is a closed loop: this process submits a
whole sweep through harness.build_config -> run_experiment ->
write_records_csv -> summarize, waits for it, then submits the next.

--trace 0 measures the end-to-end metrics of BENCHMARK.json:
  setup_s        median wall, over SETUP_PROBES fresh interpreters, from
                 launch until commdyn is imported and the config is built;
  trials_per_s   median over sub-sweeps of tasks per second at workers=1,
                 in a fresh process that runs for --seconds;
  peak_rss_mb    peak resident memory of that serial process when its
                 first sub-sweep ends (later sub-sweeps add cyclic garbage
                 that only the collector's timing frees, so the process's
                 final peak is reported but not used);
  ok_trial_frac  records without a failure code / all records;
  mean_accuracy  mean accuracy over the records without a failure code.
--trace 1 measures the per-layer metrics: spans and counters around every
public function of each module (tracing.py), the pool throughput and
efficiency, the tracing overhead, and the layer n-sweep (nsweep.py).

Every run also checks correctness: the first two tasks of sub-sweep 0
(workloads.gate) run at workers=1 and at workers=os.cpu_count() must give
records CSV bytes, below the timestamp line, that are identical (their sha256
is printed); each sweep must give the expected row count; and the workload's
acceptance trend must hold on the serial records. `attempted` counts the
harness tasks run; `failed` counts those in sweeps that broke a row-count or
identity check. Trials that end with a failure code (for example
neutral-state) are program outcomes, counted in ok_trial_frac, not failures.
The last stdout line is the JSON result; everything above it is the report.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import nsweep
import sweep
import workloads
from tracing import LAYERS, Tracer, counting_pool

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = HERE.parent / "BENCHMARK.json"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_share", "_efficiency", "_accuracy")):
        return "ratio"
    return "count"


def machine_record():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARIABLES}}


def _child(*args):
    return [sys.executable, str(HERE / "sweep.py"), *map(str, args)]


def setup_probe(workload, seed, sizes) -> float:
    """Seconds from launching a fresh interpreter until it reports ready."""
    start = time.perf_counter()
    with subprocess.Popen(_child("setup", workload, seed, sizes), stdout=subprocess.PIPE,
                          text=True, cwd=HERE.parent) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def serial_child(workload, seed, sizes, seconds, csv_dir) -> dict:
    done = subprocess.run(_child("serial", workload, seed, sizes, seconds, csv_dir),
                          capture_output=True, text=True, cwd=HERE.parent,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: serial sweep process failed (exit {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def pool_gate(harness, workload, seed, sizes, csv_dir) -> dict:
    """Run workloads.gate of sub-sweep 0 at workers=1 and at
    workers=os.cpu_count(), and compare the records CSVs below the timestamp."""
    config = workloads.gate(workloads.build(harness, workload, seed, 0, sizes))
    serial_csv, pool_csv = Path(csv_dir) / "gate-serial.csv", Path(csv_dir) / "gate-pool.csv"
    _, serial_wall, serial_ok = sweep.run_sweep(harness, config, 1, serial_csv)
    _, pool_wall, pool_ok = sweep.run_sweep(harness, config, os.cpu_count() or 1, pool_csv)
    serial = sweep.csv_body(serial_csv)
    identical = serial == sweep.csv_body(pool_csv)
    tasks = workloads.tasks(config)
    return {"tasks": tasks, "serial_wall": serial_wall, "pool_wall": pool_wall,
            "rows_ok": serial_ok and pool_ok, "identical": identical,
            "failed_tasks": 0 if identical and serial_ok and pool_ok else 2 * tasks,
            "sha256": hashlib.sha256(serial).hexdigest()}


def end_to_end_run(harness, workload, seed, sizes, seconds, csv_dir):
    setup = [setup_probe(workload, seed, sizes) for _ in range(SETUP_PROBES)]
    serial = serial_child(workload, seed, sizes, seconds, csv_dir)
    gate = pool_gate(harness, workload, seed, sizes, csv_dir)
    records, failed_records = serial["records"], serial["failed_records"]
    metrics = {
        "setup_s": statistics.median(setup),
        "trials_per_s": sweep.rate(serial["walls"], serial["tasks"]),
        "peak_rss_mb": serial["rss_mb"][0],
        "ok_trial_frac": (records - failed_records) / records,
        "mean_accuracy": serial["mean_accuracy"] or 0.0,
    }
    checks = {
        "serial and pool records identical below the timestamp": gate["identical"],
        "row counts as expected": serial["bad_tasks"] == 0 and gate["rows_ok"],
        serial["acceptance"]: serial["acceptance_holds"],
    }
    attempted = sum(serial["tasks"]) + 2 * gate["tasks"]
    failed = serial["bad_tasks"] + gate["failed_tasks"]
    info = {"sub-sweeps": len(serial["walls"]), "serial walls (s)": serial["walls"],
            "peak RSS after each sub-sweep (MB)": serial["rss_mb"],
            "set-up probes (s)": setup, "gate walls serial/pool (s)":
            (gate["serial_wall"], gate["pool_wall"]),
            "records": records, "failed records": failed_records,
            "gate records sha256": gate["sha256"]}
    return metrics, checks, attempted, failed, info


def traced_run(harness, workload, seed, sizes, seconds, csv_dir, n_values, spans_path):
    import commdyn
    layer = nsweep.layer_sweep(seed, n_values)
    # the untraced sweeps only set the overhead baseline; the traced ones
    # repeat them and run on to the workload's minimum for its acceptance check
    walls, tasks, _, _, bad = sweep.serial_loop(harness, workload, seed, sizes, seconds / 2,
                                                csv_dir, sweeps=workloads.MIN_SWEEPS)
    tracer = Tracer()
    tracer.install(commdyn)
    try:
        t_walls, t_tasks, _, t_records, t_bad = sweep.serial_loop(
            harness, workload, seed, sizes, 0, csv_dir, tag="traced",
            sweeps=max(len(walls), workloads.min_sweeps(workload)))
    finally:
        tracer.restore()
    leftovers = Tracer.leftovers(commdyn)
    tally = {"bytes": 0, "items": 0}
    executor = harness.ProcessPoolExecutor
    harness.ProcessPoolExecutor = counting_pool(executor, tally)
    try:
        gate = pool_gate(harness, workload, seed, sizes, csv_dir)
    finally:
        harness.ProcessPoolExecutor = executor
    traced_same = (sweep.csv_body(Path(csv_dir) / "traced-0.csv")
                   == sweep.csv_body(Path(csv_dir) / "serial-0.csv"))
    stats = sweep.record_stats(workload, t_records)
    tracer.write_spans(spans_path)

    metrics = tracer.summary()
    workers = os.cpu_count() or 1
    metrics.update({
        "harness.pool_trials_per_s": gate["tasks"] / gate["pool_wall"],
        "harness.pool_efficiency": gate["serial_wall"] / (workers * gate["pool_wall"]),
        "harness.task_pickle_bytes": tally["bytes"] / max(tally["items"], 1),
        "harness.trace_overhead_frac": 1.0 - (sweep.rate(t_walls[:len(walls)], t_tasks)
                                              / sweep.rate(walls, tasks)),
        "harness.records": stats["records"],
        "harness.failed_records": stats["failed_records"],
        "harness.failed_trial_frac": stats["failed_records"] / stats["records"],
    })
    metrics.update(layer)
    checks = {
        "serial and pool records identical below the timestamp": gate["identical"],
        "traced and untraced records identical": traced_same,
        "row counts as expected": bad == 0 and t_bad == 0 and gate["rows_ok"],
        "every wrapped function restored": not leftovers,
        stats["acceptance"]: stats["acceptance_holds"],
    }
    attempted = sum(tasks) + sum(t_tasks) + 2 * gate["tasks"]
    failed = bad + t_bad + gate["failed_tasks"]
    info = {"sub-sweeps": len(walls), "untraced walls (s)": walls, "traced walls (s)": t_walls,
            "gate walls serial/pool (s)": (gate["serial_wall"], gate["pool_wall"]),
            "pool workers": workers, "gate records sha256": gate["sha256"],
            "spans": str(spans_path),
            "span count": len(tracer.spans), "leftover wrappers": leftovers}
    # layer self times plus the trial root's own time add up to the trial wall
    attributed = sum(metrics[f"{name}.self_s"] for name in LAYERS)
    info["share of trial wall by layer self time"] = {
        name: round(metrics[f"{name}.self_s"] / attributed
                    * (1.0 - metrics["harness.unattributed_frac"]), 4) for name in LAYERS}
    return metrics, checks, attempted, failed, info


def run(workload, seed, seconds, trace, sizes="full", n_values=nsweep.N_VALUES):
    """One benchmark run; returns the result object of the last output line."""
    harness = sweep.import_commdyn()
    OUT.mkdir(exist_ok=True)
    csv_dir = OUT / f"run-{workload}-{seed}-{trace}-{os.getpid()}"
    csv_dir.mkdir(exist_ok=True)
    try:
        if trace:
            spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
            metrics, checks, attempted, failed, info = traced_run(
                harness, workload, seed, sizes, seconds, csv_dir, n_values, spans_path)
        else:
            metrics, checks, attempted, failed, info = end_to_end_run(
                harness, workload, seed, sizes, seconds, csv_dir)
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)
    print(f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}")
    print("machine " + json.dumps(machine_record()))
    for key, value in info.items():
        print(f"  {key}: {value}")
    for check, passed in checks.items():
        print(f"  [{'PASS' if passed else 'FAIL'}] {check}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    return {"correct": all(checks.values()), "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def self_check() -> int:
    """Tiny run of every workload in both modes: every metric BENCHMARK.json
    names is emitted with its unit, and no tracer wrapper is left behind.
    The acceptance trends need the full sizes, so their lines may read FAIL
    here; the self-check does not judge them."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    sweep_cells = set(nsweep.metric_names())
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sweep_cells - set(per_layer):
        problems.append(f"n-sweep cells missing from BENCHMARK.json: {sweep_cells - set(per_layer)}")
    tiny_n = (20, 40)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [n for n in per_layer if n not in sweep_cells] + nsweep.metric_names(tiny_n)}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if metric["unit"] != unit_of(metric["name"]):
            problems.append(f"BENCHMARK.json gives {metric['name']} the unit {metric['unit']}, "
                            f"the code {unit_of(metric['name'])}")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result = run(workload, 1, 0.1, trace, sizes="tiny", n_values=tiny_n)
            emitted = result["metrics"]
            if sorted(emitted) != sorted(expected[trace]):
                problems.append(f"{workload} trace {trace}: metric names differ: "
                                f"{sorted(set(emitted) ^ set(expected[trace]))}")
            for name, metric in emitted.items():
                if metric["unit"] != unit_of(name) or not isinstance(metric["value"], (int, float)):
                    problems.append(f"{workload} trace {trace}: bad metric {name} = {metric}")
            if result["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: nothing attempted")
    leftovers = Tracer.leftovers(sys.modules["commdyn"])
    if leftovers:
        problems.append(f"wrappers left installed: {leftovers}")
    for problem in problems:
        print(f"SELF-CHECK FAIL: {problem}")
    print("SELF-CHECK " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
