"""Sweeps through the public path `commdyn experiment` takes, and the child
processes that time set-up and serial sweeps in a fresh interpreter.

    python3 perfbench/sweep.py setup  <workload> <seed> <sizes>
    python3 perfbench/sweep.py serial <workload> <seed> <sizes> <seconds> <csv_dir>

`setup` prints "ready" once commdyn is imported and the config is built.
`serial` runs sub-sweeps at workers=1 for at least <seconds> and prints one
JSON line with the sweep walls, record statistics and peak RSS.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_commdyn():
    """Import commdyn from the checkout's own source tree, never from an
    installed copy, so the benchmark measures the code beside it."""
    if not (SRC / "commdyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no commdyn source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import commdyn
    from commdyn import harness
    if Path(commdyn.__file__).resolve().parent != SRC / "commdyn":
        sys.exit(f"perfbench: imported commdyn from {commdyn.__file__}, not {SRC}")
    return harness


def csv_body(path) -> bytes:
    """Records CSV bytes below the timestamp line."""
    data = Path(path).read_bytes()
    if data.startswith(b"#"):
        data = data.split(b"\n", 1)[1]
    return data


def run_sweep(harness, config, workers: int, csv_path):
    """run_experiment -> write_records_csv -> summarize, timed as one unit.
    Returns (records, wall seconds, whether the row count is as expected)."""
    start = time.perf_counter()
    records = harness.run_experiment(config, workers=workers)
    harness.write_records_csv(csv_path, records)
    harness.summarize(records)
    wall = time.perf_counter() - start
    return records, wall, len(records) == workloads.tasks(config)


def serial_loop(harness, workload, seed, sizes, seconds, csv_dir, tag="serial", sweeps=None):
    """Run sub-sweeps 0, 1, ... at workers=1 until `seconds` have passed and
    at least `sweeps` are done (the workload's minimum when not given).
    Sub-sweep 0 keeps its CSV at csv_dir/<tag>-0.csv for comparisons.
    Returns per-sweep walls, task counts and peak RSS (MB) so far, all
    records, and the number of tasks in sweeps whose row count was wrong."""
    walls, tasks, rss, records, bad_tasks = [], [], [], [], 0
    sweeps = workloads.min_sweeps(workload) if sweeps is None else sweeps
    start = time.perf_counter()
    while True:
        k = len(walls)
        config = workloads.build(harness, workload, seed, k, sizes)
        path = Path(csv_dir) / (f"{tag}-0.csv" if k == 0 else f"{tag}-k.csv")
        rows, wall, rows_ok = run_sweep(harness, config, 1, path)
        walls.append(wall)
        tasks.append(workloads.tasks(config))
        rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        records.extend(rows)
        bad_tasks += 0 if rows_ok else tasks[-1]
        if len(walls) >= sweeps and time.perf_counter() - start >= seconds:
            break
    return walls, tasks, rss, records, bad_tasks


def record_stats(workload, records):
    ok = [r for r in records if r.failure == ""]
    accuracies = [r.accuracy for r in ok if r.accuracy is not None]
    holds, detail = workloads.acceptance(workload, records)
    return {
        "records": len(records),
        "failed_records": len(records) - len(ok),
        "mean_accuracy": sum(accuracies) / len(accuracies) if accuracies else None,
        "acceptance_holds": holds,
        "acceptance": detail,
    }


def rate(walls, tasks) -> float:
    """Median over sub-sweeps of tasks finished per second."""
    return statistics.median(t / w for t, w in zip(tasks, walls))


def _main(argv):
    mode, workload, seed, sizes = argv[0], argv[1], int(argv[2]), argv[3]
    harness = import_commdyn()
    if mode == "setup":
        workloads.build(harness, workload, seed, 0, sizes)
        print("ready", flush=True)
        return 0
    if mode == "serial":
        seconds, csv_dir = float(argv[4]), argv[5]
        walls, tasks, rss, records, bad_tasks = serial_loop(harness, workload, seed, sizes,
                                                            seconds, csv_dir)
        result = {"walls": walls, "tasks": tasks, "rss_mb": rss, "bad_tasks": bad_tasks}
        result.update(record_stats(workload, records))
        print(json.dumps(result), flush=True)
        return 0
    raise SystemExit(f"unknown mode {mode}")


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
