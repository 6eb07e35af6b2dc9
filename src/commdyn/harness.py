"""Seeded Monte Carlo experiment orchestration, presets, and CSV reporting.

A task samples one graph per (SBM, trial) and runs every parameter point on
that SBM on it, so the points compared share their graphs. Seeds come from a
stable hash: the graph's of (SBM, trial index), the initial state's and the
inputs' of (parameter point, trial index[, pair set]); adding points or
re-running in parallel never reshuffles existing trials. The attention
parameter is always specified as an offset from the expected-spectrum
threshold.

The process pool class ProcessPoolExecutor is loaded from
concurrent.futures on the first pooled run (see __getattr__), so a serial
run never imports multiprocessing.
"""

import csv
import dataclasses
import hashlib
import itertools
import logging
import math
import numbers
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter

import numpy as np

from .detect import (DetectionMethod, PairSet, accuracy, detect_covariance_baseline,
                     detect_multi, detect_single)
from .dynamics import (ModelParams, Saturation, equilibria_for_inputs,
                       integrate_to_equilibrium)
from .errors import DomainError, NeutralState
from .graphgen import Graph, SbmParams, is_connected, sample_sbm
from .theory import alignment_check, concentration_ratio, expected_threshold

_ALL_SATURATIONS = (Saturation.TANH, Saturation.ALG_ABS, Saturation.ALG_SQRT, Saturation.ERF)

_log = logging.getLogger(__name__)

# Methods that detect from input-equilibrium pairs
_MULTI_METHODS = frozenset({DetectionMethod.MULTI_EQUILIBRIA,
                            DetectionMethod.COVARIANCE_SPECTRAL})


class Preset(str, Enum):
    UNEQUAL_SBM = "unequal-sbm"
    SATURATION_SWEEP = "saturation-sweep"
    SSBM_POSITIVE = "ssbm-positive"
    SSBM_NEGATIVE = "ssbm-negative"
    MULTI_PAIRS = "multi-pairs"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ParameterPoint:
    sbm: SbmParams
    u_offset: float
    saturation: Saturation
    gamma_sign: int

    def __post_init__(self):
        if not 0 < self.u_offset < math.inf:
            raise ValueError("u offset must be positive and finite")
        if self.gamma_sign not in (1, -1):
            raise ValueError("gamma_sign must be +1 or -1")


@dataclass(frozen=True)
class ExperimentConfig:
    preset: Preset
    points: tuple
    trials: int
    base_seed: int
    methods: tuple
    d: float = 1.0
    alpha: float = 1.0
    m_fractions: tuple = ()
    pair_sets: int = 10
    diagnostics: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.is_multi and self.pair_sets < 1:
            raise ValueError("pair_sets must be at least 1 in a multi-equilibria sweep")
        if self.is_multi and not self.m_fractions:
            raise ValueError("m_fractions must not be empty in a multi-equilibria sweep")
        if not self.points:
            raise ValueError("no parameter points")
        if not self.methods:
            raise ValueError("no detection methods")
        if not (self.d > 0 and self.alpha >= 0):
            raise ValueError(f"need d > 0 and alpha >= 0, got d={self.d!r}, alpha={self.alpha!r}")
        kinds = set(self.methods)
        if kinds & _MULTI_METHODS and kinds - _MULTI_METHODS:
            raise ValueError("single- and multi-equilibria methods cannot share a run")

    @property
    def is_multi(self):
        return bool(_MULTI_METHODS.intersection(self.methods))

    @property
    def sbms(self):
        """The distinct SBMs of the points, in order of first appearance."""
        return tuple(dict.fromkeys(point.sbm for point in self.points))


@dataclass(kw_only=True)
class TrialRecord:
    """One detection outcome. Failed trials carry a failure code and an empty
    accuracy instead of aborting the sweep; outcome fields default to empty."""

    preset: str
    method: str
    seed: int
    trial: int
    pair_set: int
    n: int
    n1: int
    n2: int
    l11: float
    l12: float
    l22: float
    gamma_sign: int
    delta: float
    u_offset: float
    u: float = None
    saturation: str
    m: int = None
    accuracy: float = None
    connected: bool = None
    converged: bool = None
    residual: float = None
    eigen_gap: float = None
    sigma_min_x: float = None
    concentration_ratio: float = None
    alignment: float = None
    failure: str = ""


RECORD_FIELDS = [f.name for f in dataclasses.fields(TrialRecord)]


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a hash of the given parts XORed with the base."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & (2 ** 64 - 1)


def _point_key(point: ParameterPoint):
    return dataclasses.astuple(point.sbm) + (point.u_offset, point.saturation.value,
                                             point.gamma_sign)


def resolve_m_values(fractions, n: int):
    return sorted({max(1, int(round(f * n + 1e-9))) for f in fractions})


def generate_pair_set(graph: Graph, model: ModelParams, m: int, seed: int):
    """Standard-Gaussian inputs, equilibria integrated from the origin and
    Newton-polished. Returns (PairSet, equilibria)."""
    rng = np.random.Generator(np.random.Philox(seed))
    inputs = rng.standard_normal((graph.n, m))
    eqs = equilibria_for_inputs(graph, model, inputs)
    states = np.column_stack([eq.state for eq in eqs])
    return PairSet(states, inputs, model), eqs


def _run_task(args):
    """The records of one (SBM index, trial, pair set) task: one graph, its
    connectivity and, with diagnostics on, its concentration ratio, shared
    by the rows of every point on that SBM. The pair set is None in a
    single-equilibrium run; all pair sets of a trial share the graph too.
    An exception in that graph work codes every row of the task; what was
    computed before it stays in the rows."""
    config, (sbm_index, trial, pair_set) = args
    sbm = config.sbms[sbm_index]
    seed = derive_seed(config.base_seed, "graph", dataclasses.astuple(sbm), trial)
    connected = ratio = graph_failure = None
    try:
        graph = sample_sbm(sbm, seed)
        connected = is_connected(graph)
        if config.diagnostics:
            ratio = concentration_ratio(graph, sbm)
    except Exception as exc:
        graph_failure = _error_code(exc)
    if pair_set is None:
        step, m_values = _single_rows, [None]
    else:
        step, m_values = _pair_set_rows, resolve_m_values(config.m_fractions, sbm.n)
    rows = []
    for point in config.points:
        if point.sbm != sbm:
            continue
        u_bar, gamma, delta = expected_threshold(sbm, point.gamma_sign, config.d, config.alpha)
        base = TrialRecord(
            preset=config.preset.value, method="", seed=seed, trial=trial, pair_set=pair_set,
            n=sbm.n, **dataclasses.asdict(sbm), gamma_sign=point.gamma_sign, delta=delta,
            u_offset=point.u_offset, saturation=point.saturation.value, connected=connected)
        if u_bar is None:
            rows += _coded_rows(config, base, m_values, "invalid-regime")
            continue
        model = ModelParams(config.d, u_bar + point.u_offset, config.alpha, gamma,
                            point.saturation)
        base.u, base.concentration_ratio = model.u, ratio
        if graph_failure:
            rows += _coded_rows(config, base, m_values, graph_failure)
            continue
        try:  # on a copy: a point whose equilibria raise gets rows with empty outcomes
            rows += step(config, dataclasses.replace(base), _point_key(point), graph, model,
                         m_values)
        except Exception as exc:
            rows += _coded_rows(config, base, m_values, _error_code(exc))
    return rows


def _coded_rows(config, base, m_values, failure):
    """A row per (m, method) of the point `base` describes, with the failure
    code `failure` and empty outcomes."""
    return [dataclasses.replace(base, method=method.value, m=m, failure=failure)
            for m in m_values for method in config.methods]


def _error_code(exc):
    """The failure code of a trial that `exc` stopped; the traceback goes to
    the log, so the sweep goes on and the row says why it failed."""
    code = f"error:{type(exc).__name__}"
    _log.warning("trial failed with %s", code, exc_info=exc)
    return code


def _single_rows(config, row, key, graph, model, _m_values):
    """One equilibrium from a small random start, clustered on its own."""
    row.method = DetectionMethod.SINGLE_EQUILIBRIUM.value
    rng = np.random.Generator(np.random.Philox(
        derive_seed(config.base_seed, "init", key, row.trial)))
    x0 = rng.uniform(-1e-3, 1e-3, graph.n)
    eq = integrate_to_equilibrium(x0, model, graph)
    row.converged = eq.converged
    row.residual = eq.residual_inf
    if config.diagnostics:
        try:
            row.alignment = alignment_check(eq, graph, model)
        except NeutralState:
            pass
    return [_score(row, graph, lambda: detect_single(eq))]


def _pair_set_rows(config, base, key, graph, model, m_values):
    """One pair set of max(m) input-driven equilibria; every method detects
    from each of its first-m prefixes."""
    seed = derive_seed(config.base_seed, "pairs", key, base.trial, base.pair_set)
    pairs, eqs = generate_pair_set(graph, model, max(m_values), seed)
    residuals = np.array([eq.residual_inf for eq in eqs])
    converged = np.array([eq.converged for eq in eqs])
    rows = []
    for m, method in itertools.product(m_values, config.methods):
        X, B = pairs.X[:, :m], pairs.B[:, :m]
        row = dataclasses.replace(base, method=method.value, m=m,
                                  residual=float(residuals[:m].max()),
                                  converged=bool(converged[:m].all()))
        if method == DetectionMethod.MULTI_EQUILIBRIA:
            _score(row, graph, lambda: detect_multi(PairSet(X, B, model)))
        elif row.converged and m < 3:
            row.failure = "too-few-samples"
        else:
            _score(row, graph, lambda: detect_covariance_baseline(X))
        rows.append(row)
    return rows


def _score(row, graph, detect):
    """Fill in the outcome of `row` from the estimate `detect()` returns, or
    the failure code that stops it."""
    if not row.converged:
        row.failure = "non-convergence"
        return row
    try:
        estimate = detect()
    except NeutralState:
        row.failure = "neutral-state"
        return row
    except DomainError:
        row.failure = "domain-error"
        return row
    except Exception as exc:
        row.failure = _error_code(exc)
        return row
    row.accuracy = accuracy(graph.labels, estimate.labels)
    row.eigen_gap = estimate.diagnostics.get("eigen_gap")
    row.sigma_min_x = estimate.diagnostics.get("sigma_min_x")
    if estimate.degenerate:
        row.failure = "degenerate"
    return row


def _point_order(row):
    """Leading sort fields of a record or summary row; a missing m sorts first."""
    return (row.n, row.n1, row.l11, row.l12, row.l22, row.gamma_sign, row.u_offset,
            row.saturation, row.m if row.m is not None else -1)


def _record_sort_key(r: TrialRecord):
    return _point_order(r) + (r.trial, r.pair_set if r.pair_set is not None else -1, r.method)


def run_experiment(config: ExperimentConfig, workers: int = None):
    """Run every (SBM, trial, pair set) task and return the sorted trial
    records.

    Tasks are pure functions of (config, indices); with workers > 1 (the
    default is the number of CPUs) they are distributed over a process pool,
    and the sorted result is identical to a serial run.
    """
    pair_sets = range(config.pair_sets) if config.is_multi else [None]
    tasks = itertools.product(range(len(config.sbms)), range(config.trials), pair_sets)
    jobs = [(config, task) for task in tasks]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers > 1 and len(jobs) > 1:
        # read through the module, so the class is imported on first use
        # (see __getattr__) and a class set on the module in its place is used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task, jobs))
    else:
        chunks = [_run_task(job) for job in jobs]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=_record_sort_key)
    return rows


# ---------------------------------------------------------------------------
# Preset configurations

_UNEQUAL_ELL = dict(l11=0.05, l12=0.1, l22=0.5)

_PRESET_DEFAULTS = {
    Preset.UNEQUAL_SBM: dict(
        n1_values=(100, 200, 300, 400, 500), n2_fraction=0.05,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,),
        **_UNEQUAL_ELL),
    Preset.SATURATION_SWEEP: dict(
        n1_values=(100, 300, 500), n2_fraction=0.05,
        u_offsets=(0.04,), saturations=_ALL_SATURATIONS,
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,),
        **_UNEQUAL_ELL),
    Preset.SSBM_POSITIVE: dict(
        n_values=(200,), ls=0.3, ld=0.05,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,)),
    Preset.SSBM_NEGATIVE: dict(
        n_values=(200, 500, 1000), ls=0.005, ld=0.03,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=-1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,)),
    Preset.MULTI_PAIRS: dict(
        n_values=(20, 60, 100), ls=0.3, ld=0.05,
        u_offsets=(0.01,), saturations=(Saturation.TANH,), gamma_sign=1,
        trials=10, pair_sets=10,
        m_fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        methods=(DetectionMethod.MULTI_EQUILIBRIA, DetectionMethod.COVARIANCE_SPECTRAL)),
    Preset.CUSTOM: dict(),
}

# Keys every sweep reads; only a preset gives the required ones a default
_REQUIRED_KEYS = ("trials", "u_offsets", "saturations", "gamma_sign", "methods")
_COMMON_KEYS = _REQUIRED_KEYS + ("d", "alpha", "diagnostics")
# The size key that picks a sweep's shape, and the keys that shape reads
_SHAPES = {"n1_values": ("n1_values", "n2_fraction", "l11", "l12", "l22"),
           "n_values": ("n_values", "ls", "ld")}
_MULTI_KEYS = ("m_fractions", "pair_sets")
_OVERRIDE_KEYS = frozenset(_COMMON_KEYS + _MULTI_KEYS).union(*_SHAPES.values())
# ExperimentConfig's own defaults, and the unequal-size sweeps' n2_fraction
_DEFAULTS = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)
             if field.default is not dataclasses.MISSING}
_DEFAULTS["n2_fraction"] = 0.05


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _whole(key, value) -> int:
    """value as an int; anything but a whole number, a bool included,
    raises ValueError instead of being truncated."""
    try:
        whole = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return whole


def _finite(key, value):
    """value, unconverted, if it is a finite real number and not a bool;
    anything else raises ValueError. An int stays an int, as the records
    and the graph seeds hashed from an SbmParams print it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            -math.inf < value < math.inf):
        raise ValueError(f"{key} must be finite and real, got {value!r}")
    return value


def _fraction(key, value):
    """value, unconverted, if it is a real number in (0, 1]; anything else
    raises ValueError."""
    if not 0 < _finite(key, value) <= 1:
        raise ValueError(f"{key} entries must lie in (0, 1], got {value!r}")
    return value


def build_config(preset, base_seed: int = 12345, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig from a preset plus overrides.

    An override of n1_values (unequal-size sweep, + n2_fraction/l11/l12/l22)
    or n_values (SSBM sweep, + ls/ld) picks the shape, else the preset's
    holds. Every sweep reads _COMMON_KEYS; multi-equilibria ones also
    m_fractions and pair_sets. Scalars are accepted where lists are
    expected. An unknown or unread override, a key that neither preset
    nor overrides give, or a value of the wrong kind raises ValueError.
    """
    unknown = sorted(set(overrides) - _OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    preset = Preset(preset)
    overrides = {key: value for key, value in overrides.items() if value is not None}
    settings = {**_DEFAULTS, **_PRESET_DEFAULTS[preset], **overrides}
    size_key = next((key for source in (overrides, settings) for key in _SHAPES
                     if key in source), None)
    if size_key is None:
        raise ValueError("custom config needs n1_values (+ l11/l12/l22) or n_values (+ ls/ld)")
    methods = tuple(dict.fromkeys(map(DetectionMethod, _as_tuple(settings.get("methods", ())))))
    reads = set(_COMMON_KEYS + _SHAPES[size_key])
    if not methods or _MULTI_METHODS.intersection(methods):
        reads.update(_MULTI_KEYS)
    problems = [f"{label}: {', '.join(sorted(keys))}" for label, keys in (
        ("config keys this sweep does not read", set(overrides) - reads),
        ("missing config keys", reads - set(settings))) if keys]
    if problems:
        raise ValueError("; ".join(problems))

    sizes = [_whole(size_key, value) for value in _as_tuple(settings[size_key])]
    # the shape's other keys are link probabilities and n2_fraction
    shape = {key: _finite(key, settings[key]) for key in _SHAPES[size_key][1:]}
    if size_key == "n1_values":
        sbms = [SbmParams(n1, math.ceil(round(float(shape["n2_fraction"]) * n1, 9)),
                          shape["l11"], shape["l12"], shape["l22"]) for n1 in sizes]
    else:
        sbms = [SbmParams.ssbm(n, shape["ls"], shape["ld"]) for n in sizes]
    saturations = tuple(Saturation(s) for s in _as_tuple(settings["saturations"]))
    gamma_sign = _whole("gamma_sign", settings["gamma_sign"])
    points = tuple(ParameterPoint(sbm, float(_finite("u_offsets", offset)), sat, gamma_sign)
                   for sbm in sbms
                   for offset in _as_tuple(settings["u_offsets"])
                   for sat in saturations)
    if not isinstance(settings["diagnostics"], bool):
        raise ValueError(f"diagnostics must be true or false, got {settings['diagnostics']!r}")
    return ExperimentConfig(
        preset=preset, points=points, trials=_whole("trials", settings["trials"]),
        base_seed=_whole("base_seed", base_seed), methods=methods,
        d=float(_finite("d", settings["d"])), alpha=float(_finite("alpha", settings["alpha"])),
        m_fractions=tuple(_fraction("m_fractions", f)
                          for f in _as_tuple(settings["m_fractions"])),
        pair_sets=_whole("pair_sets", settings["pair_sets"]),
        diagnostics=settings["diagnostics"])


def load_config_file(path) -> dict:
    """Flat `key = value` file; lists are comma-separated, `#` starts a comment."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            key = key.strip().lower().replace("-", "_")
            overrides[key] = _parse_config_value(value.strip())
    return overrides


def _parse_config_value(text):
    if "," in text:
        return [_parse_config_scalar(tok.strip()) for tok in text.split(",") if tok.strip()]
    return _parse_config_scalar(text)


def _parse_config_scalar(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


# ---------------------------------------------------------------------------
# CSV serialization

def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # a float's str is its shortest round-trip repr


def write_rows(out, rows) -> None:
    """Write `rows` (a header is one more row) as CSV to the path or text
    stream `out`, each cell as _format_cell prints it."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            return write_rows(fh, rows)
    csv.writer(out).writerows([_format_cell(cell) for cell in row] for row in rows)


def _parse_cell(kind, cell):
    """Inverse of _format_cell for a column of `kind`: empty means missing
    (None) in an int, float or bool column, and "" in a text column; a bool
    cell is true, false or empty. Any other kind is a parser that gets
    every cell, the empty one too."""
    if kind is str:
        return cell
    if cell == "" and kind in (int, float, bool):
        return None
    if kind is bool and cell not in ("true", "false"):
        raise ValueError(f"expected true, false or empty, got {cell!r}")
    return cell == "true" if kind is bool else kind(cell)


def read_rows(path, columns, rest=None) -> list:
    """The rows of a CSV, each cell parsed by its column's kind, skipping
    blank and `#` lines. The header must start with the names of the
    {name: kind} dict `columns` (no header if empty); `rest` is the kind of
    any further column. A header mismatch, a row whose cell count differs
    from the first line's or a cell of the wrong kind raises ValueError
    naming <path>:<line>."""
    names = list(columns)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lines = [(reader.line_num, row) for row in reader if row and not row[0].startswith("#")]
    line, first = lines[0] if lines else (1, [])
    if first[:len(names)] != names or (rest is None and len(first) != len(names)):
        raise ValueError(f"{path}:{line}: expected the header {','.join(names)}")
    kinds = list(columns.values()) + [rest] * (len(first) - len(names))
    rows = []
    for line, row in lines[1:] if names else lines:
        if len(row) != len(kinds):
            raise ValueError(f"{path}:{line}: expected {len(kinds)} cells, got {len(row)}")
        try:
            rows.append(list(map(_parse_cell, kinds, row)))
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    return rows


def write_records_csv(path, records) -> None:
    """RFC-4180 CSV with the fixed TrialRecord column order. The first line
    is a `#` comment carrying the generation time; byte-identical
    reproducibility is defined modulo that line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\r\n")
        write_rows(fh, [RECORD_FIELDS, *map(attrgetter(*RECORD_FIELDS), records)])


def read_records_csv(path):
    return [TrialRecord(**dict(zip(RECORD_FIELDS, row)))
            for row in read_rows(path, TrialRecord.__annotations__)]


# ---------------------------------------------------------------------------
# Aggregation

# A summary row: the swept parameters its records share, then four statistics
_GROUP_FIELDS = ("preset", "n", "n1", "n2", "l11", "l12", "l22", "gamma_sign", "u_offset",
                 "saturation", "m", "method")
SummaryRow = dataclasses.make_dataclass(
    "SummaryRow", [(name, TrialRecord.__annotations__[name]) for name in _GROUP_FIELDS]
    + [("mean_accuracy", float), ("stderr", float), ("count", int), ("failures", int)],
    namespace={"__module__": __name__})
SUMMARY_FIELDS = [f.name for f in dataclasses.fields(SummaryRow)]


def summarize(records):
    """Mean accuracy, standard error and counts per parameter point and
    method, over the non-failed trials, in stable sorted order."""
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    groups = {}
    for record in records:
        key = tuple(getattr(record, name) for name in _GROUP_FIELDS)
        groups.setdefault(key, []).append(record)

    out = []
    for key, bucket in groups.items():
        values = [r.accuracy for r in bucket if r.failure == "" and r.accuracy is not None]
        failures = len(bucket) - len(values)
        if values:
            mean = float(np.mean(values))
            stderr = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
        else:
            mean, stderr = None, None
        out.append(SummaryRow(*key, mean, stderr, len(values), failures))
    out.sort(key=lambda row: _point_order(row) + (row.method, row.preset))
    return out


def write_summary_csv(out, summary_rows) -> None:
    """The summary rows under their header, to a path or a text stream."""
    write_rows(out, [SUMMARY_FIELDS, *map(attrgetter(*SUMMARY_FIELDS), summary_rows)])


def __getattr__(name):
    """ProcessPoolExecutor, imported from concurrent.futures on the first
    read (PEP 562) and kept as the module attribute from then on."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
