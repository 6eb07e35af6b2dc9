"""Seeded Monte Carlo experiment orchestration, presets, and CSV reporting.

Every trial derives its seed from a stable hash of (parameter point, trial
index), so adding points or re-running in parallel never reshuffles existing
trials. The attention parameter is always specified as an offset from the
expected-spectrum threshold.
"""

import csv
import dataclasses
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum

import numpy as np

from .detect import (DetectionMethod, PairSet, accuracy, detect_covariance_baseline,
                     detect_multi, detect_single)
from .dynamics import (IntegrationControls, ModelParams, Saturation,
                       equilibria_for_inputs, integrate_to_equilibrium)
from .errors import DomainError, EmptyInput, NeutralState
from .graphgen import Graph, SbmParams, is_connected, sample_sbm
from .theory import alignment_check, concentration_ratio, expected_threshold

WORKERS_ENV = "COMMDYN_WORKERS"

_ALL_SATURATIONS = (Saturation.TANH, Saturation.ALG_ABS, Saturation.ALG_SQRT, Saturation.ERF)

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
        if self.u_offset <= 0:
            raise ValueError("u offset must be positive")
        if self.gamma_sign not in (1, -1):
            raise ValueError("gamma sign must be +1 or -1")


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
    collect_diagnostics: bool = False
    controls: IntegrationControls = IntegrationControls()

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not self.points:
            raise ValueError("no parameter points")
        if not self.methods:
            raise ValueError("no detection methods")
        kinds = set(self.methods)
        if kinds & _MULTI_METHODS and kinds - _MULTI_METHODS:
            raise ValueError("single- and multi-equilibria methods cannot share a run")

    @property
    def is_multi(self):
        return bool(_MULTI_METHODS.intersection(self.methods))


@dataclass
class TrialRecord:
    """One detection outcome. Failed trials carry a failure code and an empty
    accuracy instead of aborting the sweep."""

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
    u: float
    saturation: str
    m: int
    accuracy: float
    connected: bool
    converged: bool
    residual: float
    eigen_gap: float
    sigma_min_x: float
    concentration_ratio: float
    alignment: float
    failure: str


RECORD_FIELDS = [f.name for f in dataclasses.fields(TrialRecord)]


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 64-bit seed from a hash of the given parts XORed with the base."""
    text = "|".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "little")) & (2 ** 64 - 1)


def _point_key(point: ParameterPoint):
    s = point.sbm
    return (s.n1, s.n2, s.l11, s.l12, s.l22, point.u_offset,
            point.saturation.value, point.gamma_sign)


def resolve_m_values(fractions, n: int):
    values = sorted({max(1, int(round(f * n + 1e-9))) for f in fractions})
    if not values:
        raise ValueError("no sample sizes requested")
    return values


def generate_pair_set(graph: Graph, model: ModelParams, m: int, seed: int,
                      controls: IntegrationControls = IntegrationControls()):
    """Standard-Gaussian inputs, equilibria integrated from the origin and
    Newton-polished. Returns (PairSet, equilibria)."""
    rng = np.random.Generator(np.random.Philox(seed))
    inputs = rng.standard_normal((graph.n, m))
    eqs = equilibria_for_inputs(graph, model, inputs, controls)
    states = np.column_stack([eq.state for eq in eqs])
    return PairSet(states, inputs, model), eqs


def _base_record(config, point, seed, trial, pair_set, method, connected, delta, u):
    sbm = point.sbm
    return TrialRecord(
        preset=config.preset.value, method=method.value, seed=seed, trial=trial,
        pair_set=pair_set, n=sbm.n, n1=sbm.n1, n2=sbm.n2,
        l11=sbm.l11, l12=sbm.l12, l22=sbm.l22,
        gamma_sign=point.gamma_sign, delta=delta,
        u_offset=point.u_offset, u=u, saturation=point.saturation.value,
        m=None, accuracy=None, connected=connected,
        converged=None, residual=None, eigen_gap=None, sigma_min_x=None,
        concentration_ratio=None, alignment=None, failure="")


def _single_trial_rows(config: ExperimentConfig, point_index: int, trial: int):
    point = config.points[point_index]
    key = _point_key(point)
    seed_graph = derive_seed(config.base_seed, "graph", key, trial)
    seed_init = derive_seed(config.base_seed, "init", key, trial)
    graph = sample_sbm(point.sbm, seed_graph)
    u_bar, gamma, delta = expected_threshold(point.sbm, point.gamma_sign,
                                             config.d, config.alpha)
    row = _base_record(config, point, seed_graph, trial, None,
                       DetectionMethod.SINGLE_EQUILIBRIUM, is_connected(graph), delta, None)
    if u_bar is None:
        row.failure = "invalid-regime"
        return [row]
    u = u_bar + point.u_offset
    row.u = u
    model = ModelParams(config.d, u, config.alpha, gamma, point.saturation)
    rng = np.random.Generator(np.random.Philox(seed_init))
    x0 = rng.uniform(-1e-3, 1e-3, point.sbm.n)
    eq = integrate_to_equilibrium(x0, model, graph, None, config.controls)
    row.converged = eq.converged
    row.residual = eq.residual_inf
    if config.collect_diagnostics:
        row.concentration_ratio = concentration_ratio(graph, point.sbm)
        try:
            row.alignment = alignment_check(eq, graph, model)
        except NeutralState:
            pass
    if not eq.converged:
        row.failure = "non-convergence"
        return [row]
    try:
        estimate = detect_single(eq)
    except NeutralState:
        row.failure = "neutral-state"
        return [row]
    row.accuracy = accuracy(graph.labels, estimate.labels)
    if estimate.degenerate:
        row.failure = "degenerate"
    return [row]


def _multi_trial_rows(config: ExperimentConfig, point_index: int,
                      graph_index: int, pairset_index: int):
    point = config.points[point_index]
    key = _point_key(point)
    seed_graph = derive_seed(config.base_seed, "graph", key, graph_index)
    seed_pairs = derive_seed(config.base_seed, "pairs", key, graph_index, pairset_index)
    graph = sample_sbm(point.sbm, seed_graph)
    u_bar, gamma, delta = expected_threshold(point.sbm, point.gamma_sign,
                                             config.d, config.alpha)
    m_values = resolve_m_values(config.m_fractions, point.sbm.n)
    connected = is_connected(graph)

    def fresh_row(method):
        return _base_record(config, point, seed_graph, graph_index, pairset_index,
                            method, connected, delta, None)

    if u_bar is None:
        return [dataclasses.replace(fresh_row(method), m=m, failure="invalid-regime")
                for m in m_values for method in config.methods]
    u = u_bar + point.u_offset
    model = ModelParams(config.d, u, config.alpha, gamma, point.saturation)
    pairs_all, eqs = generate_pair_set(graph, model, max(m_values), seed_pairs,
                                       config.controls)
    residuals = np.array([eq.residual_inf for eq in eqs])
    converged = np.array([eq.converged for eq in eqs])
    conc = concentration_ratio(graph, point.sbm) if config.collect_diagnostics else None
    rows = []
    for m in m_values:
        for method in config.methods:
            row = fresh_row(method)
            row.m = m
            row.u = u
            row.residual = float(residuals[:m].max())
            row.converged = bool(converged[:m].all())
            row.concentration_ratio = conc
            if not row.converged:
                row.failure = "non-convergence"
                rows.append(row)
                continue
            try:
                if method == DetectionMethod.MULTI_EQUILIBRIA:
                    estimate = detect_multi(PairSet(pairs_all.X[:, :m],
                                                    pairs_all.B[:, :m], model))
                    row.sigma_min_x = estimate.diagnostics.get("sigma_min_x")
                    row.eigen_gap = estimate.diagnostics.get("eigen_gap")
                elif method == DetectionMethod.COVARIANCE_SPECTRAL:
                    if m < 2:
                        row.failure = "too-few-samples"
                        rows.append(row)
                        continue
                    estimate = detect_covariance_baseline(pairs_all.X[:, :m])
                    row.eigen_gap = estimate.diagnostics.get("eigen_gap")
                else:
                    raise ValueError(f"method {method} not valid for pair data")
            except DomainError:
                row.failure = "domain-error"
                rows.append(row)
                continue
            row.accuracy = accuracy(graph.labels, estimate.labels)
            if estimate.degenerate:
                row.failure = "degenerate"
            rows.append(row)
    return rows


def _run_task(args):
    config, (kind, point_index, a, b) = args
    if kind == "multi":
        return _multi_trial_rows(config, point_index, a, b)
    return _single_trial_rows(config, point_index, a)


def _point_order(row):
    """Leading sort fields of a record or summary row; a missing m sorts first."""
    return (row.n, row.n1, row.l11, row.l12, row.l22, row.gamma_sign, row.u_offset,
            row.saturation, row.m if row.m is not None else -1)


def _record_sort_key(r: TrialRecord):
    return _point_order(r) + (r.trial, r.pair_set if r.pair_set is not None else -1, r.method)


def _workers_from_env() -> int:
    """Worker count from COMMDYN_WORKERS, defaulting to the available CPUs."""
    env = os.environ.get(WORKERS_ENV, "")
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be at least 1, got {workers}")
    return workers


def run_experiment(config: ExperimentConfig, workers: int = None):
    """Run every (point, trial) job and return the sorted trial records.

    Jobs are pure functions of (config, indices); with workers > 1 they are
    distributed over a process pool, and the sorted result is identical to a
    serial run.
    """
    tasks = []
    for point_index in range(len(config.points)):
        if config.is_multi:
            for g in range(config.trials):
                for p in range(config.pair_sets):
                    tasks.append(("multi", point_index, g, p))
        else:
            for t in range(config.trials):
                tasks.append(("single", point_index, t, 0))
    if workers is None:
        workers = _workers_from_env()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_task, [(config, t) for t in tasks]))
    else:
        chunks = [_run_task((config, t)) for t in tasks]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=_record_sort_key)
    return rows


# ---------------------------------------------------------------------------
# Preset configurations

_UNEQUAL_ELL = dict(l11=0.05, l12=0.1, l22=0.5)

_PRESET_DEFAULTS = {
    Preset.UNEQUAL_SBM: dict(
        kind="unequal", n1_values=(100, 200, 300, 400, 500), n2_fraction=0.05,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,),
        **_UNEQUAL_ELL),
    Preset.SATURATION_SWEEP: dict(
        kind="unequal", n1_values=(100, 300, 500), n2_fraction=0.05,
        u_offsets=(0.04,), saturations=_ALL_SATURATIONS,
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,),
        **_UNEQUAL_ELL),
    Preset.SSBM_POSITIVE: dict(
        kind="ssbm", n_values=(200,), ls=0.3, ld=0.05,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,)),
    Preset.SSBM_NEGATIVE: dict(
        kind="ssbm", n_values=(200, 500, 1000), ls=0.005, ld=0.03,
        u_offsets=(0.01, 0.02, 0.03, 0.04), saturations=(Saturation.TANH,),
        gamma_sign=-1, trials=20, methods=(DetectionMethod.SINGLE_EQUILIBRIUM,)),
    Preset.MULTI_PAIRS: dict(
        kind="ssbm", n_values=(20, 60, 100), ls=0.3, ld=0.05,
        u_offsets=(0.01,), saturations=(Saturation.TANH,), gamma_sign=1,
        trials=10, pair_sets=10,
        m_fractions=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        methods=(DetectionMethod.MULTI_EQUILIBRIA, DetectionMethod.COVARIANCE_SPECTRAL),
        # input-driven equilibria converge fast; the Newton polish to 1e-12
        # makes the looser ODE tolerances safe
        controls=IntegrationControls(rtol=1e-7, atol=1e-9, steady_tol=1e-8)),
    Preset.CUSTOM: dict(kind=None),
}


def _as_tuple(value):
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


_OVERRIDE_KEYS = frozenset(
    "trials n1_values n2_fraction l11 l12 l22 n_values ls ld u_offsets saturations "
    "gamma_sign m_fractions pair_sets methods d alpha diagnostics".split())


def build_config(preset, base_seed: int = 12345, **overrides) -> ExperimentConfig:
    """Assemble an ExperimentConfig from a preset plus overrides.

    Recognized overrides: trials, n1_values + n2_fraction + l11/l12/l22
    (unequal-size sweeps), n_values + ls/ld (SSBM sweeps), u_offsets,
    saturations, gamma_sign, m_fractions, pair_sets, methods, d, alpha,
    diagnostics. Scalars are accepted where lists are expected. Any other
    key raises ValueError. The integration controls are the preset's.
    """
    unknown = sorted(set(overrides) - _OVERRIDE_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    preset = Preset(preset)
    settings = dict(_PRESET_DEFAULTS[preset])
    settings.update((key, value) for key, value in overrides.items() if value is not None)
    for key in ("n1_values", "n_values", "u_offsets", "saturations", "m_fractions",
                "methods"):
        if key in settings:
            settings[key] = _as_tuple(settings[key])
    if settings.get("n1_values"):
        settings["kind"] = "unequal"
    elif settings.get("n_values") and preset is Preset.CUSTOM:
        settings["kind"] = "ssbm"

    if settings["kind"] == "unequal":
        if not all(k in settings for k in ("l11", "l12", "l22")):
            raise ValueError("unequal-size sweep needs l11, l12 and l22")
        fraction = settings.get("n2_fraction", 0.05)
        sbms = []
        for n1 in settings["n1_values"]:
            n2 = math.ceil(round(fraction * n1, 9))
            sbms.append(SbmParams(int(n1), int(n2), settings["l11"],
                                  settings["l12"], settings["l22"]))
    elif settings["kind"] == "ssbm":
        if not all(k in settings for k in ("ls", "ld")):
            raise ValueError("SSBM sweep needs ls and ld")
        sbms = [SbmParams.ssbm(int(n), settings["ls"], settings["ld"])
                for n in settings["n_values"]]
    else:
        raise ValueError("custom config needs n1_values (+ l11/l12/l22) or n_values (+ ls/ld)")

    saturations = tuple(Saturation(s) for s in settings["saturations"])
    methods = tuple(DetectionMethod(m) for m in settings["methods"])
    gamma_sign = int(settings["gamma_sign"])
    points = tuple(ParameterPoint(sbm, float(offset), sat, gamma_sign)
                   for sbm in sbms
                   for offset in settings["u_offsets"]
                   for sat in saturations)
    return ExperimentConfig(
        preset=preset, points=points, trials=int(settings["trials"]),
        base_seed=int(base_seed), methods=methods,
        d=float(settings.get("d", 1.0)), alpha=float(settings.get("alpha", 1.0)),
        m_fractions=tuple(settings.get("m_fractions", ())),
        pair_sets=int(settings.get("pair_sets", 10)),
        collect_diagnostics=bool(settings.get("diagnostics", False)),
        controls=settings.get("controls", IntegrationControls()))


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
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    return str(value)


def write_records_csv(path, records) -> None:
    """RFC-4180 CSV with the fixed TrialRecord column order. The first line
    is a `#` comment carrying the generation time; byte-identical
    reproducibility is defined modulo that line."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# generated {datetime.now(timezone.utc).isoformat()}\r\n")
        _write_rows(fh, RECORD_FIELDS, records)


def _write_rows(fh, fields, rows) -> None:
    """CSV header `fields`, then one line per row of those attributes."""
    writer = csv.writer(fh)
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_format_cell(getattr(row, name)) for name in fields])


def _parse_cell(kind, cell):
    """Inverse of _format_cell for a field annotated `kind`: empty means
    missing (None) in numeric and bool columns, "" in text ones."""
    if kind is str:
        return cell
    if cell == "":
        return None
    if kind is bool:
        return cell == "true"
    return kind(cell)


def read_records_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and not row[0].startswith("#")]
    if not rows or rows[0] != RECORD_FIELDS:
        raise ValueError("not a trial-record CSV")
    fields = dataclasses.fields(TrialRecord)
    return [TrialRecord(*(_parse_cell(f.type, cell) for f, cell in zip(fields, row)))
            for row in rows[1:]]


# ---------------------------------------------------------------------------
# Aggregation

@dataclass
class SummaryRow:
    preset: str
    n: int
    n1: int
    n2: int
    l11: float
    l12: float
    l22: float
    gamma_sign: int
    u_offset: float
    saturation: str
    m: int
    method: str
    mean_accuracy: float
    stderr: float
    count: int
    failures: int


SUMMARY_FIELDS = [f.name for f in dataclasses.fields(SummaryRow)]
_GROUP_FIELDS = SUMMARY_FIELDS[:-4]  # all but the four statistics


def summarize(records):
    """Mean accuracy, standard error and counts per parameter point and
    method, over the non-failed trials, in stable sorted order."""
    records = list(records)
    if not records:
        raise EmptyInput("no records to summarize")
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


def write_summary_csv(path, summary_rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, SUMMARY_FIELDS, summary_rows)
