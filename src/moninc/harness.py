"""Experiment configuration, replication, statistics, and CSV export.

A config is an INI file with sections [problem], [solver], [output], [meta].
One table per section (and per problem kind) declares each key once, as
key -> (type, parameter it sets): [problem] keys feed the kind's builder in
`moninc.problems`, [solver] keys feed RegimePolicy, the BatchSchedule
constructor that batch_kind names, and SolverConfig, and [output]/[meta]
keys feed ExperimentConfig. An omitted key takes the default of the builder
or dataclass it feeds. Unknown sections or keys, keys that the chosen batch
schedule does not read, policy keys other than lam without a regime, and
missing builder parameters without a default are hard errors, so typos
cannot silently change an experiment. run_experiment runs the configured
replications in order on the calling thread, each on a stream derived from
(global seed, replication index), writes one trajectory CSV per
replication plus a summary CSV, and returns an aggregated report; a
replication that fails numerically or breaks its policy's hypotheses is
counted and its reason kept in RunReport.errors, and the policy
diagnostics that the replications return are kept in RunReport.diagnostics.
Both CSVs take their columns from solvers.COLUMNS (the summary's rows lead
with the replication index), and one cell formatter writes both. Reruns
produce byte-identical CSV bodies except for the wall_time_s column.
"""

from __future__ import annotations

import configparser
import csv
import inspect
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from . import problems, solvers
from .core import NumericFailure
from .oracle import BatchSchedule
from .policy import PolicyViolation, RegimePolicy
from .solvers import SolverConfig, run

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "load_config",
    "run_experiment",
    "confidence_interval",
    "compare",
    "CSV_COLUMNS",
]

CSV_COLUMNS = solvers.COLUMNS
_METRICS = CSV_COLUMNS[2:-1]  # the columns summarised across replications

# [problem] keys besides `kind`, per kind; each feeds problems.<kind>_build
_PROBLEMS = {
    "synthetic": {"dim": (int, "dim"), "mu": (float, "mu"),
                  "skew": (float, "skew_norm"), "sigma": (float, "sigma"),
                  "bias": (float, "bias"), "box": (float, "box_halfwidth"),
                  "seed": (int, "seed")},
    "cournot": {"l_v": (float, "L_V_target"), "seed": (int, "seed"),
                "n_firms": (int, "n_firms"),
                "box_upper": (float, "box_upper")},
    "cap": {"seed": (int, "seed"), "n_groups": (int, "n_groups"),
            "group_size": (int, "group_size"), "overlap": (int, "overlap"),
            "eta": (float, "eta"), "noise_std": (float, "noise_std"),
            "ball_radius": (float, "ball_radius")},
}
_POLICY_KEYS = {
    "regime": (str, "regime"), "alpha": (float, "alpha"),
    "alpha_mode": (str, "alpha_mode"), "lam": (float, "lam"),
    "rho": (float, "rho"), "a": (float, "a"), "b": (float, "b"),
    "eps_bar": (float, "eps_bar"), "nu": (float, "nu"),
}
# parameters of the BatchSchedule constructor that batch_kind names
_BATCH_KINDS = ("constant", "polynomial", "geometric", "scaled_polynomial")
_BATCH_KEYS = {
    "batch_m": (int, "m"), "batch_theta": (float, "theta"),
    "batch_p": (float, "p"), "batch_scale": (float, "scale"),
}
_RUN_KEYS = {  # SolverConfig fields
    "max_iters": (int, "max_iters"), "budget": (int, "max_oracle_calls"),
    "residual_target": (float, "residual_target"),
    "record_energy": (bool, "record_energy"),
}
_FIELD_KEYS = {name: key for key, (_, name) in _RUN_KEYS.items()} | {
    "record_stride": "[output] stride"}
_SECTIONS = {
    "solver": {"method": (str, "method"), "batch_kind": (str, "kind"),
               **_POLICY_KEYS, **_BATCH_KEYS, **_RUN_KEYS},
    "output": {"out_dir": (str, "out_dir"), "stride": (int, "stride"),
               "replications": (int, "replications"),
               "confidence": (float, "confidence")},
    "meta": {"seed": (int, "seed"), "label": (str, "label"),
             "workers": (int, "workers")},
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _arguments(fn, values: dict, table: dict, what: str) -> dict:
    """The table's keys present in values, as keyword arguments of fn.

    ConfigError names a key whose parameter fn does not take, or the key of
    a parameter of fn that has no default and is missing from values.
    """
    params = inspect.signature(fn).parameters
    kwargs = {}
    for key, (_, name) in table.items():
        if key in values:
            if name not in params:
                raise ConfigError(f"{what} does not read {key!r}")
            kwargs[name] = values[key]
        elif name in params and params[name].default is params[name].empty:
            raise ConfigError(f"{what} missing key {key!r}")
    return kwargs


@dataclass
class ExperimentConfig:
    """Parsed experiment description; build_* methods produce live objects.

    problem and solver are the coerced INI sections, keyed by INI key;
    the SolverConfig that build_solver_config() makes checks the run keys.
    """

    problem: dict
    solver: dict
    out_dir: str = "out"
    stride: int = 1
    replications: int = 1
    confidence: float = 0.95
    seed: int = 0
    label: str = ""
    workers: int = 1  # range-checked; replications run serially
    strict: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not (0.0 < self.confidence < 1.0):
            raise ConfigError("confidence level must lie in (0,1)")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")

    def _builder_call(self):
        """(builder, keyword arguments) for the [problem] kind; the builder
        is looked up in `problems` now, so patches of it apply."""
        kind = self.problem["kind"]
        if kind not in _PROBLEMS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        build = getattr(problems, f"{kind}_build")
        return build, _arguments(build, self.problem, _PROBLEMS[kind],
                                 f"problem {kind!r}")

    def build_problem(self):
        build, kwargs = self._builder_call()
        return build(**kwargs)

    def build_policy(self) -> RegimePolicy | None:
        if self.solver.get("regime") is None:
            return None
        # RegimePolicy.alpha has no default of its own
        return RegimePolicy(**_arguments(
            RegimePolicy, {"alpha": 0.0, **self.solver}, _POLICY_KEYS,
            "policy"))

    def build_batches(self) -> BatchSchedule:
        kind = self.solver.get("batch_kind", "constant")
        if kind not in _BATCH_KINDS:
            raise ConfigError(f"unknown batch_kind {kind!r}")
        make = getattr(BatchSchedule, kind)
        return make(**_arguments(make, self.solver, _BATCH_KEYS,
                                 f"batch schedule {kind!r}"))

    def build_solver_config(self) -> SolverConfig:
        s = self.solver
        return SolverConfig(
            policy=self.build_policy(), batches=self.build_batches(),
            lam=s.get("lam") if s.get("regime") is None else None,
            record_stride=self.stride, strict=self.strict,
            **_arguments(SolverConfig, s, _RUN_KEYS, "solver"))

    @property
    def method(self) -> str:
        return self.solver["method"]


def _coerce(section: str, key: str, type_, raw: str):
    if type_ is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")
    try:
        return type_(raw.strip())
    except ValueError:
        raise ConfigError(f"[{section}] {key}: bad number {raw!r}") from None


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an INI experiment file.

    overrides (seed/replications/out_dir/workers/strict) take precedence
    over file values; they come from CLI flags.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    extra = set(parser.sections()) - {"problem", *_SECTIONS}
    if extra:
        raise ConfigError(f"{path}: unknown section(s) {sorted(extra)}")
    for required in ("problem", "solver"):
        if required not in parser:
            raise ConfigError(f"{path}: missing [{required}] section")

    def read_section(name, table):
        if name not in parser:
            return {}
        out = {}
        for key, raw in parser[name].items():
            if key not in table:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{name}]")
            out[key] = _coerce(name, key, table[key][0], raw)
        return out

    kind = parser["problem"].get("kind")
    if kind not in _PROBLEMS:
        raise ConfigError(
            f"{path}: [problem] kind must be one of "
            f"{sorted(_PROBLEMS)}, got {kind!r}")
    prob = read_section("problem", {"kind": (str, "kind"), **_PROBLEMS[kind]})
    solver, output, meta = (read_section(name, _SECTIONS[name])
                            for name in ("solver", "output", "meta"))
    if "method" not in solver:
        raise ConfigError(f"{path}: [solver] needs a method")
    if solver["method"] not in solvers.METHODS:
        raise ConfigError(
            f"{path}: unknown method {solver['method']!r}")
    if "regime" not in solver:
        # lam alone is the step of the plain methods
        unread = [k for k in _POLICY_KEYS if k in solver and k != "lam"]
        if unread:
            raise ConfigError(
                f"{path}: [solver] keys {unread} configure a regime policy "
                "but no regime is set")

    meta.setdefault("label", os.path.splitext(os.path.basename(path))[0])
    kwargs = dict(problem=prob, solver=solver, **output, **meta)
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        cfg._builder_call()
        cfg.build_solver_config()
    except ValueError as exc:  # ConfigError, or a policy or batch range check
        # name the INI keys, not SolverConfig's fields
        msg = re.sub(r"\w+", lambda w: _FIELD_KEYS.get(w[0], w[0]), str(exc))
        raise ConfigError(f"{path}: {msg}") from None
    return cfg


@dataclass
class RunReport:
    """Aggregates over successful replications; failures counted separately."""

    label: str
    method: str
    replications: int
    failures: int
    means: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)
    cis: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    out_dir: str = ""
    results: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # rep -> "ExcType: message"
    diagnostics: tuple = ()  # RunResult.diagnostics, equal for every rep


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def _cells(traj, i) -> list:
    """Row i of a trajectory as CSV cells, in CSV_COLUMNS order."""
    k, calls, *metrics = (getattr(traj, c)[i] for c in CSV_COLUMNS)
    return [int(k), int(calls), *map(_fmt, metrics)]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute all replications of one configured experiment.

    Replications run in order on the calling thread. Replication r writes
    its trajectory to rep_<r>.csv, or its reason to errors[r]; summary.csv
    holds the last row of each successful replication, then the mean,
    stderr and confidence bounds of each metric column and the failure count.
    """
    problem = config.build_problem()
    scfg = config.build_solver_config()
    method = config.method
    os.makedirs(config.out_dir, exist_ok=True)

    t_start = time.perf_counter()
    results, rows, errors = [], [], {}  # rows: summary.csv's rep rows
    for rep in range(config.replications):
        rng = np.random.default_rng([config.seed, rep])
        try:
            result = run(problem, method, scfg, rng=rng)
        except (NumericFailure, FloatingPointError, PolicyViolation) as exc:
            errors[rep] = f"{type(exc).__name__}: {exc}"
            continue
        traj = result.trajectory
        _write_csv(os.path.join(config.out_dir, f"rep_{rep}.csv"),
                   CSV_COLUMNS, (_cells(traj, i) for i in range(len(traj.k))))
        results.append(result)
        rows.append([rep, *_cells(traj, -1)])
    report = RunReport(
        label=config.label, method=method,
        replications=config.replications, failures=len(errors),
        wall_seconds=time.perf_counter() - t_start,
        out_dir=config.out_dir, results=results, errors=errors,
        diagnostics=results[0].diagnostics if results else ())

    for name in _METRICS:
        vals = np.array([getattr(res.trajectory, name)[-1]
                         for res in report.results], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            continue
        report.means[name] = float(np.mean(vals))
        if vals.size >= 2:
            report.stderrs[name] = float(np.std(vals, ddof=1)
                                         / np.sqrt(vals.size))
            report.cis[name] = confidence_interval(vals, config.confidence)

    cis = report.cis
    for tag, values in (("mean", report.means), ("stderr", report.stderrs),
                        ("ci_lo", {m: ci[0] for m, ci in cis.items()}),
                        ("ci_hi", {m: ci[1] for m, ci in cis.items()})):
        rows.append([tag, "", "", *(_fmt(values.get(m)) for m in _METRICS),
                     ""])
    rows.append(["failed", report.failures] + [""] * (len(CSV_COLUMNS) - 1))
    _write_csv(os.path.join(config.out_dir, "summary.csv"),
               ("rep",) + CSV_COLUMNS, rows)
    return report


def confidence_interval(samples, level: float = 0.95):
    """Two-sided t interval for the mean: mean +- t_quantile * stderr."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 samples")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0,1)")
    mean = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    t = _t_quantile(level, arr.size - 1)
    return mean - t * se, mean + t * se


def _t_quantile(level: float, df: int) -> float:
    """t with P(|T| <= t) = level for T Student-t with integer df >= 1.

    For integer df, P(|T| <= t) is a finite series in theta = atan(t/sqrt(df))
    (Abramowitz & Stegun 26.7.3-26.7.4), increasing in theta; bisection on
    theta in [0, pi/2] inverts it to the last bit of theta. df = 1 is the
    Cauchy quantile tan(pi level/2).
    """
    if df == 1:
        return math.tan(0.5 * math.pi * level)
    odd = df % 2 == 1
    n = (df - 1) // 2 if odd else df // 2
    j = np.arange(1.0, n)
    # series coefficients: prod (2i)/(2i+1) for odd df, (2i-1)/(2i) for even
    coef = np.ones(n)
    coef[1:] = np.cumprod(2.0 * j / (2.0 * j + 1.0) if odd
                          else (2.0 * j - 1.0) / (2.0 * j))
    powers = np.arange(n)

    def two_sided(theta):
        s, c = math.sin(theta), math.cos(theta)
        series = float(coef @ (c * c) ** powers)
        if odd:
            return 2.0 / math.pi * (theta + s * c * series)
        return s * series

    lo, hi = 0.0, 0.5 * math.pi
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if two_sided(mid) < level:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return math.sqrt(df) * math.tan(mid)


def _builder_arguments(cfg: ExperimentConfig):
    """The [problem] builder and every argument it gets, defaults applied."""
    build, kwargs = cfg._builder_call()
    bound = inspect.signature(build).bind(**kwargs)
    bound.apply_defaults()
    return build, bound.arguments


def compare(configs: list[ExperimentConfig]) -> list[RunReport]:
    """Run several solver configs on one shared problem; one report each.

    All configs must describe the identical problem (same builder and the
    same arguments once its defaults apply, instance seed included) so
    differences are attributable to the solvers alone, and each must write
    to its own out_dir.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    ref = _builder_arguments(configs[0])
    owners = {}
    for cfg in configs:
        if _builder_arguments(cfg) != ref:
            raise ValueError(
                "compare requires identical [problem] sections; "
                f"{cfg.label!r} differs from {configs[0].label!r}")
        out = os.path.realpath(cfg.out_dir)
        if out in owners:
            raise ConfigError(
                f"{owners[out]!r} and {cfg.label!r} both write to "
                f"{cfg.out_dir!r}; give each config its own out_dir")
        owners[out] = cfg.label
    return [run_experiment(cfg) for cfg in configs]
