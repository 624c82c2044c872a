"""Experiment configuration, replication, statistics, and CSV export.

A config is an INI file with sections [problem], [solver], [output], [meta].
One table per section (and per problem kind) declares each key once, as
key -> (type, parameter it sets): [problem] keys feed the kind's builder in
`moninc.problems`, [solver] keys feed RegimePolicy, the BatchSchedule
constructor that batch_kind names, and SolverConfig, and [output]/[meta]
keys feed ExperimentConfig. An omitted key takes the default of the builder
or dataclass it feeds. Unknown sections or keys, keys that the chosen batch
schedule does not read, policy keys other than lam without a regime,
missing builder parameters without a default, [problem] values outside
the builder's ranges (checked without building), a lam, regime or
record_energy that the method would not read, and a method the config
cannot run or stop (SolverConfig and solvers.check_method) are hard errors
at load, and what solvers.check rejects on the built problem is one before
anything is written, so typos cannot silently change an experiment. Load
errors name the file and keys as written; later ones, the config's label.
run_experiment runs the replications in order on the calling thread, each
on a stream derived from (global seed, replication index), writes one
trajectory CSV per replication plus a summary CSV, and returns an
aggregated report: the reason of each replication that fails numerically
in RunReport.errors, and the check's policy diagnostics. Both CSVs take
their columns from solvers.COLUMNS (the summary's rows lead with the
replication index), and one cell formatter writes both. Reruns produce
byte-identical CSV bodies except for the wall_time_s column.
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
from .policy import RegimePolicy
from .solvers import SolverConfig, run

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunReport",
    "load_config",
    "run_experiment",
    "confidence_interval",
    "compare",
]

_METRICS = solvers.COLUMNS[2:-1]  # the columns summarised across reps

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
        if self.seed < 0:  # default_rng takes no negative entropy
            raise ConfigError("[meta] seed must be nonnegative")
        if self.problem.get("seed", 0) < 0:
            raise ConfigError("[problem] seed must be nonnegative")

    def error(self, reason) -> ConfigError:
        """A ConfigError about this loaded config, named by its label."""
        return ConfigError(f"{self.label}: {reason}")

    def _builder_call(self):
        """(builder, its arguments with defaults applied) for the [problem]
        kind; the builder is looked up in `problems` now, so patches apply."""
        kind = self.problem["kind"]
        if kind not in _PROBLEMS:
            raise ConfigError(f"unknown problem kind {kind!r}")
        build = getattr(problems, f"{kind}_build")
        bound = inspect.signature(build).bind(**_arguments(
            build, self.problem, _PROBLEMS[kind], f"problem {kind!r}"))
        bound.apply_defaults()
        return build, bound.arguments

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
        states = configparser.ConfigParser.BOOLEAN_STATES  # yes/no, on/off
        if raw.strip().lower() not in states:
            raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")
        return states[raw.strip().lower()]
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
            return _parsed(parser, path, overrides)
        except (configparser.Error, ValueError) as exc:  # ConfigError too
            raise ConfigError(f"{path}: {exc}") from exc


def _parsed(parser, path: str, overrides: dict | None) -> ExperimentConfig:
    extra = set(parser.sections()) - {"problem", *_SECTIONS}
    if extra:
        raise ConfigError(f"unknown section(s) {sorted(extra)}")
    for required in ("problem", "solver"):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section")

    def read_section(name, table):
        if name not in parser:
            return {}
        out = {}
        for key, raw in parser[name].items():
            if key not in table:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            out[key] = _coerce(name, key, table[key][0], raw)
        return out

    kind = parser["problem"].get("kind")
    if kind not in _PROBLEMS:
        raise ConfigError(f"[problem] kind must be one of "
                          f"{sorted(_PROBLEMS)}, got {kind!r}")
    prob = read_section("problem", {"kind": (str, "kind"), **_PROBLEMS[kind]})
    solver, output, meta = (read_section(name, _SECTIONS[name])
                            for name in ("solver", "output", "meta"))
    if "method" not in solver:
        raise ConfigError("[solver] needs a method")
    if "regime" not in solver:
        # lam alone is the step of the plain methods
        unread = [k for k in _POLICY_KEYS if k in solver and k != "lam"]
        if unread:
            raise ConfigError(
                f"[solver] keys {unread} configure a regime policy "
                "but no regime is set")

    meta.setdefault("label", os.path.splitext(os.path.basename(path))[0])
    kwargs = dict(problem=prob, solver=solver, **output, **meta)
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    # these checks name parameters and fields; the message names the INI
    # keys instead, outside quoted values
    keys = {name: key for key, (_, name)
            in (_PROBLEMS[kind] | _SECTIONS["solver"]).items()
            if name != key} | {"record_stride": "[output] stride"}
    try:
        cfg = ExperimentConfig(**kwargs)
        # the builder's own range check, without building the problem
        getattr(problems, f"_check_{kind}")(**cfg._builder_call()[1])
        solvers.check_method(cfg.method, cfg.build_solver_config())
    except (TypeError, ValueError) as exc:  # ConfigError, or a range check
        raise ConfigError(re.sub(r"'[^']*'|\w+",
                                 lambda w: keys.get(w[0], w[0]),
                                 str(exc))) from exc
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
    diagnostics: tuple = ()  # solvers.check's, even if every rep fails


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def _cells(traj, i) -> list:
    """Row i of a trajectory as CSV cells, in solvers.COLUMNS order."""
    k, calls, *metrics = (getattr(traj, c)[i] for c in solvers.COLUMNS)
    return [int(k), int(calls), *map(_fmt, metrics)]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _checked(config: ExperimentConfig, problem):
    """(SolverConfig, law, diagnostics): solvers.check's, or a ConfigError."""
    try:
        scfg = config.build_solver_config()
        return (scfg, *solvers.check(problem, config.method, scfg))
    except ValueError as exc:  # PolicyViolation included
        raise config.error(exc) from exc


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute all replications of one configured experiment.

    The config is checked first. Replication r writes its trajectory to
    rep_<r>.csv, or its reason to errors[r]; summary.csv holds the last row
    of each successful replication, then the mean, stderr and confidence
    bounds of each metric column and the failure count.
    """
    problem = config.build_problem()
    scfg, _, diagnostics = _checked(config, problem)
    method = config.method
    os.makedirs(config.out_dir, exist_ok=True)

    t_start = time.perf_counter()
    results, rows, errors = [], [], {}  # rows: summary.csv's rep rows
    for rep in range(config.replications):
        rng = np.random.default_rng([config.seed, rep])
        try:
            result = run(problem, method, scfg, rng=rng)
        except (NumericFailure, FloatingPointError) as exc:
            errors[rep] = f"{type(exc).__name__}: {exc}"
            continue
        traj = result.trajectory
        _write_csv(os.path.join(config.out_dir, f"rep_{rep}.csv"),
                   solvers.COLUMNS,
                   (_cells(traj, i) for i in range(len(traj.k))))
        results.append(result)
        rows.append([rep, *_cells(traj, -1)])
    report = RunReport(
        label=config.label, method=method,
        replications=config.replications, failures=len(errors),
        wall_seconds=time.perf_counter() - t_start,
        out_dir=config.out_dir, results=results, errors=errors,
        diagnostics=diagnostics)

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
    rows.append(["failed", report.failures]
                + [""] * (len(solvers.COLUMNS) - 1))
    _write_csv(os.path.join(config.out_dir, "summary.csv"),
               ("rep",) + solvers.COLUMNS, rows)
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


def compare(configs: list[ExperimentConfig]) -> list[RunReport]:
    """Run several solver configs on one shared problem; one report each.

    All configs must describe the identical problem (same builder and the
    same arguments once its defaults apply, instance seed included) so
    differences are attributable to the solvers alone, and each must write
    to its own out_dir. Each is checked on one build of it before any runs.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    ref = configs[0]._builder_call()
    owners = {}
    for cfg in configs:
        if cfg._builder_call() != ref:
            raise ValueError(
                "compare requires identical [problem] sections; "
                f"{cfg.label!r} differs from {configs[0].label!r}")
        out = os.path.realpath(cfg.out_dir)
        if out in owners:
            raise ConfigError(
                f"{owners[out]!r} and {cfg.label!r} both write to "
                f"{cfg.out_dir!r}; give each config its own out_dir")
        owners[out] = cfg.label
    problem = configs[0].build_problem()
    for cfg in configs:
        _checked(cfg, problem)
    return [run_experiment(cfg) for cfg in configs]
