"""Experiment configuration, replication, statistics, and CSV export.

A config is an INI file with sections [problem], [solver], [output], [meta].
Unknown sections or keys are hard errors so typos cannot silently change an
experiment. run_experiment executes the configured number of replications,
each on a stream derived from (global seed, replication index), writes one
trajectory CSV per replication plus a summary CSV, and returns an
aggregated report. Reruns produce byte-identical CSV bodies except for the
wall_time_s column.
"""

from __future__ import annotations

import configparser
import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

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
    "CSV_COLUMNS",
]

CSV_COLUMNS = ("k", "oracle_calls", "residual", "rel_error", "gap",
               "H_k", "wall_time_s")

_PROBLEM_KEYS = {
    "synthetic": {"kind", "dim", "mu", "skew", "sigma", "bias", "box",
                  "seed"},
    "cournot": {"kind", "l_v", "seed", "n_firms", "box_upper"},
    "cap": {"kind", "seed", "n_groups", "group_size", "overlap", "eta",
            "noise_std", "ball_radius"},
}
_SOLVER_KEYS = {
    "method", "regime", "alpha", "alpha_mode", "lam", "rho", "a", "b",
    "eps_bar", "nu", "batch_kind", "batch_m", "batch_theta", "batch_p",
    "batch_scale", "max_iters", "budget", "residual_target",
    "record_energy",
}
_OUTPUT_KEYS = {"out_dir", "stride", "replications", "confidence"}
_META_KEYS = {"seed", "label", "workers"}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Parsed experiment description; build_* methods produce live objects."""

    problem: dict
    solver: dict
    out_dir: str = "out"
    stride: int = 1
    replications: int = 1
    confidence: float = 0.95
    seed: int = 0
    label: str = ""
    workers: int = 1
    strict: bool = False

    def __post_init__(self):
        if self.replications < 1:
            raise ConfigError("replications must be at least 1")
        if not (0.0 < self.confidence < 1.0):
            raise ConfigError("confidence level must lie in (0,1)")
        if self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        budget = self.solver.get("budget")
        iters = self.solver.get("max_iters")
        if budget is not None and budget <= 0:
            raise ConfigError("budget must be positive")
        if iters is not None and iters <= 0:
            raise ConfigError("max_iters must be positive")
        if budget is None and iters is None \
                and self.solver.get("residual_target") is None:
            raise ConfigError(
                "solver needs at least one of max_iters, budget, "
                "residual_target")

    def build_problem(self):
        p = dict(self.problem)
        kind = p.pop("kind")
        if kind == "synthetic":
            return problems.synthetic_build(
                dim=int(p.get("dim", 20)), mu=p.get("mu", 1.0),
                skew_norm=p.get("skew", 1.0), sigma=p.get("sigma", 0.0),
                bias=p.get("bias", 0.0),
                box_halfwidth=p.get("box", 1.0),
                seed=int(p.get("seed", 0)))
        if kind == "cournot":
            return problems.cournot_build(
                L_V_target=p["l_v"], seed=int(p.get("seed", 0)),
                n_firms=int(p.get("n_firms", 10)),
                box_upper=p.get("box_upper", 10.0))
        if kind == "cap":
            return problems.cap_build(
                seed=int(p.get("seed", 0)),
                n_groups=int(p.get("n_groups", 10)),
                group_size=int(p.get("group_size", 10)),
                overlap=int(p.get("overlap", 2)),
                eta=p.get("eta", 1e-4),
                noise_std=p.get("noise_std", 0.1),
                ball_radius=p.get("ball_radius"))
        raise ConfigError(f"unknown problem kind {kind!r}")

    def build_policy(self) -> RegimePolicy | None:
        s = self.solver
        if s.get("regime") is None:
            return None
        return RegimePolicy(
            regime=s["regime"], alpha=s.get("alpha", 0.0),
            lam=s.get("lam"), alpha_mode=s.get("alpha_mode", "constant"),
            eps_bar=s.get("eps_bar", 0.1), nu=s.get("nu", 0.5),
            a=s.get("a", 0.5), b=s.get("b", 0.5), rho=s.get("rho"))

    def build_batches(self) -> BatchSchedule:
        s = self.solver
        kind = s.get("batch_kind", "constant")
        try:
            if kind == "constant":
                return BatchSchedule.constant(s.get("batch_m", 1))
            if kind == "polynomial":
                return BatchSchedule.polynomial(s["batch_theta"])
            if kind == "geometric":
                return BatchSchedule.geometric(s["batch_p"])
            if kind == "scaled_polynomial":
                return BatchSchedule.scaled_polynomial(
                    s["batch_theta"], s.get("batch_scale", 1.0))
        except KeyError as exc:
            raise ConfigError(
                f"batch schedule {kind!r} missing key {exc.args[0]!r}")
        raise ConfigError(f"unknown batch_kind {kind!r}")

    def build_solver_config(self) -> SolverConfig:
        s = self.solver
        return SolverConfig(
            policy=self.build_policy(), batches=self.build_batches(),
            lam=s.get("lam") if s.get("regime") is None else None,
            max_iters=s.get("max_iters"),
            max_oracle_calls=s.get("budget"),
            residual_target=s.get("residual_target"),
            record_stride=self.stride,
            record_energy=bool(s.get("record_energy", False)),
            strict=self.strict)

    @property
    def method(self) -> str:
        return self.solver["method"]


_FLOAT_KEYS = {"mu", "skew", "sigma", "bias", "box", "l_v", "box_upper",
               "eta", "noise_std", "ball_radius", "alpha", "lam", "rho",
               "a", "b", "eps_bar", "nu", "batch_theta", "batch_p",
               "batch_scale", "residual_target", "confidence"}
_INT_KEYS = {"dim", "seed", "n_firms", "n_groups", "group_size", "overlap",
             "batch_m", "max_iters", "budget", "stride", "replications",
             "workers"}
_BOOL_KEYS = {"record_energy"}


def _coerce(section: str, key: str, raw: str):
    if key in _BOOL_KEYS:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: bad number {raw!r}") from None
    return raw.strip()


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

    known_sections = {"problem", "solver", "output", "meta"}
    extra = set(parser.sections()) - known_sections
    if extra:
        raise ConfigError(f"{path}: unknown section(s) {sorted(extra)}")
    for required in ("problem", "solver"):
        if required not in parser:
            raise ConfigError(f"{path}: missing [{required}] section")

    def read_section(name, allowed):
        if name not in parser:
            return {}
        out = {}
        for key, raw in parser[name].items():
            if key not in allowed:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{name}]")
            out[key] = _coerce(name, key, raw)
        return out

    prob_raw = dict(parser["problem"])
    kind = prob_raw.get("kind")
    if kind not in _PROBLEM_KEYS:
        raise ConfigError(
            f"{path}: [problem] kind must be one of "
            f"{sorted(_PROBLEM_KEYS)}, got {kind!r}")
    prob = read_section("problem", _PROBLEM_KEYS[kind])
    solver = read_section("solver", _SOLVER_KEYS)
    if "method" not in solver:
        raise ConfigError(f"{path}: [solver] needs a method")
    if solver["method"] not in solvers.METHODS:
        raise ConfigError(
            f"{path}: unknown method {solver['method']!r}")
    output = read_section("output", _OUTPUT_KEYS)
    meta = read_section("meta", _META_KEYS)

    kwargs = dict(
        problem=prob, solver=solver,
        out_dir=output.get("out_dir", "out"),
        stride=output.get("stride", 1),
        replications=output.get("replications", 1),
        confidence=output.get("confidence", 0.95),
        seed=meta.get("seed", 0),
        label=meta.get("label", os.path.splitext(os.path.basename(path))[0]),
        workers=meta.get("workers", 1))
    if overrides:
        kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass
class RunReport:
    """Aggregates over successful replications; failures counted separately."""

    label: str
    method: str
    replications: int
    failures: int
    finals: dict = field(default_factory=dict)
    means: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)
    cis: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    out_dir: str = ""
    results: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # rep -> "ExcType: message"


def _fmt(v) -> str:
    if v is None:
        return ""
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def _write_trajectory(path: str, traj) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for i in range(len(traj.k)):
            writer.writerow([
                int(traj.k[i]), int(traj.oracle_calls[i]),
                _fmt(traj.residual[i]), _fmt(traj.rel_error[i]),
                _fmt(traj.gap[i]), _fmt(traj.H_k[i]),
                _fmt(traj.wall_time_s[i]),
            ])


_FINAL_METRICS = ("residual", "rel_error", "gap", "H_k")


def _final_row(rep_index, result):
    traj = result.trajectory
    row = {"rep": rep_index,
           "k": int(traj.k[-1]),
           "oracle_calls": int(traj.oracle_calls[-1]),
           "wall_time_s": float(traj.wall_time_s[-1])}
    for name in _FINAL_METRICS:
        row[name] = float(getattr(traj, name)[-1])
    return row


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Execute all replications of one configured experiment."""
    problem = config.build_problem()
    scfg = config.build_solver_config()
    method = config.method
    os.makedirs(config.out_dir, exist_ok=True)

    t_start = time.perf_counter()

    def one_rep(rep):
        rng = np.random.default_rng([config.seed, rep])
        try:
            result = run(problem, method, scfg, rng=rng)
        except (NumericFailure, FloatingPointError) as exc:
            return rep, None, f"{type(exc).__name__}: {exc}"
        _write_trajectory(
            os.path.join(config.out_dir, f"rep_{rep}.csv"),
            result.trajectory)
        return rep, result, None

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(one_rep, range(config.replications)))
    else:
        outcomes = [one_rep(r) for r in range(config.replications)]
    outcomes.sort(key=lambda t: t[0])

    rows, results, errors = [], [], {}
    for rep, result, err in outcomes:
        if result is None:
            errors[rep] = err
            continue
        rows.append(_final_row(rep, result))
        results.append(result)

    report = RunReport(
        label=config.label, method=method,
        replications=config.replications, failures=len(errors),
        wall_seconds=time.perf_counter() - t_start,
        out_dir=config.out_dir, results=results, errors=errors)

    for name in _FINAL_METRICS:
        vals = np.array([r[name] for r in rows], dtype=np.float64)
        vals = vals[~np.isnan(vals)]
        if vals.size == 0:
            continue
        report.finals[name] = vals
        report.means[name] = float(np.mean(vals))
        if vals.size >= 2:
            report.stderrs[name] = float(np.std(vals, ddof=1)
                                         / np.sqrt(vals.size))
            report.cis[name] = confidence_interval(vals, config.confidence)

    _write_summary(os.path.join(config.out_dir, "summary.csv"),
                   rows, report)
    return report


def _write_summary(path: str, rows, report: RunReport) -> None:
    cols = ("rep",) + ("k", "oracle_calls") + _FINAL_METRICS + ("wall_time_s",)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow([row["rep"], row["k"], row["oracle_calls"]]
                            + [_fmt(row[m]) for m in _FINAL_METRICS]
                            + [_fmt(row["wall_time_s"])])

        def stat_row(tag, getter):
            out = [tag, "", ""]
            for m in _FINAL_METRICS:
                out.append(_fmt(getter(m)))
            out.append("")
            writer.writerow(out)

        stat_row("mean", lambda m: report.means.get(m))
        stat_row("stderr", lambda m: report.stderrs.get(m))
        stat_row("ci_lo", lambda m: report.cis[m][0]
                 if m in report.cis else None)
        stat_row("ci_hi", lambda m: report.cis[m][1]
                 if m in report.cis else None)
        writer.writerow(["failed", report.failures, "", "", "", "", "", ""])


def confidence_interval(samples, level: float = 0.95):
    """Two-sided t interval for the mean: mean +- t_quantile * stderr."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least 2 samples")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0,1)")
    mean = float(np.mean(arr))
    se = float(np.std(arr, ddof=1) / np.sqrt(arr.size))
    t = float(stats.t.ppf(0.5 * (1.0 + level), arr.size - 1))
    return mean - t * se, mean + t * se


def compare(configs: list[ExperimentConfig]):
    """Run several solver configs on one shared problem; one row per method.

    All configs must describe the identical problem section (same kind,
    parameters, and instance seed) so differences are attributable to the
    solvers alone, and each must write to its own out_dir.
    """
    if not configs:
        raise ValueError("compare needs at least one config")
    ref = configs[0].problem
    owners = {}
    for cfg in configs:
        if cfg.problem != ref:
            raise ValueError(
                "compare requires identical [problem] sections; "
                f"{cfg.label!r} differs from {configs[0].label!r}")
        out = os.path.realpath(cfg.out_dir)
        if out in owners:
            raise ConfigError(
                f"{owners[out]!r} and {cfg.label!r} both write to "
                f"{cfg.out_dir!r}; give each config its own out_dir")
        owners[out] = cfg.label
    table = []
    for cfg in configs:
        report = run_experiment(cfg)
        row = {"label": cfg.label, "method": report.method,
               "replications": report.replications,
               "failed": report.failures,
               "errors": report.errors,
               "wall_seconds": report.wall_seconds}
        for m in _FINAL_METRICS:
            row[m] = report.means.get(m)
            row[m + "_ci"] = report.cis.get(m)
        table.append(row)
    return table
