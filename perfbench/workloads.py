"""The three benchmark workloads, each split into setup, solve and check.

A workload's `setup` builds everything the solve needs and reports the
time of its config and build phases; `solve` is the timed region; `check`
turns the outputs into an Outcome. The problem instances and solver
settings are those of acceptance criteria 6, 7 and 8; the seed only picks
the replication streams `default_rng([seed, rep])`.

Why these three: they split the work across layers in different ways, so
each later optimisation has one workload where it must show and one where
it must not.

* cap-table: batches grow to m~210, so the group-lasso oracle and the
  product resolvent dominate; policy, merit and harness are negligible.
* cournot-cli: `moninc compare` through the CLI, harness thread pool and
  CSV writers; the m=1 `sa` replications are dominated by fixed per-call
  overhead in the solver loop, oracle and projection.
* synthetic-recorded: the oracle samples the batch mean in O(d), so merit
  functions and per-iteration recording dominate the solve, and the
  reference solve in `synthetic_build` dominates set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from moninc import cli, harness, solvers
from moninc.merit import GapRegion
from moninc.oracle import BatchSchedule, batch_size
from moninc.policy import RegimePolicy
from moninc.problems import cap_build, synthetic_build

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What one round produced, as the round reports it.

    failures maps a replication tag "label/rep" to the first reason it
    failed, so a replication counts once however many checks it misses.
    """

    attempted: int
    failures: dict = field(default_factory=dict)
    draws: int = 0
    digest: str = ""
    final_err: float = float("nan")
    csv_bytes: int = 0
    harness_failed: int = 0

    def fail(self, tag, reason):
        self.failures.setdefault(tag, reason)


def _digest(named_points) -> str:
    """sha256 over (name, final X) pairs in a fixed order."""
    h = hashlib.sha256()
    for name, x in named_points:
        h.update(name.encode())
        h.update(np.ascontiguousarray(x, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run_reps(problem, runs, seed, reps):
    """Run every (method, config) for `reps` replications.

    A replication that raises is kept as its exception, so it is counted
    and reported as a failure rather than ending the round.
    """
    out = []
    for method, cfg in runs:
        for rep in range(reps):
            try:
                res = solvers.run(problem, method, cfg,
                                  np.random.default_rng([seed, rep]))
            except Exception as exc:  # reported per replication by check()
                res = exc
            out.append((method, rep, res))
    return out


def _direct_outcome(results, rep_ok) -> Outcome:
    """Outcome of workloads that call `solvers.run` themselves.

    rep_ok(method, result) returns None or the reason the replication
    missed the workload's output check.
    """
    out = Outcome(attempted=len(results))
    points = []
    for method, rep, res in results:
        tag = f"{method}/{rep}"
        if isinstance(res, Exception):
            out.fail(tag, f"raised {type(res).__name__}: {res}")
            points.append((tag + "/raised", np.zeros(0)))
            continue
        out.draws += res.oracle_calls
        points.append((tag, res.X))
        reason = ("final X is not finite" if not np.all(np.isfinite(res.X))
                  else rep_ok(method, res))
        if reason:
            out.fail(tag, reason)
    out.digest = _digest(points)
    return out


class CapTable:
    """Criterion-8 group-lasso table: risfbf, sfbf and seg on cap_build(0)."""

    name = "cap-table"
    reps = 2
    iters = 2000
    # criterion 8 accepts the risfbf mean rel error at k=2000 up to 5x this
    reference_err = 4.6e-3

    def setup(self, seed, lap):
        self.seed = seed
        self.problem = cap_build(seed=0)
        lap("build_s")
        lam = 1.0 / (4.0 * self.problem.lipschitz)
        batches = BatchSchedule.scaled_polynomial(1.1, 20)
        pol = RegimePolicy(regime="monotone_gap", alpha=0.85, lam=lam,
                           alpha_mode="increasing")
        shared = dict(batches=batches, max_iters=self.iters,
                      record_stride=400, record_residual=False)
        self.runs = [
            ("risfbf", solvers.SolverConfig(policy=pol, **shared)),
            ("sfbf", solvers.SolverConfig(lam=lam, **shared)),
            ("seg", solvers.SolverConfig(lam=lam, **shared)),
        ]
        lap("config_s")
        return [self.problem]

    def solve(self):
        self.results = _run_reps(self.problem, self.runs, self.seed,
                                 self.reps)

    def check(self) -> Outcome:
        last_k = self.iters + 1

        def rep_ok(method, res):
            traj = res.trajectory
            if int(traj.k[-1]) != last_k:
                return f"last row is k={int(traj.k[-1])}, expected {last_k}"
            if not np.isfinite(traj.rel_error[-1]):
                return "final relative error is not finite"
            return None

        out = _direct_outcome(self.results, rep_ok)
        errs = [res.trajectory.rel_error[-1] for m, _, res in self.results
                if m == "risfbf" and not isinstance(res, Exception)]
        out.final_err = float(np.mean(errs)) if errs else float("nan")
        bound = 5.0 * self.reference_err
        if not out.final_err <= bound:
            for m, rep, _ in self.results:
                if m == "risfbf":
                    out.fail(f"risfbf/{rep}",
                             f"mean rel error {out.final_err:.3e} at "
                             f"k={self.iters} exceeds {bound:.1e}")
        return out


class SyntheticRecorded:
    """Criterion-6 instance, risfbf recording every merit every iteration."""

    name = "synthetic-recorded"
    reps = 16

    def setup(self, seed, lap):
        self.seed = seed
        self.problem = synthetic_build(dim=20, mu=0.0, skew_norm=1.0,
                                       sigma=0.5, seed=7)
        lap("build_s")
        lam = 1.0 / (4.0 * self.problem.lipschitz)
        pol = RegimePolicy(regime="monotone_gap", alpha=0.1, lam=lam,
                           alpha_mode="increasing")
        region = GapRegion(np.zeros(20), 2.0 * np.sqrt(20.0),
                           geometry=self.problem.feasible)
        self.runs = [("risfbf", solvers.SolverConfig(
            policy=pol, batches=BatchSchedule.polynomial(1.01),
            max_iters=2000, record_stride=1, gap_region=region,
            record_energy=True))]
        lap("config_s")
        return [self.problem]

    def solve(self):
        self.results = _run_reps(self.problem, self.runs, self.seed,
                                 self.reps)

    def check(self) -> Outcome:
        def rep_ok(method, res):
            traj = res.trajectory
            if not (np.all(np.isfinite(traj.residual))
                    and np.all(np.isfinite(traj.gap))):
                return "a recorded residual or gap is not finite"
            if not traj.residual[-1] < traj.residual[0]:
                return (f"final residual {traj.residual[-1]:.3e} is not "
                        f"below its k=1 value {traj.residual[0]:.3e}")
            return None

        out = _direct_outcome(self.results, rep_ok)
        finals = [res.trajectory.residual[-1] for _, _, res in self.results
                  if not isinstance(res, Exception)]
        out.final_err = float(np.mean(finals)) if finals else float("nan")
        return out


class CournotCli:
    """Criterion-7 set through `moninc compare`, one out_dir per config.

    `compare` applies --out-dir (and its default `out`) to every config, so
    without an out_dir in each file later configs would overwrite earlier
    configs' rep_*.csv and summary.csv.
    """

    name = "cournot-cli"
    labels = ("risfbf", "sfbf", "sa")
    workers = 2

    def setup(self, seed, lap):
        self.paths = [os.path.join(HERE, "configs", f"cournot_{label}.ini")
                      for label in self.labels]
        overrides = {"seed": seed, "workers": self.workers}
        self.configs = [harness.load_config(p, overrides) for p in self.paths]
        lap("config_s")
        self.configs[0].build_problem()
        lap("build_s")
        self.argv = ["compare", *self.paths, "--seed", str(seed),
                     "--workers", str(self.workers)]
        return []

    def solve(self):
        self.reports = []
        inner = harness.run_experiment

        def keep_report(cfg):
            report = inner(cfg)
            self.reports.append(report)
            return report

        harness.run_experiment = keep_report
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.exit_code = cli.main(self.argv)
        finally:
            harness.run_experiment = inner

    def _expected_rows(self, cfg) -> int:
        """CSV rows (header included) for a run stopped by the draw budget."""
        sched = cfg.build_batches()
        batches = 1 if cfg.method == "sa" else 2  # mini-batches per iteration
        k, calls = 1, 0
        while calls + batches * batch_size(sched, k) <= cfg.solver["budget"]:
            calls += batches * batch_size(sched, k)
            k += 1
        rows = len(range(1, k + 1, cfg.stride))
        if (k - 1) % cfg.stride:
            rows += 1
        return rows + 1

    def check(self) -> Outcome:
        out = Outcome(attempted=sum(c.replications for c in self.configs))
        by_label = {r.label: r for r in self.reports}
        points, means = [], {}
        for cfg in self.configs:
            label = cfg.label
            tags = [f"{label}/{rep}" for rep in range(cfg.replications)]
            if self.exit_code != 0:
                for tag in tags:
                    out.fail(tag, f"compare exited with code {self.exit_code}")
            report = by_label.get(label)
            if report is not None:
                # the harness keeps no reason for a failed replication; its
                # CSV is missing and the check below names it
                out.harness_failed += report.failures
                finals = []
                for i, res in enumerate(report.results):
                    out.draws += res.oracle_calls
                    points.append((f"{label}/{i}", res.X))
                    finals.append(float(res.trajectory.residual[-1]))
                    if not (np.all(np.isfinite(res.X))
                            and np.isfinite(finals[-1])):
                        out.fail(f"{label}/{i}", "non-finite final value")
                means[label] = (float(np.mean(finals)) if finals
                                else float("nan"))
            want = self._expected_rows(cfg)
            for rep, tag in enumerate(tags):
                path = os.path.join(cfg.out_dir, f"rep_{rep}.csv")
                if not os.path.exists(path):
                    out.fail(tag, f"{path} missing")
                    continue
                with open(path, encoding="utf-8") as fh:
                    got = sum(1 for _ in fh)
                if got != want:
                    out.fail(tag, f"{path} has {got} rows, expected {want}")
            if not os.path.exists(os.path.join(cfg.out_dir, "summary.csv")):
                for tag in tags:
                    out.fail(tag, f"{cfg.out_dir}/summary.csv missing")
            if os.path.isdir(cfg.out_dir):
                out.csv_bytes += sum(
                    os.path.getsize(os.path.join(cfg.out_dir, f))
                    for f in os.listdir(cfg.out_dir))
        out.final_err = means.get("risfbf", float("nan"))
        if not means.get("risfbf", np.inf) < means.get("sa", -np.inf):
            for rep in range(self.configs[0].replications):
                out.fail(f"risfbf/{rep}",
                         f"risfbf mean final residual {means.get('risfbf')} "
                         f"is not below sa's {means.get('sa')}")
        out.digest = _digest(points)
        return out


WORKLOADS = {w.name: w for w in (CapTable, CournotCli, SyntheticRecorded)}
