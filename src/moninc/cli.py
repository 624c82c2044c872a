"""Command-line front end.

Subcommands:
  run <config>         execute one experiment (replications + CSV export)
  compare <cfg...>     run several configs on a shared problem, print a table;
                       --out-dir D writes each config to D/<label>
  bounds <config>      print closed-form rate/complexity envelopes of risfbf
  variance <config>    mini-batch variance sweep of the configured oracle

Exit codes: 0 success, 1 configuration error (solvers.check's included;
nothing is written), 2 numeric failure in every replication, 3 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import theory
from .core import NumericFailure
from .harness import _METRICS, _checked, compare, load_config, run_experiment
from .oracle import empirical_variance
from .policy import lipschitz_tilde
from .solvers import _start


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moninc",
        description="Stochastic splitting solvers for monotone inclusions")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help="override the global seed")

    def add_common(p):
        add_seed(p)
        p.add_argument("--replications", type=int, default=None,
                       help="override the replication count")
        p.add_argument("--out-dir", type=str, default=None,
                       help="override the output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="no effect; replications run serially")
        p.add_argument("--strict", action="store_true",
                       help="make policy diagnostics config errors")

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    add_common(p_run)

    p_cmp = sub.add_parser("compare", help="run several configs, one table")
    p_cmp.add_argument("configs", nargs="+")
    add_common(p_cmp)

    p_bounds = sub.add_parser("bounds",
                              help="print theoretical rate envelopes")
    p_bounds.add_argument("config")
    add_seed(p_bounds)

    p_var = sub.add_parser("variance", help="oracle variance sweep")
    p_var.add_argument("config")
    p_var.add_argument("--repeats", type=int, default=200)
    add_seed(p_var)
    return parser


def _overrides(args) -> dict:
    # no INI key sets strict, so the flag's False is the file's value too
    return {"seed": args.seed, "replications": args.replications,
            "out_dir": args.out_dir, "workers": args.workers,
            "strict": args.strict}


def _fmt(v) -> str:
    if v is None:
        return "-"
    return f"{v:.6g}"


def _print_stderr(report) -> None:
    if report.diagnostics:
        print(f"{report.label}: policy diagnostics: "
              f"{'; '.join(report.diagnostics)}", file=sys.stderr)
    for rep, reason in report.errors.items():
        print(f"{report.label}: replication {rep} failed: {reason}",
              file=sys.stderr)


def _print_report(report) -> None:
    print(f"{report.label}: method={report.method} "
          f"replications={report.replications} failed={report.failures} "
          f"wall={report.wall_seconds:.2f}s")
    for m in _METRICS:
        if m not in report.means:
            continue
        line = f"  {m}: mean={_fmt(report.means[m])}"
        if m in report.cis:
            lo, hi = report.cis[m]
            line += f" ci=[{_fmt(lo)}, {_fmt(hi)}]"
        print(line)
    print(f"  outputs: {report.out_dir}/summary.csv")
    _print_stderr(report)


def _cmd_run(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    report = run_experiment(cfg)
    _print_report(report)
    if report.failures >= report.replications:
        print("all replications failed", file=sys.stderr)
        return 2
    return 0


def _cmd_compare(args) -> int:
    cfgs = [load_config(path, _overrides(args)) for path in args.configs]
    if args.out_dir is not None:
        for cfg in cfgs:
            cfg.out_dir = os.path.join(args.out_dir, cfg.label)
    reports = compare(cfgs)
    header = f"{'label':<20} {'method':<9} " + " ".join(
        f"{m:>12}" for m in _METRICS) + f" {'wall_s':>8} {'failed':>6}"
    print(header)
    for report in reports:
        cells = " ".join(f"{_fmt(report.means.get(m)):>12}" for m in _METRICS)
        print(f"{report.label:<20} {report.method:<9} {cells} "
              f"{report.wall_seconds:>8.2f} {report.failures:>6}")
        _print_stderr(report)
    if all(r.failures >= r.replications for r in reports):
        return 2
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed})
    if cfg.method != "risfbf":
        raise cfg.error(f"bounds describes risfbf only, not {cfg.method}")
    problem = cfg.build_problem()
    mu = problem.strong_monotonicity
    if mu <= 0:
        raise cfg.error("bounds needs a strongly monotone problem")
    scfg, law, _ = _checked(cfg, problem)  # the check run() makes
    policy, L = scfg.policy, problem.lipschitz
    L_tilde = lipschitz_tilde(L)
    alpha1, lam, _ = law(1)
    q = theory.contraction_q(policy.a, policy.b, lam, mu,
                             policy.alpha, L_tilde)
    s = problem.oracle.variance_bound or 0.0
    B = theory.noise_envelope_B(s, policy.a, lam, L_tilde)
    print(f"L={L:.6g} L_tilde={L_tilde:.6g} mu={mu:.6g} lam={lam:.6g}")
    print(f"contraction q={q:.6g}")
    print(f"noise constant B={B:.6g}")
    _, x1 = _start(problem, np.random.default_rng([cfg.seed, 0]))
    dist1_sq = float(np.sum((x1 - problem.solution) ** 2))
    print(f"dist(X_1, solution)^2 = {dist1_sq:.6g} (replication 0 start)")

    batches = cfg.build_batches()
    if batches.kind == "geometric":
        p = float(batches.p)
        p_hat = (p + 1.0) / 2.0 if p == q else None
        C = theory.geometric_constant(p, q, dist1_sq, alpha1,
                                      policy.alpha, B, p_hat)
        print(f"geometric sampling p={p:.6g}: C={C:.6g}")
        epss = (1e-3, 1e-4, 1e-5)
        taus = [theory.tau_eps(p, q, C, eps, p_hat) for eps in epss]
        for eps, tau, cost in zip(epss, taus,
                                  theory.oracle_costs(batches, taus, 2)):
            print(f"  eps={eps:g}: tau={tau} oracle_cost={cost}")
    elif batches.kind == "polynomial":
        # m_k ~ k^theta / n, so the noise per step is about n B / k^theta
        c = theory.poly_rate_constant(q, batches.theta, dist1_sq, alpha1,
                                     policy.alpha, batches.scale * B)
        print(f"polynomial sampling theta={batches.theta:g}: "
              f"c={c:.6g} (envelope c/k^theta)")
    else:
        print("constant batches: no summable envelope; q governs the "
              "bias term only")
    return 0


def _cmd_variance(args) -> int:
    cfg = load_config(args.config, {"seed": args.seed})
    problem = cfg.build_problem()
    if problem.oracle.mean is None:
        raise cfg.error("variance sweep needs an oracle with exact mean")
    rng = np.random.default_rng([cfg.seed, 0])
    _, x = _start(problem, rng)  # replication 0's X_1
    ms = (1, 4, 16, 64, 256)
    print(f"{'m':>5} {'variance':>14}")
    variances = []
    for m in ms:
        v = empirical_variance(problem.oracle, x, m, args.repeats, rng)
        variances.append(v)
        print(f"{m:>5} {v:>14.6g}")
    if all(v > 0 for v in variances):
        slope = float(np.polyfit(np.log(ms), np.log(variances), 1)[0])
        print(f"log-log slope: {slope:.3f} (1/m scaling is -1)")
    else:
        print("zero variance; noiseless oracle")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "bounds": _cmd_bounds, "variance": _cmd_variance}
    try:
        return handlers[args.command](args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError, PolicyViolation, range checks
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
