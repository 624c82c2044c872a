"""moninc benchmark: run one workload for a fixed time, check it, report.

    python3 perfbench/run.py --workload cap-table --seed 23 --seconds 30 --trace 0

Workloads (see workloads.py for why each was chosen): cap-table,
cournot-cli, synthetic-recorded. The seed picks the replication streams;
it defaults to the workload's acceptance seed (23, 11 and 41).

A run repeats rounds until --seconds have passed. Each round is a fresh
interpreter (round.py) that imports moninc, builds the workload, solves
it and checks the outputs, so every round measures set-up as a user pays
it. The reported figures are medians over rounds:

    setup_s       import + config + problem build, up to the first solve
    run_s         wall time of the solve phase (all replications, methods)
    draws_per_s   solver oracle draws per second of run_s
    peak_rss_mb   peak resident memory of the round process
    success_ratio replications that passed their checks / attempted

With --trace 1 the rounds alternate untraced and traced; the traced rounds
wrap each layer (tracing.py) and report per-layer counts and times, and
trace.overhead compares the two kinds of round. Span times on cournot-cli
are summed over the two pool threads and include waiting for the
interpreter lock.

Layer metrics and the end-to-end metric and workload each should move
(other workloads should show no change):

    setup.*                 setup_s: all (import); synthetic-recorded (build)
    oracle.batch_*, draws   run_s, draws_per_s: cap-table (per draw),
                            cournot-cli (per call at m=1)
    oracle.schedule_*       run_s: cournot-cli, synthetic-recorded
    problems.coupling_*     run_s: cap-table
    problems.rel_error_s    run_s: synthetic-recorded
    core.resolvent_*        run_s: cap-table
    policy.*                run_s: synthetic-recorded
    solvers.*               run_s: cournot-cli, synthetic-recorded
    merit.*                 run_s: synthetic-recorded
    harness.*               run_s, success_ratio: cournot-cli

Every round must give the same digest of the final iterates; a digest
that differs from the one recorded in digests.json for this workload and
seed is reported as "random stream changed". The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
DEFAULT_SEEDS = {"cap-table": 23, "cournot-cli": 11, "synthetic-recorded": 41}
MIN_ROUNDS = 3  # per kind of round; 2 each when tracing alternates kinds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed replication)."""


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _round(cmd, cwd, timeout):
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd[1:])} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    return lines[-1]


def run_rounds(workload, seed, seconds, trace, work_dir):
    """Rounds until `seconds` pass; alternate untraced/traced under trace."""
    script = os.path.join(HERE, "round.py")
    start = time.perf_counter()
    _round([sys.executable, script, "--warmup"], ROOT, DEADLINE_S)
    start_measure = time.perf_counter()
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        cwd = os.path.join(work_dir, f"round{len(rounds)}")
        os.makedirs(cwd)
        t_round = time.perf_counter()
        line = _round([sys.executable, script, "--workload", workload,
                       "--seed", str(seed), "--trace", str(int(traced))],
                      cwd, max(1.0, DEADLINE_S - (t_round - start)))
        rounds.append(json.loads(line))
        shutil.rmtree(cwd)
        now = time.perf_counter()
        plain = sum(not r["traced"] for r in rounds)
        enough = (min(plain, len(rounds) - plain) >= MIN_ROUNDS - 1
                  if trace else plain >= MIN_ROUNDS)
        if enough and now - start_measure >= seconds:
            return rounds
        # one more round of the same length would overrun the deadline
        if now - start + 1.5 * (now - t_round) > DEADLINE_S:
            if plain and (not trace or len(rounds) > plain):
                return rounds
            raise BenchError("rounds are too slow to finish in time")


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def end_to_end(rounds):
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    return {
        "setup_s": _median(rounds, "setup_s"),
        "run_s": _median(rounds, "run_s"),
        "draws_per_s": statistics.median(r["draws"] / r["run_s"]
                                         for r in rounds),
        "peak_rss_mb": _median(rounds, "peak_rss_mb"),
        "success_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain, traced):
    layers = {}
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(r["layers"][name] for r in traced)
    for part in ("import_s", "config_s", "build_s"):
        layers[f"setup.{part}"] = statistics.median(
            r["setup"][part] for r in traced)
    layers["solvers.final_err"] = _median(traced, "final_err")
    layers["harness.csv_bytes"] = _median(traced, "csv_bytes")
    layers["harness.failed"] = _median(traced, "harness_failed")
    layers["trace.overhead"] = (_median(traced, "run_s")
                                / _median(plain, "run_s") - 1.0)
    return layers


def check(workload, seed, rounds):
    """Cross-round checks: returns (problems found, digest note)."""
    problems = []
    for i, r in enumerate(rounds):
        for tag, reason in r["failures"].items():
            problems.append(f"round {i}: {tag}: {reason}")
        if r["traced"] and r["layers"]["oracle.draws"] != r["draws"]:
            problems.append(
                f"round {i}: traced oracle.draws {r['layers']['oracle.draws']}"
                f" != solver draw count {r['draws']}")
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        problems.append(f"final iterates differ between rounds: {digests}")
    digest = rounds[0]["digest"]
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        note = f"digest {digest} (none recorded for seed {seed})"
    elif recorded != digest:
        note = f"random stream changed: digest {digest}, recorded {recorded}"
    else:
        note = f"digest {digest} matches the recorded one"
    return problems, note


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    work_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        rounds = run_rounds(args.workload, seed, args.seconds,
                            bool(args.trace), work_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    problems, note = check(args.workload, seed, rounds)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        print("metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {seed}: {len(plain)} rounds"
          + (f" + {len(traced)} traced" if traced else ""))
    for i, r in enumerate(rounds):
        print(f"  round {i}{' traced' if r['traced'] else ''}: "
              f"setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s, "
              f"draws {r['draws']}, failed {len(r['failures'])}")
    for name, value in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name} = {shown} {units[name]}")
    print(f"  {note}")
    for p in problems:
        print(f"  FAILED: {p}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
