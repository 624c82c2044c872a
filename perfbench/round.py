"""One round of a workload in a fresh interpreter: set up, solve, check.

    python3 perfbench/round.py --workload cap-table --seed 23 --trace 0
    python3 perfbench/round.py --warmup

Run from a scratch directory (the cournot-cli configs write their CSVs
under the working directory). Only the standard library is imported before
the set-up clock starts, so `setup.import_s` covers numpy and scipy as a
user's first `import moninc` does. With --trace 1 the layers are wrapped
after set-up, for the solve only. The last line of stdout is one JSON
object; --warmup only imports moninc, which also compiles its bytecode,
and prints where it was imported from.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import moninc
    t_import = time.perf_counter()
    if os.path.dirname(os.path.abspath(moninc.__file__)) != \
            os.path.join(SRC, "moninc"):
        print(f"moninc was imported from {moninc.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.warmup:
        print(json.dumps({"moninc": moninc.__file__}))
        return 0

    import tracing
    import workloads

    setup = {"import_s": t_import - t0}
    setup_total = setup["import_s"]
    last = time.perf_counter()

    def lap(name):
        nonlocal last, setup_total
        now = time.perf_counter()
        setup[name] = now - last
        setup_total += now - last
        last = now

    work = workloads.WORKLOADS[args.workload]()
    problems = work.setup(args.seed, lap)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        for problem in problems:
            tracer.instrument(problem)
    try:
        t_run = time.perf_counter()
        work.solve()
        run_s = time.perf_counter() - t_run
    finally:
        if tracer is not None:
            tracer.restore()

    outcome = work.check()
    result = {
        "traced": bool(args.trace),
        "setup_s": setup_total,
        "setup": setup,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "draws": outcome.draws,
        "digest": outcome.digest,
        "final_err": outcome.final_err,
        "csv_bytes": outcome.csv_bytes,
        "harness_failed": outcome.harness_failed,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
