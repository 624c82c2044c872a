"""Spans around the calls into each moninc layer, recorded from outside.

The tracer replaces public functions and attributes with timing wrappers
at the names their callers bind: `solvers` imports `minibatch_estimate`
and `batch_size` by name, `harness` imports `run` and `cli` imports
`compare` by name, while `solvers` reaches `policy` and `merit` through
the module. Per-problem attributes (`oracle.batch`, `resolvent.apply`,
`rel_error_fn`) are wrapped on the instance. `restore` undoes every patch
in reverse order.

Each thread keeps its own log, so replications run by the harness thread
pool record without a lock. A span's self time is its duration minus the
time its child spans on the same thread cover. The wrappers only read the
clock and append numbers; they never touch an argument, so the random
streams are unchanged.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

from moninc import cli, harness, merit, policy, problems, solvers

STEP_NAMES = ("risfbf_step", "sfbf_step", "seg_step", "sa_step",
              "proxpoint_step")
RUN_SPANS = ("solvers.run", "harness.run")


class _ThreadLog:
    __slots__ = ("stack", "durs", "selfs", "intervals", "counts")

    def __init__(self):
        self.stack = []
        self.durs = defaultdict(list)
        self.selfs = defaultdict(float)
        self.intervals = defaultdict(list)
        self.counts = defaultdict(int)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._lock = threading.Lock()
        self._undo = []

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog()
            self._local.log = log
            with self._lock:
                self._logs.append(log)
            return log

    def _span(self, name, fn, keep_interval=False):
        perf = time.perf_counter
        current = self._log

        def wrapper(*args, **kwargs):
            log = current()
            stack = log.stack
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                log.durs[name].append(dt)
                log.selfs[name] += dt - child
                if keep_interval:
                    log.intervals[name].append((t0, t1))

        return wrapper

    def _draw_counter(self, name, fn):
        current = self._log

        def wrapper(oracle, x, m, rng):
            current().counts[name] += int(m)
            return fn(oracle, x, m, rng)

        return wrapper

    def _patch(self, owner, attr, new):
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the module-level entry points of every layer."""
        span, patch = self._span, self._patch
        patch(solvers, "minibatch_estimate",
              self._draw_counter("oracle.draws", solvers.minibatch_estimate))
        patch(merit, "minibatch_estimate",
              self._draw_counter("oracle.eval_draws",
                                 merit.minibatch_estimate))
        patch(solvers, "batch_size",
              span("oracle.schedule", solvers.batch_size))
        for step in STEP_NAMES:
            patch(solvers, step, span("solvers.step", getattr(solvers, step)))
        patch(solvers, "run", span("solvers.run", solvers.run))
        patch(harness, "run",
              span("harness.run", harness.run, keep_interval=True))
        for fn in ("schedule_at", "validate"):
            patch(policy, fn, span("policy", getattr(policy, fn)))
        patch(merit, "residual", span("merit.residual", merit.residual))
        patch(merit, "dual_gap_affine",
              span("merit.gap", merit.dual_gap_affine))
        patch(merit, "energy_H", span("merit.energy", merit.energy_H))
        for fn in ("cap_apply_L", "cap_apply_L_adjoint"):
            patch(problems, fn, span("problems.coupling",
                                     getattr(problems, fn)))
        patch(harness, "run_experiment",
              span("harness.run_experiment", harness.run_experiment))
        patch(cli, "compare",
              span("harness.compare", cli.compare, keep_interval=True))
        build = harness.ExperimentConfig.build_problem
        traced_build = span("harness.build_problem", build)

        def build_and_instrument(cfg):
            return self.instrument(traced_build(cfg))

        patch(harness.ExperimentConfig, "build_problem", build_and_instrument)

    def instrument(self, problem):
        """Wrap the per-instance oracle, resolvent and error map."""
        span, patch = self._span, self._patch
        patch(problem.oracle, "batch",
              span("oracle.batch", problem.oracle.batch))
        patch(problem.resolvent, "apply",
              span("core.resolvent", problem.resolvent.apply))
        if problem.rel_error_fn is not None:
            patch(problem, "rel_error_fn",
                  span("problems.rel_error", problem.rel_error_fn))
        return problem

    def restore(self):
        while self._undo:
            owner, attr, owned, old = self._undo.pop()
            if owned:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def layer_metrics(self) -> dict:
        """Per-layer numbers from every thread's log (call after the run)."""
        durs = defaultdict(list)
        selfs = defaultdict(float)
        intervals = defaultdict(list)
        counts = defaultdict(int)
        for log in self._logs:
            for k, v in log.durs.items():
                durs[k].extend(v)
            for k, v in log.selfs.items():
                selfs[k] += v
            for k, v in log.intervals.items():
                intervals[k].extend(v)
            for k, v in log.counts.items():
                counts[k] += v

        def calls(name):
            return len(durs[name])

        def total(name):
            return float(sum(durs[name]))

        def pct(name, q, scale=1.0):
            if not durs[name]:
                return 0.0
            return float(np.percentile(durs[name], q)) * scale

        draws = counts["oracle.draws"]
        eval_draws = counts["oracle.eval_draws"]
        run_s = sum(total(n) for n in RUN_SPANS)
        merit_s = sum(total(n) for n in
                      ("merit.residual", "merit.gap", "merit.energy"))
        return {
            "oracle.batch_calls": calls("oracle.batch"),
            "oracle.draws": draws,
            "oracle.eval_draws": eval_draws,
            "oracle.batch_s": total("oracle.batch"),
            "oracle.batch_us_p50": pct("oracle.batch", 50, 1e6),
            "oracle.batch_us_p99": pct("oracle.batch", 99, 1e6),
            "oracle.ns_per_draw": (total("oracle.batch") * 1e9
                                   / (draws + eval_draws)
                                   if draws + eval_draws else 0.0),
            "oracle.schedule_calls": calls("oracle.schedule"),
            "oracle.schedule_s": total("oracle.schedule"),
            "problems.coupling_calls": calls("problems.coupling"),
            "problems.coupling_s": total("problems.coupling"),
            "problems.rel_error_s": total("problems.rel_error"),
            "core.resolvent_calls": calls("core.resolvent"),
            "core.resolvent_s": total("core.resolvent"),
            "core.resolvent_us_p50": pct("core.resolvent", 50, 1e6),
            "policy.calls": calls("policy"),
            "policy.s": total("policy"),
            "solvers.iterations": calls("solvers.step"),
            "solvers.step_us_p50": pct("solvers.step", 50, 1e6),
            "solvers.step_us_p99": pct("solvers.step", 99, 1e6),
            "solvers.step_self_s": selfs["solvers.step"],
            "solvers.loop_self_s": sum(selfs[n] for n in RUN_SPANS),
            "merit.residual_calls": calls("merit.residual"),
            "merit.residual_s": total("merit.residual"),
            "merit.gap_calls": calls("merit.gap"),
            "merit.gap_s": total("merit.gap"),
            "merit.energy_s": total("merit.energy"),
            "merit.share": merit_s / run_s if run_s > 0 else 0.0,
            "harness.self_s": _uncovered(intervals["harness.compare"],
                                         intervals["harness.run"]),
            "harness.rep_span_s_p50": pct("harness.run", 50),
        }


def _uncovered(outer, inner) -> float:
    """Time inside the `outer` intervals that no `inner` interval covers.

    Replications run on pool threads, so the harness's own cost is the part
    of `compare` during which no replication's solver run is active.
    """
    free = 0.0
    for o0, o1 in outer:
        covered, cursor = 0.0, o0
        for i0, i1 in sorted(inner):
            i0, i1 = max(i0, cursor), min(i1, o1)
            if i1 > i0:
                covered += i1 - i0
                cursor = i1
        free += (o1 - o0) - covered
    return free
