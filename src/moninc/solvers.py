"""Iteration kernels and the run loop.

The main iteration interleaves inertia, a forward-backward-forward update
built from two independent mini-batches, and relaxation:

    Z_k = X_k + alpha_k (X_k - X_{k-1})
    A_k = mini-batch estimate at Z_k          (m_k draws)
    Y_k = J_{lam_k T}(Z_k - lam_k A_k)
    B_k = independent mini-batch at Y_k       (m_k draws)
    X_{k+1} = (1-rho_k) Z_k + rho_k (Y_k + lam_k (A_k - B_k))

Every method runs this one kernel, risfbf_step, configured by its row of
the method table: the baselines are its degenerate cases. sfbf is alpha = 0,
rho = 1 (two-call forward-backward-forward); seg replaces the correction
with a second resolvent J(X_k - lam B_k) (extragradient); sa stops after the
first forward-backward step with a 1/sqrt(k) step; proxpoint draws nothing,
so Y_k = J(Z_k) (the relaxed inertial proximal point recursion).

Batches are drawn A first then B from the caller-owned stream, so runs are
bitwise reproducible given (seed, config, problem).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import merit, policy as policy_mod
from .core import NumericFailure
from .oracle import BatchSchedule, batch_size, minibatch_estimate

__all__ = [
    "SolverState",
    "SolverConfig",
    "COLUMNS",
    "Trajectory",
    "RunResult",
    "init_state",
    "risfbf_step",
    "sfbf_step",
    "seg_step",
    "sa_step",
    "proxpoint_step",
    "run",
    "check_method",
    "METHODS",
]

@dataclass
class SolverState:
    """Mutable iteration state.

    oracle_calls counts draws: 2 sum m_i for the two-call methods, sum m_i
    for the one-call baseline. avg_num/avg_den accumulate the rho-weighted
    Y_k average reported as X_bar.
    """

    X_prev: np.ndarray
    X: np.ndarray
    rng: object
    k: int = 1
    oracle_calls: int = 0
    avg_num: np.ndarray = None
    avg_den: float = 0.0

    def x_bar(self):
        if self.avg_den <= 0:
            return self.X.copy()
        return self.avg_num / self.avg_den


def init_state(x0, rng) -> SolverState:
    x0 = np.asarray(x0, dtype=np.float64)
    return SolverState(X_prev=x0.copy(), X=x0.copy(), rng=rng,
                       avg_num=np.zeros_like(x0))


def risfbf_step(state: SolverState, problem, alpha_k, lam_k, rho_k, m_k,
                draws=2, extragradient=False):
    """One relaxed inertial step; every method is this kernel.

    Z = X_k + alpha_k (X_k - X_{k-1}), and Y = J(Z - lam_k A) with A drawn
    at Z, or Y = J(Z) when draws is 0. With two draws B is drawn at Y and
    the new point is Y + lam_k (A - B), or J(Z - lam_k B) for the
    extragradient; with fewer it is Y, uncorrected, so -0.0 stays -0.0.
    It is relaxed toward Z when rho_k != 1. The state counts draws * m_k
    draws and adds rho_k Y to the average.
    """
    X = state.X
    Z = X if alpha_k == 0.0 else X + alpha_k * (X - state.X_prev)
    if draws:
        A = minibatch_estimate(problem.oracle, Z, m_k, state.rng)
        Y = problem.resolvent.apply(Z - lam_k * A, lam_k)
    else:
        Y = problem.resolvent.apply(Z, lam_k)
    X_new = Y
    if draws == 2:
        B = minibatch_estimate(problem.oracle, Y, m_k, state.rng)
        X_new = (problem.resolvent.apply(Z - lam_k * B, lam_k)
                 if extragradient else Y + lam_k * (A - B))
    if rho_k != 1.0:
        X_new = (1.0 - rho_k) * Z + rho_k * X_new
    state.X_prev, state.X = X, X_new
    state.k += 1
    state.oracle_calls += draws * m_k
    state.avg_num += rho_k * Y
    state.avg_den += rho_k
    return state


# The named baselines stay only while perfbench's tracer and the tests call
# them by name; run() steps every method through risfbf_step.
def sfbf_step(state: SolverState, problem, lam, m_k):
    return risfbf_step(state, problem, 0.0, lam, 1.0, m_k)


def seg_step(state: SolverState, problem, lam, m_k):
    return risfbf_step(state, problem, 0.0, lam, 1.0, m_k, 2, True)


def sa_step(state: SolverState, problem, k, m: int = 1):
    return risfbf_step(state, problem, 0.0, 1.0 / np.sqrt(k), 1.0, m, 1)


def proxpoint_step(state: SolverState, problem, alpha_k, lam_k, rho_k):
    return risfbf_step(state, problem, alpha_k, lam_k, rho_k, 0, 0)


@dataclass(frozen=True)
class SolverConfig:
    """Run-level knobs: schedules, stopping, and what to record.

    Construction checks the run settings; run() trusts them. Exactly the
    stop rules that are set apply (max_iters and max_oracle_calls are
    positive; check_method requires one that must fire); residual_target
    needs record_residual, since the residual is what it stops on. The
    baselines step with lam, else the policy's lam, else 1/(4L). The
    residual column is taken at step 1/(4L) (1 when L = 0). Rows are
    recorded every record_stride >= 1 iterations; H_k (record_energy)
    needs a known solution, a policy for its constant a, and a method other
    than sa.
    """

    policy: policy_mod.RegimePolicy | None = None
    batches: BatchSchedule = field(default_factory=lambda: BatchSchedule.constant(1))
    lam: float | None = None
    max_iters: int | None = None
    max_oracle_calls: int | None = None
    residual_target: float | None = None
    record_stride: int = 1
    record_residual: bool = True
    record_energy: bool = False
    gap_region: object = None
    strict: bool = False

    def __post_init__(self):
        for name in ("max_iters", "max_oracle_calls"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.residual_target is not None and not self.record_residual:
            raise ValueError("residual_target needs record_residual")


COLUMNS = ("k", "oracle_calls", "residual", "rel_error", "gap", "H_k",
           "wall_time_s")


@dataclass
class Trajectory:
    """Per-iterate records: one array per column of COLUMNS, in order.

    Metric entries are nan when not computed. residual_estimated is set
    when the residuals are mini-batch estimates (the oracle has no mean).
    """

    k: np.ndarray
    oracle_calls: np.ndarray
    residual: np.ndarray
    rel_error: np.ndarray
    gap: np.ndarray
    H_k: np.ndarray
    wall_time_s: np.ndarray
    residual_estimated: bool = False


@dataclass
class RunResult:
    trajectory: Trajectory
    X: np.ndarray
    X_bar: np.ndarray
    iterations: int
    oracle_calls: int
    stopped_by: str
    diagnostics: tuple = ()  # validate()'s text; empty for a clean policy


def _quarter_inverse(L: float) -> float:
    """The default step 1/(4L), or 1 when L = 0."""
    return 1.0 / (4.0 * L) if L > 0 else 1.0


def _baseline_lam(config: SolverConfig, problem) -> float:
    if config.lam is not None:
        return float(config.lam)
    if config.policy is not None and config.policy.lam is not None:
        return float(config.policy.lam)
    return _quarter_inverse(problem.lipschitz)


class _Method(NamedTuple):
    """A method is risfbf_step with this row's draws and correction."""

    batches: int         # mini-batches drawn per iteration (draws)
    params: str | None   # "policy", "baseline" or None (sa's 1/sqrt(k))
    extragradient: bool  # a second resolvent in place of Y + lam (A - B)


_TABLE = {
    "risfbf": _Method(2, "policy", False),
    "sfbf": _Method(2, "baseline", False),
    "seg": _Method(2, "baseline", True),
    "sa": _Method(1, None, False),
    "proxpoint": _Method(0, "policy", False),
}
METHODS = tuple(_TABLE)


def check_method(method: str, config: SolverConfig) -> None:
    """ValueError unless method is known, config has the RegimePolicy it
    needs, and config has a stop rule that must fire: max_iters, or
    max_oracle_calls on a method that draws. residual_target alone may
    never be met, and a method that draws nothing never reaches
    max_oracle_calls."""
    spec = _TABLE.get(method)
    if spec is None:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if spec.params == "policy" and config.policy is None:
        raise ValueError(f"{method} needs a RegimePolicy: set a regime")
    if config.max_iters is None and not spec.batches:
        raise ValueError(f"{method} draws nothing, so max_oracle_calls never "
                         "stops it: set max_iters")
    if config.max_iters is None and config.max_oracle_calls is None:
        raise ValueError(f"{method} needs a stop rule that must fire: set "
                         "max_iters or max_oracle_calls")


def run(problem, method: str, config: SolverConfig, rng=None) -> RunResult:
    """Drive `method` on `problem` until a stop rule fires.

    The policy is checked once, before any draw: validate()'s messages
    raise PolicyViolation under config.strict, else they are returned as
    RunResult.diagnostics, and policy.schedule() raises on a fatal
    hypothesis. The starting point comes from the problem (its sampler
    consumes the stream first). One trajectory row describes the iterate
    X_k, from k=1 (the initial point) at the configured stride, plus the
    final iterate; the iterates themselves are not kept. H_k is taken at
    the parameters of the step from X_k, and a run that residual_target
    stops records the residual that met it. If the oracle lacks an exact
    mean, residuals are mini-batch estimates drawn from a side stream
    seeded from the main one at start; the trajectory is flagged
    accordingly. numpy overflow and invalid errors raise in the loop; they
    and a NumericFailure are raised again as NumericFailure naming the
    method, k, m_k, ||X_k|| and the policy diagnostics; k, m_k and ||X_k||
    belong to one iterate, the one being stepped from or recorded.

    Each pass of the loop takes X_k's batch size and parameters once,
    decides whether a rule stops the run there (residual_target, then
    max_iters, then max_oracle_calls), records X_k's row if k is on the
    stride or the run stops, and then stops or steps.
    """
    check_method(method, config)
    spec = _TABLE[method]
    pol = config.policy
    mu = problem.strong_monotonicity if problem.strong_monotonicity > 0 else None
    diagnostics = tuple(policy_mod.validate(pol, problem.lipschitz, mu)
                        if pol is not None else ())
    if diagnostics and config.strict:
        raise policy_mod.PolicyViolation("; ".join(diagnostics))
    if spec.params == "policy":
        params_at = policy_mod.schedule(pol, problem.lipschitz, mu)
    elif spec.params == "baseline":
        fixed = (0.0, _baseline_lam(config, problem), 1.0)
        params_at = lambda k: fixed
    else:  # sa's step 1/sqrt(k)
        params_at = lambda k: (0.0, 1.0 / np.sqrt(k), 1.0)
    if rng is None:
        rng = np.random.default_rng()

    eval_rng = np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
    state = init_state(problem.initial(rng), rng)
    step = risfbf_step                  # read per run(), so patches apply
    batches, extragradient = spec.batches, spec.extragradient
    res_lam = _quarter_inverse(problem.lipschitz)
    region = config.gap_region
    gap_live = region is not None and problem.affine_matrix is not None
    energy_live = (config.record_energy and spec.params is not None
                   and problem.solution is not None and pol is not None)
    L_tilde = policy_mod.lipschitz_tilde(problem.lipschitz)
    target = config.residual_target
    rows = []
    t0 = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise"):
            while True:
                k, X = state.k, state.X
                m_k = batch_size(config.batches, k) if batches else 0
                alpha_k, lam_k, rho_k = params = params_at(k)
                r = (merit.residual(problem, X, res_lam, rng=eval_rng)
                     if target is not None else np.nan)
                if target is not None and r <= target:  # never on a nan
                    stopped_by = "residual_target"
                elif config.max_iters is not None and k > config.max_iters:
                    stopped_by = "max_iters"
                elif (config.max_oracle_calls is not None
                      and state.oracle_calls + batches * m_k
                      > config.max_oracle_calls):
                    stopped_by = "max_oracle_calls"
                else:
                    stopped_by = None
                if stopped_by or (k - 1) % config.record_stride == 0:
                    if target is None and config.record_residual:
                        r = merit.residual(problem, X, res_lam, rng=eval_rng)
                    err = (problem.rel_error_fn(X)
                           if problem.rel_error_fn is not None else np.nan)
                    gap = (merit.dual_gap_affine(problem, X, region)
                           if gap_live else np.nan)
                    H = (merit.energy_H(X, state.X_prev, problem.solution,
                                        alpha_k, rho_k, lam_k, L_tilde, pol.a)
                         if energy_live and k >= 2 else np.nan)
                    rows.append((k, state.oracle_calls, r, err, gap, H,
                                 time.perf_counter() - t0))
                if stopped_by:
                    break
                step(state, problem, *params, m_k, batches, extragradient)
    except (NumericFailure, FloatingPointError) as exc:
        # a failed run returns no diagnostics, so its message keeps them
        hint = (f"; policy diagnostics: {'; '.join(diagnostics)}"
                if diagnostics else "")
        # scaled by max |x_i|, as x.x overflows long before x does
        top = float(np.max(np.abs(state.X)))
        norm = (top * float(np.linalg.norm(state.X / top))
                if 0.0 < top < np.inf else top)
        raise NumericFailure(f"{method} at k={k}, m_k={m_k}, "
                             f"||X||={norm:.6g}: {exc}{hint}") from exc

    return RunResult(
        trajectory=Trajectory(*map(np.array, zip(*rows)),
                              residual_estimated=problem.oracle.mean is None),
        X=state.X.copy(),
        X_bar=state.x_bar(),
        iterations=state.k,
        oracle_calls=state.oracle_calls,
        stopped_by=stopped_by,
        diagnostics=diagnostics,
    )
