"""Stochastic oracles, mini-batch estimation, and batch-size schedules.

An oracle returns noisy evaluations of an expectation-valued operator V,
and only as mini-batch averages: a StochasticOracle defines batch(x, m, rng),
the average of m iid draws (one draw is the batch of one), next to mean,
variance_bound and bias_bound. The built-in oracles live with their problems
in `moninc.problems`. Mini-batching makes the estimator error variance decay
like sigma^2/m; schedules grow m with the iteration counter k. Randomness
always comes from caller-owned numpy Generator streams, so each replication
is reproducible from its own stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import NumericFailure, UnsupportedOperation

__all__ = [
    "StochasticOracle",
    "BatchSchedule",
    "batch_size",
    "minibatch_estimate",
    "empirical_variance",
]


class StochasticOracle:
    """Evaluation contract for a sampler of V: subclasses define batch().

    Attributes:
        mean: callable x -> V(x) exactly, or None when unavailable.
        variance_bound: sigma with E||batch(x, 1) - V(x)||^2 <= sigma^2,
            or None when not declared.
        bias_bound: b_hat with ||E batch(x, m) - V(x)|| <= b_hat/sqrt(m);
            zero for unbiased oracles.
    """

    mean = None
    variance_bound = None
    bias_bound = 0.0

    def batch(self, x, m, rng):
        """Average of m iid draws of V_hat(x, xi)."""
        raise NotImplementedError


@dataclass(frozen=True)
class BatchSchedule:
    """Batch-size rule m_k; produced sizes are >= 1 and non-decreasing.

    kinds: constant(m), polynomial(theta) -> floor(k^theta),
    geometric(p) -> floor(p^-k), scaled_polynomial(theta, scale n)
    -> floor(k^theta / n).
    """

    kind: str
    m: int | None = None
    theta: float | None = None
    p: float | None = None
    scale: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.m is None or int(self.m) < 1:
                raise ValueError("constant schedule needs m >= 1")
        elif self.kind == "polynomial":
            if self.theta is None or self.theta <= 0:
                raise ValueError("polynomial schedule needs theta > 0")
        elif self.kind == "geometric":
            if self.p is None or not (0.0 < self.p < 1.0):
                raise ValueError("geometric schedule needs p in (0,1)")
        elif self.kind == "scaled_polynomial":
            if self.theta is None or self.theta <= 0:
                raise ValueError("scaled_polynomial needs theta > 0")
            if self.scale is None or self.scale < 1:
                raise ValueError("scaled_polynomial needs scale n >= 1")
        else:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    @staticmethod
    def constant(m=1):
        return BatchSchedule(kind="constant", m=int(m))

    @staticmethod
    def polynomial(theta):
        return BatchSchedule(kind="polynomial", theta=float(theta))

    @staticmethod
    def geometric(p):
        return BatchSchedule(kind="geometric", p=float(p))

    @staticmethod
    def scaled_polynomial(theta, scale=1.0):
        return BatchSchedule(kind="scaled_polynomial", theta=float(theta),
                             scale=float(scale))


def batch_size(schedule: BatchSchedule, k: int) -> int:
    """m_k for iteration k >= 1, clamped to at least 1.

    The geometric rule floor(p^-k) is evaluated in exact rational arithmetic
    (p is a binary rational) so values stay exact and monotone even when they
    exceed float range.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if schedule.kind == "constant":
        return int(schedule.m)
    if schedule.kind == "polynomial":
        return max(1, int(np.floor(float(k) ** schedule.theta)))
    if schedule.kind == "scaled_polynomial":
        return max(1, int(np.floor(float(k) ** schedule.theta / schedule.scale)))
    # geometric: float evaluation unless the value sits within rounding
    # distance of an integer (or overflows), where the exact rational
    # power of the binary-rational p settles the floor.
    try:
        v = float(schedule.p) ** float(-k)
    except OverflowError:
        v = np.inf
    if np.isfinite(v) and v < 2.0 ** 53:
        f = np.floor(v)
        margin = max(1e-6, v * 1e-12)  # comfortably above pow round-off
        if min(v - f, f + 1.0 - v) > margin:
            return max(1, int(f))
    val = Fraction(schedule.p) ** (-k)
    return max(1, int(val.numerator // val.denominator))


def minibatch_estimate(oracle: StochasticOracle, x, m: int, rng):
    """Mini-batch average of m oracle draws at x.

    A non-finite estimate raises NumericFailure; run() adds the method,
    iteration and batch size.
    """
    if m < 1:
        raise ValueError("batch size must be >= 1")
    est = oracle.batch(x, int(m), rng)
    est = np.asarray(est, dtype=np.float64)
    if not np.all(np.isfinite(est)):
        raise NumericFailure("minibatch estimate is non-finite")
    return est


def empirical_variance(oracle: StochasticOracle, x, m: int, repeats: int,
                       rng) -> float:
    """Sample variance of ||estimate - mean(x)|| over independent batches."""
    if repeats < 2:
        raise ValueError("empirical_variance needs repeats >= 2")
    if oracle.mean is None:
        raise UnsupportedOperation(
            "oracle lacks an exact mean; empirical variance undefined")
    v = np.asarray(oracle.mean(x), dtype=np.float64)
    norms = np.empty(repeats)
    for i in range(repeats):
        est = minibatch_estimate(oracle, x, m, rng)
        norms[i] = np.linalg.norm(est - v)
    return float(np.var(norms, ddof=1))
