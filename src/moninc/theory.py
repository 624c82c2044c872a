"""Closed-form rate and complexity constants for the strongly monotone regime.

These are the quantities the envelope tests compare trajectories against:
the per-iteration contraction factor q, the geometric-sampling constant
C(p,q) (or its p=q variant), the iteration count tau_eps guaranteeing an
eps-accurate iterate, cumulative oracle cost, and the polynomial-sampling
constant. All pure functions of declared problem/policy constants; nothing
here is measured.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .oracle import BatchSchedule, batch_size
from .policy import _lambda_strong_tilde, _rho_strong

__all__ = [
    "contraction_q",
    "noise_envelope_B",
    "geometric_constant",
    "tau_eps",
    "oracle_costs",
    "poly_rate_constant",
]


def contraction_q(a: float, b: float, lam: float, mu: float,
                  alpha_bar: float, L_tilde: float) -> float:
    """Contraction factor q = 1 - rho*eta of the expected energy recursion.

    rho is the floor relaxation 16(3-a)(1-abar)^2 / (31(1+Ltilde*lam)): the
    linear-rate rule policy._rho_strong at alpha_k = abar, with the factor
    2(2t^2 - t/2 + 1) at its minimum 31/16 (t = 1/8); eta = (1-b)*lam*mu.
    Arguments must lie in the strongly monotone regime ranges, with lam at
    most lambda_strong = min{a/(2 mu), b mu, (1-a)/(2 Ltilde)}.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0,1)")
    if mu <= 0 or lam <= 0 or L_tilde <= 0:
        raise ValueError("lam, mu, L_tilde must be positive")
    if not (0.0 <= alpha_bar < 1.0):
        raise ValueError("alpha_bar must lie in [0,1)")
    lam_max = _lambda_strong_tilde(mu, L_tilde, a, b)
    if lam > lam_max * (1.0 + 1e-12):
        raise ValueError(
            f"lam={lam:g} exceeds the admissible step {lam_max:g}")
    rho = (16.0 * (3.0 - a) * (1.0 - alpha_bar) ** 2
           / (31.0 * (1.0 + L_tilde * lam)))
    eta = (1.0 - b) * lam * mu
    return 1.0 - rho * eta


def noise_envelope_B(s: float, a: float, lam: float, L_tilde: float) -> float:
    """Noise constant B = 2 rho_bar s^2 (1 + 2(3-a)lam^2/(1+Ltilde lam)).

    s is the oracle's variance bound (sup over the feasible set of the
    standard deviation of one draw); rho_bar = (3-a)/(2(1+Ltilde lam)) is
    the linear-rate rule policy._rho_strong at alpha_k = 0.
    """
    if s < 0 or lam <= 0 or L_tilde <= 0 or not 0.0 < a < 1.0:
        raise ValueError("need s >= 0, lam > 0, L_tilde > 0, a in (0,1)")
    rho_bar = _rho_strong(0.0, lam, L_tilde, a)
    return 2.0 * rho_bar * s * s * (1.0 + 2.0 * (3.0 - a) * lam * lam
                                    / (1.0 + L_tilde * lam))


def geometric_constant(p: float, q: float, dist1_sq: float, alpha1: float,
                       alpha_bar: float, B: float,
                       p_hat: float | None = None) -> float:
    """Prefactor of the geometric-sampling envelope E dist^2 <= C max{p,q}^k.

    With batch growth m_k = floor(p^-k) and contraction q:

        C(p,q) = 2(1-alpha1)/(1-abar) dist1^2
                 + 4B / ((1-abar)(1 - min{p/q, q/p}))        if p != q,

    and for p = q the same first term plus 4B/((1-abar) e ln(p_hat/q)),
    valid with rate p_hat^k for any supplied p_hat in (p,1).
    """
    _check_rates(p, q)
    if dist1_sq < 0 or B < 0:
        raise ValueError("dist1_sq and B must be nonnegative")
    if not (0.0 <= alpha1 <= alpha_bar < 1.0):
        raise ValueError("need 0 <= alpha1 <= alpha_bar < 1")
    lead = 2.0 * (1.0 - alpha1) / (1.0 - alpha_bar) * dist1_sq
    if p != q:
        ratio = min(p / q, q / p)
        return lead + 4.0 * B / ((1.0 - alpha_bar) * (1.0 - ratio))
    if p_hat is None:
        raise ValueError("p = q: supply p_hat in (p,1)")
    if not (p < p_hat < 1.0):
        raise ValueError("p_hat must lie in (p,1)")
    return lead + 4.0 * B / ((1.0 - alpha_bar) * math.e
                             * math.log(p_hat / q))


def tau_eps(p: float, q: float, C_or_Chat: float, eps: float,
            p_hat: float | None = None) -> int:
    """Iterations guaranteeing E dist^2 <= eps, at least 1.

    ceil(ln(C/eps)/ln(1/max{p,q})) for p != q; for p = q the base is
    1/p_hat, defaulting p_hat to (p+1)/2.
    """
    _check_rates(p, q)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if C_or_Chat <= 0:
        raise ValueError("the rate constant must be positive")
    if p != q:
        base = max(p, q)
    else:
        if p_hat is None:
            p_hat = (p + 1.0) / 2.0
        if not (p < p_hat < 1.0):
            raise ValueError("p_hat must lie in (p,1)")
        base = p_hat
    tau = math.ceil(math.log(C_or_Chat / eps) / math.log(1.0 / base))
    return max(1, int(tau))


def oracle_costs(schedule: BatchSchedule, Ks, calls_per_iter: int) -> list:
    """Total draws over iterations 1..K at 1 or 2 oracle calls per step, at
    batch_size's sizes, for each K of Ks, from one pass to the largest."""
    if min(Ks) < 1:
        raise ValueError("K must be at least 1")
    if calls_per_iter not in (1, 2):
        raise ValueError("calls_per_iter must be 1 or 2")
    wanted, costs, total = set(Ks), {}, 0
    for k, m in zip(range(1, max(Ks) + 1), _batch_sizes(schedule)):
        total += m
        if k in wanted:
            costs[k] = calls_per_iter * total
    return [costs[K] for K in Ks]


def _batch_sizes(schedule: BatchSchedule):
    """m_1, m_2, ... as batch_size gives them.

    A geometric schedule carries p^-k as the exact integer ratio num/den
    from k - 1, one multiplication each per k, where batch_size would raise
    the rational p to the power -k afresh.
    """
    k = 0
    if schedule.kind != "geometric":
        while True:
            k += 1
            yield batch_size(schedule, k)
    p = Fraction(schedule.p)
    num = den = 1
    while True:
        num *= p.denominator
        den *= p.numerator
        yield max(1, num // den)


def poly_rate_constant(q: float, theta: float, dist1_sq: float, alpha1: float,
                       alpha_bar: float, B: float) -> float:
    """Constant of the O(1/k^theta) envelope under batches m_k ~ k^theta.

    exp(-theta) (theta/ln(1/q))^theta (2(1-alpha1)/(1-abar) dist1^2
      + 2/(1-abar) (q^-1 exp(2 theta) - 1)/(1-q))
      + 4B/((1-abar) q ln(1/q)).
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0,1)")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if dist1_sq < 0 or B < 0:
        raise ValueError("dist1_sq and B must be nonnegative")
    if not (0.0 <= alpha1 <= alpha_bar < 1.0):
        raise ValueError("need 0 <= alpha1 <= alpha_bar < 1")
    lq = math.log(1.0 / q)
    bracket = (2.0 * (1.0 - alpha1) / (1.0 - alpha_bar) * dist1_sq
               + 2.0 / (1.0 - alpha_bar)
               * (math.exp(2.0 * theta) / q - 1.0) / (1.0 - q))
    return (math.exp(-theta) * (theta / lq) ** theta * bracket
            + 4.0 * B / ((1.0 - alpha_bar) * q * lq))


def _check_rates(p: float, q: float) -> None:
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p and q must lie in (0,1)")
