"""Parameter laws for the inertial relaxed splitting iteration.

Each supported regime fixes how the inertia alpha_k, step lam_k, and
relaxation rho_k evolve:

    asymptotic        small steps lam < 1/(4L), relaxation from the
                      almost-sure convergence rule
    larger_step       steps up to (1-nu)/(2L) with the matching relaxation cap
    strongly_monotone steps capped by lambda_strong, relaxation from the
                      linear-rate rule (uses L_tilde = sqrt(L^2 + 1/2))
    monotone_gap      merely monotone case, lam < 1/(2L), relaxation from the
                      averaged-gap rule
    custom            user-supplied constants; validate() still reports any
                      violated hypotheses of the closest regime

lam and the custom rho are numbers, so a regime's hypotheses hold at every
k exactly when they hold at k = 1. One table holds each regime's
hypotheses and its relaxation formula (the _rho_* functions, each written
once): schedule() checks the fatal hypotheses once and returns the law
k -> (alpha_k, lam, rho_k), and validate() lists every violated one;
neither alters a user's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "PolicyViolation",
    "RegimePolicy",
    "alpha_at",
    "lambda_strong",
    "lipschitz_tilde",
    "schedule",
    "schedule_at",
    "validate",
]


class PolicyViolation(ValueError):
    """A parameter landed outside the range its regime requires."""


@dataclass(frozen=True)
class RegimePolicy:
    """Declarative bundle of regime name and constants.

    alpha is the constant inertia in "constant" mode, or the supremum
    alpha_0 in "increasing" mode where alpha_k = alpha_0 * (1 - 1/(k+1));
    either way it is the bound alpha_bar >= alpha_k of the relaxation rules.
    lam is the constant step, or None for strongly_monotone's default; rho
    is the custom regime's constant relaxation. Both are numbers or None.
    """

    regime: str
    alpha: float
    lam: float | None = None
    alpha_mode: str = "constant"
    eps_bar: float = 0.1
    nu: float = 0.5
    a: float = 0.5
    b: float = 0.5
    rho: float | None = None

    def __post_init__(self):
        for value in (self.lam, self.rho):
            if value is not None and not isinstance(value, Real):
                raise TypeError("lam and rho must each be a number or None")
        if self.regime not in _REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.alpha_mode not in ("constant", "increasing"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")


def alpha_at(policy: RegimePolicy, k: int) -> float:
    """Inertia at iteration k >= 1; increasing mode tends to alpha from below."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if policy.alpha_mode == "constant":
        return policy.alpha
    return policy.alpha * (1.0 - 1.0 / (k + 1.0))


def lipschitz_tilde(L) -> float:
    """L_tilde = sqrt(L^2 + 1/2), the constant of the linear-rate regime."""
    return float(np.sqrt(L * L + 0.5))


def lambda_strong(mu, L, a, b) -> float:
    """Largest admissible constant step in the linear-rate regime.

    min{ a/(2 mu), b mu, (1-a)/(2 L_tilde) } with L_tilde = sqrt(L^2 + 1/2).
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("a and b must lie in (0,1)")
    if L < 0:
        raise ValueError("L must be nonnegative")
    return float(_lambda_strong_tilde(mu, lipschitz_tilde(L), a, b))


def _lambda_strong_tilde(mu, L_tilde, a, b):
    """lambda_strong in terms of L_tilde, unchecked."""
    return min(a / (2.0 * mu), b * mu, (1.0 - a) / (2.0 * L_tilde))


# The relaxation formulas, unchecked: the regime table's laws call these
# once schedule() has checked the regime's hypotheses.

def _rho_asymptotic(alpha_k, lam_k, L, eps_bar, alpha_bar):
    """Relaxation for the small-step almost-sure convergence rule.

    rho_k = 5 (1-eps_bar)(1-alpha_bar)^2
            / (4 (2 alpha_k^2 - alpha_k + 1)(1 + L lam_k)),
    for lam_k in (0, 1/(4L)) and 0 <= alpha_k <= alpha_bar < 1.
    """
    return (5.0 * (1.0 - eps_bar) * (1.0 - alpha_bar) ** 2
            / (4.0 * (2.0 * alpha_k ** 2 - alpha_k + 1.0) * (1.0 + L * lam_k)))


def _rho_strong(alpha_k, lam, L_tilde, a):
    """Relaxation for the linear-rate regime.

    rho_k = (3-a)(1-alpha_k)^2
            / (2 (2 alpha_k^2 - alpha_k/2 + 1)(1 + L_tilde lam)),
    for a in (0,1), lam > 0 and alpha_k in [0,1).
    """
    return ((3.0 - a) * (1.0 - alpha_k) ** 2 / (2.0 * (
        2.0 * alpha_k ** 2 - 0.5 * alpha_k + 1.0) * (1.0 + L_tilde * lam)))


def _rho_monotone(alpha_k, lam, L, alpha_bar):
    """Relaxation for the averaged-gap (merely monotone) rule.

    rho_k = 3 (1-alpha_bar)^2 / (2 (2 alpha_k^2 - alpha_k + 1)(1 + L lam)),
    for lam in (0, 1/(2L)); always < 3/(2(1+L lam)).
    """
    return (3.0 * (1.0 - alpha_bar) ** 2
            / (2.0 * (2.0 * alpha_k ** 2 - alpha_k + 1.0) * (1.0 + L * lam)))


def _rho_larger_step(alpha_k, lam, L, nu, eps_bar) -> float:
    # Cap (3-nu)(1-alpha_k)^2 / (2 (2 alpha_k^2 - alpha_k + 1)(1 + L lam)),
    # backed off by the eps_bar margin; steps up to (1-nu)/(2L) are allowed.
    cap = (3.0 - nu) * (1.0 - alpha_k) ** 2 / (
        2.0 * (2.0 * alpha_k ** 2 - alpha_k + 1.0) * (1.0 + L * lam))
    return (1.0 - eps_bar) * cap


# A hypothesis is (holds, message, fatal), holds and message taking
# (policy, lam, L, mu); an advisory one (not fatal) is left to validate().

def _unit(name):
    return (lambda p, *_: 0.0 < getattr(p, name) < 1.0,
            lambda p, *_: f"{name} = {getattr(p, name):g} outside (0,1)", True)


def _window(label, cap):
    """lam < cap(policy, L) when L > 0; positivity is checked on its own."""
    return (lambda p, lam, L, mu: L <= 0 or lam < cap(p, L),
            lambda p, lam, L, mu: (f"lam = {lam:g} not in (0, {label}) = "
                                   f"(0, {cap(p, L):g})"), True)


def _strong_cap(p, L, mu):
    """lambda_strong, or inf while a, b or mu break their own hypotheses."""
    if mu is None or mu <= 0 or not (0.0 < p.a < 1.0 and 0.0 < p.b < 1.0):
        return np.inf
    return lambda_strong(mu, L, p.a, p.b)


_LAM_POSITIVE = (lambda p, lam, *_: lam > 0,
                 lambda p, lam, *_: f"lam = {lam:g} is not positive", True)
_ASYMPTOTIC_WINDOW = _window("1/(4L)", lambda p, L: 1.0 / (4.0 * L))
_MONOTONE_GAP_WINDOW = _window("1/(2L)", lambda p, L: 1.0 / (2.0 * L))
# The constructor keeps alpha in [0, 1); custom policies may drop inertia.
_COMMON = (_LAM_POSITIVE,
           (lambda p, *_: p.alpha > 0.0 or p.regime == "custom",
            lambda p, *_: f"alpha = {p.alpha:g} outside (0,1)", False))


class _Regime(NamedTuple):
    hypotheses: tuple  # checked after _COMMON, in order
    rho: Callable      # (policy, alpha_k, lam, L) -> rho_k
    default_lam: Callable | None = None  # (policy, L, mu), for lam = None


_REGIMES = {
    "asymptotic": _Regime(
        (_unit("eps_bar"), _ASYMPTOTIC_WINDOW),
        lambda p, ak, lk, L: _rho_asymptotic(ak, lk, L, p.eps_bar, p.alpha)),
    "larger_step": _Regime(
        ((lambda p, *_: p.alpha_mode == "constant",
          lambda *_: "larger_step regime assumes constant inertia", False),
         _unit("nu"),
         _window("(1-nu)/(2L)", lambda p, L: (1.0 - p.nu) / (2.0 * L))),
        lambda p, ak, lk, L: _rho_larger_step(ak, lk, L, p.nu, p.eps_bar)),
    "strongly_monotone": _Regime(
        (_unit("a"), _unit("b"),
         (lambda p, lam, L, mu: mu is not None and mu > 0,
          lambda *_: "strongly_monotone regime without a positive mu", True),
         # advisory: non-strict runs may step above the cap, with a diagnostic
         (lambda p, lam, L, mu: lam <= _strong_cap(p, L, mu),
          lambda p, lam, L, mu: (f"lam = {lam:g} exceeds lambda_strong = "
                                 f"{_strong_cap(p, L, mu):g}"), False)),
        lambda p, ak, lk, L: _rho_strong(ak, lk, lipschitz_tilde(L), p.a),
        default_lam=_strong_cap),
    "monotone_gap": _Regime(
        (_MONOTONE_GAP_WINDOW,),
        lambda p, ak, lk, L: _rho_monotone(ak, lk, L, p.alpha)),
    "custom": _Regime(
        ((lambda p, *_: p.rho is not None,
          lambda *_: "custom regime without an explicit rho", True),),
        lambda p, ak, lk, L: float(p.rho)),
}


def _require(hypotheses, policy, lam, L, mu):
    for holds, message, fatal in hypotheses:
        if fatal and not holds(policy, lam, L, mu):
            raise PolicyViolation(message(policy, lam, L, mu))


def _lam(policy: RegimePolicy, L: float, mu):
    if policy.lam is not None:
        return float(policy.lam)
    default = _REGIMES[policy.regime].default_lam
    if default is None:
        raise ValueError("policy has no step size lam")
    return default(policy, L, mu)


def schedule(policy: RegimePolicy, L: float, mu: float | None = None):
    """The law k -> (alpha_k, lam, rho_k), k >= 1, after checking the
    fatal hypotheses once: PolicyViolation names the first one broken."""
    regime = _REGIMES[policy.regime]
    lam = _lam(policy, L, mu)
    _require(_COMMON + regime.hypotheses, policy, lam, L, mu)

    def at(k: int):
        ak = alpha_at(policy, k)
        return ak, lam, regime.rho(policy, ak, lam, L)

    return at


def schedule_at(policy: RegimePolicy, k: int, L: float, mu: float | None = None):
    """(alpha_k, lam, rho_k) at iteration k: schedule(policy, L, mu)(k)."""
    return schedule(policy, L, mu)(k)


def validate(policy: RegimePolicy, L: float, mu: float | None = None):
    """Every violated hypothesis, as text; custom policies are also held to
    their closest regime. Never raises: the caller decides whether a
    violation is fatal."""
    try:
        lam = _lam(policy, L, mu)
    except ValueError as exc:
        return [str(exc)]
    hypotheses = _COMMON + _REGIMES[policy.regime].hypotheses
    if policy.regime == "custom":
        hypotheses += _REGIMES[_closest_regime(policy)].hypotheses
    return [message(policy, lam, L, mu)
            for holds, message, _ in hypotheses
            if not holds(policy, lam, L, mu)]


def _closest_regime(policy: RegimePolicy) -> str:
    # custom runs are checked against the hypotheses they most plausibly
    # target: strongly monotone if rho is 1-ish, else the asymptotic rule.
    if policy.rho is not None and policy.rho >= 1.0:
        return "strongly_monotone"
    return "asymptotic"
