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

A RegimePolicy rejects at construction what is wrong with its constants
alone. Its other hypotheses bind it against the problem's L and mu; lam
and the custom rho are numbers, so each holds at every k iff at k = 1.
One function, _broken(), states those of each regime as plain conditions
and yields each one a policy breaks; _common() holds those every regime
shares. schedule() raises on the first fatal one, once, and returns the
law k -> (alpha_k, lam, rho_k) built on the regime's relaxation formula
(the _rho_* functions, each written once); validate() lists every broken
one, advisory ones included. Neither alters a user's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from numbers import Real

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
    is the custom regime's constant relaxation, which it must set. Both are
    numbers or None. eps_bar, nu, a and b lie in (0,1) in every regime.
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
        if self.regime not in _RELAXATION:
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.alpha_mode not in ("constant", "increasing"):
            raise ValueError(f"unknown alpha_mode {self.alpha_mode!r}")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha must lie in [0, 1)")
        if self.lam is None and self.regime != "strongly_monotone":
            raise ValueError("policy has no step size lam")
        if self.regime == "custom" and self.rho is None:
            raise ValueError("custom regime without an explicit rho")
        for name in ("eps_bar", "nu", "a", "b"):
            if not 0.0 < (value := getattr(self, name)) < 1.0:
                raise ValueError(f"{name} = {value:g} outside (0,1)")


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


# The relaxation formulas, unchecked: the laws in _RELAXATION call these
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


# Each regime's relaxation law (policy, alpha_k, lam, L) -> rho_k.
_RELAXATION = {
    "asymptotic": lambda p, ak, lk, L: _rho_asymptotic(ak, lk, L, p.eps_bar,
                                                       p.alpha),
    "larger_step": lambda p, ak, lk, L: _rho_larger_step(ak, lk, L, p.nu,
                                                         p.eps_bar),
    "strongly_monotone": lambda p, ak, lk, L: _rho_strong(
        ak, lk, lipschitz_tilde(L), p.a),
    "monotone_gap": lambda p, ak, lk, L: _rho_monotone(ak, lk, L, p.alpha),
    "custom": lambda p, ak, lk, L: float(p.rho),
}


def _common(p, lam, L):
    """(message, fatal) for each broken hypothesis every regime shares."""
    if L < 0:
        yield f"L = {L:g} is negative", True
    if not lam > 0:
        yield f"lam = {lam:g} is not positive", True
    # The constructor keeps alpha in [0, 1); custom policies may drop inertia.
    if not p.alpha > 0.0 and p.regime != "custom":
        yield f"alpha = {p.alpha:g} outside (0,1)", False


def _broken(p, regime, lam, L, mu):
    """(message, fatal) for each hypothesis of regime that policy p breaks
    at step lam, in order. An advisory one (not fatal) only validate()
    reports; the window lam < cap is checked when L > 0."""
    if regime == "larger_step" and p.alpha_mode != "constant":
        yield "larger_step regime assumes constant inertia", False
    if regime == "strongly_monotone":
        if not (mu is not None and mu > 0):
            yield "strongly_monotone regime without a positive mu", True
        # advisory: non-strict runs may step above the cap, with a diagnostic
        cap = _lam(p, L, mu, given=False)
        if not lam <= cap:
            yield f"lam = {lam:g} exceeds lambda_strong = {cap:g}", False
    if L <= 0 or regime not in ("asymptotic", "larger_step", "monotone_gap"):
        return
    if regime == "asymptotic":
        label, cap = "1/(4L)", 1.0 / (4.0 * L)
    elif regime == "larger_step":
        label, cap = "(1-nu)/(2L)", (1.0 - p.nu) / (2.0 * L)
    else:
        label, cap = "1/(2L)", 1.0 / (2.0 * L)
    if not lam < cap:
        yield f"lam = {lam:g} not in (0, {label}) = (0, {cap:g})", True


def _require(policy, lam, L, mu):
    for message, fatal in chain(_common(policy, lam, L),
                                _broken(policy, policy.regime, lam, L, mu)):
        if fatal:
            raise PolicyViolation(message)


def _lam(policy: RegimePolicy, L: float, mu, given=True):
    """policy.lam if given and set, else lambda_strong: the strongly
    monotone default step and cap, inf while L or mu break theirs."""
    if given and policy.lam is not None:
        return float(policy.lam)
    if L < 0 or mu is None or mu <= 0:
        return np.inf
    return lambda_strong(mu, L, policy.a, policy.b)


def schedule(policy: RegimePolicy, L: float, mu: float | None = None):
    """The law k -> (alpha_k, lam, rho_k), k >= 1, after checking the
    fatal hypotheses once: PolicyViolation names the first one broken."""
    lam = _lam(policy, L, mu)
    _require(policy, lam, L, mu)
    rho = _RELAXATION[policy.regime]

    def at(k: int):
        ak = alpha_at(policy, k)
        return ak, lam, rho(policy, ak, lam, L)

    return at


def schedule_at(policy: RegimePolicy, k: int, L: float, mu: float | None = None):
    """(alpha_k, lam, rho_k) at iteration k: schedule(policy, L, mu)(k)."""
    return schedule(policy, L, mu)(k)


def validate(policy: RegimePolicy, L: float, mu: float | None = None):
    """Every violated hypothesis, as text. A custom policy is also held to
    its closest regime: strongly monotone if rho >= 1, else asymptotic.
    Never raises: the caller decides whether a violation is fatal."""
    lam = _lam(policy, L, mu)
    broken = [*_common(policy, lam, L),
              *_broken(policy, policy.regime, lam, L, mu)]
    if policy.regime == "custom":
        closest = ("strongly_monotone" if policy.rho >= 1.0
                   else "asymptotic")
        broken += _broken(policy, closest, lam, L, mu)
    return [message for message, _ in broken]
