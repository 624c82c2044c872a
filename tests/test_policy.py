import re

import numpy as np
import pytest

import moninc.policy as policy_mod
from moninc.policy import (
    PolicyViolation,
    RegimePolicy,
    alpha_at,
    lambda_strong,
    lipschitz_tilde,
    schedule,
    schedule_at,
    validate,
)
from moninc.theory import contraction_q


def test_rho_asymptotic_decreases_in_joint_alpha():
    # heavier inertia (alpha = alpha_bar moving together) always leaves
    # less room for relaxation
    vals = [schedule_at(RegimePolicy(regime="asymptotic", alpha=a, lam=0.1),
                        1, L=1.0)[2] for a in (0.0, 0.3, 0.6, 0.9)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_rho_strong_floor_vs_exact():
    # the floor relaxation in contraction_q, rho = (1-q)/((1-b) lam mu),
    # replaces 2(2a^2 - a/2 + 1) by its minimum 31/16 (attained at
    # a = 1/8), so at alpha = alpha_bar it sits above the alpha-dependent
    # formula, with equality at 1/8
    def floor(a_bar, lam):
        q = contraction_q(a=0.5, b=0.5, lam=lam, mu=1.0, alpha_bar=a_bar,
                          L_tilde=1.0)
        return (1.0 - q) / (0.5 * lam * 1.0)

    for lam_L in (0.1, 0.2, 0.25):
        for a_bar in (0.0, 0.1, 0.3, 0.7):
            exact = policy_mod._rho_strong(a_bar, lam_L, 1.0, 0.5)
            fixed = floor(a_bar, lam_L)
            ratio = (32.0 / 31.0) * (2 * a_bar ** 2 - 0.5 * a_bar + 1)
            assert fixed == pytest.approx(exact * ratio, rel=1e-12)
            assert fixed >= exact - 1e-12
        assert floor(0.125, lam_L) == pytest.approx(
            policy_mod._rho_strong(0.125, lam_L, 1.0, 0.5), rel=1e-12)


def test_rho_monotone_reference_values():
    for alpha, want in ((0.1, 1.0565217391304347),
                        (0.85, 0.016927899686520376)):
        pol = RegimePolicy(regime="monotone_gap", alpha=alpha, lam=0.1)
        assert schedule_at(pol, 1, L=2.5)[2] == pytest.approx(want, abs=1e-12)


def test_lambda_strong_reference_value():
    assert lambda_strong(1.0, np.sqrt(0.5), 0.5, 0.5) == pytest.approx(0.25)


def test_lambda_strong_takes_binding_branch():
    # large mu makes a/(2 mu) bind; tiny mu makes b*mu bind
    assert lambda_strong(100.0, 1.0, 0.5, 0.5) == pytest.approx(0.0025)
    assert lambda_strong(1e-3, 1.0, 0.5, 0.5) == pytest.approx(5e-4)


def test_alpha_schedule_modes():
    pol_c = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.1)
    assert alpha_at(pol_c, 1) == 0.3
    assert alpha_at(pol_c, 1000) == 0.3
    pol_i = RegimePolicy(regime="monotone_gap", alpha=0.8, lam=0.1,
                         alpha_mode="increasing")
    seq = [alpha_at(pol_i, k) for k in (1, 2, 10, 10_000)]
    assert seq[0] == pytest.approx(0.4)
    assert all(x < y for x, y in zip(seq, seq[1:]))
    assert seq[-1] < 0.8


def test_schedule_at_asymptotic():
    pol = RegimePolicy(regime="asymptotic", alpha=0.5, lam=0.2)
    ak, lk, rk = schedule_at(pol, 3, L=1.0)
    assert (ak, lk) == (0.5, 0.2)
    assert rk == pytest.approx(0.234375)


def test_schedule_at_strongly_monotone_defaults_lambda():
    pol = RegimePolicy(regime="strongly_monotone", alpha=0.1)
    ak, lk, rk = schedule_at(pol, 1, L=np.sqrt(0.5), mu=1.0)
    assert lk == pytest.approx(0.25)
    assert rk == pytest.approx(0.8350515463917526)


def test_schedule_at_custom_requires_rho():
    with pytest.raises(ValueError,
                       match="^custom regime without an explicit rho$"):
        RegimePolicy(regime="custom", alpha=0.1, lam=0.1)
    pol2 = RegimePolicy(regime="custom", alpha=0.1, lam=0.1, rho=0.25)
    assert schedule_at(pol2, 4, L=1.0)[2] == 0.25


@pytest.mark.parametrize("field", [dict(lam=lambda k: 0.1),
                                   dict(rho=lambda k: 1.0 / k)],
                         ids=["lam", "rho"])
def test_steps_are_numbers_not_callables(field):
    with pytest.raises(TypeError, match="number or None"):
        RegimePolicy(regime="custom", alpha=0.1, **{"lam": 0.1, **field})


# the formulas are the _rho_* functions, each written once in policy.py
@pytest.mark.parametrize("regime, L, mu, formula", [
    ("asymptotic", 1.0, None,
     lambda p, ak, lam, L: policy_mod._rho_asymptotic(ak, lam, L, p.eps_bar,
                                                      p.alpha)),
    ("strongly_monotone", np.sqrt(0.5), 1.0,
     lambda p, ak, lam, L: policy_mod._rho_strong(ak, lam, lipschitz_tilde(L),
                                                  p.a)),
    ("monotone_gap", 1.0, None,
     lambda p, ak, lam, L: policy_mod._rho_monotone(ak, lam, L, p.alpha)),
])
def test_schedule_checks_once_and_its_law_is_the_public_formulas(
        monkeypatch, regime, L, mu, formula):
    pol = RegimePolicy(regime=regime, alpha=0.4, alpha_mode="increasing",
                       lam=None if regime == "strongly_monotone" else 0.2)
    calls = []
    real = policy_mod._require
    monkeypatch.setattr(policy_mod, "_require",
                        lambda *a: calls.append(a) or real(*a))
    law = schedule(pol, L, mu)
    rows = [law(k) for k in (1, 2, 50)]
    assert len(calls) == 1   # the law itself checks nothing
    monkeypatch.undo()
    for k, (ak, lam, rk) in zip((1, 2, 50), rows):
        assert ak == alpha_at(pol, k)
        assert rk == formula(pol, ak, lam, L)


def test_schedule_at_larger_step():
    # nu = 0.5 halves the admissible step window but lifts the relaxation cap
    pol = RegimePolicy(regime="larger_step", alpha=0.2, lam=0.2, nu=0.5)
    ak, lk, rk = pol.alpha, 0.2, schedule_at(pol, 1, L=1.0)[2]
    cap = (3 - 0.5) * (1 - 0.2) ** 2 / (2 * (1 + 0.2) * (2 * 0.04 + 0.8))
    assert rk == pytest.approx(0.9 * cap)
    with pytest.raises(PolicyViolation):
        schedule_at(RegimePolicy(regime="larger_step", alpha=0.2, lam=0.3,
                                 nu=0.5), 1, L=1.0)


def test_relaxation_schedules_stay_in_range_over_grid():
    def rho(regime, alpha, lam, L=1.0, mu=None):
        pol = RegimePolicy(regime=regime, alpha=alpha, lam=lam)
        return schedule_at(pol, 1, L, mu)[2]

    for alpha in (0.0, 0.2, 0.5, 0.8):
        for lam_L in (0.05, 0.12, 0.2):
            assert 0.0 < rho("asymptotic", alpha, lam_L) < 1.5
    for alpha in (0.0, 0.3, 0.6):
        for lam_L in (0.1, 0.3, 0.45):
            assert 0.0 < rho("monotone_gap", alpha, lam_L) < 1.5
    for alpha in (0.0, 0.3, 0.6):
        for lam_L in (0.1, 0.5, 1.0):  # L_tilde = 1; the step cap is advisory
            r = rho("strongly_monotone", alpha, lam_L, np.sqrt(0.5), 1.0)
            assert 0.0 < r <= 2.0


def test_sign_condition_under_asymptotic_rule():
    # 2 a_k^2 + (1-a_k)(1 - 5(1-a_k)/(4 rho_k (1+L lam))) must be <= 0
    # whenever rho_k follows the asymptotic formula with a_k <= alpha_bar
    for alpha_bar in (0.05, 0.3, 0.6, 0.9):
        for lam_L in (0.02, 0.1, 0.2):
            for a_k in np.linspace(0.0, alpha_bar, 25):
                rho = policy_mod._rho_asymptotic(a_k, lam_L, 1.0, 0.1,
                                                 alpha_bar)
                lhs = 2 * a_k ** 2 + (1 - a_k) * (
                    1 - 5 * (1 - a_k) / (4 * rho * (1 + lam_L)))
                assert lhs <= 1e-12


def test_validate_flags_bad_steps_without_raising():
    pol = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.5)
    msgs = validate(pol, L=1.0)
    assert msgs and any("1/(4L)" in m for m in msgs)


@pytest.mark.parametrize("pol", [
    RegimePolicy(regime="strongly_monotone", alpha=0.1, lam=0.01),
    RegimePolicy(regime="strongly_monotone", alpha=0.1),
    RegimePolicy(regime="custom", alpha=0.1, lam=0.01, rho=1.2),
], ids=["strong-lam", "strong-default-lam", "custom-rho-1.2"])
def test_negative_L_is_one_fatal_hypothesis(pol):
    # validate lists it instead of raising; schedule raises it
    assert validate(pol, -1.0, 1.0) == ["L = -1 is negative"]
    with pytest.raises(PolicyViolation, match="L = -1 is negative"):
        schedule(pol, -1.0, 1.0)


def test_validate_clean_configuration():
    pol = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.1)
    assert validate(pol, L=1.0) == []


def test_validate_strongly_monotone_without_mu():
    pol = RegimePolicy(regime="strongly_monotone", alpha=0.1, lam=0.01)
    msgs = validate(pol, L=1.0)
    assert any("mu" in m for m in msgs)


def test_validate_missing_lambda():
    # only strongly_monotone has a default step, so the others are not built
    for regime in ("asymptotic", "larger_step", "monotone_gap", "custom"):
        with pytest.raises(ValueError, match="^policy has no step size lam$"):
            RegimePolicy(regime=regime, alpha=0.3, rho=1.0)


@pytest.mark.parametrize("regime", ["asymptotic", "larger_step",
                                    "strongly_monotone", "monotone_gap",
                                    "custom"])
@pytest.mark.parametrize("name", ["eps_bar", "nu", "a", "b"])
def test_constants_lie_in_the_open_unit_interval_in_every_regime(regime,
                                                                 name):
    kw = dict(regime=regime, alpha=0.1, lam=0.1, rho=1.0)
    for value in (0.0, 1.0, -0.5, 2.0, np.nan):
        with pytest.raises(ValueError,
                           match=re.escape(f"{name} = {value:g} outside (0,1)")):
            RegimePolicy(**kw, **{name: value})
    assert getattr(RegimePolicy(**kw, **{name: 0.99}), name) == 0.99


def test_validate_custom_checks_nearest_regime():
    # rho >= 1 is only plausible under the strongly monotone analysis,
    # whose step cap this lam violates
    pol = RegimePolicy(regime="custom", alpha=0.1, lam=0.6, rho=1.0)
    msgs = validate(pol, L=1.0, mu=1.0)
    assert any("lambda_strong" in m for m in msgs)
    # rho < 1 holds it to the asymptotic window lam < 1/(4L)
    pol = RegimePolicy(regime="custom", alpha=0.1, lam=1.0, rho=0.5)
    assert validate(pol, 1.0) == ["lam = 1 not in (0, 1/(4L)) = (0, 0.25)"]


@pytest.mark.parametrize("regime, L, mu, edge, enforced", [
    ("asymptotic", 1.0, None, 0.25, True),           # 1/(4L)
    ("larger_step", 1.0, None, 0.25, True),          # (1-nu)/(2L), nu = 0.5
    ("monotone_gap", 1.0, None, 0.5, True),          # 1/(2L)
    # lambda_strong = min(a/(2mu), b mu, (1-a)/(2 L_tilde)) = 0.25; the cap
    # is advisory so that non-strict runs above it go on after a warning
    ("strongly_monotone", np.sqrt(0.5), 1.0, 0.25, False),
])
def test_step_window_shared_by_schedule_and_validate(regime, L, mu, edge,
                                                     enforced):
    def policy(lam):
        return RegimePolicy(regime=regime, alpha=0.2, lam=lam)

    inside = policy(edge * (1.0 - 1e-9))
    assert schedule_at(inside, 1, L, mu)[1] == inside.lam
    assert validate(inside, L, mu) == []

    outside = policy(edge * (1.0 + 1e-9))
    msgs = validate(outside, L, mu)
    assert len(msgs) == 1 and f"{outside.lam:g}" in msgs[0]
    if enforced:
        with pytest.raises(PolicyViolation, match="not in"):
            schedule_at(outside, 1, L, mu)
    else:
        assert schedule_at(outside, 1, L, mu)[1] == outside.lam

    for lam in (0.0, -edge):
        assert validate(policy(lam), L, mu) == [
            f"lam = {lam:g} is not positive"]
        with pytest.raises(PolicyViolation, match="not positive"):
            schedule_at(policy(lam), 1, L, mu)


@pytest.mark.parametrize("kw, mu, messages, fatal", [
    # a constant outside (0,1) is the policy's own error: construction
    # raises the first one, so no validate list exists
    (dict(regime="larger_step", alpha=0.2, alpha_mode="increasing", nu=1.5),
     None, [], "nu = 1.5 outside (0,1)"),
    (dict(regime="asymptotic", alpha=0.0, eps_bar=0.0), None, [],
     "eps_bar = 0 outside (0,1)"),
    (dict(regime="strongly_monotone", alpha=0.2, a=1.0, b=0.0), 1.0, [],
     "a = 1 outside (0,1)"),
    (dict(regime="monotone_gap", alpha=0.0), None,
     ["alpha = 0 outside (0,1)"], None),
    (dict(regime="larger_step", alpha=0.2, alpha_mode="increasing", nu=0.9),
     None, ["larger_step regime assumes constant inertia",
            "lam = 0.1 not in (0, (1-nu)/(2L)) = (0, 0.05)"],
     "lam = 0.1 not in (0, (1-nu)/(2L)) = (0, 0.05)"),
    (dict(regime="strongly_monotone", alpha=0.0), None,
     ["alpha = 0 outside (0,1)",
      "strongly_monotone regime without a positive mu"],
     "strongly_monotone regime without a positive mu"),
])
def test_validate_lists_every_broken_hypothesis_in_order(kw, mu, messages,
                                                         fatal):
    if not messages:
        with pytest.raises(ValueError, match=f"^{re.escape(fatal)}$"):
            RegimePolicy(lam=0.1, **kw)
        return
    pol = RegimePolicy(lam=0.1, **kw)
    assert validate(pol, 1.0, mu) == messages
    if fatal is None:    # advisory only: the schedule runs
        assert schedule_at(pol, 1, 1.0, mu)[1] == 0.1
    else:                # the first fatal one is the one raised
        with pytest.raises(PolicyViolation, match=re.escape(fatal)):
            schedule_at(pol, 1, 1.0, mu)


def test_constant_is_not_a_regime():
    with pytest.raises(ValueError, match="unknown regime"):
        RegimePolicy(regime="constant", alpha=0.1, lam=0.1)


def test_policy_constructor_validation():
    with pytest.raises(ValueError):
        RegimePolicy(regime="bogus", alpha=0.1)
    with pytest.raises(ValueError):
        RegimePolicy(regime="asymptotic", alpha=1.0)
    with pytest.raises(ValueError):
        RegimePolicy(regime="asymptotic", alpha=0.1, alpha_mode="warmup")
