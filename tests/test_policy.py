import numpy as np
import pytest

import moninc.policy as policy_mod
from moninc.policy import (
    PolicyViolation,
    RegimePolicy,
    alpha_at,
    lambda_strong,
    lipschitz_tilde,
    rho_asymptotic,
    rho_monotone,
    rho_strong,
    schedule,
    schedule_at,
    validate,
)


# Hand-evaluated reference points for the relaxation formulas.

def test_rho_asymptotic_reference_value():
    # 5(1-0.1)(1-0.5)^2 / (4 (2*0.25-0.5+1)(1+0.2))
    r = rho_asymptotic(0.5, 0.2, 1.0, eps_bar=0.1, alpha_bar=0.5)
    assert r == pytest.approx(0.234375, abs=1e-12)


def test_rho_asymptotic_step_range_enforced():
    with pytest.raises(PolicyViolation):
        rho_asymptotic(0.1, 0.25, 1.0, 0.1, 0.1)  # lam = 1/(4L) not allowed
    with pytest.raises(PolicyViolation):
        rho_asymptotic(0.1, -0.1, 1.0, 0.1, 0.1)


def test_rho_asymptotic_decreases_in_joint_alpha():
    # heavier inertia (alpha = alpha_bar moving together) always leaves
    # less room for relaxation
    vals = [rho_asymptotic(a, 0.1, 1.0, 0.1, a) for a in
            (0.0, 0.3, 0.6, 0.9)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_rho_strong_reference_value():
    # (3-0.5)(1-0.1)^2 / (2 (2*0.01-0.05+1)(1+0.25))
    r = rho_strong(0.1, 0.25, 1.0, a=0.5)
    assert r == pytest.approx(0.8350515463917526, abs=1e-12)


def test_rho_strong_floor_value():
    # 16(3-0.5)(1-0.1)^2 / (31 (1+0.25))
    r = rho_strong(0.1, 0.25, 1.0, a=0.5, floor=True)
    assert r == pytest.approx(0.8361290322580646, abs=1e-12)


def test_rho_strong_floor_vs_exact():
    # the fixed-relaxation variant replaces 2(2a^2 - a/2 + 1) by its
    # minimum 31/16 (attained at a = 1/8), so at alpha = alpha_bar it
    # sits above the alpha-dependent formula, with equality at 1/8
    for lam_L in (0.1, 0.25, 0.5):
        for a_bar in (0.0, 0.1, 0.3, 0.7):
            exact = rho_strong(a_bar, lam_L, 1.0, 0.5)
            fixed = rho_strong(a_bar, lam_L, 1.0, 0.5, floor=True)
            ratio = (32.0 / 31.0) * (2 * a_bar ** 2 - 0.5 * a_bar + 1)
            assert fixed == pytest.approx(exact * ratio, rel=1e-12)
            assert fixed >= exact - 1e-12
        eq = rho_strong(0.125, lam_L, 1.0, 0.5, floor=True)
        assert eq == pytest.approx(rho_strong(0.125, lam_L, 1.0, 0.5),
                                   rel=1e-12)


def test_rho_monotone_reference_values():
    r = rho_monotone(0.1, 0.1, 2.5, alpha_bar=0.1)
    assert r == pytest.approx(1.0565217391304347, abs=1e-12)
    r = rho_monotone(0.85, 0.1, 2.5, alpha_bar=0.85)
    assert r == pytest.approx(0.016927899686520376, abs=1e-12)


def test_rho_monotone_step_range():
    with pytest.raises(PolicyViolation):
        rho_monotone(0.1, 0.2, 2.5, 0.1)  # lam = 1/(2L) excluded


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
    pol = RegimePolicy(regime="custom", alpha=0.1, lam=0.1)
    with pytest.raises(ValueError):
        schedule_at(pol, 1, L=1.0)
    pol2 = RegimePolicy(regime="custom", alpha=0.1, lam=0.1, rho=0.25)
    assert schedule_at(pol2, 4, L=1.0)[2] == 0.25


@pytest.mark.parametrize("field", [dict(lam=lambda k: 0.1),
                                   dict(rho=lambda k: 1.0 / k)],
                         ids=["lam", "rho"])
def test_steps_are_numbers_not_callables(field):
    with pytest.raises(TypeError, match="number or None"):
        RegimePolicy(regime="custom", alpha=0.1, **{"lam": 0.1, **field})


@pytest.mark.parametrize("regime, L, mu, formula", [
    ("asymptotic", 1.0, None,
     lambda p, ak, lam, L: rho_asymptotic(ak, lam, L, p.eps_bar, p.alpha_bar)),
    ("strongly_monotone", np.sqrt(0.5), 1.0,
     lambda p, ak, lam, L: rho_strong(ak, lam, lipschitz_tilde(L), p.a)),
    ("monotone_gap", 1.0, None,
     lambda p, ak, lam, L: rho_monotone(ak, lam, L, p.alpha_bar)),
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
    for alpha in (0.0, 0.2, 0.5, 0.8):
        for lam_L in (0.05, 0.12, 0.2):
            r = rho_asymptotic(alpha, lam_L, 1.0, 0.1, alpha)
            assert 0.0 < r < 1.5
    for alpha in (0.0, 0.3, 0.6):
        for lam_L in (0.1, 0.3, 0.45):
            assert 0.0 < rho_monotone(alpha, lam_L, 1.0, alpha) < 1.5
    for alpha in (0.0, 0.3, 0.6):
        for lam_L in (0.1, 0.5, 1.0):
            assert 0.0 < rho_strong(alpha, lam_L, 1.0, 0.5) <= 2.0


def test_sign_condition_under_asymptotic_rule():
    # 2 a_k^2 + (1-a_k)(1 - 5(1-a_k)/(4 rho_k (1+L lam))) must be <= 0
    # whenever rho_k follows the asymptotic formula with a_k <= alpha_bar
    for alpha_bar in (0.05, 0.3, 0.6, 0.9):
        for lam_L in (0.02, 0.1, 0.2):
            for a_k in np.linspace(0.0, alpha_bar, 25):
                rho = rho_asymptotic(a_k, lam_L, 1.0, 0.1, alpha_bar)
                lhs = 2 * a_k ** 2 + (1 - a_k) * (
                    1 - 5 * (1 - a_k) / (4 * rho * (1 + lam_L)))
                assert lhs <= 1e-12


def test_validate_flags_bad_steps_without_raising():
    pol = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.5)
    msgs = validate(pol, L=1.0)
    assert msgs and any("1/(4L)" in m for m in msgs)


def test_validate_clean_configuration():
    pol = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.1)
    assert validate(pol, L=1.0) == []


def test_validate_strongly_monotone_without_mu():
    pol = RegimePolicy(regime="strongly_monotone", alpha=0.1, lam=0.01)
    msgs = validate(pol, L=1.0)
    assert any("mu" in m for m in msgs)


def test_validate_missing_lambda():
    pol = RegimePolicy(regime="asymptotic", alpha=0.3)
    assert validate(pol, L=1.0) == ["policy has no step size lam"]


def test_validate_custom_checks_nearest_regime():
    # rho >= 1 is only plausible under the strongly monotone analysis,
    # whose step cap this lam violates
    pol = RegimePolicy(regime="custom", alpha=0.1, lam=0.6, rho=1.0)
    msgs = validate(pol, L=1.0, mu=1.0)
    assert any("lambda_strong" in m for m in msgs)


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
