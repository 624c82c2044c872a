"""End-to-end acceptance gates.

One test per numbered criterion (criterion 7 has one test per problem
regime). Each test prints a single line with the measured quantity, the
stated tolerance, and PASS/FAIL before asserting, so the log doubles as a
scoreboard. Configurations, seeds, and tolerances are pinned; none of the
expected numbers are derived from the code under test.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from moninc.core import (BallSet, BoxResolvent, BoxSet, project_ball,
                         project_box)
from moninc.merit import GapRegion, dual_gap_affine
from moninc.oracle import BatchSchedule, minibatch_estimate
from moninc.policy import RegimePolicy, schedule_at
from moninc.problems import (cap_apply_L, cap_apply_L_adjoint, cap_build,
                             cournot_build, synthetic_build)
from moninc.solvers import (SolverConfig, init_state, risfbf_step, run,
                            sfbf_step)
from moninc.theory import (contraction_q, geometric_constant,
                           noise_envelope_B, tau_eps)
from capture import run_with_points
from reference_core import BallResolvent, resolvent_product
from reference_formulas import energy_Q
from reference_oracles import NoiseModel, build_oracle
from reference_steps import risfbf_step_fixedpoint_form

REPS = 20


def _report(tag, ok, detail):
    print(f"[{tag}] {detail} -> {'PASS' if ok else 'FAIL'}")


def _mean_dist_sq(point_lists, solution):
    """Per-k mean of ||X_k - solution||^2 across replications."""
    stacked = np.array([[float(np.sum((x - solution) ** 2)) for x in points]
                        for points in point_lists])
    return stacked.mean(axis=0)


# ----------------------------------------------------------------------
# criterion 1: the inertial update and its fixed-point rewrite coincide
# ----------------------------------------------------------------------

def test_criterion_01_update_forms_agree():
    prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=3)
    t0 = time.perf_counter()
    s1 = init_state(np.zeros(20), np.random.default_rng(11))
    s2 = init_state(np.zeros(20), np.random.default_rng(11))
    worst = 0.0
    for _ in range(1000):
        risfbf_step(s1, prob, 0.3, 0.1, 0.9, 2)
        risfbf_step_fixedpoint_form(s2, prob, 0.3, 0.1, 0.9, 2)
        worst = max(worst, float(np.max(np.abs(s1.X - s2.X))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report("criterion 1", ok,
            f"max divergence {worst:.3g} (tol 1e-10), "
            f"{elapsed:.1f}s (limit 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


# ----------------------------------------------------------------------
# criterion 2: degenerate-parameter reductions
# ----------------------------------------------------------------------

def test_criterion_02_reductions():
    prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=3)
    pol = RegimePolicy(regime="custom", alpha=0.0, lam=0.1, rho=1.0)
    shared = dict(batches=BatchSchedule.constant(4), max_iters=50)
    a, a_points = run_with_points(prob, "risfbf",
                                  SolverConfig(policy=pol, **shared),
                                  np.random.default_rng(5))
    b, b_points = run_with_points(prob, "sfbf",
                                  SolverConfig(lam=0.1, **shared),
                                  np.random.default_rng(5))
    bitwise = (np.array_equal(a.X, b.X)
               and all(np.array_equal(x, y)
                       for x, y in zip(a_points, b_points)))

    # vanishing operator: compare against a direct relaxed inertial
    # proximal recursion written out here, not the library's own step
    dim = 6
    zero = SimpleNamespace(
        oracle=build_oracle(lambda x: np.zeros(dim),
                            NoiseModel.gaussian(0.0), dim),
        resolvent=BoxResolvent(BoxSet(np.full(dim, -1.0),
                                      np.full(dim, 1.0))))
    alpha, lam, rho = 0.4, 0.2, 0.7
    x0 = np.array([2.0, -2.0, 0.5, 3.0, -0.1, 1.5])
    s = init_state(x0, np.random.default_rng(0))
    x_prev, x = x0.copy(), x0.copy()
    div = 0.0
    for _ in range(100):
        risfbf_step(s, zero, alpha, lam, rho, 3)
        z = x + alpha * (x - x_prev)
        x_prev, x = x, (1.0 - rho) * z + rho * zero.resolvent.apply(z, lam)
        div = max(div, float(np.max(np.abs(s.X - x))))
    ok = bitwise and div <= 1e-12
    _report("criterion 2", ok,
            f"plain-method reduction bitwise={bitwise}, "
            f"proximal recursion divergence {div:.3g} (tol 1e-12)")
    assert bitwise
    assert div <= 1e-12


# ----------------------------------------------------------------------
# criterion 3: mini-batch averaging cuts the estimator MSE like 1/m
# ----------------------------------------------------------------------

def test_criterion_03_variance_law():
    t0 = time.perf_counter()
    oracle = build_oracle(lambda x: np.zeros(30), NoiseModel.gaussian(1.0),
                          30)
    rng = np.random.default_rng(101)
    x = np.zeros(30)
    ms = (1, 4, 16, 64, 256)
    mses = []
    for m in ms:
        sq = [float(np.sum(minibatch_estimate(oracle, x, m, rng) ** 2))
              for _ in range(200)]
        mses.append(np.mean(sq))
    slope = float(np.polyfit(np.log(ms), np.log(mses), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = -1.25 <= slope <= -0.8 and elapsed < 10.0
    _report("criterion 3", ok,
            f"MSE log-log slope {slope:.4f} (band [-1.25, -0.8]), "
            f"{elapsed:.1f}s (limit 10s)")
    assert -1.25 <= slope <= -0.8
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# criteria 4, 5, 9: linear decay envelope, biased variant, energies
# ----------------------------------------------------------------------

C4_POLICY = RegimePolicy(regime="strongly_monotone", alpha=0.1)
C4_P = 1.0 / 1.02


@pytest.fixture(scope="module")
def c4_runs():
    prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=5)
    cfg = SolverConfig(policy=C4_POLICY,
                       batches=BatchSchedule.geometric(C4_P),
                       max_iters=500, record_stride=1,
                       record_residual=False, record_energy=True)
    t0 = time.perf_counter()
    runs = [run_with_points(prob, "risfbf", cfg,
                            np.random.default_rng([31, rep]))
            for rep in range(REPS)]
    results, point_lists = map(list, zip(*runs))
    return prob, results, point_lists, time.perf_counter() - t0


def test_criterion_04_linear_rate_envelope(c4_runs):
    prob, _, point_lists, elapsed = c4_runs
    md = _mean_dist_sq(point_lists, prob.solution)

    ks = np.arange(20, 201)                     # iterate indices k
    slope = float(np.polyfit(ks, np.log(md[ks - 1]), 1)[0])

    L = prob.lipschitz
    L_tilde = float(np.sqrt(L * L + 0.5))
    _, lam, _ = schedule_at(C4_POLICY, 1, L, mu=1.0)
    q = contraction_q(0.5, 0.5, lam, 1.0, 0.1, L_tilde)
    B = noise_envelope_B(prob.oracle.variance_bound, 0.5, lam, L_tilde)
    dist1_sq = float(np.sum((np.zeros(20) - prob.solution) ** 2))
    C = geometric_constant(C4_P, q, dist1_sq, 0.1, 0.1, B)
    tau = tau_eps(C4_P, q, C, 1e-5)

    hit = np.nonzero(md <= 1e-5)[0]
    k_eps = int(hit[0]) + 1 if hit.size else 10**9

    floor = float(np.log(max(C4_P, q))) - 0.05
    ok = (floor <= slope < 0.0) and k_eps <= tau and elapsed < 120.0
    _report("criterion 4", ok,
            f"slope {slope:.4f} (band [{floor:.4f}, 0)), "
            f"K_eps {k_eps} <= tau {tau}, {elapsed:.1f}s (limit 120s)")
    assert slope < 0.0
    assert slope >= floor
    assert k_eps <= tau
    assert elapsed < 120.0


def test_criterion_05_biased_oracle_still_linear():
    prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5,
                           bias=0.5, seed=5)
    cfg = SolverConfig(policy=C4_POLICY,
                       batches=BatchSchedule.geometric(C4_P),
                       max_iters=700, record_stride=1,
                       record_residual=False)
    point_lists = [run_with_points(prob, "risfbf", cfg,
                                   np.random.default_rng([37, rep]))[1]
                   for rep in range(REPS)]
    md = _mean_dist_sq(point_lists, prob.solution)
    ks = np.arange(20, 201)
    slope = float(np.polyfit(ks, np.log(md[ks - 1]), 1)[0])
    final = float(md[-1])
    ok = slope < 0.0 and final <= 1e-5
    _report("criterion 5", ok,
            f"slope {slope:.4f} (< 0), final mean dist^2 {final:.3g} "
            f"(tol 1e-5)")
    assert slope < 0.0
    assert final <= 1e-5


# ----------------------------------------------------------------------
# criterion 6: averaged-iterate gap halves when the budget doubles
# ----------------------------------------------------------------------

def test_criterion_06_gap_decay():
    t0 = time.perf_counter()
    prob = synthetic_build(dim=20, mu=0.0, skew_norm=1.0, sigma=0.5, seed=7)
    lam = 1.0 / (4.0 * prob.lipschitz)
    pol = RegimePolicy(regime="monotone_gap", alpha=0.1, lam=lam,
                       alpha_mode="increasing")
    region = GapRegion(np.zeros(20), 2.0 * np.sqrt(20.0),
                       geometry=prob.feasible)
    gaps = {}
    for K in (250, 500, 1000, 2000):
        cfg = SolverConfig(policy=pol,
                           batches=BatchSchedule.polynomial(1.01),
                           max_iters=K, record_stride=10**9,
                           record_residual=False)
        vals = []
        for rep in range(REPS):
            r = run(prob, "risfbf", cfg, np.random.default_rng([41, rep]))
            vals.append(dual_gap_affine(prob, r.X_bar, region))
        gaps[K] = float(np.mean(vals))
    ratios = [gaps[K] / gaps[2 * K] for K in (250, 500, 1000)]
    elapsed = time.perf_counter() - t0
    ok = all(1.5 <= r <= 3.0 for r in ratios) and elapsed < 180.0
    _report("criterion 6", ok,
            "doubling ratios " + "/".join(f"{r:.3f}" for r in ratios)
            + f" (band [1.5, 3.0]), {elapsed:.1f}s (limit 180s)")
    for r in ratios:
        assert 1.5 <= r <= 3.0
    assert elapsed < 180.0


# ----------------------------------------------------------------------
# criterion 7: capacity game at a 20000-draw budget
# ----------------------------------------------------------------------

def _cournot_mean_residual(prob, method, cfg):
    finals = []
    for rep in range(REPS):
        out = run(prob, method, cfg, np.random.default_rng([11, rep]))
        finals.append(float(out.trajectory.residual[-1]))
    return float(np.mean(finals))


def _cournot_cfg(**kw):
    # the residual column is taken at run()'s step 1/(4L)
    base = dict(max_oracle_calls=20000, max_iters=10**9,
                record_stride=10**9)
    base.update(kw)
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def c7_sa():
    """(mean residual, seconds) of the 20 sa replications that criteria 7a
    and 7b share: same problem, same config, seeds [11, rep]."""
    t0 = time.perf_counter()
    r_sa = _cournot_mean_residual(
        cournot_build(100.0, seed=0), "sa",
        _cournot_cfg(batches=BatchSchedule.constant(1)))
    return r_sa, time.perf_counter() - t0


def test_criterion_07a_capacity_game_monotone(c7_sa):
    r_sa, sa_seconds = c7_sa
    t0 = time.perf_counter()
    prob = cournot_build(100.0, seed=0)
    lam = 1.0 / (4.0 * prob.lipschitz)
    batches = BatchSchedule.polynomial(1.01)
    pol = RegimePolicy(regime="monotone_gap", alpha=0.1, lam=lam,
                       alpha_mode="increasing")
    r_ri = _cournot_mean_residual(
        prob, "risfbf", _cournot_cfg(policy=pol, batches=batches))
    r_sf = _cournot_mean_residual(
        prob, "sfbf", _cournot_cfg(lam=lam, batches=batches))
    # the shared sa runs count toward each criterion's time limit
    elapsed = time.perf_counter() - t0 + sa_seconds
    bound = 10.0 * 2.7e-4
    ok = (r_ri < r_sf < r_sa) and r_ri <= bound and elapsed < 180.0
    _report("criterion 7 (monotone)", ok,
            f"mean residuals {r_ri:.3g} < {r_sf:.3g} < {r_sa:.3g}, "
            f"best <= {bound:.1e}, {elapsed:.1f}s (limit 180s)")
    assert r_ri < r_sf < r_sa
    assert r_ri <= bound
    assert elapsed < 180.0


def test_criterion_07b_capacity_game_strongly_monotone(c7_sa):
    r_sa, sa_seconds = c7_sa
    t0 = time.perf_counter()
    prob = cournot_build(100.0, seed=0)
    lam = 1.0 / (4.0 * prob.lipschitz)
    batches = BatchSchedule.geometric(1.0 / 1.01)
    pol = RegimePolicy(regime="custom", alpha=0.1, lam=lam, rho=1.0)
    r_ri = _cournot_mean_residual(
        prob, "risfbf", _cournot_cfg(policy=pol, batches=batches))
    r_sf = _cournot_mean_residual(
        prob, "sfbf", _cournot_cfg(lam=lam, batches=batches))
    # the shared sa runs count toward each criterion's time limit
    elapsed = time.perf_counter() - t0 + sa_seconds
    bound = 10.0 * 3.7e-6
    ok = (r_ri < r_sf < r_sa) and r_ri <= bound and elapsed < 180.0
    _report("criterion 7 (strongly monotone)", ok,
            f"mean residuals {r_ri:.3g} < {r_sf:.3g} < {r_sa:.3g}, "
            f"best <= {bound:.1e}, {elapsed:.1f}s (limit 180s)")
    assert r_ri < r_sf < r_sa
    assert elapsed < 180.0
    # the accuracy gate: a 20000-draw budget leaves a sampling noise floor
    # near 4e-4 on this instance, so this bound is not met; kept at its
    # stated value rather than widened
    assert r_ri <= bound


# ----------------------------------------------------------------------
# criterion 8: overlapping group-lasso relative error vs baselines
# ----------------------------------------------------------------------

CAP_BUDGETS = (400, 800, 1200, 1600, 2000)
CAP_REFERENCE = (5.4e-1, 8.1e-3, 6.0e-3, 5.2e-3, 4.6e-3)


def _cap_mean_rel_errors(prob, method, cfg):
    sums = np.zeros(len(CAP_BUDGETS))
    for rep in range(REPS):
        out = run(prob, method, cfg, np.random.default_rng([23, rep]))
        ks = list(out.trajectory.k)
        for i, budget in enumerate(CAP_BUDGETS):
            sums[i] += out.trajectory.rel_error[ks.index(budget + 1)]
    return sums / REPS


def test_criterion_08_group_lasso_table():
    t0 = time.perf_counter()
    prob = cap_build(seed=0)
    lam = 1.0 / (4.0 * prob.lipschitz)
    batches = BatchSchedule.scaled_polynomial(1.1, 20)
    pol = RegimePolicy(regime="monotone_gap", alpha=0.85, lam=lam,
                       alpha_mode="increasing")
    shared = dict(max_iters=2000, record_stride=400, record_residual=False)
    e_ri = _cap_mean_rel_errors(
        prob, "risfbf",
        SolverConfig(policy=pol, batches=batches, **shared))
    e_sf = _cap_mean_rel_errors(
        prob, "sfbf", SolverConfig(lam=lam, batches=batches, **shared))
    e_se = _cap_mean_rel_errors(
        prob, "seg", SolverConfig(lam=lam, batches=batches, **shared))
    elapsed = time.perf_counter() - t0

    within = all(e_ri[i] <= 5.0 * CAP_REFERENCE[i]
                 for i in range(len(CAP_BUDGETS)))
    below = all(e_ri[i] < e_sf[i] and e_ri[i] < e_se[i]
                for i, b in enumerate(CAP_BUDGETS) if b >= 800)
    ok = within and below and elapsed < 300.0
    _report("criterion 8", ok,
            "mean rel errors " + "/".join(f"{v:.2e}" for v in e_ri)
            + f", within 5x reference {within}, beats baselines {below}, "
            f"{elapsed:.0f}s (limit 300s)")
    for i in range(len(CAP_BUDGETS)):
        assert e_ri[i] <= 5.0 * CAP_REFERENCE[i], CAP_BUDGETS[i]
    for i, b in enumerate(CAP_BUDGETS):
        if b >= 800:
            assert e_ri[i] < e_sf[i], b
            assert e_ri[i] < e_se[i], b
    assert elapsed < 300.0


# ----------------------------------------------------------------------
# criterion 9: proof-energy diagnostics along real trajectories
# ----------------------------------------------------------------------

def test_criterion_09_energy_bounds(c4_runs):
    prob, results, point_lists, _ = c4_runs
    # linear-rate energy dominates (1-abar)/2 dist^2 on every recorded row
    worst_h = np.inf
    for r, points in zip(results, point_lists):
        H = r.trajectory.H_k
        for i, x in enumerate(points):
            if np.isnan(H[i]):
                continue
            d2 = float(np.sum((x - prob.solution) ** 2))
            worst_h = min(worst_h, H[i] - 0.45 * d2)
    h_ok = worst_h >= -1e-8

    # averaged-rate energy stays nonnegative along a small-step run
    prob2 = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=5)
    L = prob2.lipschitz
    pol = RegimePolicy(regime="asymptotic", alpha=0.3, lam=0.9 / (4.0 * L))
    cfg = SolverConfig(policy=pol,
                       batches=BatchSchedule.geometric(1.0 / 1.02),
                       max_iters=300, record_stride=1,
                       record_residual=False)
    out, pts = run_with_points(prob2, "risfbf", cfg,
                               np.random.default_rng([51, 0]))
    anchor = out.X_bar
    worst_q = np.inf
    for i in range(1, len(pts)):
        ak, lk, rk = schedule_at(pol, i, L)      # params of the producing step
        worst_q = min(worst_q, energy_Q(pts[i], pts[i - 1], anchor,
                                        ak, rk, lk, L))
    q_ok = worst_q >= -1e-8

    ok = h_ok and q_ok
    _report("criterion 9", ok,
            f"min(H - 0.45 dist^2) = {worst_h:.3g}, min Q = {worst_q:.3g} "
            f"(floor -1e-8)")
    assert h_ok
    assert q_ok


# ----------------------------------------------------------------------
# criterion 10: bulk property suites
# ----------------------------------------------------------------------

def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)
    failures = []

    # projections are idempotent
    box = BoxSet(np.full(8, -1.5), np.full(8, 2.0))
    ball = BallSet(rng.standard_normal(8), 1.7)
    for _ in range(1000):
        x = 5.0 * rng.standard_normal(8)
        for proj in (lambda z: project_box(z, box),
                     lambda z: project_ball(z, ball)):
            p = proj(x)
            if not np.allclose(proj(p), p, atol=1e-14):
                failures.append("projection idempotence")

    # resolvents are nonexpansive over 10^4 pairs
    blocks = resolvent_product([(BoxResolvent(box), (0, 8)),
                                (BallResolvent(ball), (8, 16))])
    for J in (BoxResolvent(box), BallResolvent(ball)):
        for _ in range(4000):
            x, y = 5.0 * rng.standard_normal((2, 8))
            if (np.linalg.norm(J.apply(x, 0.3) - J.apply(y, 0.3))
                    > np.linalg.norm(x - y) * (1 + 1e-12) + 1e-14):
                failures.append("resolvent nonexpansiveness")
    for _ in range(2000):
        x, y = 5.0 * rng.standard_normal((2, 16))
        if (np.linalg.norm(blocks.apply(x, 0.3) - blocks.apply(y, 0.3))
                > np.linalg.norm(x - y) * (1 + 1e-12) + 1e-14):
            failures.append("product resolvent nonexpansiveness")

    # convex-combination norm identity over 10^4 tuples
    for _ in range(10_000):
        x, y = 3.0 * rng.standard_normal((2, 6))
        a = rng.uniform()
        lhs = float(np.sum((a * x + (1 - a) * y) ** 2))
        rhs = (a * float(np.sum(x ** 2)) + (1 - a) * float(np.sum(y ** 2))
               - a * (1 - a) * float(np.sum((x - y) ** 2)))
        if abs(lhs - rhs) > 1e-9 * (1.0 + abs(rhs)):
            failures.append("norm identity")

    # coupling operator and its adjoint agree in inner products
    cap = cap_build(seed=0).detail
    for _ in range(1000):
        w = rng.standard_normal(cap.d)
        v = rng.standard_normal(cap.dual_dim)
        lhs = float(cap_apply_L(cap, w) @ v)
        rhs = float(w @ cap_apply_L_adjoint(cap, v))
        if abs(lhs - rhs) > 1e-10 * (1.0 + abs(lhs)):
            failures.append("adjoint identity")

    # capacity-game oracle is unbiased for its closed-form mean (3 sigma)
    cournot = cournot_build(100.0, seed=0)
    x = rng.uniform(0.0, 1.0, 10)
    n = 40_000
    err = np.linalg.norm(cournot.oracle.batch(x, n, rng)
                         - cournot.oracle.mean(x))
    if err > 3.0 * cournot.oracle.variance_bound / np.sqrt(n):
        failures.append("capacity-game oracle mean")

    # group-lasso oracle is unbiased for its closed-form mean (3 sigma)
    capprob = cap_build(seed=0)
    z = np.concatenate([capprob.detail.w_true
                        + 0.3 * rng.standard_normal(capprob.detail.d),
                        0.1 * rng.standard_normal(capprob.detail.dual_dim)])
    err = np.linalg.norm(capprob.oracle.batch(z, 60_000, rng)
                         - capprob.oracle.mean(z))
    if err > 3.0 * capprob.oracle.variance_bound / np.sqrt(60_000):
        failures.append("group-lasso oracle mean")

    # relaxation law keeps the quadratic sign condition nonpositive
    L = 2.0
    for abar in (0.1, 0.3, 0.49):
        for eps_bar in (0.05, 0.2):
            for lam_frac in (0.3, 0.9):
                lam = lam_frac / (4.0 * L)
                pol = RegimePolicy(regime="asymptotic", alpha=abar,
                                   lam=lam, eps_bar=eps_bar)
                for k in (1, 3, 10, 100):
                    ak, lk, rk = schedule_at(pol, k, L)
                    s = 2 * ak ** 2 + (1 - ak) * (
                        1 - 5 * (1 - ak) / (4 * rk * (1 + L * lk)))
                    if s > 1e-12:
                        failures.append("sign condition")

    bad = sorted(set(failures))
    ok = not bad
    _report("criterion 10", ok,
            "all property suites clean" if ok else f"failing: {bad}")
    assert not bad
