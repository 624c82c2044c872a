import math

import numpy as np
import pytest

from moninc.oracle import BatchSchedule, batch_size
from moninc.policy import RegimePolicy, lipschitz_tilde, schedule
from moninc.problems import synthetic_build
from moninc.solvers import SolverConfig
from moninc.theory import (contraction_q, geometric_constant,
                           noise_envelope_B, oracle_costs,
                           poly_rate_constant, tau_eps)
from capture import run_with_points
from reference_formulas import dominance_constant


class TestContraction:
    # a = b = 1/2, lam = 1/4, mu = 1, abar = 0.1, Ltilde = 1:
    # rho = 16*2.5*0.81/(31*1.25), eta = 1/8
    EXAMPLE = dict(a=0.5, b=0.5, lam=0.25, mu=1.0, alpha_bar=0.1, L_tilde=1.0)

    def test_reference_value(self):
        q = contraction_q(**self.EXAMPLE)
        assert q == pytest.approx(0.895483870967742, rel=1e-15)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.uniform(0.05, 0.95, 2)
            mu = rng.uniform(0.1, 10.0)
            L_tilde = rng.uniform(mu, mu + 10.0)
            abar = rng.uniform(0.0, 0.9)
            cap = min(a / (2 * mu), b * mu, (1 - a) / (2 * L_tilde))
            lam = rng.uniform(0.1, 1.0) * cap
            q = contraction_q(a, b, lam, mu, abar, L_tilde)
            assert 0.0 < q < 1.0

    def test_monotone_in_inertia_and_displacement_weights(self):
        base = contraction_q(**self.EXAMPLE)
        more_inertia = contraction_q(**{**self.EXAMPLE, "alpha_bar": 0.3})
        assert more_inertia > base
        more_b = contraction_q(**{**self.EXAMPLE, "b": 0.9,
                                  "lam": 0.25})        # cap still 0.25
        assert more_b > base

    def test_decreasing_in_step_size(self):
        qs = [contraction_q(0.5, 0.5, lam, 1.0, 0.1, 1.0)
              for lam in (0.05, 0.1, 0.2, 0.25)]
        assert all(x > y for x, y in zip(qs, qs[1:]))

    def test_step_cap_enforced(self):
        with pytest.raises(ValueError, match="admissible step"):
            contraction_q(0.5, 0.5, 0.26, 1.0, 0.1, 1.0)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            contraction_q(1.0, 0.5, 0.1, 1.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            contraction_q(0.5, 0.5, 0.1, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            contraction_q(0.5, 0.5, -0.1, 1.0, 0.1, 1.0)


class TestNoiseEnvelope:
    def test_reference_value(self):
        assert noise_envelope_B(0.5, 0.5, 0.25, 1.0) == pytest.approx(0.625)

    def test_quadratic_in_noise_level(self):
        b1 = noise_envelope_B(1.0, 0.5, 0.1, 2.0)
        b3 = noise_envelope_B(3.0, 0.5, 0.1, 2.0)
        assert b3 == pytest.approx(9.0 * b1, rel=1e-14)
        assert noise_envelope_B(0.0, 0.5, 0.1, 2.0) == 0.0


class TestGeometricConstant:
    def test_noise_free_reduces_to_initial_distance_term(self):
        for p, q in ((0.5, 0.25), (0.9, 0.3), (0.1, 0.7)):
            assert geometric_constant(p, q, 1.0, 0.0, 0.0, 0.0) \
                == pytest.approx(2.0)

    def test_reference_value(self):
        assert geometric_constant(0.5, 0.25, 1.0, 0.0, 0.0, 1.0) \
            == pytest.approx(10.0)

    def test_symmetric_in_rate_pair(self):
        c1 = geometric_constant(0.5, 0.25, 1.3, 0.05, 0.1, 0.7)
        c2 = geometric_constant(0.25, 0.5, 1.3, 0.05, 0.1, 0.7)
        assert c1 == pytest.approx(c2, rel=1e-15)

    def test_equal_rates_demand_explicit_slack(self):
        with pytest.raises(ValueError, match="p_hat"):
            geometric_constant(0.5, 0.5, 1.0, 0.0, 0.0, 1.0)
        got = geometric_constant(0.5, 0.5, 1.0, 0.0, 0.0, 1.0, p_hat=0.75)
        want = 2.0 + 4.0 / (math.e * math.log(0.75 / 0.5))
        assert got == pytest.approx(want, rel=1e-15)
        with pytest.raises(ValueError):
            geometric_constant(0.5, 0.5, 1.0, 0.0, 0.0, 1.0, p_hat=0.4)

    def test_inertia_ordering_validated(self):
        with pytest.raises(ValueError):
            geometric_constant(0.5, 0.25, 1.0, 0.3, 0.1, 0.0)


class TestIterationComplexity:
    def test_reference_value(self):
        assert tau_eps(0.9, 0.5, 100.0, 1e-4) == 132
        assert tau_eps(0.5, 0.9, 100.0, 1e-4) == 132   # max{p,q} rules

    def test_clamped_at_one_when_already_accurate(self):
        assert tau_eps(0.9, 0.5, 1e-6, 1e-4) == 1

    def test_halving_eps_costs_a_fixed_increment(self):
        t1 = tau_eps(0.9, 0.5, 100.0, 1e-4)
        t2 = tau_eps(0.9, 0.5, 100.0, 5e-5)
        assert t2 - t1 in (6, 7)                       # ln 2 / ln(1/0.9)

    def test_equal_rates_default_slack(self):
        # p = q = 0.5 defaults the reporting rate to (p+1)/2 = 0.75
        assert tau_eps(0.5, 0.5, 100.0, 1e-4) == 49
        assert tau_eps(0.5, 0.5, 100.0, 1e-4, p_hat=0.9) == 132

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tau_eps(0.9, 0.5, 100.0, 0.0)
        with pytest.raises(ValueError):
            tau_eps(0.9, 0.5, 0.0, 1e-4)
        with pytest.raises(ValueError):
            tau_eps(1.1, 0.5, 100.0, 1e-4)


class TestOracleCost:
    def test_reference_values(self):
        assert oracle_costs(BatchSchedule.constant(1), (100,), 2)[0] == 200
        assert oracle_costs(BatchSchedule.geometric(0.5), (3,), 2)[0] == 28
        assert oracle_costs(BatchSchedule.constant(2), (10,), 1)[0] == 20

    def test_matches_direct_sum_for_polynomial_growth(self):
        sched = BatchSchedule.polynomial(1.01)
        want = 2 * sum(int(k ** 1.01) for k in range(1, 51))
        assert oracle_costs(sched, (50,), 2)[0] == want

    @pytest.mark.parametrize("p", [0.5, 0.97, 1 / 1.02])
    def test_geometric_cost_is_the_sum_of_the_batch_sizes(self, p):
        # past m_k = 2^53 batch_size takes the exact rational power
        sched = BatchSchedule.geometric(p)
        want = 2 * sum(batch_size(sched, k) for k in range(1, 1501))
        assert oracle_costs(sched, (1500,), 2)[0] == want

    @pytest.mark.parametrize("sched", [
        BatchSchedule.geometric(0.97), BatchSchedule.polynomial(1.5),
        BatchSchedule.constant(3)], ids=["geometric", "polynomial",
                                         "constant"])
    def test_one_pass_reads_each_cost_on_the_way(self, sched):
        # moninc bounds reads three taus from one pass; unsorted and
        # repeated Ks come back in their own order
        Ks = [40, 7, 120, 7, 1]
        want = [2 * sum(batch_size(sched, k) for k in range(1, K + 1))
                for K in Ks]
        assert oracle_costs(sched, Ks, 2) == want
        assert [oracle_costs(sched, (K,), 2)[0] for K in Ks] == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            oracle_costs(BatchSchedule.constant(1), [5, 0], 2)
        with pytest.raises(ValueError):
            oracle_costs(BatchSchedule.constant(1), (0,), 2)
        with pytest.raises(ValueError):
            oracle_costs(BatchSchedule.constant(1), (10,), 3)


class TestPolynomialConstant:
    def test_reference_value(self):
        got = poly_rate_constant(0.5, 1.0, 1.0, 0.0, 0.0, 0.0)
        assert got == pytest.approx(30.311738018405507, rel=1e-13)

    def test_noise_term_is_additive(self):
        c0 = poly_rate_constant(0.5, 1.0, 1.0, 0.0, 0.0, 0.0)
        c1 = poly_rate_constant(0.5, 1.0, 1.0, 0.0, 0.0, 1.0)
        assert c1 - c0 == pytest.approx(4.0 / (0.5 * math.log(2.0)),
                                        rel=1e-13)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            poly_rate_constant(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            poly_rate_constant(0.5, 0.0, 1.0, 0.0, 0.0, 0.0)


class TestDominance:
    def test_reference_value(self):
        assert dominance_constant(0.9, 0.5) \
            == pytest.approx(0.6258723838736684, rel=1e-15)

    def test_bound_holds_on_a_dense_grid(self):
        z = np.linspace(0.0, 1000.0, 200_001)
        for p, q in ((0.9, 0.5), (0.99, 0.9), (0.5, 0.1)):
            D = dominance_constant(p, q)
            with np.errstate(under="ignore"):
                lhs = z * q ** z
                rhs = D * p ** z
            assert np.all(lhs <= rhs * (1.0 + 1e-12))
            # the bound is tight: the grid supremum of z (q/p)^z reaches D
            ratio = z * (q / p) ** z
            assert ratio.max() == pytest.approx(D, rel=1e-4)

    def test_requires_ordered_rates(self):
        with pytest.raises(ValueError):
            dominance_constant(0.5, 0.9)
        with pytest.raises(ValueError):
            dominance_constant(0.9, 0.9)


def _assert_oracle_complexity_is_inverse_epsilon(bias):
    """Criterion 4's instance (with the given oracle bias) and policy,
    geometric(1/1.02) batches, 20 replications at seeds [31, rep]: the
    log-log slope of the mean E||X - x*||^2 against budgets 2k..512k lies
    in [-1.1, -0.9], and each 4x budget adds 60 to 75 iterations.

    One run per replication to the largest budget: a run that a budget
    stops is the first iterates of the longer run, so that budget's X and
    k are those of the last row with oracle_calls <= budget."""
    prob = synthetic_build(20, mu=1.0, skew_norm=1.0, sigma=0.5, bias=bias,
                           seed=5)
    policy = RegimePolicy(regime="strongly_monotone", alpha=0.1)
    budgets = (2_000, 8_000, 32_000, 128_000, 512_000)
    cfg = SolverConfig(policy=policy,
                       batches=BatchSchedule.geometric(1.0 / 1.02),
                       max_oracle_calls=budgets[-1], record_residual=False)
    sq_errors, stops = [], []        # per replication, one entry per budget
    for rep in range(20):
        out, points = run_with_points(prob, "risfbf", cfg,
                                      np.random.default_rng([31, rep]))
        traj = out.trajectory
        rows = np.searchsorted(traj.oracle_calls, budgets, side="right") - 1
        sq_errors.append([np.sum((points[i] - prob.solution) ** 2)
                          for i in rows])
        stops.append([int(traj.k[i]) for i in rows])
    errors = [np.mean(per_budget) for per_budget in zip(*sq_errors)]
    assert all(s == stops[0] for s in stops)
    iterations = stops[0]
    assert iterations == [157, 223, 291, 361, 431]
    slope = float(np.polyfit(np.log(budgets), np.log(errors), 1)[0])
    assert -1.1 <= slope <= -0.9, slope
    assert all(60 <= b - a <= 75
               for a, b in zip(iterations, iterations[1:]))


def test_risfbf_oracle_complexity_is_inverse_epsilon():
    """Strongly monotone risfbf with geometric batches: E||X - x*||^2 falls
    like 1/N in the draw budget N (O(1/eps) oracle complexity) while the
    iterations grow like log N.

    Over base seeds 31..50 the log-log slope of the mean error against
    budgets 2k..512k ranged over [-1.016, -0.957] (mean -0.983, sd 0.018);
    the band [-1.1, -0.9] is the paper's -1, more than 4 sd from that mean
    on each side. The stopping iterations, 157, 223, 291, 361 and 431, were
    the same at every base seed, since the draws per step do not depend on
    the stream; the schedule predicts ln 4 / ln 1.02 = 70 more per 4x
    budget, and the band [60, 75] holds each measured step (66, 68, 70,
    70).
    """
    _assert_oracle_complexity_is_inverse_epsilon(bias=0.0)


def test_risfbf_oracle_complexity_is_inverse_epsilon_with_a_biased_oracle():
    """The same O(1/eps) law when every draw carries the bias 0.5, as the
    paper claims for biased oracles: over base seeds 31..50 the slope
    ranged over [-1.001, -0.978] (mean -0.988, sd 0.006), inside the same
    band [-1.1, -0.9] by more than 15 sd, and the stopping iterations were
    those of the unbiased case at every base seed.
    """
    _assert_oracle_complexity_is_inverse_epsilon(bias=0.5)


def test_risfbf_polynomial_batches_give_polynomial_rate():
    """Strongly monotone risfbf with polynomial(theta) batches: the mean
    E||X_k - x*||^2 falls like 1/k^theta, the paper's polynomial rate.

    Criterion 4's instance and policy, 400 iterations, 20 replications at
    seeds [base, rep]; the test runs base 31. Over base seeds 31..35 the
    log-log slope over k = 100..400 ranged over [-1.095, -0.966] at
    theta = 1, [-1.607, -1.478] at theta = 1.5 and [-2.119, -1.989] at
    theta = 2; each lies in the band [-theta - 0.25, -0.85 theta].

    The same means stay under the envelope c/k^theta of
    theory.poly_rate_constant, with c as `moninc bounds` prints it, at
    every k = 1..401: the peak of the mean over c/k^theta is 1.12e-3 at
    theta = 1, 1.92e-4 at theta = 1.5 and 3.46e-5 at theta = 2.
    """
    prob = synthetic_build(20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=5)
    policy = RegimePolicy(regime="strongly_monotone", alpha=0.1)
    mu, L_tilde = prob.strong_monotonicity, lipschitz_tilde(prob.lipschitz)
    alpha1, lam, _ = schedule(policy, prob.lipschitz, mu)(1)
    q = contraction_q(policy.a, policy.b, lam, mu, policy.alpha, L_tilde)
    B = noise_envelope_B(prob.oracle.variance_bound, policy.a, lam, L_tilde)
    ks = np.arange(100, 401)
    slopes = []
    for theta in (1.0, 1.5, 2.0):
        cfg = SolverConfig(policy=policy,
                           batches=BatchSchedule.polynomial(theta),
                           max_iters=400, record_residual=False)
        points = [run_with_points(prob, "risfbf", cfg,
                                  np.random.default_rng([31, rep]))[1]
                  for rep in range(20)]
        mean_sq = np.mean([[np.sum((x - prob.solution) ** 2) for x in row]
                           for row in points], axis=0)   # row k-1 is X_k
        slope = float(np.polyfit(np.log(ks), np.log(mean_sq[ks - 1]), 1)[0])
        assert -theta - 0.25 <= slope <= -0.85 * theta, (theta, slope)
        slopes.append(slope)
        # X_1 = 0 in every replication, so mean_sq[0] is bounds' dist1^2
        c = poly_rate_constant(q, theta, mean_sq[0], alpha1, policy.alpha, B)
        ratio = mean_sq * np.arange(1, len(mean_sq) + 1) ** theta / c
        assert np.all(ratio <= 1.0), (theta, ratio.max())
    assert slopes[0] > slopes[1] > slopes[2]


def test_risfbf_discrete_velocity_is_summable():
    """The discrete velocity v_k = E||X_{k+1} - X_k||^2 vanishes, as the
    paper claims: its partial sums stay bounded, and then k min_{i<=k} v_i
    falls toward 0, the o(1/k) that summability implies. On the same runs
    the iterates converge, the paper's first claim: the mean and the worst
    ||X_K - x*||^2 over the replications fall at each doubling of K.

    Criterion 6's instance under the asymptotic regime (alpha = 0.3,
    lam = 0.9/(4L)) with polynomial(1.01) batches, 2,000 iterations and 20
    replications at seeds [base, rep]; the test runs base 41. Over base
    seeds 41..48 the partial sums were 0.876-0.890, 0.950-0.967,
    0.988-1.007 and 1.000-1.020 at k = 250, 500, 1,000 and 2,000, and
    k min_{i<=k} v_i fell from 0.116-0.121 at k = 250 to 0.0083-0.0103 at
    k = 2,000. The mean ||X_K - x*||^2 was 0.545-0.563, 0.105-0.116,
    0.0124-0.0136 and 0.0021-0.0029 at K = 250, 500, 1,000 and 2,000, and
    the worst replication's 0.594-0.700, 0.132-0.164, 0.0160-0.0208 and
    0.0043-0.0070; each doubling kept at most 0.23 of the mean and 0.37
    of the worst, so the test asks that each keeps less than half.
    """
    prob = synthetic_build(20, mu=0.0, skew_norm=1.0, sigma=0.5, seed=7)
    policy = RegimePolicy(regime="asymptotic", alpha=0.3,
                          lam=0.9 / (4.0 * prob.lipschitz))
    cfg = SolverConfig(policy=policy, batches=BatchSchedule.polynomial(1.01),
                       max_iters=2000, record_residual=False)
    points = np.array([run_with_points(prob, "risfbf", cfg,
                                       np.random.default_rng([41, rep]))[1]
                       for rep in range(20)])   # points[rep, k-1] is X_k
    velocity = np.mean(np.sum(np.diff(points, axis=1) ** 2, axis=2),
                       axis=0)                  # entry k-1 is v_k
    ks = np.array([250, 500, 1000, 2000])
    sums = np.cumsum(velocity)[ks - 1]
    k_min = (np.arange(1, 2001) * np.minimum.accumulate(velocity))[ks - 1]
    assert 0.95 <= sums[-1] <= 1.10, sums
    # each doubling of k adds less than the one before, the last under 2%
    added = np.diff(sums)
    assert np.all(np.diff(added) < 0) and added[-1] < 0.02 * sums[-1], sums
    assert np.all(np.diff(k_min) < 0), k_min
    assert k_min[-1] <= 0.15 * k_min[0], k_min
    dist = np.sum((points[:, ks - 1] - prob.solution) ** 2, axis=2)
    for over_reps in (dist.mean(axis=0), dist.max(axis=0)):
        assert np.all(over_reps[1:] < 0.5 * over_reps[:-1]), over_reps
