import dataclasses
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import moninc.cli as cli
import moninc.harness as harness
import moninc.merit as merit
import moninc.policy as policy_mod
import moninc.problems as problems
import moninc.solvers as solvers
from moninc.core import BoxResolvent, BoxSet, NumericFailure
from moninc.merit import GapRegion, dual_gap_affine, energy_H
from moninc.oracle import BatchSchedule, StochasticOracle, batch_size
from moninc.policy import (PolicyViolation, RegimePolicy, lipschitz_tilde,
                           schedule_at)
from moninc.problems import cap_build, cournot_build, synthetic_build
from moninc.solvers import (METHODS, SolverConfig, init_state, proxpoint_step,
                            risfbf_step, run, sa_step, seg_step, sfbf_step)
from capture import run_with_points
from reference_oracles import NoiseModel, build_oracle
from reference_steps import (proxpoint_step_reference,
                             risfbf_step_fixedpoint_form,
                             risfbf_step_reference, sa_step_reference,
                             seg_step_reference)


def _noisy_problem(seed=3, sigma=0.5):
    return synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=sigma,
                           seed=seed)


def _zero_problem(dim=6):
    """V = 0 with a box constraint: only the resolvent acts."""
    oracle = build_oracle(lambda x: np.zeros(dim),
                          NoiseModel.gaussian(0.0), dim)
    box = BoxSet(np.full(dim, -1.0), np.full(dim, 1.0))
    return SimpleNamespace(oracle=oracle, resolvent=BoxResolvent(box),
                           lipschitz=0.0, strong_monotonicity=0.0,
                           feasible=box, solution=None,
                           rel_error_fn=None, affine_matrix=None,
                           affine_shift=None,
                           initial=lambda rng: rng.uniform(-3.0, 3.0, dim))


class TestSteps:
    def test_method_registry(self):
        assert METHODS == ("risfbf", "sfbf", "seg", "sa", "proxpoint")

    def test_zero_inertia_full_relaxation_reduces_to_sfbf_bitwise(self):
        prob = _noisy_problem()
        x0 = np.full(20, 0.7)
        s1 = init_state(x0, np.random.default_rng(5))
        s2 = init_state(x0, np.random.default_rng(5))
        for _ in range(50):
            risfbf_step(s1, prob, 0.0, 0.1, 1.0, 4)
            sfbf_step(s2, prob, 0.1, 4)
            assert np.array_equal(s1.X, s2.X)
        assert np.array_equal(s1.x_bar(), s2.x_bar())
        assert s1.oracle_calls == s2.oracle_calls == 50 * 8

    def test_vanishing_operator_reduces_to_proximal_point(self):
        prob = _zero_problem()
        x0 = np.array([2.0, -2.0, 0.5, 3.0, -0.1, 1.5])
        s1 = init_state(x0, np.random.default_rng(0))
        s2 = init_state(x0, np.random.default_rng(1))
        for _ in range(100):
            risfbf_step(s1, prob, 0.4, 0.2, 0.7, 3)
            proxpoint_step(s2, prob, 0.4, 0.2, 0.7)
            assert np.array_equal(s1.X, s2.X)
        assert s2.oracle_calls == 0

    def test_fixed_point_form_matches_to_roundoff(self):
        prob = _noisy_problem()
        x0 = np.zeros(20)
        s1 = init_state(x0, np.random.default_rng(11))
        s2 = init_state(x0, np.random.default_rng(11))
        worst = 0.0
        for _ in range(200):
            risfbf_step(s1, prob, 0.3, 0.1, 0.9, 2)
            risfbf_step_fixedpoint_form(s2, prob, 0.3, 0.1, 0.9, 2)
            worst = max(worst, float(np.max(np.abs(s1.X - s2.X))))
        assert worst <= 1e-12

    def test_oracle_call_accounting(self):
        prob = _noisy_problem()
        x0 = np.zeros(20)

        s = init_state(x0, np.random.default_rng(0))
        risfbf_step(s, prob, 0.1, 0.1, 0.9, 5)
        assert s.oracle_calls == 10

        s = init_state(x0, np.random.default_rng(0))
        sfbf_step(s, prob, 0.1, 5)
        seg_step(s, prob, 0.1, 5)
        assert s.oracle_calls == 20

        s = init_state(x0, np.random.default_rng(0))
        sa_step(s, prob, 1, 7)
        assert s.oracle_calls == 7

    def test_two_batches_drawn_at_extrapolation_then_trial_point(self):
        dim = 4
        log = []

        class _Recorder:
            mean = staticmethod(lambda x: np.zeros(dim))
            variance_bound = 0.0

            def batch(self, x, m, rng):
                log.append(np.array(x, dtype=np.float64))
                return np.zeros(dim)

        box = BoxSet(np.full(dim, -1.0), np.full(dim, 1.0))
        prob = SimpleNamespace(oracle=_Recorder(),
                               resolvent=BoxResolvent(box))
        s = init_state(np.full(dim, 2.0), np.random.default_rng(0))
        s.X_prev = np.zeros(dim)
        risfbf_step(s, prob, 0.5, 0.1, 0.9, 3)
        Z = np.full(dim, 3.0)            # X + 0.5 (X - X_prev)
        Y = np.full(dim, 1.0)            # box clips Z
        assert len(log) == 2
        np.testing.assert_array_equal(log[0], Z)
        np.testing.assert_array_equal(log[1], Y)

    def test_proxpoint_at_full_relaxation_is_the_resolvent(self):
        prob = _zero_problem()
        x0 = np.array([2.0, -2.0, 0.5, 0.3, -0.1, 1.5])
        s = init_state(x0, np.random.default_rng(0))
        s.X_prev = np.zeros(6)
        proxpoint_step(s, prob, 0.5, 0.2, 1.0)
        # X_2 = J(Z) with Z = X + 0.5 (X - X_prev); the box clips Z
        np.testing.assert_array_equal(s.X, np.clip(1.5 * x0, -1.0, 1.0))
        np.testing.assert_array_equal(s.x_bar(), s.X)

    def test_a_step_that_draws_nothing_keeps_negative_zero(self):
        # a correction Y + lam (0 - 0) would turn -0.0 into +0.0, which an
        # iterate digest sees
        x0 = np.array([-0.0, 0.5, -0.0, -0.5, 0.0, 0.25])
        s = init_state(x0, np.random.default_rng(0))
        risfbf_step(s, _zero_problem(), 0.0, 0.2, 1.0, 0, 0)
        assert s.X.tobytes() == x0.tobytes()

    def test_averaged_point_is_relaxation_weighted(self):
        prob = _noisy_problem(sigma=0.0)
        V = prob.oracle.mean
        J = prob.resolvent.apply
        lam = 0.1
        s = init_state(np.full(20, 0.5), np.random.default_rng(0))

        def expected_y(X, X_prev, alpha):
            Z = X + alpha * (X - X_prev)
            return J(Z - lam * V(Z), lam)

        y1 = expected_y(s.X, s.X_prev, 0.2)
        risfbf_step(s, prob, 0.2, lam, 0.7, 1)
        np.testing.assert_allclose(s.x_bar(), y1, atol=1e-15)

        y2 = expected_y(s.X, s.X_prev, 0.2)
        risfbf_step(s, prob, 0.2, lam, 0.3, 1)
        np.testing.assert_allclose(s.x_bar(), (0.7 * y1 + 0.3 * y2) / 1.0,
                                   atol=1e-15)

    def test_average_before_any_step_falls_back_to_iterate(self):
        s = init_state(np.arange(3.0), np.random.default_rng(0))
        np.testing.assert_array_equal(s.x_bar(), np.arange(3.0))


class TestRun:
    def _policy(self, **kw):
        base = dict(regime="strongly_monotone", alpha=0.1)
        base.update(kw)
        return RegimePolicy(**base)

    def test_unknown_method_rejected(self):
        prob = _noisy_problem()
        with pytest.raises(ValueError, match="unknown method"):
            run(prob, "sgd", SolverConfig(max_iters=5))

    def test_missing_stop_rule_rejected(self):
        with pytest.raises(ValueError, match="stop rule"):
            solvers.check_method("sfbf", SolverConfig(lam=0.1))

    def test_a_residual_target_alone_is_not_a_stop_rule(self, monkeypatch):
        steps = []
        real = solvers.risfbf_step

        def bounded(*args):
            steps.append(1)
            assert len(steps) <= 1000, "no stop rule fired"
            return real(*args)

        monkeypatch.setattr(solvers, "risfbf_step", bounded)
        with pytest.raises(ValueError,
                           match="set max_iters or max_oracle_calls"):
            run(_noisy_problem(), "sfbf",
                SolverConfig(residual_target=1e-300),
                np.random.default_rng(0))
        assert steps == []

    @pytest.mark.parametrize("name", ["max_iters", "max_oracle_calls"])
    def test_budgets_must_be_positive(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            SolverConfig(lam=0.1, **{name: 0})

    def test_inertial_methods_require_policy(self):
        prob = _noisy_problem()
        for method in ("risfbf", "proxpoint"):
            with pytest.raises(ValueError, match="RegimePolicy"):
                run(prob, method, SolverConfig(max_iters=5, lam=0.1))

    def test_a_method_that_draws_nothing_needs_a_stop_it_can_meet(
            self, monkeypatch):
        steps = []
        real = solvers.risfbf_step

        def bounded(*args):
            steps.append(1)
            assert len(steps) <= 1000, "no stop rule fired"
            return real(*args)

        monkeypatch.setattr(solvers, "risfbf_step", bounded)
        prob, pol = _noisy_problem(), self._policy()
        with pytest.raises(ValueError, match="proxpoint draws nothing"):
            run(prob, "proxpoint", SolverConfig(policy=pol,
                                                max_oracle_calls=100),
                np.random.default_rng(0))
        assert steps == []
        out = run(prob, "proxpoint", SolverConfig(
            policy=pol, max_iters=7, max_oracle_calls=100),
            np.random.default_rng(0))
        assert (out.stopped_by, out.iterations, out.oracle_calls) \
            == ("max_iters", 8, 0)
        assert len(steps) == 7

    def test_strict_mode_escalates_policy_diagnostics(self):
        prob = _noisy_problem()
        bad = self._policy(lam=10.0)     # far above every step-size cap
        cfg = SolverConfig(policy=bad, max_iters=3, strict=True)
        with pytest.raises(PolicyViolation):
            run(prob, "risfbf", cfg, np.random.default_rng(0))
        soft = run(prob, "risfbf", SolverConfig(policy=bad, max_iters=3),
                   np.random.default_rng(0))
        assert len(soft.diagnostics) == 1
        assert soft.diagnostics[0].startswith("lam = 10 exceeds lambda_strong")
        clean = run(prob, "risfbf",
                    SolverConfig(policy=self._policy(), max_iters=3),
                    np.random.default_rng(0))
        assert clean.diagnostics == ()

    def test_policy_hypotheses_are_checked_once_per_run(self, monkeypatch):
        calls = []
        real = policy_mod._require
        monkeypatch.setattr(policy_mod, "_require",
                            lambda *a: calls.append(a) or real(*a))
        out = run(_noisy_problem(), "risfbf",
                  SolverConfig(policy=self._policy(), max_iters=50),
                  np.random.default_rng(0))
        assert out.iterations == 51
        assert len(calls) == 1

    def test_fatal_policy_raises_before_any_draw(self):
        class NoMean(StochasticOracle):
            def batch(self, x, m, rng):
                raise AssertionError("batch called")

        prob = dataclasses.replace(_noisy_problem(), oracle=NoMean())
        # a step above 1/(4L) breaks a hypothesis only the problem can check
        pol = RegimePolicy(regime="asymptotic", alpha=0.1,
                           lam=0.3 / prob.lipschitz)
        with pytest.raises(PolicyViolation, match=re.escape("1/(4L)")):
            run(prob, "risfbf", SolverConfig(policy=pol, max_iters=5),
                np.random.default_rng(0))

    def test_numeric_failure_names_method_iteration_batch_and_norm(self):
        class FailsOnSixthBatch(StochasticOracle):
            """Finite until its sixth batch, which is non-finite."""
            calls = 0

            def batch(self, x, m, rng):
                self.calls += 1
                return np.full(x.shape, np.nan if self.calls == 6 else 0.5)

        def problem():
            return SimpleNamespace(**{**vars(_zero_problem()),
                                      "oracle": FailsOnSixthBatch()})

        cfg = SolverConfig(lam=0.1, batches=BatchSchedule.constant(2),
                           max_iters=10, record_residual=False)
        with pytest.raises(NumericFailure) as info:
            run(problem(), "sfbf", cfg, np.random.default_rng(0))
        # two batches per iteration: the sixth is the B batch of k = 3
        match = re.fullmatch(r"sfbf at k=3, m_k=2, \|\|X\|\|=(\S+): "
                             r"minibatch estimate is non-finite",
                             str(info.value))
        assert match, str(info.value)
        assert isinstance(info.value.__cause__, NumericFailure)
        before = run(problem(), "sfbf", SolverConfig(
            lam=0.1, batches=BatchSchedule.constant(2), max_iters=2,
            record_residual=False), np.random.default_rng(0))
        assert float(match.group(1)) == pytest.approx(
            np.linalg.norm(before.X), rel=1e-5)
        # a failed run returns no RunResult, so its message keeps them
        pol = RegimePolicy(regime="strongly_monotone", alpha=0.1, lam=0.1)
        with pytest.raises(NumericFailure, match=re.escape(
                "non-finite; policy diagnostics: strongly_monotone regime "
                "without a positive mu")):
            run(problem(), "sfbf", dataclasses.replace(cfg, policy=pol),
                np.random.default_rng(0))

    @pytest.mark.parametrize("rep, k", [(0, 1060), (2, 1012)])
    def test_divergence_is_one_numeric_failure_without_warnings(self, rep, k):
        # alpha = 0.1 at rho = 1 on the merely monotone group lasso blows up
        prob = cap_build(seed=0)
        pol = RegimePolicy(regime="custom", alpha=0.1, rho=1.0,
                           lam=1.0 / (4.0 * prob.lipschitz))
        cfg = SolverConfig(policy=pol, max_iters=3000)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericFailure) as info:
                run(prob, "risfbf", cfg, np.random.default_rng([0, rep]))
        assert caught == []
        assert str(info.value).startswith(f"risfbf at k={k}, m_k=1, ")
        assert "overflow" in str(info.value)
        assert isinstance(info.value.__cause__, FloatingPointError)

    def test_diverged_iterate_norm_is_reported_without_overflow(
            self, monkeypatch):
        # a step far above lambda_strong diverges; at the failure X is
        # finite (max |x_i| ~ 7.7e153) while x.x has overflowed
        prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.5,
                               seed=5)
        pol = RegimePolicy(regime="strongly_monotone", alpha=0.1, lam=1e6)
        states = []
        step = solvers.risfbf_step
        monkeypatch.setattr(solvers, "risfbf_step",
                            lambda state, *a: states.append(state)
                            or step(state, *a))
        with pytest.raises(NumericFailure) as info:
            run(prob, "risfbf", SolverConfig(policy=pol, max_iters=5000),
                np.random.default_rng([0, 0]))
        # the last step made X_565, and recording its row overflowed: k and
        # ||X|| name that one iterate
        X = states[-1].X
        assert states[-1].k == 565
        top = np.max(np.abs(X))
        assert np.isfinite(top)
        want = top * np.linalg.norm(X / top)
        assert f"risfbf at k=565, m_k=1, ||X||={want:.6g}: " in str(info.value)
        assert np.isfinite(want)

    @pytest.mark.parametrize("target", [None, 1e-12])
    def test_numeric_failure_names_the_batch_of_the_step_from_x_k(self,
                                                                  target):
        # lam = 0.05 diverges on this game; with a target the overflow comes
        # while X_238's residual is taken, without one in the step from it
        cfg = SolverConfig(lam=0.05, batches=BatchSchedule.polynomial(1.0),
                           max_iters=5000, residual_target=target)
        with pytest.raises(NumericFailure, match=re.escape(
                "sfbf at k=238, m_k=238, ")):
            run(cournot_build(100), "sfbf", cfg, np.random.default_rng(0))

    def test_iteration_budget_and_row_indexing(self):
        prob = _noisy_problem()
        cfg = SolverConfig(policy=self._policy(), max_iters=25,
                           record_stride=10)
        out, points = run_with_points(prob, "risfbf", cfg,
                                      np.random.default_rng(0))
        assert out.stopped_by == "max_iters"
        assert out.iterations == 26            # 1-indexed final iterate
        assert list(out.trajectory.k) == [1, 11, 21, 26]
        np.testing.assert_array_equal(points[-1], out.X)

    def test_oracle_budget_never_overspent(self):
        prob = _noisy_problem()
        cfg = SolverConfig(policy=self._policy(),
                           batches=BatchSchedule.polynomial(1.5),
                           max_oracle_calls=1000, max_iters=10**6)
        out = run(prob, "risfbf", cfg, np.random.default_rng(0))
        assert out.stopped_by == "max_oracle_calls"
        assert out.oracle_calls <= 1000
        # the next step would have burst the budget
        k = out.iterations
        assert out.oracle_calls + 2 * int(k ** 1.5) > 1000

    def test_residual_target_stop(self):
        prob = _noisy_problem(sigma=0.0)
        cfg = SolverConfig(policy=self._policy(), residual_target=1e-6,
                           max_iters=10**6)
        out = run(prob, "risfbf", cfg, np.random.default_rng(0))
        assert out.stopped_by == "residual_target"
        assert out.trajectory.residual[-1] <= 1e-6
        # solved for real, not just flagged
        from moninc.merit import residual as fp_residual
        assert fp_residual(prob, out.X, 0.1) <= 1e-5

    def test_residual_target_needs_the_residual_recorded(self):
        # the stop rule reads the residual column; without it nothing stops
        with pytest.raises(ValueError, match="record_residual"):
            SolverConfig(policy=self._policy(), residual_target=1e-3,
                          record_residual=False, max_iters=50)

    def test_gap_column_is_the_dual_gap_at_each_recorded_point(self):
        prob = synthetic_build(dim=6, mu=0.0, skew_norm=1.0, sigma=0.3,
                               seed=2)
        region = GapRegion(np.zeros(6), 3.0, geometry=prob.feasible)
        pol = RegimePolicy(regime="monotone_gap", alpha=0.1,
                           lam=0.25 / prob.lipschitz)
        cfg = SolverConfig(policy=pol, max_iters=12, record_stride=5,
                           gap_region=region)
        out, points = run_with_points(prob, "risfbf", cfg,
                                      np.random.default_rng(4))
        traj = out.trajectory
        assert list(traj.k) == [1, 6, 11, 13]
        assert list(traj.gap) == [dual_gap_affine(prob, x, region)
                                  for x in points]
        assert np.all(np.isfinite(traj.gap))
        # nan without a region, and without an affine mean
        no_region = dataclasses.replace(cfg, gap_region=None)
        assert np.all(np.isnan(run(prob, "risfbf", no_region,
                                   np.random.default_rng(4)).trajectory.gap))
        cournot = cournot_build(100)
        box_region = GapRegion(np.zeros(cournot.detail.n), 1.0)
        out = run(cournot, "sfbf", SolverConfig(max_iters=5,
                                                 gap_region=box_region),
                  np.random.default_rng(4))
        assert np.all(np.isnan(out.trajectory.gap))

    def test_baseline_step_default_is_quarter_inverse_lipschitz(self):
        prob = _noisy_problem()
        cfg = SolverConfig(max_iters=30)
        out = run(prob, "sfbf", cfg, np.random.default_rng(7))
        cfg2 = SolverConfig(max_iters=30, lam=1.0 / (4.0 * prob.lipschitz))
        out2 = run(prob, "sfbf", cfg2, np.random.default_rng(7))
        np.testing.assert_array_equal(out.X, out2.X)

    def test_sa_uses_single_draws_by_default(self):
        prob = _noisy_problem()
        cfg = SolverConfig(max_iters=40)
        out = run(prob, "sa", cfg, np.random.default_rng(0))
        assert out.oracle_calls == 40

    def test_replications_with_same_seed_are_identical(self):
        prob = _noisy_problem()
        cfg = SolverConfig(policy=self._policy(), max_iters=50)
        a = run(prob, "risfbf", cfg, np.random.default_rng(42))
        b = run(prob, "risfbf", cfg, np.random.default_rng(42))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.trajectory.residual, b.trajectory.residual)
        c = run(prob, "risfbf", cfg, np.random.default_rng(43))
        assert not np.array_equal(a.X, c.X)

    def test_estimated_residual_flag_and_side_stream(self):
        prob = _noisy_problem()
        blind = SimpleNamespace(mean=None, batch=prob.oracle.batch,
                                variance_bound=prob.oracle.variance_bound)
        masked = dataclasses.replace(prob, oracle=blind)
        cfg = SolverConfig(policy=self._policy(), max_iters=20)
        out = run(masked, "risfbf", cfg, np.random.default_rng(9))
        assert out.trajectory.residual_estimated
        exact = run(prob, "risfbf",
                    SolverConfig(policy=self._policy(), max_iters=20),
                    np.random.default_rng(9))
        assert not exact.trajectory.residual_estimated
        # same main-stream draws either way: iterates agree exactly
        np.testing.assert_array_equal(out.X, exact.X)
        # estimates track the exact residuals loosely
        np.testing.assert_allclose(out.trajectory.residual,
                                   exact.trajectory.residual, atol=0.05)

    def test_energy_rows_recorded_on_demand(self):
        prob = _noisy_problem(sigma=0.0)
        cfg = SolverConfig(policy=self._policy(), max_iters=30,
                           record_energy=True)
        out = run(prob, "risfbf", cfg, np.random.default_rng(0))
        H = out.trajectory.H_k
        assert np.isnan(H[0])            # undefined at the initial point
        assert np.all(np.isfinite(H[1:]))

    def test_large_problems_skip_point_storage(self):
        prob = synthetic_build(dim=300, mu=1.0, skew_norm=1.0, sigma=0.1,
                               seed=0)
        cfg = SolverConfig(policy=self._policy(), max_iters=10)
        out = run(prob, "risfbf", cfg, np.random.default_rng(0))
        # run() keeps the recorded rows and no iterate, whatever the size
        assert not hasattr(out.trajectory, "points")
        assert out.X.shape == (300,)

    @pytest.mark.parametrize("stride", [0, -3])
    def test_record_stride_must_be_positive(self, stride):
        with pytest.raises(ValueError, match="record_stride"):
            SolverConfig(lam=0.1, max_iters=5, record_stride=stride)

    @pytest.mark.parametrize("method", ["sfbf", "seg"])
    def test_energy_rows_use_the_parameters_of_the_step(self, method):
        # the baselines step with (0, lam, 1), not with the policy's own
        # (alpha_k, lam_k, rho_k); the policy only supplies the constant a
        prob = _noisy_problem()
        pol = self._policy(alpha=0.3)
        cfg = SolverConfig(policy=pol, lam=0.05, max_iters=20,
                           record_energy=True)
        out, points = run_with_points(prob, method, cfg,
                                      np.random.default_rng(0))
        L_tilde = lipschitz_tilde(prob.lipschitz)
        want = [np.nan] + [
            energy_H(points[i], points[i - 1], prob.solution, 0.0, 1.0,
                     0.05, L_tilde, pol.a) for i in range(1, len(points))]
        np.testing.assert_array_equal(out.trajectory.H_k, want)

    def test_sa_records_no_energy(self):
        # the 1/sqrt(k) step has no (alpha_k, lam_k, rho_k) for H_k to read
        cfg = SolverConfig(policy=self._policy(), max_iters=10,
                           record_energy=True)
        out = run(_noisy_problem(), "sa", cfg, np.random.default_rng(0))
        assert np.all(np.isnan(out.trajectory.H_k))

    def test_baseline_takes_the_policy_step_when_lam_is_unset(self):
        prob = _noisy_problem()
        pol = RegimePolicy(regime="custom", alpha=0.0, lam=0.07, rho=1.0)
        out = run(prob, "sfbf", SolverConfig(policy=pol, max_iters=30),
                  np.random.default_rng(7))
        same = run(prob, "sfbf", SolverConfig(lam=0.07, max_iters=30),
                   np.random.default_rng(7))
        np.testing.assert_array_equal(out.X, same.X)
        default = run(prob, "sfbf", SolverConfig(max_iters=30),
                      np.random.default_rng(7))
        assert not np.array_equal(out.X, default.X)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_target_stop_records_the_residual_that_stopped_it(
            self, monkeypatch, seed):
        # with estimated residuals a second estimate of the last iterate
        # can land above the target that the first one met
        prob = synthetic_build(dim=6, mu=1.0, skew_norm=1.0, sigma=0.5,
                               seed=1)
        blind = SimpleNamespace(mean=None, batch=prob.oracle.batch,
                                variance_bound=prob.oracle.variance_bound)
        masked = dataclasses.replace(prob, oracle=blind)
        estimates = []
        real = merit.residual

        def spy(*args, **kwargs):
            estimates.append(real(*args, **kwargs))
            return estimates[-1]

        monkeypatch.setattr(merit, "residual", spy)
        cfg = SolverConfig(lam=0.05, residual_target=0.05, record_stride=7,
                           max_iters=10**4)
        out = run(masked, "sfbf", cfg, np.random.default_rng(seed))
        assert out.stopped_by == "residual_target"
        assert (out.iterations - 1) % 7 != 0   # the last row is off-stride
        assert out.trajectory.residual[-1] <= 0.05
        assert out.trajectory.residual[-1] == estimates[-1]
        assert len(estimates) == out.iterations  # one per k = 1..K

    @pytest.mark.parametrize("stop, kw", [
        ("max_iters", dict(max_iters=30)),
        ("max_oracle_calls", dict(max_oracle_calls=700, max_iters=10**6)),
        ("residual_target", dict(residual_target=1e-3, max_iters=10**4))])
    def test_each_iteration_evaluates_each_input_once(self, monkeypatch,
                                                      stop, kw):
        counts = dict.fromkeys(("law", "residual", "batch_size", "rel_error"),
                               0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        schedule = policy_mod.schedule
        monkeypatch.setattr(policy_mod, "schedule",
                            lambda *a: counting("law", schedule(*a)))
        monkeypatch.setattr(merit, "residual",
                            counting("residual", merit.residual))
        monkeypatch.setattr(solvers, "batch_size",
                            counting("batch_size", solvers.batch_size))
        prob = _noisy_problem(sigma=0.0)
        prob = dataclasses.replace(
            prob, rel_error_fn=counting("rel_error", prob.rel_error_fn))
        cfg = SolverConfig(policy=self._policy(),
                           batches=BatchSchedule.polynomial(1.2),
                           record_stride=7, record_energy=True, **kw)
        out = run(prob, "risfbf", cfg, np.random.default_rng(0))
        K, rows = out.iterations, len(out.trajectory.k)
        assert out.stopped_by == stop
        assert (K - 1) % 7 != 0                # the last row is off-stride
        assert counts == {
            "law": K,                          # once per k = 1..K
            "residual": K if stop == "residual_target" else rows,
            "batch_size": K,
            "rel_error": rows}


STEP_NAMES = ("risfbf_step", "sfbf_step", "seg_step", "sa_step",
              "proxpoint_step")


def _table_case(problem, method):
    """A policy run for the inertial methods, an explicit step otherwise."""
    lam = 0.25 / problem.lipschitz
    pol = RegimePolicy(regime="monotone_gap", alpha=0.2, lam=lam)
    return SolverConfig(
        policy=pol if method in ("risfbf", "proxpoint") else None, lam=lam,
        batches=BatchSchedule.polynomial(1.3), max_iters=25,
        max_oracle_calls=320)


BATCHES_PER_ITERATION = {"risfbf": 2, "sfbf": 2, "seg": 2, "sa": 1,
                         "proxpoint": 0}


def _reference_run(problem, method, cfg, seed):
    """run() written out with the separate kernels of reference_steps."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**63 - 1)           # run() draws the eval seed first
    state = init_state(problem.initial(rng), rng)
    L = problem.lipschitz
    mu = problem.strong_monotonicity or None
    for k in range(1, cfg.max_iters + 1):
        m = batch_size(cfg.batches, k)
        if state.oracle_calls + BATCHES_PER_ITERATION[method] * m \
                > cfg.max_oracle_calls:
            break
        if method == "risfbf":
            risfbf_step_reference(state, problem,
                                  *schedule_at(cfg.policy, k, L, mu), m)
        elif method == "sfbf":
            risfbf_step_reference(state, problem, 0.0, cfg.lam, 1.0, m)
        elif method == "seg":
            seg_step_reference(state, problem, cfg.lam, m)
        elif method == "sa":
            sa_step_reference(state, problem, k, m)
        else:
            proxpoint_step_reference(state, problem,
                                     *schedule_at(cfg.policy, k, L, mu))
    return state


class TestMethodTable:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("build", [
        lambda: _noisy_problem(sigma=0.3), lambda: cournot_build(100)],
        ids=["synthetic", "cournot"])
    def test_run_matches_direct_kernel_loop_bitwise(self, build, method):
        prob = build()
        cfg = _table_case(prob, method)
        out = run(prob, method, cfg, np.random.default_rng(17))
        ref = _reference_run(prob, method, cfg, 17)
        assert out.iterations == ref.k
        # bytes, not values: a digest also sees -0.0 against +0.0
        assert out.X.tobytes() == ref.X.tobytes()
        assert out.X_bar.tobytes() == ref.x_bar().tobytes()
        assert out.oracle_calls == ref.oracle_calls

    @pytest.mark.parametrize("method", METHODS)
    def test_patched_kernel_sees_every_iteration(self, monkeypatch, method):
        counts = dict.fromkeys(STEP_NAMES, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in STEP_NAMES:
            monkeypatch.setattr(solvers, name,
                                counting(name, getattr(solvers, name)))
        prob = _noisy_problem()
        out = run(prob, method, _table_case(prob, method),
                  np.random.default_rng(0))
        # every method runs the one kernel directly, never through its
        # named delegate, so a tracer wrapping all five counts each step once
        assert counts == {name: (out.iterations - 1
                                 if name == "risfbf_step" else 0)
                          for name in STEP_NAMES}

    def test_traced_names_stay_module_attributes(self):
        # perfbench/tracing.py wraps these by name, so each must stay an
        # attribute of its module that the code calls through
        traced = {
            solvers: STEP_NAMES + ("minibatch_estimate", "batch_size",
                                   "run"),
            policy_mod: ("schedule_at", "validate"),
            merit: ("minibatch_estimate", "residual", "dual_gap_affine",
                    "energy_H"),
            problems: ("cap_apply_L", "cap_apply_L_adjoint"),
            harness: ("run", "run_experiment"),
            harness.ExperimentConfig: ("build_problem",),
            cli: ("compare",),
        }
        for owner, names in traced.items():
            for name in names:
                assert callable(getattr(owner, name)), (owner, name)


class TestConvergenceSmoke:
    """Coarse end-to-end sanity at tiny budgets; the acceptance suite holds
    the calibrated comparisons."""

    def test_all_methods_shrink_the_residual(self):
        prob = _noisy_problem(sigma=0.2)
        pol = RegimePolicy(regime="strongly_monotone", alpha=0.1)
        batches = BatchSchedule.polynomial(1.2)
        for method in METHODS:
            cfg = SolverConfig(
                policy=pol if method in ("risfbf", "proxpoint") else None,
                batches=batches, max_iters=300)
            out = run(prob, method, cfg, np.random.default_rng(1))
            first = out.trajectory.residual[0]
            last = out.trajectory.residual[-1]
            if method == "proxpoint":
                # no operator information: just must not blow up
                assert last <= first + 1e-12
            else:
                assert last < 0.1 * first, method
