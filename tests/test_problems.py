import warnings

import numpy as np
import pytest

import moninc.problems as problems
from moninc.core import BallSet, BoxSet
from moninc.merit import residual
from moninc.oracle import minibatch_estimate
from moninc.problems import (
    CournotInstance,
    cap_apply_L,
    cap_apply_L_adjoint,
    cap_build,
    cournot_build,
    cournot_mean,
    expected_min_uniform,
    synthetic_build,
)
from reference_core import BallResolvent, resolvent_product
from reference_oracles import explicit_cap_batch
from reference_problems import (cournot_batch_in_one_draw,
                                cournot_oracle_sample, extragradient_sweep)


def _dim(prob):
    """The dimension of the problem's iterates."""
    return prob.initial(np.random.default_rng(0)).shape[0]


def _single_firm():
    return CournotInstance(n=1, r=0.1, d=1.0, a=np.array([2.0]),
                           b_hat=np.array([3.0]), eps=1.0,
                           box=BoxSet(np.zeros(1), np.array([10.0])))


_COURNOT_GRID = [(box_upper, L, seed) for box_upper in (10.0, 0.3)
                 for L in (10.0, 100.0, 1000.0) for seed in range(3)]


class TestCournot:
    def test_single_firm_sample_value(self):
        inst = _single_firm()
        v = cournot_oracle_sample(inst, np.array([1.0]), np.array([-0.5]))
        # 3*1 + 2 + 0.1*(1+1) - 1 + min(1, -0.5) = 4.2 - 0.5
        assert v[0] == pytest.approx(3.7, abs=1e-12)
        # same point in expectation: E[min(1, h)] = -2.5
        assert cournot_mean(inst, np.array([1.0]))[0] == pytest.approx(1.7)

    def test_expected_min_closed_form(self):
        assert expected_min_uniform(0.0) == pytest.approx(-2.5)
        assert expected_min_uniform(-2.5) == pytest.approx(-3.125)
        assert expected_min_uniform(-7.0) == pytest.approx(-7.0)
        assert expected_min_uniform(3.0) == pytest.approx(-2.5)

    def test_expected_min_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        h = rng.uniform(-5.0, 0.0, size=200_000)
        for c in (-4.0, -1.0, 0.3, 2.0):
            mc = np.minimum(c, h).mean()
            assert expected_min_uniform(c) == pytest.approx(mc, abs=5e-3)

    def test_build_decomposes_lipschitz_budget(self):
        prob = cournot_build(100.0, seed=0)
        inst = prob.detail
        assert inst.n == 10 and inst.r == 0.1 and inst.d == 1.0
        assert inst.eps == pytest.approx(0.1)          # 10 / L_V
        assert inst.b_hat[0] == pytest.approx(88.9)    # L_V - 1.1 - 10
        assert np.all(inst.b_hat[1:] <= inst.b_hat[0])
        assert np.all((2.0 <= inst.a) & (inst.a <= 3.0))
        assert prob.lipschitz == pytest.approx(100.0)
        assert prob.strong_monotonicity == pytest.approx(
            np.min(inst.b_hat) + inst.r)

    def test_build_smaller_target(self):
        inst = cournot_build(10.0, seed=1).detail
        assert inst.eps == pytest.approx(1.0)
        assert inst.b_hat[0] == pytest.approx(7.9)

    def test_build_rejects_infeasible_target(self):
        # L_R + L_D alone exceed the target below ~1.222
        with pytest.raises(ValueError):
            cournot_build(1.2)

    def test_oracle_mean_agrees_with_monte_carlo(self):
        prob = cournot_build(100.0, seed=0)
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 1.0, 10)
        n_draws = 40_000
        draws = prob.oracle.batch(x, n_draws, rng)
        exact = prob.oracle.mean(x)
        sd = prob.oracle.variance_bound / np.sqrt(n_draws)
        assert np.linalg.norm(draws - exact) <= 3.0 * sd

    @pytest.mark.parametrize("m", [1, 3, 4, 5, 9])
    def test_batch_draws_its_shocks_in_bounded_blocks(self, monkeypatch, m):
        # blocks of 4 rows: m <= 4 is one block and stays bitwise the
        # single draw; a larger m sums its block sums in order
        monkeypatch.setattr(problems, "_SHOCK_ROWS", 4)
        prob = cournot_build(100.0, seed=0)
        x = np.random.default_rng(3).uniform(-0.2, 1.0, 10)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = prob.oracle.batch(x, m, rng)
        want = cournot_batch_in_one_draw(prob.detail, x, m, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if m <= 4:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_oracle_is_monotone_on_sample_pairs(self):
        prob = cournot_build(100.0, seed=0)
        V = prob.oracle.mean
        rng = np.random.default_rng(6)
        for _ in range(200):
            x, y = rng.uniform(0.0, 10.0, size=(2, 10))
            assert (V(x) - V(y)) @ (x - y) >= -1e-10

    def test_oracle_respects_lipschitz_bound(self):
        prob = cournot_build(100.0, seed=0)
        V = prob.oracle.mean
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(200):
            x, y = rng.uniform(0.0, 10.0, size=(2, 10))
            num = np.linalg.norm(V(x) - V(y))
            den = np.linalg.norm(x - y)
            worst = max(worst, num / den)
        assert worst <= prob.lipschitz * (1 + 1e-9)

    def test_game_is_affine_plus_additive_noise_on_the_box(self):
        # x >= 0 and h < 0 give min(x/eps, h) = h, so the recourse never
        # binds on the box: the mean is A x + a - d - 2.5 with
        # A = diag(b_hat) + r (11^T + I), and the noise is the same at
        # every feasible x
        prob = cournot_build(100.0, seed=0)
        inst = prob.detail
        A = np.diag(inst.b_hat) + inst.r * (np.ones((10, 10)) + np.eye(10))
        assert np.linalg.norm(A, 2) == pytest.approx(89.10, abs=5e-3)
        np.testing.assert_array_equal(prob.affine_matrix, A)
        np.testing.assert_array_equal(prob.affine_shift,
                                      inst.a - inst.d - 2.5)
        rng = np.random.default_rng(8)
        box = inst.box
        for x in rng.uniform(box.lower, box.upper, size=(1000, 10)):
            np.testing.assert_allclose(
                cournot_mean(inst, x),
                prob.affine_matrix @ x + prob.affine_shift,
                rtol=0.0, atol=1e-11)
        x, y = rng.uniform(box.lower, box.upper, size=(2, 10))
        noise = [prob.oracle.batch(z, 7, np.random.default_rng(9))
                 - prob.oracle.mean(z) for z in (x, y)]
        np.testing.assert_allclose(noise[0], noise[1], rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("box_upper", [10.0, 0.3])
    @pytest.mark.parametrize("L", [10.0, 100.0, 1000.0])
    def test_solution_meets_ref_tol(self, L, box_upper):
        for seed in range(3):
            prob = cournot_build(L, seed=seed, box_upper=box_upper)
            x = prob.solution
            assert residual(prob, x, 1.0 / (4.0 * prob.lipschitz)) <= 1e-12
            assert prob.feasible is prob.resolvent.box
            assert prob.rel_error_fn(2.0 * x) == pytest.approx(1.0)

    def test_an_interior_solution_is_the_affine_root(self):
        # the polish at sweep 500 solves A x = -c with every coordinate
        # free, so an interior x* is that solve to the last bit
        interior = 0
        for box_upper, L, seed in _COURNOT_GRID:
            prob = cournot_build(L, seed=seed, box_upper=box_upper)
            x, box = prob.solution, prob.feasible
            if np.all((box.lower < x) & (x < box.upper)):
                interior += 1
                np.testing.assert_array_equal(
                    x, -np.linalg.solve(prob.affine_matrix,
                                        prob.affine_shift))
        assert interior == 14

    def test_a_solution_on_a_bound_matches_the_sweep(self):
        # with capacities capped at 0.3 some firms sit at the cap
        built = [cournot_build(L, seed=seed, box_upper=0.3)
                 for L, seed in ((10.0, 0), (10.0, 1), (10.0, 2), (100.0, 0))]
        swept = extragradient_sweep(built, tol=1e-12)
        for prob, ref in zip(built, swept):
            assert np.any(prob.solution == 0.3)
            assert np.linalg.norm(prob.solution - ref) <= 1e-9

    def test_initial_point_sampler_uses_unit_cube(self):
        prob = cournot_build(100.0, seed=0)
        x0 = prob.initial(np.random.default_rng(0))
        assert x0.shape == (10,)
        assert np.all((0.0 <= x0) & (x0 <= 1.0))


class TestCap:
    def test_dimensions_and_overlapping_groups(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        assert inst.d == 82
        assert inst.dual_dim == 100
        starts = [g[0] for g in inst.groups]
        assert starts == [0, 8, 16, 24, 32, 40, 48, 56, 64, 72]
        assert all(len(g) == 10 for g in inst.groups)
        # consecutive groups share exactly two coordinates
        for g, h in zip(inst.groups, inst.groups[1:]):
            assert len(np.intersect1d(g, h)) == 2

    def test_ground_truth_support(self):
        inst = cap_build(seed=0).detail
        support = np.nonzero(inst.w_true)[0]
        expected = np.arange(24, 42)   # union of the fourth and fifth groups
        np.testing.assert_array_equal(support, expected)

    def test_coupling_adjoint_identity(self):
        inst = cap_build(seed=0).detail
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.standard_normal(inst.d)
            v = rng.standard_normal(inst.dual_dim)
            lhs = cap_apply_L(inst, w) @ v
            rhs = w @ cap_apply_L_adjoint(inst, v)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_mean_operator_at_ground_truth(self):
        # with w = w_true and v = 0 the primal block of the mean vanishes
        prob = cap_build(seed=0)
        inst = prob.detail
        z = np.concatenate([inst.w_true, np.zeros(inst.dual_dim)])
        g = prob.oracle.mean(z)
        np.testing.assert_allclose(g[:inst.d], 0.0, atol=1e-12)
        np.testing.assert_allclose(g[inst.d:],
                                   -cap_apply_L(inst, inst.w_true),
                                   atol=1e-12)

    def test_mean_agrees_with_monte_carlo(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        rng = np.random.default_rng(2)
        z = np.concatenate([inst.w_true + 0.3 * rng.standard_normal(inst.d),
                            0.1 * rng.standard_normal(inst.dual_dim)])
        n_draws = 60_000
        est = prob.oracle.batch(z, n_draws, rng)
        exact = prob.oracle.mean(z)
        err = np.linalg.norm(est - exact)
        # crude 3-sigma gate from the oracle's declared variance bound
        assert err <= 3.0 * prob.oracle.variance_bound / np.sqrt(n_draws)

    def test_saddle_map_is_monotone(self):
        prob = cap_build(seed=0)
        V = prob.oracle.mean
        rng = np.random.default_rng(3)
        for _ in range(100):
            z1, z2 = rng.standard_normal((2, _dim(prob)))
            assert (V(z1) - V(z2)) @ (z1 - z2) >= -1e-10

    def test_relative_error_callback(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        z = np.concatenate([inst.w_true, np.ones(inst.dual_dim)])
        assert prob.rel_error_fn(z) == pytest.approx(0.0, abs=1e-15)
        z2 = np.concatenate([2.0 * inst.w_true, np.zeros(inst.dual_dim)])
        assert prob.rel_error_fn(z2) == pytest.approx(1.0)

    def test_lipschitz_and_ball_radius(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        # weak coupling keeps the spectral norm pinned at the identity block
        assert prob.lipschitz == pytest.approx(1.0, abs=1e-6)
        assert inst.D == pytest.approx(10.0 * np.linalg.norm(inst.w_true))
        assert cap_build(seed=0, ball_radius=3.0).detail.D == 3.0

    @pytest.mark.parametrize("shape", [
        {}, dict(overlap=0), dict(overlap=5, eta=0.5),
        dict(n_groups=3, group_size=4, overlap=3, eta=2.0), dict(eta=1.0)])
    def test_lipschitz_is_the_exact_spectral_norm(self, shape):
        prob = cap_build(seed=0, **shape)
        exact = np.linalg.norm(prob.affine_matrix, 2)
        assert abs(prob.lipschitz - exact) <= 4 * np.spacing(exact)

    @pytest.mark.parametrize("shape", [(10, 10, 2), (4, 5, 1), (3, 6, 0)])
    def test_coupling_maps_equal_a_per_group_loop_bitwise(self, shape):
        n_groups, group_size, overlap = shape
        inst = cap_build(seed=1, n_groups=n_groups, group_size=group_size,
                         overlap=overlap).detail
        rng = np.random.default_rng(4)
        for _ in range(200):
            w = rng.standard_normal(inst.d) * rng.uniform(0.0, 1e3)
            v = rng.standard_normal(inst.dual_dim) * rng.uniform(0.0, 1e3)
            stacked = np.concatenate([inst.eta * w[g] for g in inst.groups])
            scattered = np.zeros(inst.d)
            pos = 0
            for g in inst.groups:
                scattered[g] += inst.eta * v[pos:pos + len(g)]
                pos += len(g)
            np.testing.assert_array_equal(cap_apply_L(inst, w), stacked)
            np.testing.assert_array_equal(cap_apply_L_adjoint(inst, v),
                                          scattered)

    def test_resolvent_equals_the_product_of_ball_projections(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        blocks = [(BallResolvent(BallSet(np.zeros(inst.d), inst.D)),
                   (0, inst.d))]
        pos = inst.d
        for g in inst.groups:
            blocks.append((BallResolvent(BallSet(np.zeros(len(g)), 1.0)),
                           (pos, pos + len(g))))
            pos += len(g)
        product = resolvent_product(blocks)
        rng = np.random.default_rng(5)
        zero = np.zeros(_dim(prob))
        np.testing.assert_array_equal(prob.resolvent.apply(zero, 0.1), zero)
        for _ in range(500):
            z = rng.standard_normal(_dim(prob))
            # inside every ball: the identity, exactly
            inside = z / (1.0 + np.linalg.norm(z))
            np.testing.assert_array_equal(prob.resolvent.apply(inside, 0.1),
                                          product.apply(inside, 0.1))
            # outside some or all balls: scaled by norms summed in another
            # order, so equal up to rounding
            outside = z * rng.choice([1.0, 10.0, 1e3], size=_dim(prob))
            got = prob.resolvent.apply(outside, 0.1)
            want = product.apply(outside, 0.1)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_batch_at_the_ground_truth_is_finite(self):
        prob = cap_build(seed=0)
        inst = prob.detail
        z = np.concatenate([inst.w_true, np.zeros(inst.dual_dim)])
        rng = np.random.default_rng(6)
        for m in (1, 2, 50, 10**6):
            assert np.all(np.isfinite(prob.oracle.batch(z, m, rng)))


def _cap_noise_moments(sample, z, m, direction, mean, n_draws, seed):
    """Per-draw statistics of the primal noise n = batch - mean(z)."""
    rng = np.random.default_rng(seed)
    d = direction.shape[0]
    est = np.array([sample(z, m, rng) for _ in range(n_draws)])
    # the dual part -L w is exact
    np.testing.assert_array_equal(est[:, d:], np.broadcast_to(
        mean[d:], (n_draws, mean.shape[0] - d)))
    noise = est[:, :d] - mean[:d]
    sq = np.einsum("ij,ij->i", noise, noise)
    along = noise @ direction
    return {"coords": noise, "|n|^2": sq, "|n|^4": sq * sq,
            "var along u": along ** 2, "third moment along u": along ** 3}


@pytest.mark.parametrize("m", [1, 7, 200])
@pytest.mark.parametrize("at_truth", [False, True], ids=["u!=0", "u=0"])
def test_cap_sampler_has_the_law_of_the_explicit_sampler(m, at_truth):
    """The O(d) group-lasso sampler against the (m, d) block it replaces.

    Each moment is compared as a two-sample difference in units of its
    standard error, and E||n||^2 also against ((d+1)||u||^2 + d sigma^2)/m.
    """
    prob = cap_build(seed=0)
    inst = prob.detail
    rng = np.random.default_rng(7)
    w = inst.w_true.copy()
    if not at_truth:
        w += 0.3 * rng.standard_normal(inst.d)
    z = np.concatenate([w, 0.5 * rng.standard_normal(inst.dual_dim)])
    u = w - inst.w_true
    # the noise is isotropic at u = 0, so any direction serves there
    direction = rng.standard_normal(inst.d) if at_truth else u
    direction = direction / np.linalg.norm(direction)
    mean = prob.oracle.mean(z)
    n_draws = 10_000 if m < 100 else 4_000   # the reference costs O(m d)
    new = _cap_noise_moments(prob.oracle.batch, z, m, direction, mean,
                             n_draws, seed=8)
    ref = _cap_noise_moments(
        lambda zz, mm, r: explicit_cap_batch(inst, zz, mm, r), z, m,
        direction, mean, n_draws, seed=9)
    tol = 5.0   # standard errors

    def mean_and_se(x):
        return x.mean(axis=0), x.std(axis=0, ddof=1) / np.sqrt(n_draws)

    for name in new:
        (a, se_a), (b, se_b) = mean_and_se(new[name]), mean_and_se(ref[name])
        assert np.all(np.abs(a - b) <= tol * np.hypot(se_a, se_b)), name
    expected = ((inst.d + 1) * (u @ u) + inst.d * inst.sigma_eps ** 2) / m
    for stats in (new, ref):
        a, se = mean_and_se(stats["|n|^2"])
        assert abs(a - expected) <= tol * se


class TestSynthetic:
    def test_reference_solution_has_tiny_residual(self):
        prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, sigma=0.0,
                               seed=5)
        from moninc.merit import residual
        assert residual(prob, prob.solution, 0.1) <= 1e-10

    def test_operator_decomposition(self):
        prob = synthetic_build(dim=12, mu=2.0, skew_norm=3.0, seed=1)
        M = prob.affine_matrix
        sym = 0.5 * (M + M.T)
        np.testing.assert_allclose(sym, 2.0 * np.eye(12), atol=1e-12)
        S = M - 2.0 * np.eye(12)
        assert np.linalg.norm(S, 2) == pytest.approx(3.0, rel=1e-10)
        assert prob.strong_monotonicity == pytest.approx(2.0)

    def test_monotone_variant_is_skew(self):
        prob = synthetic_build(dim=8, mu=0.0, skew_norm=1.0, seed=2)
        M = prob.affine_matrix
        np.testing.assert_allclose(M + M.T, 0.0, atol=1e-14)
        assert prob.strong_monotonicity == 0.0

    def test_solution_inside_box(self):
        prob = synthetic_build(dim=20, mu=1.0, skew_norm=1.0, seed=5)
        assert np.all(np.abs(prob.solution) <= 1.0 + 1e-12)

    def test_noisy_oracle_matches_law(self):
        prob = synthetic_build(dim=10, mu=1.0, skew_norm=1.0, sigma=0.8,
                               seed=3)
        rng = np.random.default_rng(4)
        x = prob.solution
        draws = np.array([prob.oracle.batch(x, 1, rng)
                          for _ in range(20_000)])
        center = draws.mean(axis=0)
        total_var = draws.var(axis=0).sum()
        assert np.linalg.norm(center - prob.oracle.mean(x)) <= 0.03
        assert total_var == pytest.approx(0.64, rel=0.05)   # sigma^2

    def test_batch_shrinks_noise_exactly_in_law(self):
        prob = synthetic_build(dim=10, mu=1.0, skew_norm=1.0, sigma=0.8,
                               seed=3)
        rng = np.random.default_rng(5)
        x = np.zeros(10)
        errs = np.array([np.linalg.norm(prob.oracle.batch(x, 64, rng)
                                        - prob.oracle.mean(x))
                         for _ in range(2_000)])
        assert np.mean(errs ** 2) == pytest.approx(0.64 / 64, rel=0.15)

    def test_bias_option_offsets_mean(self):
        prob = synthetic_build(dim=10, mu=1.0, skew_norm=1.0, sigma=0.0,
                               bias=0.5, seed=3)
        est = prob.oracle.batch(np.zeros(10), 25, np.random.default_rng(0))
        offset = np.linalg.norm(est - prob.oracle.mean(np.zeros(10)))
        assert offset == pytest.approx(0.5 / 5.0, abs=1e-12)

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(problems, "_REF_MAX_ITERS", 3)
        with pytest.raises(RuntimeError):
            synthetic_build(dim=6, mu=0.0, skew_norm=1.0, seed=0)

    def test_zero_skew_leaves_the_symmetric_part_alone(self):
        prob = synthetic_build(dim=8, mu=1.5, skew_norm=0.0, seed=4)
        np.testing.assert_array_equal(prob.affine_matrix, 1.5 * np.eye(8))
        lam = 1.0 / (4.0 * prob.lipschitz)
        assert residual(prob, prob.solution, lam) <= 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("dim", [6, 20])
    def test_solution_meets_ref_tol_and_matches_the_sweep(self, dim, mu):
        built = [synthetic_build(dim=dim, mu=mu, skew_norm=1.0, seed=seed)
                 for seed in range(10)]
        swept = extragradient_sweep(built, tol=1e-12)
        for seed, (prob, ref) in enumerate(zip(built, swept)):
            lam = 1.0 / (4.0 * prob.lipschitz)
            assert residual(prob, prob.solution, lam) <= 1e-12, seed
            assert np.linalg.norm(prob.solution - ref) <= 1e-9, seed

    def test_rejected_polish_falls_back_to_sweeping(self, monkeypatch):
        accepted = []
        polish = problems._polish

        def spy(*args):
            out = polish(*args)
            accepted.append(out is not None)
            return out

        monkeypatch.setattr(problems, "_polish", spy)
        # at sweep 500 this instance's active set is still wrong
        prob = synthetic_build(dim=20, mu=0.0, skew_norm=1.0, seed=0)
        assert accepted[0] is False and accepted[-1] is True
        lam = 1.0 / (4.0 * prob.lipschitz)
        assert residual(prob, prob.solution, lam) <= 1e-12

    def test_polish_rejects_a_singular_free_block(self):
        # an odd skew matrix is singular; -c is outside its range
        S = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]])
        box = BoxSet(np.full(3, -10.0), np.full(3, 10.0))
        c = np.array([1.0, 0.0, 0.0])
        assert problems._polish(S, c, box, np.zeros(3), 0.1, 1e-12) is None


_UNBUILDABLE = {  # the parameter that each call gets out of range
    "mu": lambda: synthetic_build(mu=-1.0),
    "dim": lambda: synthetic_build(dim=0),
    "skew_norm": lambda: synthetic_build(dim=1, skew_norm=0.5),
    "n_firms": lambda: cournot_build(100.0, n_firms=0),
    "n_groups": lambda: cap_build(n_groups=0),
    "group_size": lambda: cap_build(group_size=0),
    "overlap": lambda: cap_build(group_size=3, overlap=4),
}


@pytest.mark.parametrize("name", _UNBUILDABLE)
def test_builders_reject_sizes_they_cannot_build(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            _UNBUILDABLE[name]()


def test_the_smallest_buildable_sizes_build():
    assert synthetic_build(dim=1, skew_norm=0.0).lipschitz == 1.0
    assert _dim(cournot_build(100.0, n_firms=1)) == 1
    assert _dim(cap_build(n_groups=1, group_size=1, overlap=1)) == 2


@pytest.mark.parametrize("build", [
    lambda: cournot_build(50.0, seed=1),
    lambda: cap_build(seed=2),
    lambda: synthetic_build(dim=10, sigma=0.8, bias=0.3, seed=3),
], ids=["cournot", "cap", "synthetic"])
def test_sample_is_a_batch_of_one_bitwise(build):
    # the one-draw sample that sa steps with is the estimate at m = 1
    prob = build()
    x = prob.initial(np.random.default_rng(0)) + 0.5
    for seed in range(5):
        one = minibatch_estimate(prob.oracle, x, 1,
                                 np.random.default_rng(seed))
        batch = prob.oracle.batch(x, 1, np.random.default_rng(seed))
        np.testing.assert_array_equal(one, batch)
