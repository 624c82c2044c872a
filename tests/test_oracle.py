import numpy as np
import pytest

from moninc.core import NumericFailure, UnsupportedOperation
from moninc.oracle import (
    BatchSchedule,
    StochasticOracle,
    batch_size,
    empirical_variance,
    minibatch_estimate,
)
from moninc.problems import synthetic_build
from reference_oracles import NoiseModel, build_oracle


def zero_mean(x):
    return np.zeros_like(x)


class TestBatchSize:
    def test_constant(self):
        assert batch_size(BatchSchedule.constant(7), 1) == 7
        assert batch_size(BatchSchedule.constant(7), 999) == 7

    def test_geometric_doubling(self):
        sched = BatchSchedule.geometric(0.5)
        assert [batch_size(sched, k) for k in (1, 2, 3)] == [2, 4, 8]

    def test_geometric_exact_for_large_k(self):
        # floor(2^k) must stay exact far past float precision
        assert batch_size(BatchSchedule.geometric(0.5), 200) == 2 ** 200

    def test_polynomial(self):
        sched = BatchSchedule.polynomial(1.01)
        assert batch_size(sched, 1) == 1
        assert batch_size(sched, 10) == 10
        assert batch_size(sched, 100) == int(100 ** 1.01)

    def test_scaled_polynomial_clamps_to_one(self):
        sched = BatchSchedule.scaled_polynomial(1.1, 20)
        assert batch_size(sched, 1) == 1
        assert batch_size(sched, 400) == int(np.floor(400 ** 1.1 / 20))

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            batch_size(BatchSchedule.constant(1), 0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BatchSchedule.constant(0)
        with pytest.raises(ValueError):
            BatchSchedule.geometric(1.0)
        with pytest.raises(ValueError):
            BatchSchedule.polynomial(-1.0)
        with pytest.raises(ValueError):
            BatchSchedule.scaled_polynomial(1.1, 0.5)

    @pytest.mark.parametrize("sched,kmax", [
        (BatchSchedule.constant(3), 10_000),
        (BatchSchedule.polynomial(1.01), 10_000),
        (BatchSchedule.scaled_polynomial(1.1, 20), 10_000),
        (BatchSchedule.geometric(0.5), 10_000),
        (BatchSchedule.geometric(1 / 1.02), 2_000),
    ])
    def test_monotone_nondecreasing(self, sched, kmax):
        prev = 0
        for k in range(1, kmax + 1):
            m = batch_size(sched, k)
            assert m >= max(prev, 1)
            prev = m

    def test_inverse_sums_stay_put(self):
        # frozen partial sums of 1/m_k; a change here means the schedule
        # arithmetic moved
        s_poly = sum(1.0 / batch_size(BatchSchedule.polynomial(1.01), k)
                     for k in range(1, 10_001))
        assert s_poly == pytest.approx(9.446792543158312, rel=1e-12)
        s_geo = sum(1.0 / batch_size(BatchSchedule.geometric(0.5), k)
                    for k in range(1, 201))
        assert s_geo == pytest.approx(1.0, rel=1e-12)


class TestMinibatch:
    def test_noiseless_estimate_equals_mean(self):
        oracle = build_oracle(lambda x: 2.0 * x, NoiseModel.gaussian(0.0), 3)
        x = np.array([1.0, -2.0, 0.5])
        est = minibatch_estimate(oracle, x, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(est, 2.0 * x)

    def test_batch_matches_sequential_samples_bitwise(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 4)
        x = np.zeros(4)
        b = oracle.batch(x, 6, np.random.default_rng(42))
        rng = np.random.default_rng(42)
        s = np.mean([oracle.batch(x, 1, rng) for _ in range(6)], axis=0)
        np.testing.assert_array_equal(b, s)

    def test_variance_scales_inversely_with_m(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 10)
        rng = np.random.default_rng(7)
        x = np.zeros(10)

        def mse(m, reps=300):
            return np.mean([np.sum(minibatch_estimate(oracle, x, m, rng) ** 2)
                            for _ in range(reps)])

        m1, m16 = mse(1), mse(16)
        assert m1 == pytest.approx(10.0, rel=0.35)  # d sigma^2
        assert m1 / m16 == pytest.approx(16.0, rel=0.5)

    def test_uniform_noise_variance(self):
        oracle = build_oracle(zero_mean, NoiseModel.uniform(3.0), 5)
        rng = np.random.default_rng(8)
        draws = np.array([oracle.batch(np.zeros(5), 1, rng)
                          for _ in range(4000)])
        assert np.var(draws) == pytest.approx(3.0, rel=0.1)  # w^2/3

    def test_bias_norm_shrinks_like_inverse_sqrt_m(self):
        oracle = build_oracle(zero_mean, NoiseModel.biased(0.0, 2.0), 4)
        rng = np.random.default_rng(9)
        for m in (1, 4, 25):
            est = minibatch_estimate(oracle, np.zeros(4), m, rng)
            assert np.linalg.norm(est) == pytest.approx(2.0 / np.sqrt(m),
                                                        abs=1e-12)

    def test_bias_follows_supplied_direction(self):
        direction = np.array([0.0, 0.0, 5.0])
        oracle = build_oracle(zero_mean, NoiseModel.biased(0.0, 1.0, direction), 3)
        est = minibatch_estimate(oracle, np.zeros(3), 1,
                                 np.random.default_rng(0))
        np.testing.assert_allclose(est, [0.0, 0.0, 1.0], atol=1e-15)

    def test_nonfinite_draw_is_reported_with_index(self):
        oracle = build_oracle(lambda x: np.full(2, np.inf),
                              NoiseModel.gaussian(1.0), 2)
        with pytest.raises(NumericFailure, match="draw 0"):
            minibatch_estimate(oracle, np.zeros(2), 3,
                               np.random.default_rng(0))

    def test_rejects_nonpositive_batch(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 2)
        with pytest.raises(ValueError):
            minibatch_estimate(oracle, np.zeros(2), 0,
                               np.random.default_rng(0))


class TestEmpiricalVariance:
    def test_zero_for_noiseless_oracle(self):
        oracle = build_oracle(lambda x: x, NoiseModel.gaussian(0.0), 3)
        v = empirical_variance(oracle, np.ones(3), 4, 10,
                               np.random.default_rng(0))
        assert v == 0.0

    def test_halves_when_m_doubles(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 8)
        rng = np.random.default_rng(3)
        v1 = empirical_variance(oracle, np.zeros(8), 8, 400, rng)
        v2 = empirical_variance(oracle, np.zeros(8), 16, 400, rng)
        assert v1 / v2 == pytest.approx(2.0, rel=0.5)

    @pytest.mark.parametrize("m", [1, 16])
    def test_estimates_what_variance_bound_bounds(self, m):
        # E||batch(x, m) - V(x)||^2 = sigma^2 / m for the synthetic oracle;
        # with 2,000 repeats in dim 20 the standard error is 0.7%
        prob = synthetic_build(20, mu=1.0, skew_norm=1.0, sigma=0.5, seed=5)
        v = empirical_variance(prob.oracle, np.zeros(20), m, 2000,
                               np.random.default_rng([0, 0]))
        assert v == pytest.approx(0.25 / m, rel=0.1)

    def test_requires_two_repeats(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 2)
        with pytest.raises(ValueError):
            empirical_variance(oracle, np.zeros(2), 1, 1,
                               np.random.default_rng(0))

    def test_requires_mean_contract(self):
        oracle = build_oracle(zero_mean, NoiseModel.gaussian(1.0), 2)
        oracle.mean = None
        with pytest.raises(UnsupportedOperation):
            empirical_variance(oracle, np.zeros(2), 2, 5,
                               np.random.default_rng(0))


class _BatchOnly(StochasticOracle):
    """Defines batch() and nothing else of the sampling contract."""

    def __init__(self, dim):
        self.mean = lambda x: 2.0 * np.asarray(x, dtype=np.float64)
        self.variance_bound = float(np.sqrt(dim))
        self.dim = dim

    def batch(self, x, m, rng):
        return self.mean(x) + rng.standard_normal(self.dim) / np.sqrt(m)


class TestBatchOnlyOracle:
    def test_minibatch_estimate_and_sample_use_batch(self):
        # a one-draw sample is the estimate at m = 1
        oracle = _BatchOnly(4)
        x = np.arange(4.0)
        for m in (9, 1):
            np.testing.assert_array_equal(
                minibatch_estimate(oracle, x, m, np.random.default_rng(m)),
                oracle.batch(x, m, np.random.default_rng(m)))

    def test_empirical_variance_follows_batch_size(self):
        oracle = _BatchOnly(8)
        rng = np.random.default_rng(3)
        v1 = empirical_variance(oracle, np.zeros(8), 1, 400, rng)
        v4 = empirical_variance(oracle, np.zeros(8), 4, 400, rng)
        assert v1 / v4 == pytest.approx(4.0, rel=0.5)

    def test_base_contract_has_no_sampler(self):
        with pytest.raises(NotImplementedError):
            StochasticOracle().batch(np.zeros(2), 1, np.random.default_rng(0))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="poisson")
    with pytest.raises(ValueError):
        NoiseModel.gaussian(-1.0)
    with pytest.raises(ValueError):
        NoiseModel.biased(1.0, 1.0, np.zeros(3))
