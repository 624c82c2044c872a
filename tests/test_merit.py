from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from moninc.core import (BallSet, BoxResolvent, BoxSet, UnsupportedOperation)
from moninc.merit import GapRegion, dual_gap_affine, energy_H, residual
from moninc.policy import RegimePolicy, schedule_at
from moninc.problems import synthetic_build
from reference_formulas import energy_Q, relative_error


def _affine_problem(M, c):
    M = np.asarray(M, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    return SimpleNamespace(affine_matrix=M, affine_shift=c)


class TestResidual:
    def test_identity_operator_hand_value(self):
        box = BoxSet(-np.ones(2), np.ones(2))
        prob = SimpleNamespace(
            oracle=SimpleNamespace(mean=lambda x: np.asarray(x, float)),
            resolvent=BoxResolvent(box))
        # x - 0.2x = (1.6, 0) clips to (1, 0); residual = |2 - 1|
        assert residual(prob, np.array([2.0, 0.0]), 0.2) == pytest.approx(1.0)
        # interior fixed point of V(x) = x is the origin
        assert residual(prob, np.zeros(2), 0.2) == pytest.approx(0.0)

    def test_rejects_nonpositive_step(self):
        prob = synthetic_build(dim=4, seed=0)
        with pytest.raises(ValueError):
            residual(prob, np.zeros(4), 0.0)

    def test_estimated_residual_needs_rng(self):
        prob = synthetic_build(dim=4, seed=0)
        noiseless = prob.oracle
        est_only = SimpleNamespace(mean=None, batch=noiseless.batch)
        stub = SimpleNamespace(oracle=est_only, resolvent=prob.resolvent)
        with pytest.raises(UnsupportedOperation):
            residual(stub, np.zeros(4), 0.1)
        # zero noise: the estimate reproduces the exact value
        r_exact = residual(prob, np.ones(4), 0.1)
        r_est = residual(stub, np.ones(4), 0.1,
                         rng=np.random.default_rng(0), est_batch=8)
        assert r_est == pytest.approx(r_exact, abs=1e-14)


class TestRelativeError:
    def test_values(self):
        w_true = np.array([3.0, 4.0])
        assert relative_error(w_true, w_true) == 0.0
        assert relative_error(2.0 * w_true, w_true) == pytest.approx(1.0)
        assert relative_error(np.zeros(2), w_true) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.ones(3), np.zeros(3))


class TestDualGap:
    def test_scalar_hand_values(self):
        prob = _affine_problem([[1.0]], [0.0])
        region = GapRegion(np.zeros(1), 1.0)
        # sup_{|p|<=1} p (x - p) peaks at p = x/2
        assert dual_gap_affine(prob, np.array([1.0]), region) \
            == pytest.approx(0.25, abs=1e-8)
        assert dual_gap_affine(prob, np.array([0.0]), region) \
            == pytest.approx(0.0, abs=1e-8)

    def test_skew_closed_form(self):
        prob = _affine_problem([[0.0, 1.0], [-1.0, 0.0]], [0.0, 0.0])
        region = GapRegion(np.zeros(2), 2.0)
        # linear in p: value is radius * ||M^T x|| = 2
        assert dual_gap_affine(prob, np.array([1.0, 0.0]), region) \
            == pytest.approx(2.0, abs=1e-12)

    def test_matches_dense_grid_search(self):
        M = np.array([[1.0, 0.3], [-0.3, 1.0]])
        c = np.array([0.2, -0.1])
        prob = _affine_problem(M, c)
        region = GapRegion(np.zeros(2), 1.0)
        x = np.array([0.4, -0.2])
        val = dual_gap_affine(prob, x, region)
        ts = np.linspace(-1.0, 1.0, 301)
        P = np.stack(np.meshgrid(ts, ts), axis=-1).reshape(-1, 2)
        P = P[np.linalg.norm(P, axis=1) <= 1.0]
        obj = np.einsum("ij,ij->i", P @ M.T + c, x - P)
        grid_max = float(obj.max())
        assert val >= grid_max - 1e-9
        assert val <= grid_max + 5e-2

    def test_nonnegative_on_feasible_points(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((3, 3))
        M = np.eye(3) + (S - S.T)
        prob = _affine_problem(M, rng.standard_normal(3))
        region = GapRegion(np.zeros(3), 2.0)
        for _ in range(20):
            x = rng.standard_normal(3)
            x *= 2.0 * rng.uniform() / np.linalg.norm(x)
            assert dual_gap_affine(prob, x, region) >= 0.0

    def test_infeasible_point_can_go_negative(self):
        # constant operator pointing along e1, evaluated far on the wrong side
        prob = _affine_problem(np.zeros((2, 2)), [1.0, 0.0])
        region = GapRegion(np.zeros(2), 1.0)
        val = dual_gap_affine(prob, np.array([-3.0, 0.0]), region)
        assert val == pytest.approx(-2.0, abs=1e-12)

    def test_box_geometry_truncates_region(self):
        prob = _affine_problem(np.zeros((1, 1)), [1.0])
        box = BoxSet(np.zeros(1), np.full(1, 0.5))
        # ball of radius 9 swallows the box, so C is just the box
        region = GapRegion(np.zeros(1), 9.0, geometry=box)
        val = dual_gap_affine(prob, np.array([0.25]), region)
        # sup_{p in [0, 0.5]} (0.25 - p) = 0.25 at p = 0
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_linear_objective_over_strict_intersection_unsupported(self):
        prob = _affine_problem(np.zeros((2, 2)), [1.0, 0.0])
        box = BoxSet(-np.ones(2), np.ones(2))
        region = GapRegion(np.ones(2), 1.0, geometry=box)
        with pytest.raises(UnsupportedOperation):
            dual_gap_affine(prob, np.zeros(2), region)

    def test_requires_affine_structure(self):
        from moninc.problems import cournot_build
        prob = cournot_build(100.0, seed=0)
        with pytest.raises(UnsupportedOperation):
            dual_gap_affine(prob, np.zeros(10), GapRegion(np.zeros(10), 1.0))

    def test_region_radius_validated(self):
        with pytest.raises(ValueError):
            GapRegion(np.zeros(2), 0.0)


M_MONOTONE = np.array([[1.0, 0.3], [-0.3, 1.0]])
M_SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _grid(inside):
    """The points of a 401^2 grid of [-3, 3]^2 where inside(P) holds."""
    ts = np.linspace(-3.0, 3.0, 401)
    P = np.stack(np.meshgrid(ts, ts), axis=-1).reshape(-1, 2)
    return P[inside(P)]


def _grid_gap(M, c, x, inside):
    """max of <M p + c, x - p> over the grid points inside C."""
    P = _grid(inside)
    return float(np.einsum("ij,ij->i", P @ M.T + c, x - P).max())


def _in_ball(P, center, radius):
    return np.linalg.norm(P - center, axis=1) <= radius


def _in_box(P, box):
    return np.all((P >= box.lower) & (P <= box.upper), axis=1)


class TestGapRegionShapes:
    """Each shape C can take, its gap checked against a 2-D grid search."""

    BOX = BoxSet(np.array([-1.0, -0.5]), np.array([1.0, 1.5]))

    def _cases(self):
        box = self.BOX
        small = BallSet(np.array([0.2, 0.1]), 0.6)
        big = BallSet(np.array([0.1, 0.0]), 2.5)
        anchor = np.array([0.1, 0.2])
        return {
            "ball inside box": (GapRegion(anchor, 0.5, geometry=box),
                                "ball"),
            "box inside ball": (GapRegion(anchor, 2.0, geometry=box),
                                "geometry"),
            "geometry ball inside gap ball": (
                GapRegion(anchor, 1.5, geometry=small), "geometry"),
            "gap ball inside geometry ball": (
                GapRegion(anchor, 1.0, geometry=big), "ball"),
            "strict box and ball": (
                GapRegion(np.array([1.0, 1.5]), 1.2, geometry=box), None),
        }

    def _inside(self, region):
        def inside(P):
            keep = _in_ball(P, region.anchor, region.radius)
            geo = region.geometry
            if isinstance(geo, BoxSet):
                keep &= _in_box(P, geo)
            elif geo is not None:
                keep &= _in_ball(P, geo.center, geo.radius)
            return keep
        return inside

    @pytest.mark.parametrize("name", [
        "ball inside box", "box inside ball", "geometry ball inside gap ball",
        "gap ball inside geometry ball", "strict box and ball"])
    def test_single_set_and_gap_match_grid_search(self, name):
        region, single = self._cases()[name]
        want = {"ball": region.ball, "geometry": region.geometry,
                None: None}[single]
        assert region.single is want
        c = np.array([0.2, -0.1])
        matrices = [M_MONOTONE] if single is None else [M_MONOTONE, M_SKEW]
        for M in matrices:
            prob = _affine_problem(M, c)
            for x in (np.array([0.4, 0.3]), np.array([-1.5, 2.0])):
                val = dual_gap_affine(prob, x, region)
                grid = _grid_gap(M, c, x, self._inside(region))
                if region.contains(x):
                    grid = max(grid, 0.0)
                assert grid - 1e-9 <= val <= grid + 5e-2, (name, M, x)

    def test_strict_intersection_projects_by_dykstra(self):
        region, _ = self._cases()["strict box and ball"]
        P = _grid(self._inside(region))
        for z in np.random.default_rng(0).uniform(-3.0, 3.0, (20, 2)):
            p = region.project(z)
            assert region.contains(p, tol=1e-9)
            # no grid point of C is closer to z than its projection
            assert np.linalg.norm(z - p) \
                <= np.linalg.norm(P - z, axis=1).min() + 1e-9

    def test_geometry_dimension_checked_at_construction(self):
        with pytest.raises(ValueError, match="dimension"):
            GapRegion(np.zeros(3), 1.0, geometry=self.BOX)
        with pytest.raises(ValueError, match="dimension"):
            GapRegion(np.zeros(3), 1.0, geometry=BallSet(np.zeros(2), 1.0))


class TestEnergies:
    def test_linear_energy_hand_value(self):
        got = energy_H(np.array([1.0]), np.array([0.0]), np.array([0.0]),
                       alpha_k=0.2, rho_k=0.5, lam=0.1, L_tilde=1.0, a=0.5)
        want = 1 + Fraction(4, 5) * (Fraction(5, 2) / Fraction(11, 10) - 1)
        assert got == pytest.approx(float(want), rel=1e-14)

    def test_linear_energy_with_equal_iterates(self):
        rng = np.random.default_rng(1)
        for alpha in (0.0, 0.1, 0.3, 0.5):
            X = rng.standard_normal(6)
            bar = rng.standard_normal(6)
            got = energy_H(X, X, bar, alpha_k=alpha, rho_k=0.8, lam=0.2,
                           L_tilde=1.5, a=0.5)
            d2 = float(np.sum((X - bar) ** 2))
            assert got == pytest.approx((1.0 - alpha) * d2, rel=1e-12)

    def test_linear_energy_is_quadratic_in_scale(self):
        rng = np.random.default_rng(2)
        X, Xp, bar = rng.standard_normal((3, 5))
        base = energy_H(X, Xp, bar, 0.1, 0.8, 0.2, 1.0, 0.5)
        scaled = energy_H(3 * X, 3 * Xp, 3 * bar, 0.1, 0.8, 0.2, 1.0, 0.5)
        assert scaled == pytest.approx(9.0 * base, rel=1e-12)

    def test_averaged_energy_hand_value(self):
        got = energy_Q(np.array([1.0]), np.array([0.0]), np.array([0.0]),
                       alpha_k=0.2, rho_k=0.5, lam_k=0.1, L=1.0)
        want = Fraction(1, 2) + Fraction(4, 5) \
            * (Fraction(25, 11) - 1) * Fraction(1, 2)
        assert got == pytest.approx(float(want), rel=1e-14)

    def test_averaged_energy_nonnegative_under_small_step_rule(self):
        # the relaxation law keeps Q >= 0 for every iterate/anchor triple
        L = 2.0
        rng = np.random.default_rng(3)
        for alpha_bar in (0.1, 0.3, 0.49):
            pol = RegimePolicy(regime="asymptotic", alpha=alpha_bar,
                               lam=0.9 / (4.0 * L), eps_bar=0.05)
            for k in (1, 2, 10, 100):
                ak, lk, rk = schedule_at(pol, k, L)
                for _ in range(50):
                    X, Xp, p = rng.standard_normal((3, 4))
                    X *= rng.uniform(0.1, 10.0)
                    q = energy_Q(X, Xp, p, ak, rk, lk, L)
                    assert q >= -1e-10 * (1.0 + abs(q))
