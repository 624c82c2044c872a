"""Merit and diagnostic functions.

The residual ||x - J_lam(x - lam V(x))|| vanishes exactly at solutions and
is the default progress measure. For affine mean operators on compact
regions the restricted dual gap sup_{p in C} <V(p), x - p> is available as
a certified merit via an inner concave maximization. The linear-rate proof
energy H_k is exposed for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (BallSet, BoxSet, UnsupportedOperation, project_ball,
                   project_box)
from .oracle import minibatch_estimate

__all__ = [
    "GapRegion",
    "residual",
    "dual_gap_affine",
    "energy_H",
]

_GAP_TOL, _GAP_MAX_ITERS = 1e-10, 20_000  # dual_gap_affine's ascent stop


def residual(problem, x, lam: float, rng=None, est_batch: int = 10_000):
    """Fixed-point residual at step lam.

    Uses the exact mean operator when the problem's oracle has one;
    otherwise a large mini-batch estimate (est_batch draws from rng).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=np.float64)
    if problem.oracle.mean is not None:
        v = np.asarray(problem.oracle.mean(x), dtype=np.float64)
    else:
        if rng is None:
            raise UnsupportedOperation(
                "oracle has no mean and no rng was supplied for estimation")
        v = minibatch_estimate(problem.oracle, x, est_batch, rng)
    y = problem.resolvent.apply(x - lam * v, lam)
    return float(np.linalg.norm(x - y))


@dataclass(frozen=True)
class GapRegion:
    """Compact slice C = (feasible geometry) intersect ball(anchor, radius).

    geometry is a BoxSet, a BallSet, or None (ball only), of the anchor's
    dimension. Construction settles once which single set C is (the gap
    ball, the box, or the geometry ball) when one of the two contains the
    other; `single` is None when C is a strict intersection, which
    `project` handles by Dykstra's alternating projections.
    """

    anchor: np.ndarray
    radius: float
    geometry: object = None
    ball: BallSet = field(init=False, repr=False, compare=False)
    single: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=np.float64)
        object.__setattr__(self, "anchor", a)
        if self.radius <= 0:
            raise ValueError("gap region radius must be positive")
        ball = BallSet(a, self.radius)
        geo, single = self.geometry, None
        if geo is None:
            single = ball
        elif not isinstance(geo, (BoxSet, BallSet)):
            raise ValueError("gap region geometry must be a BoxSet or BallSet")
        elif geo.dim != a.shape[0]:
            raise ValueError("gap region geometry dimension mismatch")
        elif isinstance(geo, BoxSet):
            far = np.maximum(np.abs(geo.lower - a), np.abs(geo.upper - a))
            if float(np.linalg.norm(far)) <= ball.radius * (1.0 + 1e-12):
                single = geo
            elif bool(np.all(a - ball.radius >= geo.lower - 1e-12)
                      and np.all(a + ball.radius <= geo.upper + 1e-12)):
                single = ball
        else:
            gap = float(np.linalg.norm(a - geo.center))
            if gap + ball.radius <= geo.radius * (1 + 1e-12):
                single = ball
            elif gap + geo.radius <= ball.radius * (1 + 1e-12):
                single = geo
        object.__setattr__(self, "ball", ball)
        object.__setattr__(self, "single", single)

    def project(self, p):
        """Projection onto C."""
        if isinstance(self.single, BoxSet):
            return project_box(p, self.single)
        if self.single is not None:
            return project_ball(p, self.single)
        # Dykstra's alternating projections onto geometry and the gap ball;
        # done once the corrections q1, q2 stop moving (x = y = xn): x alone
        # can stand still for a sweep while they still move
        proj_geo = project_box if isinstance(self.geometry, BoxSet) \
            else project_ball
        x = np.asarray(p, dtype=np.float64).copy()
        q1 = np.zeros_like(x)
        q2 = np.zeros_like(x)
        for _ in range(1000):
            y = proj_geo(x + q1, self.geometry)
            q1 = x + q1 - y
            xn = project_ball(y + q2, self.ball)
            q2 = y + q2 - xn
            moved = np.linalg.norm(x - y) + np.linalg.norm(y - xn)
            x = xn
            if moved <= 1e-13:
                break
        return x

    def contains(self, p, tol=1e-10):
        if np.linalg.norm(p - self.anchor) > self.radius + tol:
            return False
        geo = self.geometry
        if isinstance(geo, BoxSet):
            return bool(np.all(p >= geo.lower - tol)
                        and np.all(p <= geo.upper + tol))
        if geo is not None:
            return float(np.linalg.norm(p - geo.center)) <= geo.radius + tol
        return True

    def support_point(self, g):
        """argmax over C of <g, p> for the linear (skew-coupling) case."""
        if isinstance(self.single, BoxSet):
            return np.where(g >= 0, self.single.upper, self.single.lower)
        if self.single is None:
            raise UnsupportedOperation(
                "linear gap objective over a strict set intersection "
                "is not supported")
        ball = self.single
        ng = float(np.linalg.norm(g))
        if ng == 0:
            return ball.center.copy()
        return ball.center + (ball.radius / ng) * g


def dual_gap_affine(problem, x, region: GapRegion):
    """Restricted dual gap sup_{p in C} <M p + c, x - p> for affine means.

    The inner problem is concave (monotone M); projected gradient ascent
    with fixed step 1/||M + M^T|| runs from the region anchor until the
    objective changes by at most 1e-10, or for 20,000 steps. When M is
    exactly skew the objective is linear in p and the maximizer is taken in
    closed form. The value is clipped at zero only when x lies in C, where
    the gap is guaranteed nonnegative.
    """
    M = getattr(problem, "affine_matrix", None)
    c = getattr(problem, "affine_shift", None)
    if M is None or c is None:
        raise UnsupportedOperation(
            "dual gap needs an affine mean (affine_matrix/affine_shift)")
    x = np.asarray(x, dtype=np.float64)

    sym = M + M.T
    sym_norm = float(np.linalg.norm(sym, 2)) if sym.any() else 0.0

    def objective(p):
        return float((M @ p + c) @ (x - p))

    if sym_norm == 0.0:
        # <Mp+c, x-p> = <c, x> + <M^T x - c, p> when p^T M p = 0
        g = M.T @ x - c
        p = region.support_point(g)
        val = objective(p)
    else:
        p = region.project(region.anchor)
        step = 1.0 / sym_norm
        g0 = M.T @ x - c
        val = objective(p)
        for _ in range(_GAP_MAX_ITERS):
            grad = g0 - sym @ p
            p = region.project(p + step * grad)
            new_val = objective(p)
            if abs(new_val - val) <= _GAP_TOL:
                val = new_val
                break
            val = new_val

    if region.contains(x):
        val = max(val, 0.0)
    return float(val)


def energy_H(X_k, X_km1, x_bar, alpha_k, rho_k, lam, L_tilde, a):
    """Linear-rate energy.

    ||X_k - x_bar||^2
      + (1 - alpha_k) ((3-a)/(2 rho_k (1 + L_tilde lam)) - 1) ||X_k - X_{k-1}||^2
      - alpha_k ||X_{k-1} - x_bar||^2.

    Under the linear-rate parameter rule this stays above
    (1 - alpha_bar)/2 * ||X_k - x_bar||^2.
    """
    X_k = np.asarray(X_k, dtype=np.float64)
    X_km1 = np.asarray(X_km1, dtype=np.float64)
    x_bar = np.asarray(x_bar, dtype=np.float64)
    coef = (3.0 - a) / (2.0 * rho_k * (1.0 + L_tilde * lam)) - 1.0
    return float(np.sum((X_k - x_bar) ** 2)
                 + (1.0 - alpha_k) * coef * np.sum((X_k - X_km1) ** 2)
                 - alpha_k * np.sum((X_km1 - x_bar) ** 2))
