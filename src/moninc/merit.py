"""Merit and diagnostic functions.

The residual ||x - J_lam(x - lam V(x))|| vanishes exactly at solutions and
is the default progress measure. For affine mean operators on compact
regions the restricted dual gap sup_{p in C} <V(p), x - p> is available as
a certified merit via an inner concave maximization. The linear-rate proof
energy H_k is exposed for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        v, _ = minibatch_estimate(problem.oracle, x, est_batch, rng)
    y = problem.resolvent.apply(x - lam * v, lam)
    return float(np.linalg.norm(x - y))


@dataclass(frozen=True)
class GapRegion:
    """Compact slice C = (feasible geometry) intersect ball(anchor, radius).

    geometry is a BoxSet, a BallSet, or None (ball only).
    """

    anchor: np.ndarray
    radius: float
    geometry: object = None

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=np.float64)
        object.__setattr__(self, "anchor", a)
        if self.radius <= 0:
            raise ValueError("gap region radius must be positive")


def _ball_covers_box(ball_c, ball_r, box: BoxSet) -> bool:
    far = np.maximum(np.abs(box.lower - ball_c), np.abs(box.upper - ball_c))
    return float(np.linalg.norm(far)) <= ball_r * (1.0 + 1e-12)


def _box_covers_ball(box: BoxSet, ball_c, ball_r) -> bool:
    return bool(np.all(ball_c - ball_r >= box.lower - 1e-12)
                and np.all(ball_c + ball_r <= box.upper + 1e-12))


class _Region:
    """Projection and membership for C, reduced to a single set when one of
    the two (geometry, gap ball) contains the other; Dykstra otherwise."""

    def __init__(self, region: GapRegion, dim: int):
        self.anchor = region.anchor
        self.radius = float(region.radius)
        geo = region.geometry
        if geo is not None and getattr(geo, "dim", dim) != dim:
            raise ValueError("gap region geometry dimension mismatch")
        self.box = geo if isinstance(geo, BoxSet) else None
        self.geo_ball = geo if isinstance(geo, BallSet) else None
        self.mode = "both"
        if geo is None:
            self.mode = "ball"
        elif self.box is not None:
            if _ball_covers_box(self.anchor, self.radius, self.box):
                self.mode = "box"
            elif _box_covers_ball(self.box, self.anchor, self.radius):
                self.mode = "ball"
        elif self.geo_ball is not None:
            gap_in_geo = (float(np.linalg.norm(self.anchor - self.geo_ball.center))
                          + self.radius) <= self.geo_ball.radius * (1 + 1e-12)
            geo_in_gap = (float(np.linalg.norm(self.anchor - self.geo_ball.center))
                          + self.geo_ball.radius) <= self.radius * (1 + 1e-12)
            if gap_in_geo:
                self.mode = "ball"
            elif geo_in_gap:
                self.mode = "geoball"

    def project(self, p):
        ball = BallSet(self.anchor, self.radius)
        if self.mode == "box":
            return project_box(p, self.box)
        if self.mode == "ball":
            return project_ball(p, ball)
        if self.mode == "geoball":
            return project_ball(p, self.geo_ball)
        # Dykstra's alternating projections onto geometry and the gap ball
        x = np.asarray(p, dtype=np.float64).copy()
        q1 = np.zeros_like(x)
        q2 = np.zeros_like(x)
        proj_geo = (lambda z: project_box(z, self.box)) if self.box is not None \
            else (lambda z: project_ball(z, self.geo_ball))
        for _ in range(1000):
            y = proj_geo(x + q1)
            q1 = x + q1 - y
            xn = project_ball(y + q2, ball)
            q2 = y + q2 - xn
            if np.linalg.norm(xn - x) <= 1e-13:
                x = xn
                break
            x = xn
        return x

    def contains(self, p, tol=1e-10):
        if np.linalg.norm(p - self.anchor) > self.radius + tol:
            return False
        if self.box is not None:
            return bool(np.all(p >= self.box.lower - tol)
                        and np.all(p <= self.box.upper + tol))
        if self.geo_ball is not None:
            return float(np.linalg.norm(p - self.geo_ball.center)) \
                <= self.geo_ball.radius + tol
        return True

    def support_point(self, g):
        """argmax over C of <g, p> for the linear (skew-coupling) case."""
        if self.mode == "box":
            return np.where(g >= 0, self.box.upper, self.box.lower)
        if self.mode in ("ball", "geoball"):
            ball = BallSet(self.anchor, self.radius) if self.mode == "ball" \
                else self.geo_ball
            ng = float(np.linalg.norm(g))
            if ng == 0:
                return np.asarray(ball.center, dtype=np.float64).copy()
            return ball.center + (ball.radius / ng) * g
        raise UnsupportedOperation(
            "linear gap objective over a strict set intersection "
            "is not supported")


def dual_gap_affine(problem, x, region: GapRegion, max_iters: int = 20_000,
                    tol: float = 1e-10):
    """Restricted dual gap sup_{p in C} <M p + c, x - p> for affine means.

    The inner problem is concave (monotone M); projected gradient ascent
    with fixed step 1/||M + M^T|| runs from the region anchor until the
    objective change drops below tol or the budget runs out. When M is
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
    reg = _Region(region, x.shape[0])

    sym = M + M.T
    sym_norm = float(np.linalg.norm(sym, 2)) if sym.any() else 0.0

    def objective(p):
        return float((M @ p + c) @ (x - p))

    if sym_norm == 0.0:
        # <Mp+c, x-p> = <c, x> + <M^T x - c, p> when p^T M p = 0
        g = M.T @ x - c
        p = reg.support_point(g)
        val = objective(p)
    else:
        p = reg.project(reg.anchor.copy())
        step = 1.0 / sym_norm
        g0 = M.T @ x - c
        val = objective(p)
        for _ in range(max_iters):
            grad = g0 - sym @ p
            p = reg.project(p + step * grad)
            new_val = objective(p)
            if abs(new_val - val) <= tol:
                val = new_val
                break
            val = new_val

    if reg.contains(x):
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
