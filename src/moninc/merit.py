"""Merit and diagnostic functions.

The residual ||x - J_lam(x - lam V(x))|| vanishes exactly at solutions and
is the default progress measure. For affine mean operators the restricted
dual gap sup_{p in C} <V(p), x - p> over a GapRegion C, one ball or one
box, is available as a certified merit via an inner concave maximization.
The linear-rate proof energy H_k is exposed for diagnostics. Both take one
point or a stack of K points (K, d), so a run pays the gap's per-call set-up
once per block of recorded rows; each row of a stack gets bitwise the value
it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (BallSet, BoxSet, UnsupportedOperation, project_ball,
                   project_box, _rowdot)
from .oracle import minibatch_estimate

__all__ = [
    "GapRegion",
    "residual",
    "dual_gap_affine",
    "energy_H",
]

_GAP_TOL, _GAP_MAX_ITERS = 1e-10, 20_000  # dual_gap_affine's ascent stop
_CONTAINS_TOL = 1e-10  # the slack of GapRegion.contains and lies_in
_EST_BATCH = 10_000  # draws of residual's estimate when the mean is unknown


def residual(problem, x, lam: float, rng=None):
    """Fixed-point residual at step lam.

    Uses the exact mean operator when the problem's oracle has one;
    otherwise a large mini-batch estimate (_EST_BATCH draws from rng).
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
        v = minibatch_estimate(problem.oracle, x, _EST_BATCH, rng)
    y = problem.resolvent.apply(x - lam * v, lam)
    return float(np.linalg.norm(x - y))


@dataclass(frozen=True)
class GapRegion:
    """The compact set C of the restricted gap: one ball or one box.

    C is the ball B(anchor, radius) when geometry is None or a BoxSet that
    contains that ball, and the box when the ball contains it. Any other
    pair, or a geometry that is not a BoxSet of the anchor's dimension,
    raises ValueError, so C always has a closed-form projection and
    support point. project, contains and support_point take one point or
    a stack of points (K, d), row by row.
    """

    anchor: np.ndarray
    radius: float
    geometry: BoxSet | None = None
    C: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=np.float64)
        object.__setattr__(self, "anchor", a)
        if self.radius <= 0:
            raise ValueError("gap region radius must be positive")
        C, box = BallSet(a, self.radius), self.geometry
        if box is not None:
            if not isinstance(box, BoxSet):
                raise ValueError("gap region geometry must be a BoxSet or None")
            if box.dim != a.shape[0]:
                raise ValueError("gap region geometry dimension mismatch")
            far = np.maximum(np.abs(box.lower - a), np.abs(box.upper - a))
            if float(np.linalg.norm(far)) <= self.radius * (1.0 + 1e-12):
                C = box
            elif not (np.all(a - self.radius >= box.lower - 1e-12)
                      and np.all(a + self.radius <= box.upper + 1e-12)):
                raise ValueError("gap region: neither the box nor the ball "
                                 "contains the other")
        object.__setattr__(self, "C", C)

    def project(self, p):
        """Projection onto C; row by row on a stack (K, d)."""
        if isinstance(self.C, BoxSet):
            return project_box(p, self.C)
        return project_ball(p, self.C)

    def contains(self, p):
        """Whether p lies in C, up to _CONTAINS_TOL; one flag per row of a
        stack (K, d)."""
        C = self.C
        if isinstance(C, BoxSet):
            return np.all((p >= C.lower - _CONTAINS_TOL)
                          & (p <= C.upper + _CONTAINS_TOL), axis=-1)
        diff = p - C.center
        return np.sqrt(_rowdot(diff, diff)) <= C.radius + _CONTAINS_TOL

    def lies_in(self, box):
        """Whether C lies in box (None is the whole space), up to
        _CONTAINS_TOL."""
        if box is None:
            return True
        C = self.C
        lo, hi = ((C.lower, C.upper) if isinstance(C, BoxSet)
                  else (C.center - C.radius, C.center + C.radius))
        return bool(np.all(lo >= box.lower - _CONTAINS_TOL)
                    and np.all(hi <= box.upper + _CONTAINS_TOL))

    def support_point(self, g):
        """argmax over C of <g, p> for the linear (skew-coupling) case; row
        by row on a stack (K, d). The ball's center answers g = 0."""
        C = self.C
        if isinstance(C, BoxSet):
            return np.where(g >= 0, C.upper, C.lower)
        ng = np.sqrt(_rowdot(g, g))
        zero = ng == 0
        scale = np.divide(C.radius, ng, out=np.zeros_like(ng), where=~zero)
        return np.where(zero[..., None], C.center,
                        C.center + scale[..., None] * g)


def _matvec(M, X):
    """M @ x for each row x of X (K, d), each rounded as the 1-D product."""
    return np.matmul(M, X[..., None])[..., 0]


def dual_gap_affine(problem, x, region: GapRegion):
    """Restricted dual gap sup_{p in C} <M p + c, x - p> for affine means.

    The inner problem is concave (monotone M); projected gradient ascent
    with fixed step 1/||M + M^T|| runs from the region anchor until the
    objective changes by at most 1e-10, or for 20,000 steps. When M is
    exactly skew the objective is linear in p and the maximizer is taken in
    closed form. The value is clipped at zero only when x lies in C, where
    the gap is guaranteed nonnegative.

    x is one point (d,), whose gap is returned as a float, or a stack of K
    points (K, d), whose gaps are returned as a (K,) array. M + M^T and its
    norm are formed once per call. The ascent runs on the whole stack and
    freezes each row at the step that meets the stop rule, so every row
    takes the iterates, and gets bitwise the value, it has alone.
    """
    M = getattr(problem, "affine_matrix", None)
    c = getattr(problem, "affine_shift", None)
    if M is None or c is None:
        raise UnsupportedOperation(
            "dual gap needs an affine mean (affine_matrix/affine_shift)")
    x = np.asarray(x, dtype=np.float64)
    X = np.atleast_2d(x)

    sym = M + M.T
    sym_norm = float(np.linalg.norm(sym, 2)) if sym.any() else 0.0

    def objective(X, P):
        return _rowdot(_matvec(M, P) + c, X - P)

    G = _matvec(M.T, X) - c
    if sym_norm == 0.0:
        # <Mp+c, x-p> = <c, x> + <M^T x - c, p> when p^T M p = 0
        val = objective(X, region.support_point(G))
    else:
        step = 1.0 / sym_norm
        P = np.tile(region.project(region.anchor), (len(X), 1))
        val = objective(X, P)
        live = np.arange(len(X))  # rows whose ascent has not stopped
        for _ in range(_GAP_MAX_ITERS):
            P_live = region.project(
                P[live] + step * (G[live] - _matvec(sym, P[live])))
            new_val = objective(X[live], P_live)
            P[live] = P_live
            done = np.abs(new_val - val[live]) <= _GAP_TOL
            val[live] = new_val
            live = live[~done]
            if not live.size:
                break

    val = np.where(region.contains(X) & (val < 0.0), 0.0, val)
    return float(val[0]) if x.ndim == 1 else val


def energy_H(X_k, X_km1, x_bar, alpha_k, rho_k, lam, L_tilde, a):
    """Linear-rate energy.

    ||X_k - x_bar||^2
      + (1 - alpha_k) ((3-a)/(2 rho_k (1 + L_tilde lam)) - 1) ||X_k - X_{k-1}||^2
      - alpha_k ||X_{k-1} - x_bar||^2.

    Under the linear-rate parameter rule this stays above
    (1 - alpha_bar)/2 * ||X_k - x_bar||^2.

    X_k and X_km1 are points (d,), giving a float, or stacks (K, d) with
    alpha_k, rho_k and lam scalars or (K,) arrays, giving a (K,) array
    whose rows are bitwise the 1-D values.
    """
    X_k = np.asarray(X_k, dtype=np.float64)
    X_km1 = np.asarray(X_km1, dtype=np.float64)
    x_bar = np.asarray(x_bar, dtype=np.float64)
    coef = (3.0 - a) / (2.0 * rho_k * (1.0 + L_tilde * lam)) - 1.0
    H = (np.sum((X_k - x_bar) ** 2, axis=-1)
         + (1.0 - alpha_k) * coef * np.sum((X_k - X_km1) ** 2, axis=-1)
         - alpha_k * np.sum((X_km1 - x_bar) ** 2, axis=-1))
    return float(H) if X_k.ndim == 1 else H
