"""Ambient-space primitives: feasible sets, projections, resolvents.

Everything downstream (solvers, merit functions, problem builders) works with
dense 1-D float64 arrays. Set-valued parts enter only through their resolvents,
which for every built-in problem are closed-form projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericFailure",
    "UnsupportedOperation",
    "BoxSet",
    "BallSet",
    "project_box",
    "project_ball",
    "ResolventMap",
    "BoxResolvent",
    "operator_norm",
]

_NORM_ITERS, _NORM_TOL = 200, 1e-12  # operator_norm's power-iteration stop


class NumericFailure(RuntimeError):
    """A non-finite value surfaced where finite arithmetic was required."""


class UnsupportedOperation(RuntimeError):
    """The object lacks the contract needed for the requested computation."""


@dataclass(frozen=True)
class BoxSet:
    """Axis-aligned box {x : lower <= x <= upper} (componentwise)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]


@dataclass(frozen=True)
class BallSet:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=np.float64)
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ValueError("ball center must be a finite 1-D array")
        r = float(self.radius)
        if r < 0:
            raise ValueError("ball radius must be nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return self.center.shape[0]


def project_box(x, box: BoxSet) -> np.ndarray:
    """Orthogonal projection onto a box (componentwise clamp).

    Ties at a bound return the bound itself, so the map is deterministic
    and idempotent.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != box.lower.shape:
        raise ValueError(
            f"dimension mismatch: point {x.shape} vs box {box.lower.shape}"
        )
    return np.clip(x, box.lower, box.upper)


def project_ball(x, ball: BallSet) -> np.ndarray:
    """Orthogonal projection onto a Euclidean ball (radial scaling)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != ball.center.shape:
        raise ValueError(
            f"dimension mismatch: point {x.shape} vs ball {ball.center.shape}"
        )
    diff = x - ball.center
    dist = float(np.linalg.norm(diff))
    if dist <= ball.radius:
        return x.copy()
    return ball.center + (ball.radius / dist) * diff


class ResolventMap:
    """Evaluation contract for J = (Id + lam*T)^(-1) of a maximal monotone T.

    Subclasses implement apply(x, lam). Every map produced here is firmly
    nonexpansive: ||J(x) - J(y)|| <= ||x - y||.
    """

    def apply(self, x: np.ndarray, lam: float) -> np.ndarray:
        raise NotImplementedError


class BoxResolvent(ResolventMap):
    """Resolvent of the normal cone of a box: projection, independent of lam."""

    def __init__(self, box: BoxSet):
        self.box = box

    def apply(self, x, lam):
        return project_box(x, self.box)


def operator_norm(apply, apply_adjoint, dim: int) -> float:
    """Spectral norm of a linear map via power iteration on adjoint(apply(.)).

    The starting vector is deterministic (normalized all-ones) so that
    Lipschitz estimates feeding step sizes are reproducible. Stops when the
    eigenvalue estimate changes by at most a relative 1e-12, or after 200
    steps. A zero map returns 0.
    """
    v = np.ones(dim) / np.sqrt(dim)
    est = 0.0
    for _ in range(_NORM_ITERS):
        w = apply_adjoint(apply(v))
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            return 0.0
        new_est = float(v @ w)  # Rayleigh quotient for the PSD composition
        v = w / nw
        if abs(new_est - est) <= _NORM_TOL * max(1.0, abs(new_est)):
            est = new_est
            break
        est = new_est
    return float(np.sqrt(max(est, 0.0)))
