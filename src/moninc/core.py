"""Ambient-space primitives: feasible sets, projections, resolvents.

Everything downstream (solvers, merit functions, problem builders) works with
dense 1-D float64 arrays. Set-valued parts enter only through their resolvents,
which for every built-in problem are closed-form projections. The projections
also act row by row on a stack of points (..., d), rounding each row exactly
as they round that point alone.
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
]


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


def _rowdot(a, b):
    """Inner products of the rows of two stacks (..., d): a @ b per row.

    A stacked matmul of (1, d) by (d, 1) takes the 1-D dot per row, so each
    value rounds as a @ b does alone; einsum and a reduction over the
    product may not.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def project_box(x, box: BoxSet) -> np.ndarray:
    """Orthogonal projection onto a box (componentwise clamp).

    Ties at a bound return the bound itself, so the map is deterministic
    and idempotent. A stack (..., d) is clamped row by row.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != box.lower.shape:
        raise ValueError(
            f"dimension mismatch: point {x.shape} vs box {box.lower.shape}"
        )
    return np.clip(x, box.lower, box.upper)


def project_ball(x, ball: BallSet) -> np.ndarray:
    """Orthogonal projection onto a Euclidean ball (radial scaling).

    A stack (..., d) is projected row by row: a row within the ball is
    returned as it is, any other is center + (radius / dist) (x - center).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != ball.center.shape:
        raise ValueError(
            f"dimension mismatch: point {x.shape} vs ball {ball.center.shape}"
        )
    diff = x - ball.center
    dist = np.sqrt(_rowdot(diff, diff))
    inside = dist <= ball.radius  # a nan distance scales, as x alone would
    if np.all(inside):
        return x.copy()
    scale = np.divide(ball.radius, dist, out=np.ones_like(dist),
                      where=~inside)
    return np.where(inside[..., None], x,
                    ball.center + scale[..., None] * diff)


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
