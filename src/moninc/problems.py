"""Built-in problem instances.

Three families, each packaged as a ProblemInstance holding the stochastic
oracle, the resolvent of the set-valued part, the Lipschitz constant of the
mean operator, and whatever ground truth is available:

* a two-stage capacity game among N firms with a smoothed stochastic
  recourse term (merely or strongly monotone depending on configuration),
* an overlapping group-lasso regression posed as a primal-dual saddle
  point (monotone, affine mean), and
* a synthetic affine operator mu*I + S with S skew (the verification
  workhorse), whose x* comes from the affine-box solve the game shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (BoxSet, BoxResolvent, ResolventMap, project_box, _matvec,
                   _rownorm)
from .oracle import StochasticOracle

__all__ = [
    "ProblemInstance",
    "CournotInstance",
    "cournot_build",
    "cournot_mean",
    "expected_min_uniform",
    "CapInstance",
    "cap_build",
    "cap_apply_L",
    "cap_apply_L_adjoint",
    "cap_mean",
    "synthetic_build",
]


@dataclass
class ProblemInstance:
    """Everything a solver or merit function needs to know about a problem.

    initial samples the start from the replication stream, rng -> x0 as a
    float64 array (a fixed start draws nothing), whose length is the
    problem's dimension (no field repeats it); solution is a point with
    zero residual when one is known (the box problems); rel_error_fn maps an
    iterate (d,) to a float relative error, or a stack (K, d) to the (K,)
    errors, each bitwise its row's float, when a ground truth exists (x*,
    or the regression weights for the group-lasso problem); the mean is
    x -> M x + c with M = affine_matrix, c = affine_shift on feasible, or
    everywhere when feasible is None, which enables the restricted dual gap.
    """

    oracle: StochasticOracle
    resolvent: object
    lipschitz: float
    initial: object
    strong_monotonicity: float = 0.0
    feasible: object = None
    solution: np.ndarray | None = None
    rel_error_fn: object = None
    affine_matrix: np.ndarray | None = None
    affine_shift: np.ndarray | None = None
    detail: object = None


# ----------------------------------------------------------------------
# Two-stage capacity game with smoothed recourse
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CournotInstance:
    """Parameters of the N-firm capacity game.

    Firm i pays quadratic production cost 0.5*b_hat_i*x_i^2 + a_i*x_i and
    sells at the linear inverse-demand price. The game map sums the
    marginal cost b_hat_i*x_i + a_i, the price term r*(sum_j x_j + x_i) - d,
    and a smoothed recourse gradient whose per-scenario value is
    min(x_i/eps, h_i) with h_i drawn from Uniform[-5, 0].
    """

    n: int
    r: float
    d: float
    a: np.ndarray
    b_hat: np.ndarray
    eps: float
    box: BoxSet


_H_LOW, _H_HIGH = -5.0, 0.0  # the demand shocks h are Uniform[_H_LOW, _H_HIGH]
_R = 0.1  # the slope r of the inverse demand
_SHOCK_ROWS = 1 << 16  # rows of h a batch draws at once (5 MB at n = 10)


def expected_min_uniform(c):
    """E[min(c, h)] for h ~ Uniform[-5, 0], componentwise in c.

    c when c <= -5, -(c^2+25)/10 on (-5, 0), and -2.5 (the mean of h)
    once c >= 0.
    """
    c = np.asarray(c, dtype=np.float64)
    return np.where(c <= -5.0, c,
                    np.where(c >= 0.0, -2.5, -(c * c + 25.0) / 10.0))


def _cournot_deterministic(inst: CournotInstance, x):
    x = np.asarray(x, dtype=np.float64)
    marginal_cost = inst.b_hat * x + inst.a
    price_term = inst.r * (x.sum(axis=-1, keepdims=True) + x) - inst.d
    return marginal_cost + price_term


def cournot_mean(inst: CournotInstance, x):
    """Exact mean operator (recourse expectation in closed form), at one
    point or row by row on a stack (K, n)."""
    c = np.asarray(x, dtype=np.float64) / inst.eps
    return _cournot_deterministic(inst, x) + expected_min_uniform(c)


class _CournotOracle(StochasticOracle):
    def __init__(self, inst: CournotInstance):
        self.inst = inst
        self.mean = lambda x: cournot_mean(inst, x)
        # min(c, .) is a 1-Lipschitz transform of h, so each coordinate's
        # variance is at most var(h) = width^2/12
        width = _H_HIGH - _H_LOW
        self.variance_bound = float(np.sqrt(inst.n * width ** 2 / 12.0))

    def batch(self, x, m, rng):
        # h is drawn _SHOCK_ROWS rows at a time, so memory is bounded
        # whatever m is; an m within one block sums as one (m, n) draw
        inst = self.inst
        c = np.asarray(x, dtype=np.float64) / inst.eps
        total = sum(np.minimum(c, rng.uniform(
                        _H_LOW, _H_HIGH, (min(_SHOCK_ROWS, m - i), inst.n))
                    ).sum(axis=0) for i in range(0, m, _SHOCK_ROWS))
        return _cournot_deterministic(inst, x) + total / m


def _check_cournot(L_V_target, n_firms, **_):
    """L_C = L_V - L_R - L_D, the part of L_V left to the costs; ValueError
    for fewer than one firm or an L_V that leaves the costs nothing."""
    if n_firms < 1:
        raise ValueError("n_firms must be at least 1")
    L_R = _R * (n_firms + 1)
    L_C = L_V_target - L_R - L_V_target / 10.0
    if L_C <= 0:
        raise ValueError(
            f"L_V_target={L_V_target:g} infeasible: needs "
            f"L_V > L_R + L_V/10 with L_R={L_R:g}")
    return L_C


def cournot_build(L_V_target: float, seed: int = 0, n_firms: int = 10,
                  box_upper: float = 10.0) -> ProblemInstance:
    """Capacity game sized to a target Lipschitz constant.

    The constant decomposes as L_V = L_C + L_R + L_D with L_R = r(N+1),
    L_D = 1/eps where the smoothing is eps = 10/L_V, and L_C = max b_hat
    absorbed by the first firm; the remaining quadratic coefficients are
    Uniform[0, L_C] and the linear ones Uniform[2, 3]. On the box x >= 0
    the recourse min(x/eps, h) is h, so the mean is A x + a - d + E h with
    A = diag(b_hat) + r(11^T + I), and x* is the affine-box solve's.
    """
    L_C = _check_cournot(L_V_target, n_firms)
    r, d = _R, 1.0
    rng = np.random.default_rng(seed)
    b_hat = np.empty(n_firms)
    b_hat[0] = L_C
    b_hat[1:] = rng.uniform(0.0, L_C, n_firms - 1)
    a = rng.uniform(2.0, 3.0, n_firms)
    box = BoxSet(np.zeros(n_firms), np.full(n_firms, float(box_upper)))
    inst = CournotInstance(n=n_firms, r=r, d=d, a=a, b_hat=b_hat,
                           eps=10.0 / L_V_target, box=box)
    A = np.diag(b_hat) + r * (np.ones((n_firms, n_firms)) + np.eye(n_firms))
    return _affine_box_problem(
        A, a - d + (_H_LOW + _H_HIGH) / 2.0, box,
        oracle=_CournotOracle(inst),
        lipschitz=float(L_V_target),
        strong_monotonicity=float(np.min(b_hat) + r),
        initial=lambda rng_: rng_.uniform(0.0, 1.0, n_firms),
        detail=inst,
    )


# ----------------------------------------------------------------------
# Overlapping group-lasso saddle point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CapInstance:
    """Primal-dual data for the overlapping group regularized regression.

    Primal block w lives in R^d inside a ball of radius D; one dual block
    per group lives in the unit ball. The linear coupling stacks eta times
    the group slices of w; `index` is the groups concatenated, so dual
    coordinate j couples to primal coordinate index[j].
    """

    d: int
    groups: tuple
    eta: float
    w_true: np.ndarray
    sigma_eps: float
    D: float
    index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index", np.concatenate(self.groups))

    @property
    def dual_dim(self) -> int:
        return self.index.shape[0]


def cap_apply_L(inst: CapInstance, w):
    """Stacked coupling: block g equals eta * w[group g]; row by row on a
    stack (K, d)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[-1] != inst.d:
        raise ValueError(f"dimension mismatch: {w.shape[-1]} vs {inst.d}")
    return inst.eta * w.take(inst.index, axis=-1)


def cap_apply_L_adjoint(inst: CapInstance, v):
    """Adjoint of the stacking map: scatter-add eta * v blocks; row by row
    on a stack (K, dual_dim).

    bincount adds the weights in group order, as a loop over the groups
    would, so the sums are the same to the last bit. A stack is one
    bincount whose row r scatters into bins r*d .. r*d + d - 1, so each
    row adds in its 1-D order; one row's offsets are zero.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != inst.dual_dim:
        raise ValueError(
            f"dimension mismatch: {v.shape[-1]} vs {inst.dual_dim}")
    rows = v.size // inst.dual_dim
    index = inst.index if rows == 1 else (
        inst.index + np.arange(0, rows * inst.d, inst.d)[:, None]).ravel()
    return np.bincount(index, weights=inst.eta * v.ravel(),
                       minlength=rows * inst.d).reshape(*v.shape[:-1], inst.d)


def cap_mean(inst: CapInstance, z):
    """Mean operator: the Gaussian design gives E[aa^T] = I, E[ab] = w_true;
    row by row on a stack (K, d + dual_dim)."""
    z = np.asarray(z, dtype=np.float64)
    w, v = z[..., :inst.d], z[..., inst.d:]
    gw = w - inst.w_true + cap_apply_L_adjoint(inst, v)
    return np.concatenate([gw, -cap_apply_L(inst, w)], axis=-1)


class _CapOracle(StochasticOracle):
    """Group-lasso oracle: the mean of m regression samples, drawn by its law.

    A sample is a ~ N(0, I_d) with label b = a.w_true + sigma*e, and the
    primal part of the batch mean is A^T (A u - sigma e)/m for u = w - w_true.
    That depends on the draws only through the Gram matrix of (A u_hat, e),
    which the Bartlett decomposition gives as c1^2 ~ chi2_m,
    c2^2 ~ chi2_{m-1} and n ~ N(0,1), and through one Gaussian d-vector
    orthogonal to u_hat. Sampling those is exact in distribution and costs
    O(d) whatever m is. With r1 = ||u|| c1 - sigma n the primal part is
    (c1 r1 u_hat + sqrt(r1^2 + sigma^2 c2^2) P g)/m, P the projection
    orthogonal to u_hat.

    variance_bound holds where ||w - w_true|| <= D + ||w_true||, a set that
    contains the primal ball ||w|| <= D; the forward steps also query points
    outside it, where the noise is larger.
    """

    def __init__(self, inst: CapInstance):
        self.inst = inst
        self.mean = lambda z: cap_mean(inst, z)
        # E||aa^T u - u||^2 = (d+1)||u||^2 for unit-variance Gaussian a,
        # plus d*sigma_eps^2 from the labels
        reach = inst.D + float(np.linalg.norm(inst.w_true))
        self.variance_bound = float(np.sqrt(
            (inst.d + 1) * reach ** 2 + inst.d * inst.sigma_eps ** 2))
        # any unit vector serves as u_hat at u = 0, where the law is isotropic
        self._u_hat_at_zero = np.eye(1, inst.d).ravel()

    def batch(self, z, m, rng):
        inst = self.inst
        z = np.asarray(z, dtype=np.float64)
        w, v = z[:inst.d], z[inst.d:]
        u = w - inst.w_true
        norm_u = math.sqrt(u @ u)
        u_hat = u / norm_u if norm_u > 0.0 else self._u_hat_at_zero
        c1 = math.sqrt(2.0 * rng.standard_gamma(0.5 * m))
        c2_sq = 2.0 * rng.standard_gamma(0.5 * (m - 1))  # 0 at m = 1
        n = rng.standard_normal()
        g = rng.standard_normal(inst.d)
        sigma = inst.sigma_eps
        r1 = norm_u * c1 - sigma * n
        scale = math.sqrt(r1 * r1 + sigma * sigma * c2_sq)
        # scale * P g + c1 r1 u_hat, with P g = g - (g.u_hat) u_hat
        along = c1 * r1 - scale * float(g @ u_hat)
        gw = (scale * g + along * u_hat) / m + cap_apply_L_adjoint(inst, v)
        return np.concatenate([gw, -cap_apply_L(inst, w)])


class _CapResolvent(ResolventMap):
    """Projection onto the primal D-ball times the groups' dual unit balls,
    at one point or row by row on a stack (K, dim).

    The groups have equal size, so the dual blocks project as the rows of
    one (..., n_groups, group_size) array. Each block is scaled by
    radius / max(norm, radius): one inside its ball by radius / radius = 1,
    which leaves it bitwise as it is, one outside as its radial projection.
    The dual norms are one einsum, whose stacked form rounds as the
    unstacked one.
    """

    def __init__(self, inst: CapInstance):
        self.d = inst.d
        self.D = inst.D
        self.dual_shape = (len(inst.groups), len(inst.groups[0]))
        self.dim = inst.d + inst.dual_dim

    def apply(self, z, lam):
        out = np.array(z, dtype=np.float64)
        if out.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: {out.shape[-1]} vs {self.dim}")
        w = out[..., :self.d]
        w *= (self.D / np.maximum(_rownorm(w), self.D))[..., None]
        v = out[..., self.d:].reshape(*out.shape[:-1], *self.dual_shape)
        v *= (1.0 / np.maximum(np.sqrt(np.einsum("...ij,...ij->...i", v, v)),
                               1.0))[..., None]
        return out


def _check_cap(n_groups, group_size, overlap, ball_radius=None, **_):
    """ValueError for group sizes or a primal ball cap_build cannot build."""
    for name, size in (("n_groups", n_groups), ("group_size", group_size)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1")
    if overlap > group_size:
        raise ValueError("overlap must not exceed group_size")
    if ball_radius is not None and not 0.0 < ball_radius < math.inf:
        raise ValueError("ball_radius must be positive and finite")


def cap_build(seed: int = 0, n_groups: int = 10, group_size: int = 10,
              overlap: int = 2, eta: float = 1e-4, noise_std: float = 0.1,
              ball_radius: float | None = None) -> ProblemInstance:
    """Overlapping group-lasso regression as a monotone saddle-point problem.

    Defaults reproduce the 82-dimensional design: 10 groups of 10 with 2
    shared coordinates between neighbors, ground-truth weights Gaussian on
    groups 4 and 5 (coordinates 24..41, 0-based) and zero elsewhere.
    """
    _check_cap(n_groups, group_size, overlap, ball_radius)
    stride = group_size - overlap
    groups = tuple(np.arange(g * stride, g * stride + group_size)
                   for g in range(n_groups))
    d = int(groups[-1][-1]) + 1
    rng = np.random.default_rng(seed)
    if n_groups >= 5:
        support = np.unique(np.concatenate([groups[3], groups[4]]))
    else:
        support = groups[-1]
    w_true = np.zeros(d)
    w_true[support] = rng.standard_normal(len(support))
    D = float(ball_radius) if ball_radius is not None \
        else 10.0 * float(np.linalg.norm(w_true))
    inst = CapInstance(d=d, groups=groups, eta=float(eta), w_true=w_true,
                       sigma_eps=float(noise_std), D=D)
    dual_dim = inst.dual_dim
    total = d + dual_dim

    # dense affine form for merit functions: mean(z) = M z + c
    L_mat = np.zeros((dual_dim, d))
    L_mat[np.arange(dual_dim), inst.index] = eta
    M = np.zeros((total, total))
    M[:d, :d] = np.eye(d)
    M[:d, d:] = L_mat.T
    M[d:, :d] = -L_mat
    c = np.concatenate([-w_true, np.zeros(dual_dim)])

    # exact ||M||: L_mat^T L_mat = eta^2 diag(c_j), c_j the groups sharing
    # coordinate j, so each singular value s = eta sqrt(c_j) of L_mat gives
    # M a 2x2 block [[1, s], [-s, 0]] of norm (1 + sqrt(1 + 4 s^2))/2
    shared = int(np.bincount(inst.index).max())
    lipschitz = 0.5 * (1.0 + float(np.sqrt(1.0 + 4.0 * eta**2 * shared)))
    return ProblemInstance(
        oracle=_CapOracle(inst),
        resolvent=_CapResolvent(inst),
        lipschitz=lipschitz,
        strong_monotonicity=0.0,
        feasible=None,
        rel_error_fn=_relative_error(w_true),
        affine_matrix=M,
        affine_shift=c,
        initial=lambda rng_: np.zeros(total),
        detail=inst,
    )


# ----------------------------------------------------------------------
# Affine means on a box: the shared reference solve; the synthetic instance
# ----------------------------------------------------------------------

class _AffineGaussianOracle(StochasticOracle):
    """Affine mean plus Gaussian mini-batch noise, sampled by its law.

    A batch of m iid draws with total per-draw variance sigma^2 has mean
    distributed as V(x) + (sigma_c/sqrt(m)) z with z standard normal and
    sigma_c = sigma/sqrt(d) per coordinate; the oracle draws that batch-mean
    directly, which is exact in distribution and keeps geometric batch
    schedules (m in the millions) at O(d) cost per iteration. An optional
    deterministic offset of norm bias/sqrt(m) along a fixed unit direction
    models the asymptotically vanishing bias regime.
    """

    def __init__(self, M, c, sigma, bias):
        d = c.shape[0]
        self.dim = d
        self.mean = lambda x: _matvec(M, np.asarray(x, dtype=np.float64)) + c
        self.variance_bound = float(sigma)
        self.bias_bound = float(bias)
        self._coord_sigma = float(sigma) / np.sqrt(d)
        self._u = np.ones(d) / np.sqrt(d)

    def batch(self, x, m, rng):
        v = self.mean(x)
        if self.variance_bound > 0.0:
            v = v + (self._coord_sigma / math.sqrt(m)) * \
                rng.standard_normal(self.dim)
        if self.bias_bound > 0.0:
            v = v + (self.bias_bound / math.sqrt(m)) * self._u
        return v


_POLISH_EVERY = 500  # extragradient sweeps between active-set polishes
_REF_TOL, _REF_MAX_ITERS = 1e-12, 1_000_000  # the reference solve's stop


def _polish(M, c, box, y, lam, tol):
    """Exact solution for the active set of y, or None if it is not one.

    The coordinates of y at a bound stay there; the free ones solve
    M_FF x_F = -(c_F + M_FA x_A). The result counts only if its natural
    residual at lam is at most tol: a wrong active set fails that test,
    and a singular free block (an odd one of a skew M) raises LinAlgError.
    """
    free = (y > box.lower) & (y < box.upper)
    x = y.copy()
    try:
        x[free] = np.linalg.solve(M[np.ix_(free, free)],
                                  -(c[free] + M[np.ix_(free, ~free)] @ y[~free]))
    except np.linalg.LinAlgError:
        return None
    x = project_box(x, box)
    resid = float(np.linalg.norm(x - project_box(x - lam * (M @ x + c), box)))
    return (x, resid) if resid <= tol else None


def _solve_affine_box(M, c, box):
    """x* in box with <M x* + c, y - x*> >= 0 for all y in box.

    A deterministic extragradient sweep from 0 with step lam = 1/(4 ||M||)
    runs to natural residual 1e-12. Every 500 sweeps it tries a polish: it
    reads the active bounds off its projected trial point, solves the free
    coordinates' linear system, and stops there if that point's residual at
    lam is at most 1e-12; a rejected polish leaves the sweep as it was.
    Failing to reach 1e-10 within 10^6 sweeps raises RuntimeError.
    """
    L = float(np.linalg.norm(M, 2))
    lam = 1.0 / (4.0 * L) if L > 0 else 0.25
    x = np.zeros(c.shape[0])
    resid = np.inf
    for sweep in range(1, _REF_MAX_ITERS + 1):
        y = project_box(x - lam * (M @ x + c), box)
        resid = float(np.linalg.norm(x - y))
        if resid <= _REF_TOL:
            break
        if sweep % _POLISH_EVERY == 0:
            polished = _polish(M, c, box, y, lam, _REF_TOL)
            if polished is not None:
                x, resid = polished
                break
        x = project_box(x - lam * (M @ y + c), box)
    if resid > 1e-10:
        raise RuntimeError(
            f"reference solve stalled at residual {resid:.3e} "
            f"after {_REF_MAX_ITERS} iterations")
    return x


def _relative_error(ref):
    """z -> ||z[:n] - ref|| / ||ref|| for the n = len(ref) leading
    coordinates, or None when ||ref|| = 0: a float for one point, the (K,)
    errors of a stack (K, d), each bitwise its row's float."""
    n, scale = ref.shape[0], float(np.linalg.norm(ref))
    if scale == 0.0:
        return None

    def rel_error(z):
        z = np.asarray(z, dtype=np.float64)
        err = _rownorm(z[..., :n] - ref) / scale
        return float(err) if z.ndim == 1 else err

    return rel_error


def _affine_box_problem(M, c, box, **fields) -> ProblemInstance:
    """A problem with mean x -> M x + c on box, its projection, x* and
    rel_error_fn ||z - x*|| / ||x*|| (None when x* = 0); fields the rest."""
    xs = _solve_affine_box(M, c, box)
    return ProblemInstance(
        resolvent=BoxResolvent(box), feasible=box, solution=xs,
        rel_error_fn=_relative_error(xs),
        affine_matrix=M, affine_shift=c, **fields)


def _check_synthetic(dim, mu, skew_norm, **_):
    """ValueError for sizes synthetic_build cannot build."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if skew_norm > 0 and dim < 2:
        raise ValueError("skew_norm > 0 needs dim >= 2: a 1x1 skew matrix "
                         "is zero")


def synthetic_build(dim: int = 20, mu: float = 1.0, skew_norm: float = 1.0,
                    sigma: float = 0.0, bias: float = 0.0,
                    box_halfwidth: float = 1.0, seed: int = 0
                    ) -> ProblemInstance:
    """Affine operator V(x) = (mu I + S) x + c on a centered box.

    S is a random skew matrix rescaled to the requested spectral norm, so
    the symmetric part of M is exactly mu*I. The reference solution is
    _solve_affine_box's, computed at build time.
    """
    _check_synthetic(dim, mu, skew_norm)
    rng = np.random.default_rng(seed)
    d = int(dim)
    if skew_norm > 0:
        A = rng.standard_normal((d, d))
        S = A - A.T
        S *= skew_norm / np.linalg.norm(S, 2)
    else:
        S = np.zeros((d, d))
    M = mu * np.eye(d) + S
    g = rng.standard_normal(d)
    c = g / np.linalg.norm(g)
    box = BoxSet(np.full(d, -float(box_halfwidth)),
                 np.full(d, float(box_halfwidth)))
    return _affine_box_problem(
        M, c, box, oracle=_AffineGaussianOracle(M, c, sigma, bias),
        lipschitz=float(np.linalg.norm(M, 2)), strong_monotonicity=float(mu),
        initial=lambda rng_: np.zeros(d))
