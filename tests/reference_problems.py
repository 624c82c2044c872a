"""Problem-side references that tests compare the library against.

`cournot_oracle_sample` is one literal draw of the capacity game's oracle,
and `cournot_batch_in_one_draw` its batch mean from one (m, n) draw of the
shocks, as the oracle drew it before it drew them in blocks of rows.
`extragradient_sweep` is a plain extragradient sweep, independent of the
library's own solve: it takes a longer step than `synthetic_build`'s and
never polishes an active set. It runs on a stack of instances at once:
row r iterates the 1-D sweep of instance r (step 0.9 / ||M_r||, inside the
extragradient window (0, 1/||M_r||), from 0, until its natural residual
at that step is at most tol); stacking only shares the Python overhead of
each sweep among the rows. The natural residual at a point does not
decrease as the step grows, so this stop is no looser than the same tol
at the library's step 1/(4 ||M_r||).
"""

import numpy as np

from moninc.problems import CournotInstance, _cournot_deterministic


def cournot_oracle_sample(inst: CournotInstance, x, h):
    """One oracle draw: deterministic part plus min(x/eps, h) per firm."""
    h = np.asarray(h, dtype=np.float64)
    return _cournot_deterministic(inst, x) + np.minimum(
        np.asarray(x, dtype=np.float64) / inst.eps, h)


def cournot_batch_in_one_draw(inst: CournotInstance, x, m, rng):
    """The batch mean over m shocks h drawn as one (m, n) array."""
    h = rng.uniform(-5.0, 0.0, (m, inst.n))
    recourse = np.minimum(np.asarray(x, dtype=np.float64) / inst.eps, h)
    return _cournot_deterministic(inst, x) + recourse.mean(axis=0)


def extragradient_sweep(problems, tol=1e-12, max_iters=1_000_000):
    """First sweep point of each affine box problem with residual <= tol.

    problems share one dimension and give affine_matrix M, affine_shift c
    and a box `feasible`. Returns an (R, d) array; a row that does not
    reach tol within max_iters sweeps is nan.
    """
    M = np.stack([p.affine_matrix for p in problems])
    c = np.stack([p.affine_shift for p in problems])[:, :, None]
    lo = np.stack([p.feasible.lower for p in problems])[:, :, None]
    hi = np.stack([p.feasible.upper for p in problems])[:, :, None]
    lam = np.array([[[0.9 / np.linalg.norm(m, 2)]] for m in M])
    x = np.zeros_like(c)   # (R, d, 1): matmul treats each row alone
    out = np.full_like(c, np.nan)
    rows = np.arange(len(c))   # instances still sweeping, as stack rows
    tol_sq = tol * tol
    for _ in range(max_iters):
        y = np.minimum(np.maximum(x - lam * (M @ x + c), lo), hi)
        diff = x - y
        res_sq = np.einsum("rij,rij->r", diff, diff)
        if res_sq.min() <= tol_sq:
            reached = res_sq <= tol_sq
            out[rows[reached]] = x[reached]
            keep = ~reached
            if not keep.any():
                break
            rows, M, c, lo, hi, lam, x, y = (
                a[keep] for a in (rows, M, c, lo, hi, lam, x, y))
        x = np.minimum(np.maximum(x - lam * (M @ y + c), lo), hi)
    return out[:, :, 0]
