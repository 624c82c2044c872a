"""Reference implementations that tests compare the library kernels against.

The `*_reference` kernels are the four separate kernels the library had
before every method became one configured `risfbf_step`, kept verbatim
with their two helpers inlined, so the bitwise gates compare the one
kernel against code it shares nothing with.
"""

import numpy as np

from moninc.oracle import minibatch_estimate
from moninc.solvers import SolverState


def risfbf_step_reference(state: SolverState, problem, alpha_k, lam_k, rho_k,
                          m_k):
    """One inertial relaxed forward-backward-forward update (two batches)."""
    if alpha_k == 0.0:
        Z = state.X
    else:
        Z = state.X + alpha_k * (state.X - state.X_prev)
    A = minibatch_estimate(problem.oracle, Z, m_k, state.rng)
    Y = problem.resolvent.apply(Z - lam_k * A, lam_k)
    B = minibatch_estimate(problem.oracle, Y, m_k, state.rng)
    correction = Y + lam_k * (A - B)
    if rho_k == 1.0:
        X_new = correction
    else:
        X_new = (1.0 - rho_k) * Z + rho_k * correction
    state.X_prev = state.X
    state.X = X_new
    state.k += 1
    state.oracle_calls += 2 * m_k
    state.avg_num += rho_k * Y
    state.avg_den += rho_k
    return state


def seg_step_reference(state: SolverState, problem, lam, m_k):
    """Extragradient: both the trial and the final point are projected."""
    X = state.X
    A = minibatch_estimate(problem.oracle, X, m_k, state.rng)
    Y = problem.resolvent.apply(X - lam * A, lam)
    B = minibatch_estimate(problem.oracle, Y, m_k, state.rng)
    X_new = problem.resolvent.apply(X - lam * B, lam)
    state.X_prev = state.X
    state.X = X_new
    state.k += 1
    state.oracle_calls += 2 * m_k
    state.avg_num += 1.0 * Y
    state.avg_den += 1.0
    return state


def sa_step_reference(state: SolverState, problem, k, m: int = 1):
    """Projected stochastic approximation with step 1/sqrt(k), one draw."""
    lam_k = 1.0 / np.sqrt(k)
    est = minibatch_estimate(problem.oracle, state.X, m, state.rng)
    X_new = problem.resolvent.apply(state.X - lam_k * est, lam_k)
    state.X_prev = state.X
    state.X = X_new
    state.k += 1
    state.oracle_calls += m
    state.avg_num += 1.0 * X_new
    state.avg_den += 1.0
    return state


def proxpoint_step_reference(state: SolverState, problem, alpha_k, lam_k,
                             rho_k):
    """Relaxed inertial proximal point: no operator evaluations."""
    if alpha_k == 0.0:
        Z = state.X
    else:
        Z = state.X + alpha_k * (state.X - state.X_prev)
    J = problem.resolvent.apply(Z, lam_k)
    if rho_k == 1.0:
        X_new = J
    else:
        X_new = (1.0 - rho_k) * Z + rho_k * J
    state.X_prev = state.X
    state.X = X_new
    state.k += 1
    state.oracle_calls += 0
    state.avg_num += rho_k * J
    state.avg_den += rho_k
    return state


def risfbf_step_fixedpoint_form(state: SolverState, problem, alpha_k, lam_k,
                                rho_k, m_k):
    """Same update as risfbf_step, written as X_{k+1} = Z_k - rho_k Phi(Z_k).

    Phi(z) = (z - lam A(z)) - (J(z - lam A(z)) - lam B(J(...))) collects the
    displacement of the corrected forward-backward step; under a shared
    stream the iterates match risfbf_step to round-off.
    """
    if alpha_k == 0.0:
        Z = state.X
    else:
        Z = state.X + alpha_k * (state.X - state.X_prev)
    A = minibatch_estimate(problem.oracle, Z, m_k, state.rng)
    forward = Z - lam_k * A
    Y = problem.resolvent.apply(forward, lam_k)
    B = minibatch_estimate(problem.oracle, Y, m_k, state.rng)
    phi = forward - (Y - lam_k * B)
    X_new = Z - rho_k * phi
    state.X_prev = state.X
    state.X = X_new
    state.k += 1
    state.oracle_calls += 2 * m_k
    state.avg_num += rho_k * Y
    state.avg_den += rho_k
    return state
