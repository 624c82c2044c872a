"""Reference implementations that tests compare the library kernels against."""

from moninc.oracle import minibatch_estimate
from moninc.solvers import SolverState, _commit, _extrapolate


def risfbf_step_fixedpoint_form(state: SolverState, problem, alpha_k, lam_k,
                                rho_k, m_k):
    """Same update as risfbf_step, written as X_{k+1} = Z_k - rho_k Phi(Z_k).

    Phi(z) = (z - lam A(z)) - (J(z - lam A(z)) - lam B(J(...))) collects the
    displacement of the corrected forward-backward step; under a shared
    stream the iterates match risfbf_step to round-off.
    """
    Z = _extrapolate(state, alpha_k)
    A = minibatch_estimate(problem.oracle, Z, m_k, state.rng)
    forward = Z - lam_k * A
    Y = problem.resolvent.apply(forward, lam_k)
    B = minibatch_estimate(problem.oracle, Y, m_k, state.rng)
    phi = forward - (Y - lam_k * B)
    X_new = Z - rho_k * phi
    _commit(state, X_new, Y, rho_k, 2 * m_k)
    return state
