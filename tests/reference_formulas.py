"""Closed-form formulas that only tests use.

`relative_error` is the plain ||w - w_true|| / ||w_true||, `energy_Q` the
averaged-rate Lyapunov energy of the monotone analysis (criterion 9 checks
it stays nonnegative), and `dominance_constant` the constant D with
z q^z <= D p^z that the rate proofs use to compare geometric sequences.
"""

import math

import numpy as np


def relative_error(w, w_true):
    """||w - w_true|| / ||w_true||; undefined for a zero ground truth."""
    w = np.asarray(w, dtype=np.float64)
    w_true = np.asarray(w_true, dtype=np.float64)
    nt = float(np.linalg.norm(w_true))
    if nt == 0.0:
        raise ValueError("relative error undefined for zero ground truth")
    return float(np.linalg.norm(w - w_true) / nt)


def energy_Q(X_k, X_km1, p, alpha_k, rho_k, lam_k, L):
    """Averaged-rate energy.

    phi_k - alpha_k phi_{k-1}
      + (1 - alpha_k)(5/(4 rho_k (1 + L lam_k)) - 1) Delta_k
    with phi_j = 0.5 ||X_j - p||^2 and Delta_k = 0.5 ||X_k - X_{k-1}||^2.
    Nonnegative whenever the small-step relaxation rule holds.
    """
    X_k = np.asarray(X_k, dtype=np.float64)
    X_km1 = np.asarray(X_km1, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    phi_k = 0.5 * float(np.sum((X_k - p) ** 2))
    phi_km1 = 0.5 * float(np.sum((X_km1 - p) ** 2))
    delta = 0.5 * float(np.sum((X_k - X_km1) ** 2))
    coef = 5.0 / (4.0 * rho_k * (1.0 + L * lam_k)) - 1.0
    return float(phi_k - alpha_k * phi_km1 + (1.0 - alpha_k) * coef * delta)


def dominance_constant(p: float, q: float) -> float:
    """D with z q^z <= D p^z for all z >= 0, given 0 < q < p < 1.

    The maximizer of z (q/p)^z gives D = 1/(e ln(p/q)).
    """
    if not (0.0 < q < p < 1.0):
        raise ValueError("need 0 < q < p < 1")
    return 1.0 / (math.e * math.log(p / q))
