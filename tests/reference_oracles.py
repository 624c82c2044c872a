"""Oracles that tests use, which sample every draw of a batch literally.

Unlike the synthetic problem's oracle, which draws a batch mean from its
law, the noise oracle here draws the whole (m, d) noise block and averages
it, so the 1/m variance law of mini-batching is measured and not true by
construction. `explicit_cap_batch` is the group-lasso batch mean computed
from an explicit (m, d) block of regression samples: the reference that the
group-lasso oracle's O(d) sampler must match in law.
"""

from dataclasses import dataclass

import numpy as np

from moninc.core import NumericFailure
from moninc.oracle import StochasticOracle
from moninc.problems import CapInstance, cap_apply_L, cap_apply_L_adjoint
from reference_core import as_point


@dataclass(frozen=True)
class NoiseModel:
    """Additive noise description: gaussian, uniform, or biased gaussian.

    kind "gaussian": iid N(0, sigma^2) per coordinate.
    kind "uniform": iid U[-half_width, half_width] per coordinate.
    kind "biased": gaussian noise plus a deterministic offset of norm
        bias/sqrt(m) per batch of size m, along a fixed unit direction.
    """

    kind: str
    sigma: float = 0.0
    half_width: float = 0.0
    bias: float = 0.0
    direction: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "uniform", "biased"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        for name in ("sigma", "half_width", "bias"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @staticmethod
    def gaussian(sigma):
        return NoiseModel(kind="gaussian", sigma=float(sigma))

    @staticmethod
    def uniform(half_width):
        return NoiseModel(kind="uniform", half_width=float(half_width))

    @staticmethod
    def biased(sigma, bias, direction=None):
        if direction is not None:
            direction = as_point(direction)
            n = float(np.linalg.norm(direction))
            if n == 0:
                raise ValueError("bias direction must be nonzero")
            direction = direction / n
        return NoiseModel(kind="biased", sigma=float(sigma),
                          bias=float(bias), direction=direction)


class _NoiseInjectionOracle(StochasticOracle):
    """mean_fn plus literal sampled noise; batches draw an (m, d) block.

    Filling an (m, d) array consumes the generator exactly like m sequential
    d-vectors, so batch() and m calls to sample() see the same draws.
    """

    def __init__(self, mean_fn, noise: NoiseModel, dim: int):
        self.mean = mean_fn
        self.noise = noise
        self.dim = int(dim)
        if noise.kind == "uniform":
            per_coord_var = noise.half_width ** 2 / 3.0
        else:
            per_coord_var = noise.sigma ** 2
        self.variance_bound = float(np.sqrt(self.dim * per_coord_var))
        self.bias_bound = noise.bias if noise.kind == "biased" else 0.0
        if noise.kind == "biased":
            u = noise.direction
            if u is None:
                u = np.ones(self.dim) / np.sqrt(self.dim)
            if u.shape[0] != self.dim:
                raise ValueError("bias direction dimension mismatch")
            self._u = u
        else:
            self._u = None

    def _noise_block(self, m, rng):
        if self.noise.kind == "uniform":
            w = self.noise.half_width
            if w == 0.0:
                return None
            return rng.uniform(-w, w, size=(m, self.dim))
        if self.noise.sigma == 0.0:
            return None
        return self.noise.sigma * rng.standard_normal((m, self.dim))

    def batch(self, x, m, rng):
        v = np.asarray(self.mean(x), dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise NumericFailure("oracle draw 0 is non-finite (mean overflow)")
        block = self._noise_block(m, rng)
        if block is not None:
            if not np.all(np.isfinite(block)):
                bad = int(np.where(~np.isfinite(block).all(axis=1))[0][0])
                raise NumericFailure(f"oracle draw {bad} is non-finite")
            v = v + block.mean(axis=0)
        if self._u is not None:
            v = v + (self.noise.bias / np.sqrt(m)) * self._u
        return v


def build_oracle(mean_fn, noise: NoiseModel, dim: int) -> StochasticOracle:
    """Oracle that adds the given noise model on top of an exact mean map."""
    return _NoiseInjectionOracle(mean_fn, noise, dim)


def explicit_cap_batch(inst: CapInstance, z, m, rng):
    """Group-lasso batch mean over m literally drawn samples (a, e)."""
    z = np.asarray(z, dtype=np.float64)
    w, v = z[:inst.d], z[inst.d:]
    A = rng.standard_normal((m, inst.d))
    e = rng.standard_normal(m)
    # residuals against noisy labels b_t = a_t.w_true + sigma*e_t
    res = A @ (w - inst.w_true) - inst.sigma_eps * e
    gw = (A.T @ res) / m + cap_apply_L_adjoint(inst, v)
    return np.concatenate([gw, -cap_apply_L(inst, w)])
