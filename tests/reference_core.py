"""Point coercion and blockwise resolvents that tests use as references.

`resolvent_product` composes resolvents over a partition of the coordinates
one block at a time: the reference that the group-lasso problem's
vectorised `_CapResolvent` must equal, and the map that the resolvent
property suites run on.
"""

import numpy as np

from moninc.core import BallSet, NumericFailure, ResolventMap, project_ball


def as_point(x) -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite coordinates."""
    p = np.asarray(x, dtype=np.float64)
    if p.ndim == 0:
        p = p.reshape(1)
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise NumericFailure("point has non-finite coordinates")
    return p


class IdentityResolvent(ResolventMap):
    """Resolvent of T = 0: the identity for every lam."""

    def apply(self, x, lam):
        return np.asarray(x, dtype=np.float64).copy()


class BallResolvent(ResolventMap):
    """Resolvent of the normal cone of a ball: projection, independent of lam."""

    def __init__(self, ball: BallSet):
        self.ball = ball

    def apply(self, x, lam):
        return project_ball(x, self.ball)


class _ProductResolvent(ResolventMap):
    def __init__(self, blocks, dim):
        self.blocks = blocks  # list of (resolvent, start, stop)
        self.dim = dim

    def apply(self, x, lam):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.dim:
            raise ValueError(f"dimension mismatch: {x.shape[0]} vs {self.dim}")
        out = np.empty_like(x)
        for res, start, stop in self.blocks:
            out[start:stop] = res.apply(x[start:stop], lam)
        return out


def resolvent_product(blocks) -> ResolventMap:
    """Blockwise resolvent over a partition of the coordinates.

    `blocks` is a sequence of (ResolventMap, index_range) pairs where
    index_range is a (start, stop) pair or a range object. The ranges must
    partition [0, d) with d the largest stop; overlaps or gaps are errors.
    """
    norm = []
    for res, rng in blocks:
        if isinstance(rng, range):
            if rng.step != 1:
                raise ValueError("index ranges must have step 1")
            start, stop = rng.start, rng.stop
        else:
            start, stop = int(rng[0]), int(rng[1])
        if not (0 <= start < stop):
            raise ValueError(f"bad index range ({start}, {stop})")
        norm.append((res, start, stop))
    if not norm:
        raise ValueError("resolvent_product needs at least one block")
    norm.sort(key=lambda b: b[1])
    cursor = 0
    for _, start, stop in norm:
        if start < cursor:
            raise ValueError(f"overlapping index ranges at {start}")
        if start > cursor:
            raise ValueError(f"gap in index ranges at [{cursor}, {start})")
        cursor = stop
    return _ProductResolvent(norm, cursor)
