"""The iterate behind each recorded row of a run.

run() keeps only its recorded rows, never the iterates. It calls the
problem's `rel_error_fn` exactly once per recorded row, on the iterate of
that row, so wrapping that map on a copy of the problem captures X_k
without changing a single number run() records.
"""

import dataclasses

import numpy as np

from moninc.solvers import run


def run_with_points(problem, method, cfg, rng):
    """(result, points): run()'s result and a copy of X_k for each row."""
    inner = problem.rel_error_fn
    points = []

    def capture(x):
        points.append(x.copy())
        return inner(x) if inner is not None else np.nan

    result = run(dataclasses.replace(problem, rel_error_fn=capture), method,
                 cfg, rng)
    assert len(points) == len(result.trajectory.k)
    return result, points
