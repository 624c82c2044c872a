import numpy as np
import pytest

from moninc.core import (BallSet, BoxResolvent, BoxSet, project_ball,
                         project_box)
from reference_core import BallResolvent, IdentityResolvent, resolvent_product


def test_project_box_clips_outside_point():
    box = BoxSet(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    np.testing.assert_array_equal(project_box(np.array([2.0, -3.0]), box),
                                  [1.0, -1.0])


def test_project_box_fixes_interior_point():
    box = BoxSet(np.array([0.0, 0.0]), np.array([5.0, 5.0]))
    x = np.array([1.5, 4.0])
    np.testing.assert_array_equal(project_box(x, box), x)


def test_project_box_dimension_mismatch():
    box = BoxSet(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        project_box(np.zeros(2), box)


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        BoxSet(np.array([1.0]), np.array([0.0]))


def test_project_ball_radial_shrink():
    ball = BallSet(np.zeros(2), 1.0)
    out = project_ball(np.array([3.0, 4.0]), ball)
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)


def test_project_ball_keeps_interior():
    ball = BallSet(np.array([1.0, 0.0]), 2.0)
    x = np.array([1.5, 0.5])
    np.testing.assert_array_equal(project_ball(x, ball), x)


def test_project_ball_zero_radius_maps_to_center():
    ball = BallSet(np.array([2.0, -1.0]), 0.0)
    np.testing.assert_array_equal(project_ball(np.array([9.0, 9.0]), ball),
                                  [2.0, -1.0])


def test_projection_idempotent():
    rng = np.random.default_rng(0)
    box = BoxSet(-np.ones(6), np.ones(6))
    ball = BallSet(rng.standard_normal(6), 1.3)
    for _ in range(100):
        x = 5.0 * rng.standard_normal(6)
        pb = project_box(x, box)
        np.testing.assert_array_equal(project_box(pb, box), pb)
        pc = project_ball(x, ball)
        np.testing.assert_allclose(project_ball(pc, ball), pc, atol=1e-12)


def test_resolvents_are_nonexpansive():
    rng = np.random.default_rng(1)
    maps = [IdentityResolvent(),
            BoxResolvent(BoxSet(-np.ones(4), np.ones(4))),
            BallResolvent(BallSet(np.zeros(4), 0.7))]
    for J in maps:
        for _ in range(200):
            x, y = rng.standard_normal((2, 4)) * 3.0
            lhs = np.linalg.norm(J.apply(x, 0.5) - J.apply(y, 0.5))
            assert lhs <= np.linalg.norm(x - y) + 1e-12


def test_resolvent_product_applies_blockwise():
    box = BoxSet(np.zeros(2), np.ones(2))
    ball = BallSet(np.zeros(3), 1.0)
    J = resolvent_product([(BoxResolvent(box), (0, 2)),
                           (BallResolvent(ball), (2, 5))])
    x = np.array([2.0, -1.0, 3.0, 0.0, 4.0])
    out = J.apply(x, 1.0)
    np.testing.assert_allclose(out[:2], [1.0, 0.0])
    np.testing.assert_allclose(out[2:], project_ball(x[2:], ball))


def test_resolvent_product_rejects_overlap():
    J = IdentityResolvent()
    with pytest.raises(ValueError):
        resolvent_product([(J, (0, 3)), (J, (2, 5))])


def test_resolvent_product_rejects_gap():
    J = IdentityResolvent()
    with pytest.raises(ValueError):
        resolvent_product([(J, (0, 2)), (J, (3, 5))])


def test_resolvent_product_accepts_range_objects():
    J = resolvent_product([(IdentityResolvent(), range(0, 2)),
                           (IdentityResolvent(), range(2, 4))])
    x = np.arange(4.0)
    np.testing.assert_array_equal(J.apply(x, 0.1), x)
