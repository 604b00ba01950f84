"""Welzl smallest enclosing ball against exhaustive and projection oracles."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from randcomplex import RngStream, balls_intersect
from randcomplex.miniball import min_enclosing_ball, min_enclosing_radius, triangle_radius

from oracles import ball_intersection_by_projection, meb_radius_exhaustive


def test_two_points_tangency():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    assert min_enclosing_radius(pts) == pytest.approx(1.0)
    assert balls_intersect(pts, 1.0)  # closed balls meet at the midpoint


def test_two_points_apart():
    pts = np.array([[0.0, 0.0], [1.01, 0.0]])
    assert not balls_intersect(pts, 0.5)


def test_equilateral_triangle_circumradius():
    side = 2.0
    pts = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    circum = side / math.sqrt(3.0)
    assert min_enclosing_radius(pts) == pytest.approx(circum, rel=1e-12)
    assert not balls_intersect(pts, 1.05)
    assert balls_intersect(pts, 1.16)


def test_single_point():
    assert balls_intersect(np.array([[3.0, 4.0, 5.0]]), 1e-9)


def test_interior_point_ignored():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.1]])
    assert min_enclosing_radius(pts) == pytest.approx(1.0)


def test_obtuse_triangle_uses_diameter_ball():
    # opposite angle is obtuse, so the ball is the longest side's diameter ball
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 0.5]])
    assert min_enclosing_radius(pts) == pytest.approx(2.0, rel=1e-12)


def test_three_point_radius_matches_scalar():
    """`triangle_radius` against Welzl per triple, degenerate triples included."""
    gen = RngStream(5).generator()
    special = [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # right angle at the first point
        [[3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 0.0]],  # right angle at the last point
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [3.0, 3.0, 3.0]],  # collinear, middle point inside
        [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # collinear, longest side first
        [[1.0, 2.0, 3.0]] * 3,  # coincident
        [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 5.0]],  # two coincident
    ]
    tri = np.concatenate((np.array(special), gen.standard_normal((64, 3, 3))))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = triangle_radius(tri)
        scalar = [min_enclosing_radius(t) for t in tri]
    assert batch[:6].tolist() == [0.5 * math.sqrt(2.0), 2.5, 1.5 * math.sqrt(3.0), 1.0, 0.0, 1.0]
    for t, radius, one in zip(tri, batch, scalar):
        assert radius == pytest.approx(min_enclosing_ball(t)[1], rel=1e-10, abs=1e-15)
        assert one == radius  # a single triple takes the same binary64 steps
    assert triangle_radius(np.empty((0, 3, 2))).shape == (0,)


def test_welzl_agrees_with_exhaustive_oracle():
    # spec invariant: 1e4 random instances, d <= 4, set sizes <= 6
    gen = RngStream(2024).generator()
    for _ in range(10_000):
        d = int(gen.integers(1, 5))
        m = int(gen.integers(1, 7))
        pts = gen.standard_normal((m, d)) * float(gen.random() * 3 + 0.1)
        mine = min_enclosing_radius(pts)
        ref = meb_radius_exhaustive(pts)
        assert mine == pytest.approx(ref, rel=1e-7, abs=1e-9)


def test_welzl_agrees_with_projection_feasibility():
    gen = RngStream(77).generator()
    checked = 0
    for _ in range(300):
        d = int(gen.integers(2, 5))
        m = int(gen.integers(2, 7))
        pts = gen.standard_normal((m, d))
        r = float(gen.random() * 2.0 + 0.2)
        verdict = ball_intersection_by_projection(pts, r)
        if verdict is None:
            continue
        checked += 1
        assert balls_intersect(pts, r) == verdict
    assert checked >= 250


def test_degenerate_duplicate_points():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    assert min_enclosing_radius(pts) == pytest.approx(0.0, abs=1e-12)
    center, radius = min_enclosing_ball(np.array([[2.0, 3.0], [2.0, 3.0]]))
    assert radius == 0.0 and center.tolist() == [2.0, 3.0]
