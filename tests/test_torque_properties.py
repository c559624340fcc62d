"""Properties of the crossed-plate overlap that hold for any valid geometry.

Random plates with K > L, H**2 > K**2 + L**2 and an angle off theta_0, on
both branches. The clipped overlap polygon of ``clipped_overlap`` is the
reference: the closed-form overlap matches it and is bounded by the fixed
plate, and the polygon's area and perimeter change at the rates the
analytic derivatives give.
"""

import math

from hypothesis import given, settings, strategies as st

from casimir.torque import (TorqueGeometry, area_derivative, overlap,
                            perimeter_derivative, theta0)
from clipped_overlap import clipped_overlap

PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)

# step of the central differences, in radians
H = 1e-6


@st.composite
def geometries(draw):
    """A TorqueGeometry at least 1e-4 rad from theta_0, 0 and pi/2."""
    plate_l = draw(st.floats(1e-4, 1e-2))
    plate_k = plate_l * draw(st.floats(1.001, 10.0))
    plate_h = math.hypot(plate_k, plate_l) * draw(st.floats(1.001, 5.0))
    branch = theta0(plate_k, plate_l)
    theta = draw(st.floats(1e-4, math.pi / 2.0 - 1e-4).filter(
        lambda t: abs(t - branch) > 1e-4))
    return TorqueGeometry(plate_k, plate_l, plate_h, theta, 1e-7)


def _at(geom, theta):
    return TorqueGeometry(geom.plate_k, geom.plate_l, geom.plate_h, theta,
                          geom.d3)


def _central_difference(geom, quantity):
    ahead = quantity(clipped_overlap(_at(geom, geom.theta + H)))
    behind = quantity(clipped_overlap(_at(geom, geom.theta - H)))
    return (ahead - behind) / (2.0 * H)


@PROPERTY
@given(geometries())
def test_overlap_area_is_bounded_by_the_fixed_plate(geom):
    area = overlap(geom).area
    assert 0.0 < area <= geom.plate_k * geom.plate_l * (1.0 + 1e-12)


@PROPERTY
@given(geometries())
def test_overlap_area_is_the_parallelogram_above_theta0(geom):
    if geom.theta > geom.theta_branch:
        assert math.isclose(overlap(geom).area, clipped_overlap(geom).area,
                            rel_tol=1e-12)


@PROPERTY
@given(geometries())
def test_overlap_matches_the_clipped_polygon(geom):
    shape, clipped = overlap(geom), clipped_overlap(geom)
    assert math.isclose(shape.area, clipped.area, rel_tol=1e-13)
    assert math.isclose(shape.perimeter, clipped.perimeter, rel_tol=1e-13)


@PROPERTY
@given(geometries())
def test_area_derivative_matches_central_difference(geom):
    fd = _central_difference(geom, lambda shape: shape.area)
    exact = area_derivative(geom)
    # O(H**2) truncation, plus the rounding of the area over H
    noise = 1e-15 * geom.plate_k * geom.plate_l / H
    assert abs(fd - exact) <= 1e-5 * abs(exact) + noise


@PROPERTY
@given(geometries())
def test_perimeter_derivative_matches_central_difference(geom):
    fd = _central_difference(geom, lambda shape: shape.perimeter)
    exact = perimeter_derivative(geom)
    noise = 1e-15 * (geom.plate_k + geom.plate_l) / H
    assert abs(fd - exact) <= 1e-5 * abs(exact) + noise
