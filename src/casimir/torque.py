"""Casimir torque between two crossed rectangular plates.

Two plates of common width L (lengths K and H, H**2 > K**2 + L**2) face
each other across a gap d3 at a relative angle theta about their common
center. The interaction energy is the overlap area S(theta) times the
parallel-plate energy per area, so the torque is M = -S'(theta) times
that (negative) energy density: negative torque drives theta toward 0.

The overlap changes character at theta_0 = arcsin(2KL/(K**2+L**2)):
above it only the two width-L strips matter and the overlap is a
parallelogram; below it the shorter plate's ends truncate the shape.
S'(theta) is continuous across theta_0 but P'(theta) is not, so the
derivative operations reject theta = theta_0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c, hbar

from .lifshitz import (QuadratureConfig, _mode_sum, energy_per_area_T,
                       matsubara_energy)
from .stack import FiveLayerStack
# perfbench/tracing.py patches this name here; nothing in this module calls it
from .stack import ln_g_slab_in_medium  # noqa: F401


class BranchPointError(ValueError):
    """The requested angle sits exactly on a branch point of the geometry."""


def theta0(plate_k, plate_l):
    """Angle below which the shorter plate's ends truncate the overlap."""
    if not plate_l > 0.0 or plate_k < plate_l:
        raise ValueError("plate lengths must satisfy K >= L > 0")
    return math.asin(2.0 * plate_k * plate_l / (plate_k ** 2 + plate_l ** 2))


@dataclass(frozen=True)
class TorqueGeometry:
    """Crossed-plate layout: lengths K > L (width), H, angle and gap d3."""

    plate_k: float
    plate_l: float
    plate_h: float
    theta: float
    d3: float

    def __post_init__(self):
        if not (self.plate_k > self.plate_l > 0.0):
            raise ValueError("plate lengths must satisfy K > L > 0")
        if not self.plate_h ** 2 > self.plate_k ** 2 + self.plate_l ** 2:
            raise ValueError("H**2 must exceed K**2 + L**2 so only one plate's "
                             "ends can truncate the overlap")
        if not 0.0 <= self.theta <= math.pi / 2.0:
            raise ValueError("theta must lie in [0, pi/2]")
        if not self.d3 > 0.0:
            raise ValueError("d3 must be positive")

    @property
    def theta_branch(self):
        return theta0(self.plate_k, self.plate_l)


@dataclass(frozen=True)
class OverlapShape:
    """Convex overlap polygon with its exact area and perimeter."""

    vertices: tuple
    area: float
    perimeter: float


def _rectangle(length, width):
    hx, hy = 0.5 * length, 0.5 * width
    return [(-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy)]


def _rotate(polygon, theta):
    ct, st = math.cos(theta), math.sin(theta)
    return [(ct * x - st * y, st * x + ct * y) for x, y in polygon]


def _clip(subject, clip_polygon):
    """Sutherland-Hodgman intersection of convex polygons (CCW vertex order)."""
    output = list(subject)
    n = len(clip_polygon)
    for i in range(n):
        if not output:
            return []
        ax, ay = clip_polygon[i]
        bx, by = clip_polygon[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        inputs = output
        output = []
        prev = inputs[-1]
        prev_in = ex * (prev[1] - ay) - ey * (prev[0] - ax) >= 0.0
        for cur in inputs:
            cur_in = ex * (cur[1] - ay) - ey * (cur[0] - ax) >= 0.0
            if cur_in != prev_in:
                # edge crossing: intersect the segment with the clip line
                dx, dy = cur[0] - prev[0], cur[1] - prev[1]
                denom = ex * dy - ey * dx
                t = (ey * (prev[0] - ax) - ex * (prev[1] - ay)) / denom
                output.append((prev[0] + t * dx, prev[1] + t * dy))
            if cur_in:
                output.append(cur)
            prev, prev_in = cur, cur_in
    return output


def _dedupe(polygon, tol):
    cleaned = []
    for p in polygon:
        if not cleaned or math.hypot(p[0] - cleaned[-1][0], p[1] - cleaned[-1][1]) > tol:
            cleaned.append(p)
    if len(cleaned) > 1 and math.hypot(cleaned[0][0] - cleaned[-1][0],
                                       cleaned[0][1] - cleaned[-1][1]) <= tol:
        cleaned.pop()
    return cleaned


def overlap(geom):
    """Overlap region of the two co-centered plates at the given angle."""
    fixed = _rectangle(geom.plate_k, geom.plate_l)
    rotated = _rotate(_rectangle(geom.plate_h, geom.plate_l), geom.theta)
    poly = _dedupe(_clip(fixed, rotated), 1e-12 * geom.plate_l)
    area = 0.0
    perimeter = 0.0
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        area += x0 * y1 - x1 * y0
        perimeter += math.hypot(x1 - x0, y1 - y0)
    return OverlapShape(tuple(poly), 0.5 * abs(area), perimeter)


def area_closed_form(geom):
    """S(theta) = L**2 / sin(theta) on the parallelogram branch."""
    if not geom.theta > geom.theta_branch:
        raise BranchPointError("closed form S = L**2/sin(theta) holds only above theta_0")
    return geom.plate_l ** 2 / math.sin(geom.theta)


def perimeter_closed_form(geom):
    """P(theta) = 4L / sin(theta) on the parallelogram branch."""
    if not geom.theta > geom.theta_branch:
        raise BranchPointError("closed form P = 4L/sin(theta) holds only above theta_0")
    return 4.0 * geom.plate_l / math.sin(geom.theta)


def _require_off_branch(geom):
    if geom.theta == 0.0:
        raise BranchPointError("derivative formulas are undefined at theta = 0")
    if geom.theta == geom.theta_branch:
        raise BranchPointError(
            "theta sits exactly on the branch point theta_0; offset it "
            "infinitesimally to pick a branch")


def area_derivative(geom):
    """dS/dtheta, piecewise across theta_0 (continuous there)."""
    _require_off_branch(geom)
    th = geom.theta
    kl, ll = geom.plate_k, geom.plate_l
    st, ct = math.sin(th), math.cos(th)
    if th > geom.theta_branch:
        return -ll ** 2 * ct / st ** 2
    s2, c2 = math.sin(2.0 * th), math.cos(2.0 * th)
    first = kl / (2.0 * ct) - ll / s2 + ll / (2.0 * st)
    second = ll / (2.0 * st) - kl / (2.0 * ct) - ll * c2 / s2
    return first * second


def perimeter_derivative(geom):
    """dP/dtheta, piecewise across theta_0 (discontinuous there)."""
    _require_off_branch(geom)
    th = geom.theta
    kl, ll = geom.plate_k, geom.plate_l
    st, ct = math.sin(th), math.cos(th)
    if th > geom.theta_branch:
        return -4.0 * ll * ct / st ** 2
    s2, c2 = math.sin(2.0 * th), math.cos(2.0 * th)
    return (kl / ct ** 2 * (st - 1.0)
            + ll * (4.0 * c2 / s2 ** 2 - 2.0 * ct / st ** 2 + 1.0 / st ** 2
                    + st / ct ** 2))


# ---------------------------------------------------------------------------
# energetics


def torque_energy_density(plate_a, plate_b, medium, d3, mats,
                          quad=QuadratureConfig(), plate_thickness=1e-6):
    """Interaction free energy per overlap area (J/m^2), theta-independent.

    Both plates have the finite thickness ``plate_thickness``; the two
    isolated-plate energies are subtracted so only the interaction across
    d3 remains. Negative for attractive configurations. The thickness is a
    physical input: 1 um metal plates are opaque and match half-spaces to
    ~1e-12, but dielectric plates are not (1 um plates of eps = 5 at
    d3 = 100 nm, 300 K differ from half-spaces by ~8e-4).
    """
    stack = FiveLayerStack((medium, plate_a, medium, plate_b, medium),
                           d2=plate_thickness, d3=d3, d4=plate_thickness)
    e_full = energy_per_area_T(stack, mats, quad)

    def slab_energy(plate):
        ln_g_sum, k_scale = _mode_sum((medium, plate, medium),
                                      (plate_thickness,), mats.zero_mode)
        return matsubara_energy(ln_g_sum, mats, quad, k_scale)

    e_a = slab_energy(plate_a)
    e_b = slab_energy(plate_b)
    return e_full.value - e_a.value - e_b.value


def torque_energy(geom, plate_a, plate_b, medium, mats,
                  quad=QuadratureConfig(), plate_thickness=1e-6):
    """Interaction free energy (J) of the crossed plates at their angle."""
    density = torque_energy_density(plate_a, plate_b, medium, geom.d3, mats,
                                    quad, plate_thickness)
    return overlap(geom).area * density


def torque(geom, plate_a, plate_b, medium, mats, quad=QuadratureConfig(),
           plate_thickness=1e-6):
    """Casimir torque M = -S'(theta) * energy density, in N*m.

    Negative torque rotates the plates toward alignment (theta -> 0).
    The torque at theta = 0 is defined as 0; values near zero follow the
    small-angle branch of S'. Exactly theta_0 is rejected.
    """
    if geom.theta == 0.0:
        return 0.0
    density = torque_energy_density(plate_a, plate_b, medium, geom.d3, mats,
                                    quad, plate_thickness)
    return -area_derivative(geom) * density


def edge_energy(geom):
    """Magnitude estimate of the overlap-boundary energy correction (J).

    Scales with the overlap perimeter: |dE| ~ 0.0009 * hbar * c / d3**2 * P.
    """
    return 0.0009 * hbar * c / geom.d3 ** 2 * overlap(geom).perimeter


def edge_torque_ratio(geom, high_temperature=False):
    """Estimated |edge torque / main torque| ~ 0.066 * d3 * P'/S'.

    On the parallelogram branch P'/S' = 4/L exactly, so the ratio is the
    constant 0.264 * d3 / L. The optional flag scales the estimate by 10
    for the strongly thermal regime.
    """
    ratio = 0.066 * geom.d3 * perimeter_derivative(geom) / area_derivative(geom)
    if high_temperature:
        ratio *= 10.0
    return ratio
