"""Casimir torque between two crossed rectangular plates.

Two plates of common width L (lengths K and H, H**2 > K**2 + L**2) face
each other across a gap d3 at a relative angle theta about their common
center. The interaction energy is the overlap area S(theta) times the
parallel-plate energy per area, so the torque is M = -S'(theta) times
that (negative) energy density: negative torque drives theta toward 0.

The overlap changes character at theta_0 = arcsin(2KL/(K**2+L**2)).
Above it only the two width-L strips matter and the overlap is a
parallelogram: S = L**2/sin(theta), P = 4L/sin(theta). Below it the ends
of the shorter plate (K x L) truncate the shape: it is that plate less two
corner triangles, cut off by the long edges of the other plate, with legs

    a = K/2 - L(1 - cos(theta))/(2 sin(theta)),
    b = L/2 - (L - K sin(theta))/(2 cos(theta)),

so S = KL - ab and P = 2K + 2L - 2(a + b) + 2 sqrt(a**2 + b**2). At
theta = 0 the overlap is the whole shorter plate: S = KL, P = 2(K + L).
S'(theta) is continuous across theta_0 but P'(theta) is not, so the
derivative operations reject theta = theta_0 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import c, hbar
from .lifshitz import QuadratureConfig, _naming_systems, energy_per_area_T
from .stack import Stack
# perfbench/tracing.py patches these names here; nothing in this module calls them
from .lifshitz import matsubara_energy  # noqa: F401
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
        if not 0.0 < self.d3 < math.inf:
            raise ValueError("d3 must be positive and finite")

    @property
    def theta_branch(self):
        return theta0(self.plate_k, self.plate_l)


@dataclass(frozen=True)
class OverlapShape:
    """Area and perimeter of the overlap of the two plates."""

    area: float
    perimeter: float


def overlap(geom):
    """Overlap of the two co-centered plates at the given angle."""
    th = geom.theta
    kl, ll = geom.plate_k, geom.plate_l
    if th == 0.0:
        return OverlapShape(kl * ll, 2.0 * (kl + ll))
    st, ct = math.sin(th), math.cos(th)
    if th > geom.theta_branch:
        return OverlapShape(ll ** 2 / st, 4.0 * ll / st)
    # the K x L plate less two corner triangles with legs a and b
    a = kl / 2.0 - ll * (1.0 - ct) / (2.0 * st)
    b = ll / 2.0 - (ll - kl * st) / (2.0 * ct)
    return OverlapShape(kl * ll - a * b,
                        2.0 * kl + 2.0 * ll - 2.0 * (a + b)
                        + 2.0 * math.sqrt(a ** 2 + b ** 2))


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
    d3 = 100 nm, 300 K differ from half-spaces by ~8e-4). Errors of failing
    rows name their ``energy``: five-layer, plate a or plate b.
    """
    t = plate_thickness
    # equal plates share one isolated-plate sum; all sums are rows of one pass
    plates = (plate_a,) if plate_b == plate_a else (plate_a, plate_b)
    with _naming_systems(("five-layer", "plate a", "plate b")):
        full, *slabs = energy_per_area_T(
            (Stack((medium, plate_a, medium, plate_b, medium), (t, d3, t)),)
            + tuple(Stack((medium, p, medium), (t,)) for p in plates),
            mats, quad)
    return (full.value - slabs[0].value) - slabs[-1].value


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


def edge_torque_ratio(geom):
    """Estimated |edge torque / main torque| ~ 0.066 * d3 * P'/S'.

    On the parallelogram branch P'/S' = 4/L exactly, so the ratio is the
    constant 0.264 * d3 / L.
    """
    return 0.066 * geom.d3 * perimeter_derivative(geom) / area_derivative(geom)
