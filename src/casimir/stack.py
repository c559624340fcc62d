"""Planar layered stacks and their mode functions on the imaginary axis.

A stack is a sequence of homogeneous magnetodielectric layers: two
half-spaces around any number of inner layers of finite thickness. The
paper's :class:`FiveLayerStack` has three inner layers d2, d3, d4; the
two-interface system has one. For each polarization the mode function
G(k, i*xi) collects every round trip the field can take between the
interfaces; its logarithm integrates to the zero-point interaction energy.

All k-dependent functions accept scalar or ndarray transverse wavenumbers.
The frequency xi is either a scalar, where xi == 0 selects the zero mode,
or an ndarray of frequencies > 0 that broadcasts against k (one row per
Matsubara frequency in the batched sums).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.constants import c

from .materials import Permeability, Plasma, Vacuum, ZeroFrequencyError


class Polarization(Enum):
    ALPHA = "alpha"  # magnetic type: interface weights are permeabilities
    BETA = "beta"    # electric type: interface weights are permittivities


class StackSymmetryError(ValueError):
    """A constraint between stack layers required by an operation is violated."""


@dataclass(frozen=True)
class Layer:
    """One homogeneous layer: a permittivity model plus a permeability."""

    eps: object
    mu: Permeability = Permeability(1.0)


@dataclass(frozen=True)
class FiveLayerStack:
    layers: tuple
    d2: float
    d3: float
    d4: float

    def __post_init__(self):
        if len(self.layers) != 5:
            raise ValueError(f"a stack has exactly 5 layers, got {len(self.layers)}")
        object.__setattr__(self, "layers", tuple(self.layers))
        for name in ("d2", "d3", "d4"):
            d = getattr(self, name)
            if not (d > 0.0 and np.isfinite(d)):
                raise ValueError(f"{name} must be positive and finite, got {d}")

    @property
    def inner_thicknesses(self):
        return self.d2, self.d3, self.d4


def require_tangential_symmetry(stack):
    """The two inner gaps must be the same medium (eps2 = eps4, mu2 = mu4)."""
    lo, hi = stack.layers[1], stack.layers[3]
    if lo.eps != hi.eps:
        raise StackSymmetryError("layers 2 and 4 must share one permittivity model")
    if lo.mu != hi.mu:
        raise StackSymmetryError("layers 2 and 4 must share one permeability")


# ---------------------------------------------------------------------------
# zero-frequency (n = 0 Matsubara term) prescriptions


@dataclass(frozen=True)
class FromModel:
    """Use each permittivity model's own analytic xi -> 0 limit."""


@dataclass(frozen=True)
class DrudeLike:
    """Treat diverging (metallic) layers as dissipative at xi = 0.

    At a vacuum-metal interface this sends the magnetic-type reflection
    to 0 and the electric-type reflection to 1.
    """


@dataclass(frozen=True)
class PlasmaLike:
    """Treat diverging (metallic) layers as dissipationless at xi = 0.

    omega_p (rad/s) sets the zero-frequency magnetic-type reflection.
    """

    omega_p: float

    def __post_init__(self):
        if not self.omega_p > 0.0:
            raise ValueError("PlasmaLike omega_p must be positive")


# ---------------------------------------------------------------------------
# single-interface quantities


def _is_zero_mode(xi):
    return np.ndim(xi) == 0 and xi == 0.0


def kappa(layer, k_par, xi):
    """Imaginary-axis normal wavenumber sqrt(k**2 + eps*mu*xi**2/c**2).

    Real and >= k_par for passive media. At xi = 0 the limit of
    eps*mu*xi**2 is used; only a dissipationless metal keeps a nonzero
    contribution there.
    """
    if (_is_zero_mode(xi) and 0 < layer.eps.zero_limit()[0] < 2
            and np.any(np.asarray(k_par) == 0.0)):
        raise ZeroFrequencyError(
            "kappa is undefined at k = 0, xi = 0 for a diverging permittivity")
    # kappa does not depend on the polarization
    return _interfaces(Polarization.BETA, (layer,), k_par, xi, None)[0][0]


def _r_pair(w_lo, k_lo, w_up, k_up):
    # reflection looking from the lower medium into the upper one
    return (w_up * k_lo - w_lo * k_up) / (w_up * k_lo + w_lo * k_up)


def reflection(pol, lower, upper, k_par, xi):
    """Interface reflection coefficient looking from ``lower`` into ``upper``.

    Magnetic-type (ALPHA) weights the normal wavenumbers with the two
    permeabilities, electric-type (BETA) with the two permittivities.
    Swapping the layers flips the sign.
    """
    return _interfaces(pol, (lower, upper), k_par, xi, None)[1][0]


def reflection_zero_mode(pol, prescription, k_par):
    """Vacuum-metal interface reflection at xi = 0 under a prescription.

    Electric-type reflection is 1 for any metallic treatment; the
    magnetic-type value is 0 for DrudeLike and interpolates between -1
    (k = 0) and 0 (k -> inf) for PlasmaLike.
    """
    if not isinstance(prescription, (DrudeLike, PlasmaLike)):
        raise TypeError(f"unsupported zero-mode prescription {prescription!r}")
    # the prescription replaces the xi -> 0 limit of any metal
    r = _interfaces(pol, (Layer(Vacuum()), Layer(Plasma(1.0))), k_par, 0.0,
                    prescription)[1][0]
    return np.zeros_like(k_par, dtype=float) + r


# Resolved xi -> 0 behavior of one layer: eps ~ coeff * xi**(-order).
def _zero_limit(layer, zero_mode):
    order, coeff = layer.eps.zero_limit()
    if order > 0 and isinstance(zero_mode, DrudeLike):
        order = 1
    elif order > 0 and isinstance(zero_mode, PlasmaLike):
        order, coeff = 2, zero_mode.omega_p ** 2
    return order, coeff, layer.mu.mu_imag_axis(0.0)


def _kappa_zero(limit, k_par):
    order, coeff, mu = limit
    if order >= 2:
        return np.sqrt(k_par ** 2 + coeff * mu / c ** 2)
    return np.abs(k_par) + 0.0


def _reflection_zero(pol, lower_limit, upper_limit, k_lo, k_up):
    lo_order, lo_coeff, lo_mu = lower_limit
    up_order, up_coeff, up_mu = upper_limit
    if pol is Polarization.ALPHA:
        if lo_order < 2 and up_order < 2:
            # both kappas reduce to k, which cancels
            return (up_mu - lo_mu) / (up_mu + lo_mu)
        return _r_pair(lo_mu, k_lo, up_mu, k_up)
    if up_order > lo_order:
        return 1.0
    if lo_order > up_order:
        return -1.0
    if lo_order < 2:
        # equal-order permittivities with kappa = k on both sides
        return (up_coeff - lo_coeff) / (up_coeff + lo_coeff)
    return _r_pair(lo_coeff, k_lo, up_coeff, k_up)


def _interfaces(pol, layers, k_par, xi, zero_mode):
    """Normal wavenumbers of ``layers`` and the reflections r_{j,j+1}.

    ``r[j]`` looks from layer j up into layer j+1. This is the one xi = 0
    dispatch of the mode functions: at the scalar xi = 0 every layer takes
    its limit under ``zero_mode`` (default: each model's own limit). Each
    distinct layer object is evaluated once and each distinct interface
    once; the reverse of an interface is its exact IEEE negation.
    """
    zero = _is_zero_mode(xi)
    ids = [id(layer) for layer in layers]
    kap, weight, refl = {}, {}, {}   # weight: eps or mu, or the xi = 0 limit
    for i, layer in dict(zip(ids, layers)).items():
        if zero:
            weight[i] = _zero_limit(layer, zero_mode or FromModel())
            kap[i] = _kappa_zero(weight[i], k_par)
        else:
            eps = layer.eps.eps_imag_axis(xi)
            mu = layer.mu.mu_imag_axis(xi)
            kap[i] = np.sqrt(k_par ** 2 + eps * mu * (xi / c) ** 2)
            weight[i] = mu if pol is Polarization.ALPHA else eps
    for lo, up in dict.fromkeys(zip(ids, ids[1:])):
        if (up, lo) in refl:
            refl[lo, up] = -refl[up, lo]
        elif zero:
            refl[lo, up] = _reflection_zero(pol, weight[lo], weight[up],
                                            kap[lo], kap[up])
        else:
            refl[lo, up] = _r_pair(weight[lo], kap[lo], weight[up], kap[up])
    return [kap[i] for i in ids], [refl[pair] for pair in zip(ids, ids[1:])]


# ---------------------------------------------------------------------------
# mode functions
#
# Layers are numbered 0 (lower half-space) to N-1 (upper half-space); inner
# layer j has thickness thicknesses[j-1] and gap factor
# e_j = exp(-2*kappa_j*d_j). In the recursive product form of multilayer
# Lifshitz theory (M. S. Tomas, Phys. Rev. A 66, 052103 (2002)),
#
#     ln G = sum_j log1p(-R_j * r_{j,j+1} * e_j),
#
# where R_j is the reflection of all layers below layer j seen from inside
# it (see _below). The thickness derivative uses the reflections on both
# sides of a layer; forming G - G|_{e_j=0} instead loses precision.


def _gap_factors(kap, thicknesses):
    # one entry per layer; the half-spaces have none
    return [None] + [np.exp(-2.0 * kap[j] * d)
                     for j, d in enumerate(thicknesses, 1)] + [None]


def _below(r, e):
    """[R_1, ..., R_{N-2}]: R_1 = r_{1,0} and, with r_back = r_{j+1,j},
    R_{j+1} = (r_back + R_j*e_j) / (1 + r_back*R_j*e_j)."""
    down = [-r[0]]
    for j in range(1, len(r) - 1):
        r_back, x = -r[j], down[-1] * e[j]
        down.append((r_back + x) / (1.0 + r_back * x))
    return down


# G is positive for passive media, but a factor 1 - R*r*e can round to 0
# (or just below) when unit reflections meet underflowing gap factors;
# clamping R*r*e to the next float below 1 bounds that factor's ln at
# about -36.7 there, which the k weight makes negligible.
_LN_CLAMP = np.nextafter(-1.0, 0.0)


def ln_g(pol, layers, thicknesses, k_par, xi, zero_mode=None):
    """log of the mode function of a layered system, accurate when G is close to 1.

    ``layers`` runs from the lower half-space to the upper one and
    ``thicknesses`` holds the widths of the layers in between. At xi = 0
    the interface limits are taken under ``zero_mode`` (default: each
    model's own limit).
    """
    kap, r = _interfaces(pol, layers, k_par, xi, zero_mode)
    e = _gap_factors(kap, thicknesses)
    total = 0.0
    for j, down in enumerate(_below(r, e), 1):
        total = total + np.log1p(np.maximum(-down * r[j] * e[j], _LN_CLAMP))
    return total


def d_ln_g(pol, layers, thicknesses, k_par, xi, zero_mode=None, *, which):
    """d ln G / d(thickness of ``layers[which]``), for an inner layer ``which``.

    G is 1 - x times factors free of that thickness, with x = R_down*R_up*e
    from the reflections of the layers below and above (R_up is R_down of
    the mirrored stack), so the derivative is 2*kappa*x / (1 - x).
    """
    kap, r = _interfaces(pol, layers, k_par, xi, zero_mode)
    e = _gap_factors(kap, thicknesses)
    up = _below([-x for x in r[::-1]], e[::-1])[len(thicknesses) - which]
    x = _below(r, e)[which - 1] * up * e[which]
    return 2.0 * kap[which] * x / (1.0 - x)


def _require_inner(which):
    if which not in (2, 3, 4):
        raise ValueError(f"thickness index must be 2, 3 or 4, got {which}")


def g_full(pol, stack, k_par, xi, zero_mode=None):
    """Five-layer mode function at transverse wavenumber k and frequency i*xi.

    Positive for passive media, equal to 1 when every interface vanishes,
    and below 1 for the attractive configurations this package targets
    (cross terms can push it slightly above 1 in exotic mu/eps orderings).
    At xi = 0 the interface limits are taken under ``zero_mode`` (default:
    each model's own limit).
    """
    return np.exp(ln_g_full(pol, stack, k_par, xi, zero_mode))


def ln_g_full(pol, stack, k_par, xi, zero_mode=None):
    """log of the five-layer mode function, accurate when G is close to 1."""
    return ln_g(pol, stack.layers, stack.inner_thicknesses, k_par, xi, zero_mode)


def g_full_thickness_derivative(pol, stack, which, k_par, xi, zero_mode=None):
    """(G, dG/dd_which) for which in {2, 3, 4}."""
    _require_inner(which)
    g = g_full(pol, stack, k_par, xi, zero_mode)
    return g, g * d_ln_g(pol, stack.layers, stack.inner_thicknesses, k_par, xi,
                         zero_mode, which=which - 1)


def g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode=None):
    """Mode function of a gap layer of width d between identical half-spaces.

    This is the exact d2, d3 -> infinity reduction of the five-layer form:
    G = 1 - r**2 * exp(-2*kappa_gap*d) with r looking from the gap into
    the bounding medium.
    """
    return np.exp(ln_g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode))


def ln_g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode=None):
    """log of the two-interface mode function, accurate when G is close to 1."""
    return ln_g(pol, (bounding, gap, bounding), (d,), k_par, xi, zero_mode)


def g_slab_in_medium(pol, medium, slab, d, k_par, xi, zero_mode=None):
    """Mode function of an isolated slab of thickness d embedded in a medium.

    Same algebraic form as the two-interface case with the roles swapped:
    the decay runs through the slab and the reflection looks outward.
    """
    return g_two_interface(pol, medium, slab, d, k_par, xi, zero_mode=zero_mode)


def ln_g_slab_in_medium(pol, medium, slab, d, k_par, xi, zero_mode=None):
    """log of the isolated-slab mode function, accurate when G is close to 1."""
    return ln_g_two_interface(pol, medium, slab, d, k_par, xi, zero_mode=zero_mode)


def retracted_stack(stack):
    """The stack with the middle layer replaced by the gap medium."""
    gap = stack.layers[1]
    layers = (stack.layers[0], gap, gap, gap, stack.layers[4])
    return FiveLayerStack(layers, stack.d2, stack.d3, stack.d4)
