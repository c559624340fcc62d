"""Planar five-layer stacks and their mode functions on the imaginary axis.

A stack is five homogeneous magnetodielectric layers; the outer two are
half-spaces and the inner three have thicknesses d2, d3, d4. For each
polarization the mode function G(k, i*xi) collects every round trip the
field can take between the four interfaces; its logarithm integrates to
the zero-point interaction energy.

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

from .materials import Permeability, ZeroFrequencyError


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
    mu = layer.mu.mu_imag_axis(xi)
    if _is_zero_mode(xi):
        order, coeff = layer.eps.zero_limit()
        if order >= 2:
            return np.sqrt(k_par ** 2 + coeff * mu / c ** 2)
        if order > 0 and np.any(np.asarray(k_par) == 0.0):
            raise ZeroFrequencyError(
                "kappa is undefined at k = 0, xi = 0 for a diverging permittivity")
        return np.sqrt(k_par ** 2 + 0.0)
    eps = layer.eps.eps_imag_axis(xi)
    return np.sqrt(k_par ** 2 + eps * mu * (xi / c) ** 2)


def _r_pair(w_lo, k_lo, w_up, k_up):
    # reflection looking from the lower medium into the upper one
    return (w_up * k_lo - w_lo * k_up) / (w_up * k_lo + w_lo * k_up)


def reflection(pol, lower, upper, k_par, xi):
    """Interface reflection coefficient looking from ``lower`` into ``upper``.

    Magnetic-type (ALPHA) weights the normal wavenumbers with the two
    permeabilities, electric-type (BETA) with the two permittivities.
    Swapping the layers flips the sign.
    """
    k_lo = kappa(lower, k_par, xi)
    k_up = kappa(upper, k_par, xi)
    if pol is Polarization.ALPHA:
        w_lo = lower.mu.mu_imag_axis(xi)
        w_up = upper.mu.mu_imag_axis(xi)
    else:
        w_lo = lower.eps.eps_imag_axis(xi)
        w_up = upper.eps.eps_imag_axis(xi)
    return _r_pair(w_lo, k_lo, w_up, k_up)


def reflection_zero_mode(pol, prescription, k_par):
    """Vacuum-metal interface reflection at xi = 0 under a prescription.

    Electric-type reflection is 1 for any metallic treatment; the
    magnetic-type value is 0 for DrudeLike and interpolates between -1
    (k = 0) and 0 (k -> inf) for PlasmaLike.
    """
    if pol is Polarization.BETA:
        return np.ones_like(np.asarray(k_par, dtype=float)) if np.ndim(k_par) else 1.0
    if isinstance(prescription, DrudeLike):
        return np.zeros_like(np.asarray(k_par, dtype=float)) if np.ndim(k_par) else 0.0
    if isinstance(prescription, PlasmaLike):
        q = np.sqrt(k_par ** 2 + (prescription.omega_p / c) ** 2)
        return (k_par - q) / (k_par + q)
    raise TypeError(f"unsupported zero-mode prescription {prescription!r}")


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


def _reflection_zero(pol, lower_limit, upper_limit, k_par):
    lo_order, lo_coeff, lo_mu = lower_limit
    up_order, up_coeff, up_mu = upper_limit
    k_lo = _kappa_zero(lower_limit, k_par)
    k_up = _kappa_zero(upper_limit, k_par)
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


# ---------------------------------------------------------------------------
# mode functions
#
# Term table for the five-layer G: sign, the interface reflections in the
# coefficient, and which inner layers appear in the round-trip exponent.
# Reflection keys are (layer, direction): (2, -1) looks from layer 2 down
# into layer 1, (2, +1) from layer 2 up into layer 3, and so on.

_G_TERMS = (
    (-1.0, ((2, -1), (2, +1)), (2,)),
    (-1.0, ((3, -1), (3, +1)), (3,)),
    (-1.0, ((4, -1), (4, +1)), (4,)),
    (-1.0, ((2, -1), (3, +1)), (2, 3)),
    (-1.0, ((3, -1), (4, +1)), (3, 4)),
    (+1.0, ((2, -1), (2, +1), (4, -1), (4, +1)), (2, 4)),
    (-1.0, ((2, -1), (4, +1)), (2, 3, 4)),
)


def _coeffs(pol, stack, k_par, xi):
    """Reflections and decay factors of all four interfaces at xi > 0."""
    layers = stack.layers
    kap = {i: kappa(layers[i - 1], k_par, xi) for i in range(1, 6)}
    if pol is Polarization.ALPHA:
        w = {i: layers[i - 1].mu.mu_imag_axis(xi) for i in range(1, 6)}
    else:
        w = {i: layers[i - 1].eps.eps_imag_axis(xi) for i in range(1, 6)}
    refl = {(i, sgn): _r_pair(w[i], kap[i], w[i + sgn], kap[i + sgn])
            for i in (2, 3, 4) for sgn in (-1, +1)}
    decay = {i: np.exp(-2.0 * kap[i] * d)
             for i, d in zip((2, 3, 4), stack.inner_thicknesses)}
    return refl, decay, kap


def _coeffs_zero(pol, stack, k_par, zero_mode):
    limits = [_zero_limit(layer, zero_mode) for layer in stack.layers]
    refl = {(i, sgn): _reflection_zero(pol, limits[i - 1], limits[i - 1 + sgn], k_par)
            for i in (2, 3, 4) for sgn in (-1, +1)}
    kap = {i: _kappa_zero(limits[i - 1], k_par) for i in (2, 3, 4)}
    decay = {i: np.exp(-2.0 * kap[i] * d)
             for i, d in zip((2, 3, 4), stack.inner_thicknesses)}
    return refl, decay, kap


def _combine(refl, decay):
    """Sum of the round-trip terms, i.e. G - 1.

    Kept separate from the leading 1 so callers can form ln G through
    log1p without losing precision when every term is tiny.
    """
    s = 0.0
    for sign, refl_keys, exp_layers in _G_TERMS:
        term = sign
        for key in refl_keys:
            term = term * refl[key]
        for i in exp_layers:
            term = term * decay[i]
        s = s + term
    return s


def _combine_derivative(refl, decay, kap, which):
    """d/d(d_which) of the combined mode function."""
    dg = 0.0
    for sign, refl_keys, exp_layers in _G_TERMS:
        if which not in exp_layers:
            continue
        term = sign
        for key in refl_keys:
            term = term * refl[key]
        for i in exp_layers:
            term = term * decay[i]
        dg = dg + term * (-2.0 * kap[which])
    return dg


def g_full(pol, stack, k_par, xi, zero_mode=None):
    """Five-layer mode function at transverse wavenumber k and frequency i*xi.

    Positive for passive media, equal to 1 when every interface vanishes,
    and below 1 for the attractive configurations this package targets
    (cross terms can push it slightly above 1 in exotic mu/eps orderings).
    At xi = 0 the interface limits are taken under ``zero_mode`` (default:
    each model's own limit).
    """
    if _is_zero_mode(xi):
        refl, decay, _ = _coeffs_zero(pol, stack, k_par, zero_mode or FromModel())
    else:
        refl, decay, _ = _coeffs(pol, stack, k_par, xi)
    return 1.0 + _combine(refl, decay)


# G is positive for passive media, but the term sum can round to -1 (or
# just below) when unit reflections meet underflowing gap factors; clamping
# to the next float above -1 bounds ln G at about -36.7 there, which the
# k weight makes negligible.
_LN_CLAMP = np.nextafter(-1.0, 0.0)


def ln_g_full(pol, stack, k_par, xi, zero_mode=None):
    """log of the five-layer mode function, accurate when G is close to 1."""
    if _is_zero_mode(xi):
        refl, decay, _ = _coeffs_zero(pol, stack, k_par, zero_mode or FromModel())
    else:
        refl, decay, _ = _coeffs(pol, stack, k_par, xi)
    return np.log1p(np.maximum(_combine(refl, decay), _LN_CLAMP))


def g_full_thickness_derivative(pol, stack, which, k_par, xi, zero_mode=None):
    """(G, dG/dd_which) for which in {2, 3, 4}; used by the normal pressure."""
    if which not in (2, 3, 4):
        raise ValueError(f"thickness index must be 2, 3 or 4, got {which}")
    if _is_zero_mode(xi):
        refl, decay, kap = _coeffs_zero(pol, stack, k_par, zero_mode or FromModel())
    else:
        refl, decay, kap = _coeffs(pol, stack, k_par, xi)
    return 1.0 + _combine(refl, decay), _combine_derivative(refl, decay, kap, which)


def _two_interface_term(pol, bounding, gap, d, k_par, xi, zero_mode):
    # the single round-trip term -r**2 * exp(-2*kappa_gap*d), i.e. G - 1
    if _is_zero_mode(xi):
        zm = zero_mode or FromModel()
        gap_lim = _zero_limit(gap, zm)
        r = _reflection_zero(pol, gap_lim, _zero_limit(bounding, zm), k_par)
        kap = _kappa_zero(gap_lim, k_par)
    else:
        r = reflection(pol, gap, bounding, k_par, xi)
        kap = kappa(gap, k_par, xi)
    return -r * r * np.exp(-2.0 * kap * d)


def g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode=None):
    """Mode function of a gap layer of width d between identical half-spaces.

    This is the exact d2, d3 -> infinity reduction of the five-layer form:
    G = 1 - r**2 * exp(-2*kappa_gap*d) with r looking from the gap into
    the bounding medium.
    """
    return 1.0 + _two_interface_term(pol, bounding, gap, d, k_par, xi, zero_mode)


def ln_g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode=None):
    """log of the two-interface mode function, accurate when G is close to 1."""
    term = _two_interface_term(pol, bounding, gap, d, k_par, xi, zero_mode)
    return np.log1p(np.maximum(term, _LN_CLAMP))


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
