"""Planar layered stacks and their mode functions on the imaginary axis.

A :class:`Stack` is a sequence of N >= 3 homogeneous magnetodielectric
layers: two half-spaces around N - 2 inner layers of finite thickness. The
paper's five-layer system (:func:`FiveLayerStack`) has inner thicknesses
d2, d3, d4; the two-interface system has one. For each polarization the
mode function G(k, i*xi) collects every round trip the field can take
between the interfaces; its logarithm integrates to the zero-point
interaction energy. :func:`ln_g` and :func:`d_ln_g` evaluate each layer
once per call and return both polarizations.

All k-dependent functions accept scalar or ndarray transverse wavenumbers.
The frequency xi is either a scalar, where xi == 0 selects the zero mode,
or an ndarray of frequencies > 0 that broadcasts against k (one row per
Matsubara frequency in the batched sums). Inner thicknesses broadcast the
same way: a stack whose thicknesses are (rows, 1) columns holds one stack
per row, as the batched sums over several separations use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import c
from .materials import (Permeability, Plasma, Vacuum, ZeroFrequencyError,
                        _require_drude)


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
class Stack:
    """N >= 3 layers from the lower half-space to the upper one, and the
    thicknesses (m) of the N - 2 inner layers in between.

    Layers are numbered 1 to N, so layer j has thickness
    ``thicknesses[j - 2]``: d2, d3, d4 for five layers. A thickness is a
    float, or a (rows, 1) column that broadcasts against k in
    :func:`ln_g` and :func:`d_ln_g` (one stack per row).
    """

    layers: tuple
    thicknesses: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "thicknesses", tuple(self.thicknesses))
        n = len(self.layers)
        if n < 3 or len(self.thicknesses) != n - 2:
            raise ValueError(f"a stack needs N >= 3 layers and N - 2 thicknesses, "
                             f"got {n} and {len(self.thicknesses)}")
        for j, d in enumerate(self.thicknesses, 2):
            if not np.all((d > 0.0) & np.isfinite(d)):
                raise ValueError(f"d{j} must be positive and finite, got {d}")

    @classmethod
    def _unchecked(cls, layers, thicknesses):
        """A stack of members that were already checked, built without checks."""
        stack = object.__new__(cls)
        stack.__dict__.update(layers=layers, thicknesses=tuple(thicknesses))
        return stack


def FiveLayerStack(layers, d2, d3, d4):  # noqa: N802 (reads as a type at call sites)
    """The paper's five-layer :class:`Stack` with inner thicknesses d2, d3, d4."""
    return Stack(layers, (d2, d3, d4))


def require_tangential_symmetry(stack):
    """The stack has a middle layer, and the layers on either side of it are
    the same medium (eps2 = eps4, mu2 = mu4 for five layers)."""
    n = len(stack.layers)
    if n % 2 == 0:
        raise StackSymmetryError(f"a stack of {n} layers has no middle layer")
    lo, hi = stack.layers[n // 2 - 1], stack.layers[n // 2 + 1]
    names = f"layers {n // 2} and {n // 2 + 2}"
    if lo.eps != hi.eps:
        raise StackSymmetryError(f"{names} must share one permittivity model")
    if lo.mu != hi.mu:
        raise StackSymmetryError(f"{names} must share one permeability")


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
        _require_drude("PlasmaLike", self.omega_p)


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
    return _interfaces((layer,), k_par, xi, None)[0][0]


def _r_pair(w_lo, k_lo, w_up, k_up):
    # reflection looking from the lower medium into the upper one
    return (w_up * k_lo - w_lo * k_up) / (w_up * k_lo + w_lo * k_up)


def reflection(pol, lower, upper, k_par, xi):
    """Interface reflection coefficient looking from ``lower`` into ``upper``.

    Magnetic-type (ALPHA) weights the normal wavenumbers with the two
    permeabilities, electric-type (BETA) with the two permittivities.
    Swapping the layers flips the sign.
    """
    return _interfaces((lower, upper), k_par, xi, None)[1][pol][0]


def reflection_zero_mode(pol, prescription, k_par):
    """Vacuum-metal interface reflection at xi = 0 under a prescription.

    Electric-type reflection is 1 for any metallic treatment; the
    magnetic-type value is 0 for DrudeLike and interpolates between -1
    (k = 0) and 0 (k -> inf) for PlasmaLike.
    """
    if not isinstance(prescription, (DrudeLike, PlasmaLike)):
        raise TypeError(f"unsupported zero-mode prescription {prescription!r}")
    # the prescription replaces the xi -> 0 limit of any metal
    r = _interfaces((Layer(Vacuum()), Layer(Plasma(1.0))), k_par, 0.0,
                    prescription)[1][pol][0]
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


def _interfaces(layers, k_par, xi, zero_mode):
    """Normal wavenumbers of ``layers`` and, per polarization, the
    reflections r_{j,j+1}.

    ``r[pol][j]`` looks from layer j up into layer j+1. This is the one
    xi = 0 dispatch of the mode functions: at the scalar xi = 0 every layer
    takes its limit under ``zero_mode`` (default: each model's own limit).
    Each distinct layer object is evaluated once for both polarizations and
    each distinct interface once per polarization; the reverse of an
    interface is its exact IEEE negation.
    """
    zero = _is_zero_mode(xi)
    ids = [id(layer) for layer in layers]
    pairs = list(zip(ids, ids[1:]))
    # weight: mu (ALPHA) or eps (BETA), or the xi = 0 limit for both
    kap, weight = {}, {pol: {} for pol in Polarization}
    for i, layer in dict(zip(ids, layers)).items():
        if zero:
            limit = _zero_limit(layer, zero_mode or FromModel())
            kap[i] = _kappa_zero(limit, k_par)
            weight[Polarization.ALPHA][i] = weight[Polarization.BETA][i] = limit
        else:
            eps = layer.eps.eps_imag_axis(xi)
            mu = layer.mu.mu_imag_axis(xi)
            kap[i] = np.sqrt(k_par ** 2 + eps * mu * (xi / c) ** 2)
            weight[Polarization.ALPHA][i], weight[Polarization.BETA][i] = mu, eps
    refl = {}
    for pol, w in weight.items():
        r = {}
        for lo, up in dict.fromkeys(pairs):
            if (up, lo) in r:
                r[lo, up] = -r[up, lo]
            elif zero:
                r[lo, up] = _reflection_zero(pol, w[lo], w[up], kap[lo], kap[up])
            else:
                r[lo, up] = _r_pair(w[lo], kap[lo], w[up], kap[up])
        refl[pol] = [r[pair] for pair in pairs]
    return [kap[i] for i in ids], refl


# ---------------------------------------------------------------------------
# mode functions
#
# Here layers are indexed 0 (lower half-space) to N-1 (upper half-space);
# inner layer j has thickness thicknesses[j-1] and gap factor
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


def ln_g(stack, k_par, xi, zero_mode=None):
    """``{pol: ln G}`` of a :class:`Stack`, accurate when G is close to 1.

    G is positive for passive media, equal to 1 when every interface
    vanishes, and below 1 for the attractive configurations this package
    targets (cross terms can push it slightly above 1 in exotic mu/eps
    orderings). At xi = 0 the interface limits are taken under
    ``zero_mode`` (default: each model's own limit).
    """
    kap, refl = _interfaces(stack.layers, k_par, xi, zero_mode)
    e = _gap_factors(kap, stack.thicknesses)
    out = {}
    for pol, r in refl.items():
        total = 0.0
        for j, down in enumerate(_below(r, e), 1):
            total = total + np.log1p(-down * r[j] * e[j])
        out[pol] = total
    return out


def _ln_g_k_tail(thickness, kappa):
    """Bound on the integral over k in [K, inf) of k * sum_pol |ln G| from
    one run of equal inner layers of total ``thickness``, at
    kappa = sqrt(K**2 + m*xi**2/c**2) for an m <= eps(i xi)*mu(i xi) of the
    run (any m at xi = 0, where every kappa is at least k).

    Passive layers keep |R_j * r_{j,j+1}| <= 1 (Tomas, above), and within a
    run r = 0, so the run's one term has |log1p(-y)| <= e/(1 - e) with
    e = exp(-2*kappa_run*d) and kappa_run >= kappa. With k dk = kappa dkappa,
    2 polarizations * integral of kappa*e/(1 - e(K)) gives this closed form.
    """
    x = 2.0 * thickness * kappa
    return 2.0 * np.exp(-x) * (x + 1.0) / (4.0 * thickness ** 2 * -np.expm1(-x))


ln_g.k_tail = _ln_g_k_tail


def d_ln_g(stack, k_par, xi, zero_mode=None, *, which):
    """``{pol: d ln G / d d_which}`` for an inner layer 2 <= which <= N - 1.

    G is 1 - x times factors free of that thickness, with x = R_down*R_up*e
    from the reflections of the layers below and above (R_up is R_down of
    the mirrored stack), so the derivative is 2*kappa*x / (1 - x).
    """
    kap, refl = _interfaces(stack.layers, k_par, xi, zero_mode)
    e = _gap_factors(kap, stack.thicknesses)
    j = which - 1  # index into layers
    out = {}
    for pol, r in refl.items():
        up = _below([-x for x in r[::-1]], e[::-1])[len(stack.layers) - 2 - j]
        x = _below(r, e)[j - 1] * up * e[j]
        out[pol] = 2.0 * kap[j] * x / (1.0 - x)
    return out


def _require_inner(stack, which):
    if which not in range(2, len(stack.layers)):
        raise ValueError(f"thickness index must lie in 2 .. "
                         f"{len(stack.layers) - 1}, got {which}")


def retracted_stack(stack):
    """The stack with the middle layer replaced by the gap medium."""
    m = len(stack.layers) // 2
    gap = stack.layers[m - 1]
    return Stack(stack.layers[:m - 1] + (gap,) * 3 + stack.layers[m + 2:],
                 stack.thicknesses)


# ---------------------------------------------------------------------------
# one polarization of named systems: perfbench/tracing.py wraps these where
# lifshitz, tangential and torque import them; the package calls ln_g


def ln_g_full(pol, stack, k_par, xi, zero_mode=None):
    """ln G of one polarization of a stack."""
    return ln_g(stack, k_par, xi, zero_mode)[pol]


def g_full_thickness_derivative(pol, stack, which, k_par, xi, zero_mode=None):
    """(G, dG/dd_which) of one polarization, for 2 <= which <= N - 1."""
    _require_inner(stack, which)
    g = np.exp(ln_g_full(pol, stack, k_par, xi, zero_mode))
    return g, g * d_ln_g(stack, k_par, xi, zero_mode, which=which)[pol]


def ln_g_two_interface(pol, bounding, gap, d, k_par, xi, zero_mode=None):
    """ln G of one polarization of a gap of width d between identical
    half-spaces: G = 1 - r**2 * exp(-2*kappa_gap*d)."""
    return ln_g_full(pol, Stack((bounding, gap, bounding), (d,)), k_par, xi,
                     zero_mode)


def ln_g_slab_in_medium(pol, medium, slab, d, k_par, xi, zero_mode=None):
    """ln G of one polarization of a slab of thickness d in a medium: the
    two-interface form with the decay through the slab."""
    return ln_g_two_interface(pol, medium, slab, d, k_par, xi, zero_mode=zero_mode)
