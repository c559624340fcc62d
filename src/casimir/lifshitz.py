"""Zero-point energies and normal pressures of five-layer stacks.

At finite temperature the interaction free energy per unit area is a sum
over discrete imaginary frequencies xi_n = 2*pi*n*kB*T/hbar with the n = 0
term at half weight; at T = 0 the sum becomes an integral over xi. Every
frequency term is a semi-infinite integral over the transverse wavenumber
of k * sum_pol ln G.

Sign convention: attractive configurations have negative energy per area
and negative normal pressure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.constants import Boltzmann as k_B, c, hbar

from .quadrature import (_CHUNK, QuadratureError, semi_infinite_integral,
                         semi_infinite_rows)
from .stack import (FromModel, Polarization, g_full_thickness_derivative,
                    ln_g_full)


def matsubara_xi(n, temperature):
    """n-th Matsubara frequency 2*pi*n*kB*T/hbar in rad/s.

    Written as n times the first frequency so linearity is exact in
    floating point.
    """
    return n * (2.0 * math.pi * k_B * temperature / hbar)


@dataclass(frozen=True)
class MatsubaraConfig:
    """Finite-temperature summation settings.

    temperature is in kelvin; the sum runs over n = 0 .. n_max with the
    n = 0 term at half weight, evaluated under ``zero_mode``.
    """

    temperature: float
    n_max: int = 500
    zero_mode: object = field(default_factory=FromModel)

    def __post_init__(self):
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError(
                f"temperature must be positive and finite, got {self.temperature}")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances for the wavenumber (and T = 0 frequency) integrals.

    Integrands are rescaled to a dimensionless semi-infinite axis set by
    the smallest decay length of the system before panel subdivision.
    """

    rel_tol: float = 1e-9
    max_panels: int = 512

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError("rel_tol must lie in (0, 1e-3]")
        if self.max_panels < 8:
            raise ValueError("max_panels must be at least 8")


@dataclass
class EnergyPerArea:
    """Energy per unit area in J/m^2 with its per-n breakdown.

    ``terms[n]`` is the full contribution of Matsubara index n including
    prefactor and the half weight at n = 0; ``value`` is their compensated
    (ascending-n) sum, so partial sums are reproducible regardless of how
    the terms were computed. ``n_stop`` is the last index evaluated: the
    terms after it are zero padding left by the early stop. ``panels``
    counts the k-quadrature panels of terms 0 .. n_stop.
    """

    value: float
    terms: list
    panels: int = 0
    n_stop: int | None = None

    def partial_sums(self):
        out = []
        acc = []
        for t in self.terms:
            acc.append(t)
            out.append(math.fsum(acc))
        return out


def k_integral(f, quad, scale=1.0):
    """Semi-infinite integral of a vectorized integrand over k in [0, inf).

    ``f`` must include the k Jacobian itself and decay at least
    exponentially on the given k-scale.
    """
    return semi_infinite_integral(f, scale=scale, rel_tol=quad.rel_tol,
                                  max_panels=quad.max_panels)


def _k_rows(f, xi, quad, scale):
    """k-integrals of ``f(k, xi)`` for every frequency in ``xi``, one row each.

    Returns the integrals, panel counts and ``{row: QuadratureError}`` of
    :func:`semi_infinite_rows`; ``f`` sees ``xi`` as a column matching k.
    """
    xi = np.asarray(xi, dtype=float)[:, None]
    return semi_infinite_rows(lambda k, rows: f(k, xi[rows]), len(xi),
                              scale=scale, rel_tol=quad.rel_tol,
                              max_panels=quad.max_panels)


def _tagged(err, n):
    tagged = QuadratureError(
        f"{err} (while integrating Matsubara index n={n})",
        last_estimate=err.last_estimate,
        previous_estimate=err.previous_estimate)
    tagged.matsubara_n = n
    return tagged


def _ascending_terms(ln_g_sum, mats, quad, k_scale):
    """Yield (n, k-integral, panels, failure or None) for n = 1 .. n_max.

    Indices are integrated in chunks of ``_CHUNK`` rows; a chunk is only
    computed once the consumer asks for its first index.
    """
    for start in range(1, mats.n_max + 1, _CHUNK):
        ns = np.arange(start, min(start + _CHUNK, mats.n_max + 1))
        values, panels, failures = _k_rows(lambda k, xi: k * ln_g_sum(k, xi),
                                           matsubara_xi(ns, mats.temperature),
                                           quad, k_scale)
        for row, n in enumerate(ns.tolist()):
            yield n, float(values[row]), int(panels[row]), failures.get(row)


def matsubara_energy(ln_g_sum, ln_g_sum_zero, mats, quad, k_scale):
    """Finite-temperature free energy per area of a generic mode function.

    ``ln_g_sum(k, xi)`` and ``ln_g_sum_zero(k)`` return
    sum_pol ln G(k, i*xi) for xi > 0 and for the zero mode; ``ln_g_sum``
    receives k of shape (rows, points) and xi of shape (rows, 1). Terms are
    accumulated in ascending n and summed with compensation, so the result
    is bitwise stable for a fixed panel decomposition.
    """
    pref = k_B * mats.temperature / (2.0 * math.pi)
    i0, used, failures = _k_rows(lambda k, xi: k * ln_g_sum_zero(k), [0.0],
                                 quad, k_scale)
    if failures:
        raise _tagged(failures[0], 0) from failures[0]
    terms = [0.5 * pref * float(i0[0])]
    panels = int(used[0])
    largest = abs(terms[0])
    dead = 0
    n_stop = 0
    for n_stop, i_n, used, failure in _ascending_terms(ln_g_sum, mats, quad,
                                                       k_scale):
        if failure is not None:
            raise _tagged(failure, n_stop) from failure
        terms.append(pref * i_n)
        panels += used
        largest = max(largest, abs(terms[-1]))
        # terms decay exponentially in n; once several in a row are below
        # double precision relative to the largest, the rest are padding
        dead = dead + 1 if abs(terms[-1]) <= 1e-15 * largest else 0
        if dead >= 3:
            break
    terms.extend([0.0] * (mats.n_max - n_stop))
    return EnergyPerArea(math.fsum(terms), terms, panels, n_stop)


def _stack_ln_g(stack):
    def ln_g_sum(k, xi):
        total = 0.0
        for pol in Polarization:
            total = total + ln_g_full(pol, stack, k, xi)
        return total
    return ln_g_sum


def _stack_ln_g_zero(stack, zero_mode):
    def ln_g_sum_zero(k):
        total = 0.0
        for pol in Polarization:
            total = total + ln_g_full(pol, stack, k, 0.0, zero_mode=zero_mode)
        return total
    return ln_g_sum_zero


def _stack_k_scale(stack):
    # Rescaling by the largest thickness keeps structure from every layer
    # visible: the slowest decay sits at u ~ 1 and faster ones at larger u,
    # which the geometrically growing blocks always reach. The reverse
    # choice would bury large-layer structure inside the first panel.
    return 1.0 / (2.0 * max(stack.inner_thicknesses))


def energy_per_area_T(stack, mats, quad=QuadratureConfig()):
    """Finite-temperature interaction free energy per unit area in J/m^2."""
    return matsubara_energy(_stack_ln_g(stack),
                            _stack_ln_g_zero(stack, mats.zero_mode),
                            mats, quad, _stack_k_scale(stack))


def energy_per_area_T0(stack, quad=QuadratureConfig()):
    """Zero-temperature energy per unit area: integral over xi instead of a sum."""
    ln_g = _stack_ln_g(stack)
    k_scale = _stack_k_scale(stack)
    xi_scale = c * k_scale

    def outer(xis):
        # every xi node of an outer panel is one row of the inner k pass
        values, _, failures = _k_rows(lambda k, xi: k * ln_g(k, xi), xis,
                                      quad, k_scale)
        if failures:
            raise failures[min(failures)]
        return values

    integral = semi_infinite_integral(outer, scale=xi_scale,
                                      rel_tol=quad.rel_tol,
                                      max_panels=quad.max_panels)
    return hbar / (4.0 * math.pi ** 2) * integral


def normal_pressure(stack, which, mats, quad=QuadratureConfig()):
    """Normal pressure (N/m^2) conjugate to one inner thickness.

    Computed from the analytic thickness derivative of ln G, not finite
    differences: P = -d(E/A)/dd_which. Negative values mean attraction.
    """
    zero_mode = mats.zero_mode

    def integrand(k, xi):
        total = 0.0
        for pol in Polarization:
            g, dg = g_full_thickness_derivative(pol, stack, which, k, xi)
            total = total + dg / g
        return total

    def integrand_zero(k):
        total = 0.0
        for pol in Polarization:
            g, dg = g_full_thickness_derivative(pol, stack, which, k, 0.0,
                                                zero_mode=zero_mode)
            total = total + dg / g
        return total

    energy_like = matsubara_energy(integrand, integrand_zero, mats, quad,
                                   _stack_k_scale(stack))
    return -energy_like.value


@dataclass(frozen=True)
class TruncationRow:
    n: int
    value: float
    rel_delta: float | None


def truncation_report(stack, mats, quad, checkpoints):
    """Partial free energies at increasing n_max cutoffs from a single pass.

    Returns one row per checkpoint with the partial sum through that index
    and its relative change against the previous checkpoint.
    """
    checkpoints = [int(n) for n in checkpoints]
    if not checkpoints or sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be a non-empty ascending list")
    if checkpoints[0] < 0 or checkpoints[-1] > mats.n_max:
        raise ValueError(f"checkpoints must lie within [0, n_max={mats.n_max}]")
    run = MatsubaraConfig(mats.temperature, n_max=max(checkpoints[-1], 1),
                          zero_mode=mats.zero_mode)
    energy = energy_per_area_T(stack, run, quad)
    rows = []
    previous = None
    for n in checkpoints:
        value = math.fsum(energy.terms[:n + 1])
        if previous is None or value == 0.0:
            rel = None
        else:
            rel = abs(value - previous) / abs(value)
        rows.append(TruncationRow(n, value, rel))
        previous = value
    return rows
