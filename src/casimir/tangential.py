"""Tangential force on a plate partially inserted between two slabs.

The middle layer of a five-layer stack only partly overlaps the outer
slabs; the lateral force per unit width pulling it further in is the
difference between the inserted and the withdrawn free energies per area:

    F/W = -(E_full - E_retracted - E_slab)

where E_retracted replaces the middle layer with the gap medium (the
outer slabs interact across the full width) and E_slab is the middle
plate alone in the gap medium. Positive values pull the plate inward.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .lifshitz import (MatsubaraConfig, QuadratureConfig, _mode_sum,
                       energy_per_area_T, matsubara_energy)
from .materials import plasma_frequency_of
from .stack import (DrudeLike, PlasmaLike, require_tangential_symmetry,
                    retracted_stack)
# perfbench/tracing.py patches this name here; nothing in this module calls it
from .stack import ln_g_two_interface  # noqa: F401


@dataclass(frozen=True)
class TangentialResult:
    """Tangential force per unit width plus its three energy components.

    The components are signed per-area energies (J/m^2) satisfying
    force_per_width = -(energy_full - energy_retracted - energy_slab).
    """

    force_per_width: float
    energy_full: float
    energy_retracted: float
    energy_slab: float
    mats: MatsubaraConfig
    quad: QuadratureConfig


def _two_interface_energy(bounding, gap, d, mats, quad):
    ln_g_sum, k_scale = _mode_sum((bounding, gap, bounding), (d,),
                                  mats.zero_mode)
    return matsubara_energy(ln_g_sum, mats, quad, k_scale)


def tangential_force_general(stack, mats, quad=QuadratureConfig()):
    """Tangential force per unit width (N/m) of a general five-layer stack.

    Requires the two gaps (layers 2 and 4) to be the same medium.
    """
    require_tangential_symmetry(stack)
    gap = stack.layers[1]
    slab = stack.layers[2]
    e_full = energy_per_area_T(stack, mats, quad)
    e_retracted = energy_per_area_T(retracted_stack(stack), mats, quad)
    # the slab term is the middle plate alone in the gap medium, which is
    # the two-interface form with the decay through the slab
    e_slab = _two_interface_energy(gap, slab, stack.d3, mats, quad)
    force = -(e_full.value - e_retracted.value - e_slab.value)
    return TangentialResult(force, e_full.value, e_retracted.value,
                            e_slab.value, mats, quad)


def tangential_force_reduced(bounding, gap, d4, mats, quad=QuadratureConfig()):
    """Deep-insertion limit: one gap of width d4 between two half-spaces.

    Equals minus the finite-temperature energy per area of the
    two-interface system, so ideal mirrors give +pi^2*hbar*c/(720*d4^3)
    per unit width at low temperature.
    """
    if not d4 > 0.0:
        raise ValueError("d4 must be positive")
    energy = _two_interface_energy(bounding, gap, d4, mats, quad)
    return TangentialResult(-energy.value, energy.value, 0.0, 0.0, mats, quad)


@dataclass(frozen=True)
class SweepPoint:
    d: float
    force_drude: float
    force_plasma: float
    ratio: float


def _sweep_point(args):
    bounding, gap, d, temperature, n_max, quad = args
    omega_p = plasma_frequency_of(bounding.eps)
    if omega_p is None:
        raise ValueError(
            "the bounding material does not imply a plasma frequency; "
            "a Drude, plasma or Drude-tailed tabulated model is required")
    drude = MatsubaraConfig(temperature, n_max=n_max, zero_mode=DrudeLike())
    plasma = MatsubaraConfig(temperature, n_max=n_max,
                             zero_mode=PlasmaLike(omega_p))
    f_d = tangential_force_reduced(bounding, gap, d, drude, quad).force_per_width
    f_p = tangential_force_reduced(bounding, gap, d, plasma, quad).force_per_width
    ratio = f_p / f_d if f_d != 0.0 else math.nan
    return SweepPoint(d, f_d, f_p, ratio)


def drude_vs_plasma_sweep(bounding, gap, d_grid, temperature, n_max=500,
                          quad=None, workers=1):
    """Reduced tangential force over separations under both zero-mode treatments.

    The plasma frequency of the PlasmaLike treatment is taken from the
    bounding material's model. Separations are processed independently
    (optionally in parallel) and assembled in grid order, so the table is
    deterministic for any worker count.
    """
    if quad is None:
        quad = QuadratureConfig(rel_tol=1e-7)
    jobs = [(bounding, gap, float(d), temperature, n_max, quad) for d in d_grid]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_point, jobs))
    return [_sweep_point(job) for job in jobs]
