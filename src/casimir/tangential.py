"""Tangential force on a plate partially inserted between two slabs.

The middle layer of a stack (the third of five) only partly overlaps the
outer slabs; the lateral force per unit width pulling it further in is the
difference between the inserted and the withdrawn free energies per area:

    F/W = -(E_full - E_retracted - E_slab)

where E_retracted replaces the middle layer with the gap medium (the
outer slabs interact across the full width) and E_slab is the middle
plate alone in the gap medium. Positive values pull the plate inward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lifshitz import (MatsubaraConfig, QuadratureConfig, _naming_systems,
                       energy_per_area_T)
from .stack import Stack, require_tangential_symmetry, retracted_stack
# perfbench/tracing.py patches these names here; nothing in this module calls them
from .lifshitz import matsubara_energy  # noqa: F401
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


def tangential_force_general(stack, mats, quad=QuadratureConfig()):
    """Tangential force per unit width (N/m) on the middle layer of a stack.

    The stack has an odd number of layers, and the two gaps on either side
    of the middle layer (layers 2 and 4 of five) must be the same medium.
    Errors of failing rows name their ``energy``: full, retracted or slab.
    """
    require_tangential_symmetry(stack)
    m = len(stack.layers) // 2
    gap, slab = stack.layers[m - 1], stack.layers[m]
    # the slab term is the middle plate alone in the gap medium; the three
    # sums are rows of one Matsubara pass
    with _naming_systems(("full", "retracted", "slab")):
        e_full, e_retracted, e_slab = energy_per_area_T(
            (stack, retracted_stack(stack),
             Stack((gap, slab, gap), (stack.thicknesses[m - 1],))), mats, quad)
    force = -(e_full.value - e_retracted.value - e_slab.value)
    return TangentialResult(force, e_full.value, e_retracted.value,
                            e_slab.value, mats, quad)


def tangential_force_reduced(bounding, gap, d4, mats, quad=QuadratureConfig()):
    """Deep-insertion limit: one gap of width d4 between two half-spaces.

    Equals minus the finite-temperature energy per area of the
    two-interface system, so ideal mirrors give +pi^2*hbar*c/(720*d4^3)
    per unit width at low temperature. A tuple of configs that differ only
    in ``zero_mode`` (say Drude and plasma) gives a tuple of results, each
    with its own config, from one pass over the terms n >= 1. A tuple of
    separations d4 gives a tuple over them: every separation is one more
    row of the same k-quadrature passes, on its own k-scale, and each
    result equals the one of a scalar d4 bit for bit. A failing row raises
    :class:`QuadratureError` with its ``matsubara_n`` and ``separation``.
    """
    separations = d4 if isinstance(d4, tuple) else (d4,)
    for d in separations:
        if not 0.0 < d < math.inf:
            raise ValueError(f"d4 must be positive and finite, got {d}")
    configs = mats if isinstance(mats, tuple) else (mats,)
    stacks = tuple(Stack((bounding, gap, bounding), (d,)) for d in separations)
    with _naming_systems(separations, "separation", "at d4 = {!r} m"):
        energies = energy_per_area_T(stacks, configs, quad)
    results = []
    for per_config in energies:
        row = tuple(TangentialResult(-e.value, e.value, 0.0, 0.0, m, quad)
                    for e, m in zip(per_config, configs))
        results.append(row if isinstance(mats, tuple) else row[0])
    return tuple(results) if isinstance(d4, tuple) else results[0]
