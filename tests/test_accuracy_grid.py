"""Delivered accuracy of the Matsubara sums on a grid of systems.

Two-interface stacks (M | vacuum | M) and five-layer stacks
(gold | vacuum | M | vacuum | gold, a 100 nm plate M), with M Drude gold,
a constant eps = 5, an eps = 5, mu = 2 magnetodielectric or a vacuum of
mu = 0.5 (eps*mu < 1), gaps d from 50 nm to 3 um, at 10 K and 300 K,
under the Drude and plasma zero modes.
Each sum, at rel_tol 1e-7 and 1e-9, stays within rel_tol of the same sum
at rel_tol 1e-12. n_max is large enough that every sum stops on its own
tail bound, so the difference is the error of the k-integrals and of the
early stop. Each k-row takes only its share of its sum's tolerance and may
stop on an a-priori bound of its k-tail, so this is where a budget spent
too thin would show.
"""

import itertools

import pytest

from casimir.lifshitz import MatsubaraConfig, QuadratureConfig, energy_per_area_T
from casimir.materials import Constant, Drude, Permeability, Vacuum, ev_to_radps
from casimir.stack import DrudeLike, FiveLayerStack, Layer, PlasmaLike, Stack

GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
VAC = Layer(Vacuum())
MATERIALS = {"gold": GOLD, "eps5": Layer(Constant(5.0)),
             "eps5_mu2": Layer(Constant(5.0), Permeability(2.0)),
             "vac_mu0.5": Layer(Vacuum(), Permeability(0.5))}
ZERO_MODES = (DrudeLike(), PlasmaLike(ev_to_radps(9.0)))


def _stack(kind, material, d):
    m = MATERIALS[material]
    if kind == "two_interface":
        return Stack((m, VAC, m), (d,))
    return FiveLayerStack((GOLD, VAC, m, VAC, GOLD), d, 1e-7, d)


@pytest.mark.parametrize("kind, material, temperature, d", itertools.product(
    ("two_interface", "five_layer"), MATERIALS, (10.0, 300.0), (5e-8, 3e-7, 3e-6)))
def test_delivered_error_within_rel_tol(kind, material, temperature, d):
    stack = _stack(kind, material, d)
    configs = tuple(MatsubaraConfig(temperature, n_max=20000, zero_mode=z)
                    for z in ZERO_MODES)
    reference = energy_per_area_T(stack, configs, QuadratureConfig(1e-12))
    assert all(r.n_stop < 20000 for r in reference)
    for rel_tol in (1e-7, 1e-9):
        energies = energy_per_area_T(stack, configs, QuadratureConfig(rel_tol))
        for energy, ref in zip(energies, reference):
            assert abs(energy.value - ref.value) <= rel_tol * abs(ref.value)
