"""Finite-temperature Casimir energies, forces and torques in layered media.

The package models planar stacks ``Stack(layers, thicknesses)`` of any
number N >= 3 of isotropic magnetodielectric layers (the paper's five-layer
system is ``FiveLayerStack``) and evaluates interaction free energies,
normal pressures, the tangential force on a partially inserted plate and
the torque between crossed plates, all from one mode function ``ln_g`` on
the imaginary frequency axis.
"""

from .materials import (Constant, DataFileError, Drude, DrudeTail,
                        OpticalDataTable, Permeability, Plasma, PowerTail,
                        Tabulated, Vacuum, ZeroFrequencyError,
                        drude_synthetic_table, eps2_from_nk, ev_to_radps,
                        fit_power_tail, kk_transform, load_optical_data,
                        plasma_frequency_of, radps_to_ev)
from .quadrature import QuadratureError
from .stack import (DrudeLike, FiveLayerStack, FromModel, Layer, PlasmaLike,
                    Polarization, Stack, StackSymmetryError, d_ln_g, kappa,
                    ln_g, ln_g_full, ln_g_slab_in_medium, ln_g_two_interface,
                    reflection, reflection_zero_mode,
                    require_tangential_symmetry, retracted_stack)
from .lifshitz import (EnergyPerArea, MatsubaraConfig, QuadratureConfig,
                       TruncationRow, energy_per_area_T, energy_per_area_T0,
                       k_integral, matsubara_energy, matsubara_xi,
                       normal_pressure, truncation_report)
from .tangential import (TangentialResult, tangential_force_general,
                         tangential_force_reduced)
from .torque import (BranchPointError, OverlapShape, TorqueGeometry,
                     area_derivative, edge_energy, edge_torque_ratio,
                     overlap, perimeter_derivative, theta0, torque,
                     torque_energy, torque_energy_density)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
