"""Properties of the Kramers-Kronig transform that hold for any Drude metal.

A Drude spectrum sampled onto a table, with the Drude closed form below the
data and a fitted power law above it, must transform back to the Drude
permittivity on the imaginary axis over the whole data range.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from casimir.materials import (DrudeTail, drude_synthetic_table, ev_to_radps,
                               fit_power_tail, kk_transform)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

E_MIN, E_MAX = 0.01, 100.0  # eV, the data range


@PROPERTY
@given(st.floats(5.0, 12.0), st.floats(0.01, 0.1),
       st.lists(st.floats(E_MIN, E_MAX), min_size=1, max_size=20))
def test_kk_of_drude_data_is_the_drude_permittivity(omega_p_ev, gamma_ev,
                                                    energies_ev):
    table = drude_synthetic_table(omega_p_ev, gamma_ev, E_MIN, E_MAX,
                                  per_decade=50)
    omega_p, gamma = ev_to_radps(omega_p_ev), ev_to_radps(gamma_ev)
    xi = ev_to_radps(np.array([E_MIN, E_MAX] + energies_ev))
    eps = kk_transform(table, DrudeTail(omega_p, gamma, E_MIN),
                       fit_power_tail(table), xi)
    drude = 1.0 + omega_p ** 2 / (xi * (xi + gamma))
    np.testing.assert_array_less(np.abs(eps / drude - 1.0), 1e-3)
