"""Properties of the Kramers-Kronig transform that hold for any Drude metal.

A Drude spectrum sampled onto a table, with the Drude closed form below the
data and a fitted power law above it, must transform back to the Drude
permittivity on the imaginary axis over the whole data range. On a sparse
table, where one panel per sample segment misses the tolerance, the data
band must still deliver the accuracy asked for.
"""

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from casimir import materials
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


@PROPERTY
@given(st.floats(5.0, 12.0), st.floats(0.01, 0.1), st.integers(1, 5),
       st.sampled_from([1e-3, 1e-6, 1e-9]),
       st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=10))
def test_bisected_data_band_meets_its_tolerance(omega_p_ev, gamma_ev,
                                                per_decade, rel_tol,
                                                log10_xi_ev):
    table = drude_synthetic_table(omega_p_ev, gamma_ev, E_MIN, E_MAX,
                                  per_decade=per_decade)
    xi = ev_to_radps(10.0 ** np.array(log10_xi_ev))
    with mock.patch.object(materials, "_band_bisect",
                           wraps=materials._band_bisect) as bisect:
        band = materials._data_band_integral(table, xi, rel_tol)
    assume(bisect.called)  # some xi missed the tolerance in round 0
    reference = materials._data_band_integral(table, xi, 1e-13)
    np.testing.assert_array_less(np.abs(band - reference),
                                 rel_tol * np.abs(reference))
    # and the reference is the band: a fixed composite Gauss rule agrees
    dense = _dense_band(table, xi)
    np.testing.assert_array_less(np.abs(reference - dense),
                                 1e-12 * np.abs(dense))


def _dense_band(table, xi, panels=200):
    """The data band by a 20-point Gauss-Legendre rule on ``panels`` equal
    panels per sample segment, independent of the adaptive code."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    w, e2 = table.omegas, np.maximum(table.eps2, 1e-300)
    s = np.diff(np.log(e2)) / np.diff(np.log(w))
    t = ((np.arange(panels)[:, None] + 0.5 * (1.0 + nodes)) / panels).ravel()
    x = w[:-1, None] + np.diff(w)[:, None] * t
    f = e2[:-1, None] * (x / w[:-1, None]) ** s[:, None] * x
    y = f / (x ** 2 + xi[:, None, None] ** 2)
    return (y @ np.tile(weights, panels)) @ (0.5 * np.diff(w) / panels)
