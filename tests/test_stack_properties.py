"""Properties of the layered-stack mode functions that hold for any valid input.

Random stacks of Drude, constant-permittivity and vacuum layers, each with a
random permeability, with three to six layers, at xi > 0 and at xi = 0 under
every zero-mode prescription. Layers are drawn from a small pool, so a stack
may repeat a layer object (as the package's own stacks do) or hold equal but
distinct ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              energy_per_area_T, normal_pressure)
from casimir.materials import Constant, Drude, Permeability, Vacuum
from casimir.stack import (DrudeLike, FromModel, Layer, PlasmaLike,
                           Polarization, Stack, _interfaces, d_ln_g, ln_g,
                           reflection)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


# Drude rejects a gamma so small that omega_p**2/gamma overflows
drude = st.tuples(st.floats(1e14, 2e16), st.floats(0.0, 1e15)).filter(
    lambda p: p[1] == 0.0 or math.isfinite(p[0] ** 2 / p[1])).map(
    lambda p: Drude(*p))
permittivities = st.one_of(drude, st.builds(Constant, st.floats(1.0, 50.0)),
                           st.just(Vacuum()))
layers = st.builds(Layer, permittivities, st.builds(Permeability,
                                                    st.floats(0.5, 5.0)))
zero_modes = st.one_of(st.just(FromModel()), st.just(DrudeLike()),
                       st.builds(PlasmaLike, st.floats(1e14, 2e16)))
frequencies = st.one_of(st.just(0.0), st.floats(1e12, 1e17))
wavenumbers = st.lists(st.floats(1e5, 1e8), min_size=1, max_size=4)


@st.composite
def systems(draw):
    """(stack, k, xi, zero mode) of a random Stack of 3 to 6 layers."""
    n = draw(st.sampled_from([3, 4, 5, 6]))
    pool = draw(st.lists(layers, min_size=1, max_size=3))
    stack = Stack(tuple(draw(st.sampled_from(pool)) for _ in range(n)),
                  tuple(draw(st.floats(1e-8, 1e-6)) for _ in range(n - 2)))
    k = np.array(draw(wavenumbers))
    return stack, k, draw(frequencies), draw(zero_modes)


def _with_thickness(stack, which, step):
    """The stack with d_which changed by ``step``."""
    ds = list(stack.thicknesses)
    ds[which - 2] += step
    return Stack(stack.layers, ds)


@PROPERTY
@given(systems(), st.booleans())
def test_uniform_stack_has_no_interaction(system, copies):
    stack, k, xi, zero_mode = system
    # one layer object throughout, or equal copies evaluated separately
    first = stack.layers[0]
    uniform = Stack(tuple(Layer(first.eps, first.mu) if copies else first
                          for _ in stack.layers), stack.thicknesses)
    for values in ln_g(uniform, k, xi, zero_mode).values():
        assert np.all(values == 0.0)


@PROPERTY
@given(systems())
def test_mirrored_stack_has_the_same_mode_function(system):
    stack, k, xi, zero_mode = system
    direct = ln_g(stack, k, xi, zero_mode)
    mirrored = ln_g(Stack(stack.layers[::-1], stack.thicknesses[::-1]), k, xi,
                    zero_mode)
    for pol in Polarization:
        np.testing.assert_allclose(mirrored[pol], direct[pol], rtol=1e-9,
                                   atol=1e-14)


@PROPERTY
@given(layers, layers, wavenumbers, frequencies, zero_modes)
def test_swapping_the_layers_flips_the_sign_of_r(lower, upper, k, xi,
                                                 zero_mode):
    def r(pol, a, b):
        if xi == 0.0:
            # the one interface of a two-layer system under the zero mode
            return _interfaces((a, b), np.array(k), xi, zero_mode)[1][pol][0]
        return reflection(pol, a, b, np.array(k), xi)

    # the numerator is negated exactly and the denominator commutes
    for pol in Polarization:
        assert np.array_equal(r(pol, upper, lower), -r(pol, lower, upper))


@PROPERTY
@given(systems())
def test_ln_g_is_finite(system):
    # G > 0: every factor 1 - R*r*e of the product is positive, unclamped
    stack, k, xi, zero_mode = system
    for values in ln_g(stack, k, xi, zero_mode).values():
        assert np.all(np.isfinite(values))


@PROPERTY
@given(systems(), st.data())
def test_thickness_derivative_matches_central_difference(system, data):
    stack, k, xi, zero_mode = system
    which = data.draw(st.integers(2, len(stack.layers) - 1))
    h = 1e-6 * stack.thicknesses[which - 2]

    def shifted(step):
        return ln_g(_with_thickness(stack, which, step), k, xi, zero_mode)

    exact = d_ln_g(stack, k, xi, zero_mode, which=which)
    for pol in Polarization:
        fd = (shifted(h)[pol] - shifted(-h)[pol]) / (2.0 * h)
        # O(h**2) truncation plus the rounding of ln G, about eps*|ln G| / h
        noise = np.finfo(float).eps * np.abs(shifted(0.0)[pol]) / h
        assert np.all(np.abs(fd - exact[pol])
                      <= 1e-5 * np.abs(exact[pol]) + 16.0 * noise)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@settings(derandomize=True, deadline=None, max_examples=25)
@given(systems(), st.data())
def test_normal_pressure_is_minus_the_energy_derivative(system, data):
    stack, _, _, zero_mode = system
    which = data.draw(st.integers(2, len(stack.layers) - 1))
    d = stack.thicknesses[which - 2]
    h = 1e-4 * d
    mats = MatsubaraConfig(300.0, n_max=4, zero_mode=zero_mode)
    quad = QuadratureConfig(rel_tol=1e-10)

    def energy(step):
        return energy_per_area_T(_with_thickness(stack, which, step), mats,
                                 quad).value

    fd = -(energy(h) - energy(-h)) / (2.0 * h)
    exact = normal_pressure(stack, which, mats, quad)
    # O(h**2) truncation, plus the quadrature error of E over h
    assert abs(fd - exact) <= 1e-5 * (abs(exact) + abs(energy(0.0)) / d)
