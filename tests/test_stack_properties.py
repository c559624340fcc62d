"""Properties of the layered-stack mode functions that hold for any valid input.

Random stacks of Drude, constant-permittivity and vacuum layers, each with a
random permeability, with three or five layers, at xi > 0 and at xi = 0 under
every zero-mode prescription. Layers are drawn from a small pool, so a stack
may repeat a layer object (as the package's own stacks do) or hold equal but
distinct ones.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from casimir.materials import Constant, Drude, Permeability, Vacuum
from casimir.stack import (DrudeLike, FromModel, Layer, PlasmaLike,
                           Polarization, d_ln_g, ln_g)

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


@st.composite
def systems(draw):
    """(layers, thicknesses, k, xi, zero mode) of a 3- or 5-layer stack."""
    n = draw(st.sampled_from([3, 5]))
    pool = draw(st.lists(layers, min_size=1, max_size=3))
    stack = tuple(draw(st.sampled_from(pool)) for _ in range(n))
    thicknesses = tuple(draw(st.floats(1e-8, 1e-6)) for _ in range(n - 2))
    k = np.array(draw(st.lists(st.floats(1e5, 1e8), min_size=1, max_size=4)))
    return stack, thicknesses, k, draw(frequencies), draw(zero_modes)


@PROPERTY
@given(systems(), st.booleans())
def test_uniform_stack_has_no_interaction(system, copies):
    stack, thicknesses, k, xi, zero_mode = system
    # one layer object throughout, or equal copies evaluated separately
    uniform = tuple(Layer(stack[0].eps, stack[0].mu) if copies else stack[0]
                    for _ in stack)
    for pol in Polarization:
        values = ln_g(pol, uniform, thicknesses, k, xi, zero_mode)
        assert np.all(values == 0.0)


@PROPERTY
@given(systems())
def test_mirrored_stack_has_the_same_mode_function(system):
    stack, thicknesses, k, xi, zero_mode = system
    for pol in Polarization:
        direct = ln_g(pol, stack, thicknesses, k, xi, zero_mode)
        mirrored = ln_g(pol, stack[::-1], thicknesses[::-1], k, xi, zero_mode)
        np.testing.assert_allclose(mirrored, direct, rtol=1e-9, atol=1e-14)


@PROPERTY
@given(systems())
def test_ln_g_is_finite(system):
    stack, thicknesses, k, xi, zero_mode = system
    for pol in Polarization:
        assert np.all(np.isfinite(ln_g(pol, stack, thicknesses, k, xi,
                                       zero_mode)))


@PROPERTY
@given(systems(), st.data())
def test_thickness_derivative_matches_central_difference(system, data):
    stack, thicknesses, k, xi, zero_mode = system
    which = data.draw(st.integers(1, len(thicknesses)))
    h = 1e-6 * thicknesses[which - 1]

    def shifted(step):
        ds = list(thicknesses)
        ds[which - 1] += step
        return ln_g(pol, stack, tuple(ds), k, xi, zero_mode)

    for pol in Polarization:
        exact = d_ln_g(pol, stack, thicknesses, k, xi, zero_mode, which=which)
        fd = (shifted(h) - shifted(-h)) / (2.0 * h)
        # O(h**2) truncation plus the rounding of ln G, about eps*|ln G| / h
        noise = np.finfo(float).eps * np.abs(shifted(0.0)) / h
        assert np.all(np.abs(fd - exact) <= 1e-5 * np.abs(exact) + 16.0 * noise)
