"""The a-priori k-tail bound that ends a k-row of a Matsubara pass.

Random passive stacks of three to seven layers (Drude, constant eps >= 1
and vacuum, each with mu >= 1), inner thicknesses from 10 nm to 3 um, at
xi = 0 under every zero mode and at Matsubara frequencies: the bound a
k-pass builds for ln G covers the integral of k * sum_pol ln G over
[K, inf), computed at rel_tol 1e-12, at every K. Layers are drawn from a
small pool, so runs of equal adjacent layers occur.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from casimir import lifshitz
from casimir.lifshitz import QuadratureConfig, matsubara_xi
from casimir.materials import Constant, Drude, Permeability, Vacuum
from casimir.quadrature import semi_infinite_integral
from casimir.stack import DrudeLike, FromModel, Layer, PlasmaLike, Stack, ln_g

PROPERTY = settings(derandomize=True, deadline=None, max_examples=30)

drude = st.builds(Drude, st.floats(1e14, 2e16), st.floats(1e12, 1e15))
permittivities = st.one_of(drude, st.builds(Constant, st.floats(1.0, 50.0)),
                           st.just(Vacuum()))
layers = st.builds(Layer, permittivities, st.builds(Permeability,
                                                    st.floats(1.0, 5.0)))
ZERO_MODES = (FromModel(), DrudeLike(), PlasmaLike(1.4e16))
# Matsubara frequencies at 300 K up to n = 200
INDICES = (1, 7, 50, 200)


@st.composite
def stacks(draw):
    n = draw(st.integers(3, 7))
    pool = draw(st.lists(layers, min_size=1, max_size=3))
    return Stack(tuple(draw(st.sampled_from(pool)) for _ in range(n)),
                 tuple(10.0 ** draw(st.floats(-8.0, math.log10(3e-6)))
                       for _ in range(n - 2)))


def _pass_rows():
    """xi and zero-mode index of the rows: one xi = 0 row per zero mode,
    then the Matsubara rows."""
    xi = np.concatenate([np.zeros(len(ZERO_MODES)), matsubara_xi(np.array(INDICES), 300.0)])
    zero = np.concatenate([np.arange(len(ZERO_MODES)), np.full(len(INDICES), -1)])
    return xi, zero


def _tail(stack):
    """The ``tail(k, rows)`` a k-pass of ln G builds for the rows of
    :func:`_pass_rows` on ``stack``."""
    captured = {}

    def capture(f, n_rows, **kwargs):
        captured.update(kwargs)
        return np.zeros(n_rows), np.zeros(n_rows, dtype=int), {}

    xi, zero = _pass_rows()
    with mock.patch.object(lifshitz, "semi_infinite_rows", capture):
        lifshitz._k_pass(ln_g, (stack,), np.zeros(xi.size, dtype=int), xi, zero,
                         ZERO_MODES, QuadratureConfig())
    return captured["tail"]


def _omitted(stack, k0, xi, zero_mode):
    """Integral of k * sum_pol ln G over [k0, inf) at rel_tol 1e-12."""
    def f(x):
        k = k0 + x
        return k * sum(ln_g(stack, k, xi, zero_mode).values())

    return semi_infinite_integral(f, scale=lifshitz._k_scale(stack), rel_tol=1e-12)


@PROPERTY
@given(stacks(), st.lists(st.floats(-1.0, 2.0), min_size=3, max_size=3))
def test_bound_covers_the_omitted_k_tail(stack, u):
    tail = _tail(stack)
    xi, zero = _pass_rows()
    rows = np.arange(xi.size)
    for exponent in u:
        # K from a tenth to a hundred times the inverse largest thickness
        k0 = 10.0 ** exponent * lifshitz._k_scale(stack)
        bound = tail(np.full(rows.size, k0), rows)
        assert np.all(np.isfinite(bound))
        for row in rows.tolist():
            z = zero[row]
            at = (0.0, ZERO_MODES[z]) if z >= 0 else (xi[row], None)
            omitted = _omitted(stack, k0, *at)
            assert abs(omitted) <= bound[row] * (1.0 + 1e-9), (row, k0)


def test_layer_with_eps_mu_below_one_takes_the_block_rule():
    # a diamagnetic vacuum layer, eps*mu = 0.5 at every xi > 0: its kappa can
    # fall below sqrt(k**2 + xi**2/c**2), so the Matsubara rows have no bound;
    # at xi = 0 every kappa is at least k, so the zero-mode rows keep theirs
    gold = Layer(Drude(1.37e16, 5.3e13))
    stack = Stack((gold, Layer(Vacuum(), Permeability(0.5)), gold), (1e-7,))
    xi, zero = _pass_rows()
    bound = _tail(stack)(np.full(xi.size, 1e7), np.arange(xi.size))
    assert np.all(np.isinf(bound[zero < 0]))
    assert np.all(np.isfinite(bound[zero >= 0]))
