import math

import numpy as np
import pytest
from scipy.constants import c

from casimir.materials import (Constant, Drude, Permeability, Plasma, Vacuum,
                               ZeroFrequencyError, ev_to_radps)
from casimir.stack import (DrudeLike, FiveLayerStack, FromModel, Layer,
                           PlasmaLike, Polarization, Stack, StackSymmetryError,
                           g_full_thickness_derivative, kappa, ln_g,
                           ln_g_slab_in_medium, ln_g_two_interface,
                           reflection, reflection_zero_mode,
                           require_tangential_symmetry, retracted_stack)

W_P = ev_to_radps(9.0)
GAMMA = ev_to_radps(0.035)
XI1_300K = 2.4677902536409984e14

VAC = Layer(Vacuum())
GOLD = Layer(Drude(W_P, GAMMA))
MIRROR = Layer(Constant(1e12))


def random_stack(rng):
    def layer():
        return Layer(Constant(float(rng.uniform(1.0, 12.0))),
                     Permeability(float(rng.uniform(0.5, 3.0))))
    ds = rng.uniform(5e-8, 5e-7, size=3)
    return FiveLayerStack(tuple(layer() for _ in range(5)), *map(float, ds))


def g(stack, k, xi, zero_mode=None):
    """The mode function G of each polarization."""
    return {pol: np.exp(v) for pol, v in ln_g(stack, k, xi, zero_mode).items()}


def two_interface(bounding, gap, d):
    return Stack((bounding, gap, bounding), (d,))


# ---------------------------------------------------------------------------
# kappa and reflections


def test_kappa_vacuum():
    xi = 3e15
    assert kappa(VAC, 0.0, xi) == pytest.approx(xi / c, rel=1e-15)


def test_kappa_zero_frequency_finite_eps():
    assert kappa(Layer(Constant(5.0)), 2.0e6, 0.0) == 2.0e6


def test_kappa_eps2():
    xi = 1e15
    k = xi / c
    got = kappa(Layer(Constant(2.0)), k, xi)
    assert got == pytest.approx(math.sqrt(3.0) * xi / c, rel=1e-14)


def test_kappa_zero_frequency_metal():
    # dissipationless metal keeps omega_p^2/c^2 in the kernel at xi = 0
    got = kappa(Layer(Plasma(W_P)), 1e6, 0.0)
    assert got == pytest.approx(math.sqrt(1e12 + (W_P / c) ** 2), rel=1e-14)
    with pytest.raises(ZeroFrequencyError):
        kappa(GOLD, 0.0, 0.0)


def test_reflection_identical_layers():
    for pol in Polarization:
        assert reflection(pol, GOLD, GOLD, 1e6, 1e15) == 0.0


def test_reflection_mirror_limits():
    xi = XI1_300K
    k = xi / c
    r_beta = reflection(Polarization.BETA, VAC, MIRROR, k, xi)
    r_alpha = reflection(Polarization.ALPHA, VAC, MIRROR, k, xi)
    assert r_beta == pytest.approx(1.0, abs=1e-5)
    assert r_alpha == pytest.approx(-1.0, abs=1e-5)


def test_reflection_antisymmetry():
    xi = XI1_300K
    k = xi / c
    for pol in Polarization:
        ab = reflection(pol, VAC, GOLD, k, xi)
        ba = reflection(pol, GOLD, VAC, k, xi)
        assert ab == pytest.approx(-ba, rel=1e-14)


def test_reflection_duality():
    # swapping the roles of eps and mu swaps the polarizations
    a = Layer(Constant(3.0), Permeability(1.2))
    b = Layer(Constant(1.2), Permeability(3.0))
    other = Layer(Constant(2.0), Permeability(2.0))
    xi, k = 8e14, 1.3e6
    assert reflection(Polarization.ALPHA, a, other, k, xi) == pytest.approx(
        reflection(Polarization.BETA, b, other, k, xi), rel=1e-14)


def test_reflection_bounded():
    rng = np.random.default_rng(0)
    for _ in range(40):
        lo = Layer(Constant(float(rng.uniform(1.0, 50.0))),
                   Permeability(float(rng.uniform(0.5, 5.0))))
        up = Layer(Constant(float(rng.uniform(1.0, 50.0))),
                   Permeability(float(rng.uniform(0.5, 5.0))))
        k = float(rng.uniform(1e4, 1e8))
        xi = float(rng.uniform(1e12, 1e17))
        for pol in Polarization:
            assert abs(reflection(pol, lo, up, k, xi)) <= 1.0


def test_reflection_zero_mode_values():
    assert reflection_zero_mode(Polarization.ALPHA, DrudeLike(), 1e6) == 0.0
    assert reflection_zero_mode(Polarization.BETA, DrudeLike(), 1e6) == 1.0
    assert reflection_zero_mode(Polarization.BETA, PlasmaLike(W_P), 1e6) == 1.0
    assert reflection_zero_mode(Polarization.ALPHA, PlasmaLike(W_P), 0.0) == -1.0
    # PlasmaLike magnetic reflection interpolates toward 0 at large k
    r = reflection_zero_mode(Polarization.ALPHA, PlasmaLike(W_P), 100.0 * W_P / c)
    assert -0.01 < r < 0.0
    # each model's own limit is no prescription for a vacuum-metal interface
    with pytest.raises(TypeError, match="unsupported zero-mode prescription"):
        reflection_zero_mode(Polarization.BETA, FromModel(), 1e6)


def test_plasma_like_rejects_what_plasma_rejects():
    # omega_p as Plasma checks it: positive, finite, and omega_p**2 finite
    for bad, message in ((0.0, "omega_p must be positive"),
                         (-W_P, "omega_p must be positive"),
                         (math.nan, "omega_p must be finite"),
                         (math.inf, "omega_p must be finite"),
                         (1e160, "xi -> 0 coefficient overflows")):
        with pytest.raises(ValueError, match=f"PlasmaLike {message}"):
            PlasmaLike(bad)
        with pytest.raises(ValueError):
            Plasma(bad)


# ---------------------------------------------------------------------------
# mode functions


def test_g_full_identical_layers():
    stack = FiveLayerStack((VAC,) * 5, 1e-7, 1e-7, 1e-7)
    assert g(stack, 1e6, 1e15)[Polarization.BETA] == 1.0
    assert g(stack, 1e6, 0.0)[Polarization.ALPHA] == 1.0


def test_g_full_middle_plate_absent():
    # slabs on the outside, nothing in the middle: exact two-interface form
    stack = FiveLayerStack((MIRROR, VAC, VAC, VAC, MIRROR), 3e-7, 4e-7, 5e-7)
    xi = 1e15
    for pol in Polarization:
        for k in (1e5, 1e6, 5e6):
            a = g(stack, k, xi)[pol]
            b = g(two_interface(MIRROR, VAC, 1.2e-6), k, xi)[pol]
            assert a == pytest.approx(b, rel=1e-12)


def test_g_full_hand_recomposition():
    rng = np.random.default_rng(7)
    for _ in range(5):
        stack = random_stack(rng)
        k = float(rng.uniform(1e5, 1e7))
        xi = float(rng.uniform(1e13, 1e16))
        d2, d3, d4 = stack.thicknesses
        for pol in Polarization:
            lay = stack.layers
            r = {}
            for i in (2, 3, 4):
                r[(i, -1)] = reflection(pol, lay[i - 1], lay[i - 2], k, xi)
                r[(i, +1)] = reflection(pol, lay[i - 1], lay[i], k, xi)
            e = {i: math.exp(-2.0 * kappa(lay[i - 1], k, xi) * d)
                 for i, d in zip((2, 3, 4), (d2, d3, d4))}
            hand = (1.0
                    - r[(2, -1)] * r[(2, +1)] * e[2]
                    - r[(3, -1)] * r[(3, +1)] * e[3]
                    - r[(4, -1)] * r[(4, +1)] * e[4]
                    - r[(2, -1)] * r[(3, +1)] * e[2] * e[3]
                    - r[(3, -1)] * r[(4, +1)] * e[3] * e[4]
                    + r[(2, -1)] * r[(2, +1)] * r[(4, -1)] * r[(4, +1)] * e[2] * e[4]
                    - r[(2, -1)] * r[(4, +1)] * e[2] * e[3] * e[4])
            assert g(stack, k, xi)[pol] == pytest.approx(hand, rel=1e-14)


def test_g_full_positive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        stack = random_stack(rng)
        k = float(rng.uniform(1e4, 1e8))
        xi = float(rng.uniform(1e12, 1e16))
        for pol in Polarization:
            assert g(stack, k, xi)[pol] > 0.0


def test_g_full_unit_interval_on_material_stacks():
    # slabs and plates in vacuum, the configurations the package targets
    rng = np.random.default_rng(11)
    materials = (GOLD, MIRROR, Layer(Plasma(W_P)), Layer(Constant(11.0)))
    for _ in range(20):
        picks = rng.integers(0, len(materials), size=3)
        layers = (materials[picks[0]], VAC, materials[picks[1]], VAC,
                  materials[picks[2]])
        ds = tuple(map(float, rng.uniform(5e-8, 5e-7, size=3)))
        stack = FiveLayerStack(layers, *ds)
        k = float(rng.uniform(1e4, 1e8))
        xi = float(rng.uniform(1e12, 1e16))
        for value in g(stack, k, xi).values():
            assert 0.0 < value <= 1.0


def test_ln_g_matches_log_of_g():
    # the two-interface closed form G = 1 - r**2 * exp(-2*kappa_gap*d)
    d, k, xi = 2e-7, 2e6, 8e14
    e = math.exp(-2.0 * kappa(VAC, k, xi) * d)
    lng = ln_g(two_interface(GOLD, VAC, d), k, xi)
    for pol in Polarization:
        r = reflection(pol, VAC, GOLD, k, xi)
        assert lng[pol] == pytest.approx(math.log(1.0 - r * r * e), rel=1e-12)


def test_ln_g_small_argument_precision():
    # at high frequency G - 1 is tiny; log1p keeps the full precision
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 1e-6, 1e-6, 1e-6)
    xi = 3e16
    k = 1e5
    val = ln_g(stack, k, xi)[Polarization.BETA]
    assert val != 0.0
    assert abs(val) < 1e-10


def test_g_two_interface_identical():
    assert g(two_interface(VAC, VAC, 1e-7), 1e6, 1e15)[Polarization.BETA] == 1.0


def test_g_two_interface_half_decay():
    # ideal mirrors with 2 K d = ln 2 leave G = 1/2
    xi = 1e15
    k = 2e6
    kap = math.sqrt(k ** 2 + (xi / c) ** 2)
    d = math.log(2.0) / (2.0 * kap)
    value = g(two_interface(MIRROR, VAC, d), k, xi)[Polarization.BETA]
    assert value == pytest.approx(0.5, rel=1e-5)


def test_g_two_interface_matches_deep_stack():
    d4 = 1e-7
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 50 * d4, 50 * d4, d4)
    xi = XI1_300K
    for pol in Polarization:
        for k in (0.5 / d4, 1.0 / d4, 2.0 / d4):
            a = g(stack, k, xi)[pol]
            b = g(two_interface(GOLD, VAC, d4), k, xi)[pol]
            assert a == pytest.approx(b, rel=1e-10)


def test_g_slab_role_swap():
    xi, k, d = XI1_300K, 1e7, 1e-7
    lng = ln_g(two_interface(VAC, GOLD, d), k, xi)
    for pol in Polarization:
        assert ln_g_slab_in_medium(pol, VAC, GOLD, d, k, xi) == lng[pol]
        assert ln_g_two_interface(pol, VAC, GOLD, d, k, xi) == lng[pol]


def test_g_slab_deviation_decreasing_in_thickness():
    # the slab's effect 1 - G decays monotonically with its thickness
    xi = XI1_300K
    k = 1.0 / 1e-7
    vals = [g(two_interface(VAC, GOLD, d), k, xi)[Polarization.BETA]
            for d in np.linspace(5e-8, 3e-7, 5)]
    assert all(0.0 < v < 1.0 for v in vals)
    deviations = [1.0 - v for v in vals]
    assert all(a > b > 0.0 for a, b in zip(deviations, deviations[1:]))


def test_zero_mode_g_full():
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 2e-7, 2e-7)
    k = 2e6
    # DrudeLike kills every alpha reflection at metal interfaces
    drude = g(stack, k, 0.0, zero_mode=DrudeLike())
    assert drude[Polarization.ALPHA] == 1.0
    assert 0.0 < drude[Polarization.BETA] < 1.0
    # PlasmaLike restores an alpha contribution
    assert g(stack, k, 0.0, zero_mode=PlasmaLike(W_P))[Polarization.ALPHA] < 1.0


def test_thickness_derivative_matches_finite_difference():
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 1.5e-7, 2.5e-7)
    k, xi = 3e6, XI1_300K
    h = 1e-11
    for pol in Polarization:
        for which in (2, 3, 4):
            _, dg = g_full_thickness_derivative(pol, stack, which, k, xi)
            up, dn = list(stack.thicknesses), list(stack.thicknesses)
            up[which - 2] += h
            dn[which - 2] -= h
            fd = (g(Stack(stack.layers, up), k, xi)[pol]
                  - g(Stack(stack.layers, dn), k, xi)[pol]) / (2 * h)
            assert dg == pytest.approx(fd, rel=1e-6)


def test_thickness_derivative_zero_mode():
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 1.5e-7, 2.5e-7)
    k = 3e6
    h = 1e-11
    g0, dg = g_full_thickness_derivative(Polarization.BETA, stack, 4, k, 0.0,
                                         zero_mode=DrudeLike())
    d2, d3, d4 = stack.thicknesses
    up = FiveLayerStack(stack.layers, d2, d3, d4 + h)
    dn = FiveLayerStack(stack.layers, d2, d3=d3, d4=d4 - h)
    fd = (g(up, k, 0.0, zero_mode=DrudeLike())[Polarization.BETA]
          - g(dn, k, 0.0, zero_mode=DrudeLike())[Polarization.BETA]) / (2 * h)
    assert dg == pytest.approx(fd, rel=1e-6)
    assert 0.0 < g0 < 1.0


def test_thickness_derivative_invalid_index():
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 2e-7, 2e-7)
    for which in (1, 5, 2.5):
        with pytest.raises(ValueError, match="2 .. 4"):
            g_full_thickness_derivative(Polarization.BETA, stack, which, 1e6, 1e15)


# ---------------------------------------------------------------------------
# stack construction helpers


def test_stack_validation():
    with pytest.raises(ValueError):
        FiveLayerStack((VAC,) * 4, 1e-7, 1e-7, 1e-7)
    with pytest.raises(ValueError):
        FiveLayerStack((VAC,) * 5, 0.0, 1e-7, 1e-7)
    with pytest.raises(ValueError):
        FiveLayerStack((VAC,) * 5, 1e-7, math.inf, 1e-7)
    for layers, thicknesses in (((VAC,) * 2, ()), ((VAC,) * 4, (1e-7,)),
                                ((VAC,) * 6, (1e-7,) * 3)):
        with pytest.raises(ValueError, match="N - 2 thicknesses"):
            Stack(layers, thicknesses)
    with pytest.raises(ValueError, match="d5 must be positive"):
        Stack((VAC,) * 6, (1e-7, 1e-7, 1e-7, math.nan))
    six = Stack([VAC] * 6, [1e-7] * 4)
    assert six.layers == (VAC,) * 6 and six.thicknesses == (1e-7,) * 4


def test_tangential_symmetry():
    ok = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 1e-7, 1e-7, 1e-7)
    require_tangential_symmetry(ok)
    bad = FiveLayerStack((GOLD, VAC, GOLD, Layer(Constant(2.0)), GOLD),
                         1e-7, 1e-7, 1e-7)
    with pytest.raises(StackSymmetryError):
        require_tangential_symmetry(bad)
    bad_mu = FiveLayerStack(
        (GOLD, VAC, GOLD, Layer(Vacuum(), Permeability(2.0)), GOLD),
        1e-7, 1e-7, 1e-7)
    with pytest.raises(StackSymmetryError):
        require_tangential_symmetry(bad_mu)
    with pytest.raises(StackSymmetryError, match="no middle layer"):
        require_tangential_symmetry(Stack((GOLD, VAC, VAC, GOLD), (1e-7,) * 2))


def test_retracted_stack():
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 1e-7, 2e-7, 3e-7)
    ret = retracted_stack(stack)
    assert ret.layers[2] == VAC
    assert ret.layers[0] == GOLD and ret.layers[4] == GOLD
    assert ret.thicknesses == stack.thicknesses
    seven = Stack((VAC, GOLD, MIRROR, GOLD, MIRROR, GOLD, VAC), (1e-7,) * 5)
    assert retracted_stack(seven).layers == (VAC, GOLD, MIRROR, MIRROR,
                                             MIRROR, GOLD, VAC)
