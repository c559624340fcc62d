import math

import numpy as np
import pytest
from scipy.constants import c, hbar

from casimir import lifshitz, materials, quadrature
from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              energy_per_area_T)
from casimir.materials import (Constant, Drude, DrudeTail, Permeability,
                               Plasma, Tabulated, Vacuum,
                               drude_synthetic_table, ev_to_radps,
                               fit_power_tail)
from casimir.quadrature import QuadratureError
from casimir.stack import (DrudeLike, FiveLayerStack, FromModel, Layer,
                           PlasmaLike, Stack, StackSymmetryError,
                           retracted_stack)
from casimir.tangential import (tangential_force_general,
                                tangential_force_reduced)

VAC = Layer(Vacuum())
GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
ALUMINUM = Layer(Drude(ev_to_radps(12.5), ev_to_radps(0.063)))
MIRROR = Layer(Plasma(1e20))


def tabulated_gold(omega_p_ev, gamma_ev, merge_below=None):
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=60)
    if merge_below is not None:
        low = drude_synthetic_table(omega_p_ev, gamma_ev, 0.01, 100.0,
                                    per_decade=60)
        tab = tab.replace_below(low, merge_below)
    return Layer(Tabulated(tab,
                           low_tail=DrudeTail(ev_to_radps(omega_p_ev),
                                              ev_to_radps(gamma_ev), 0.01),
                           high_tail=fit_power_tail(tab)))


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_reduced_ideal_mirrors_low_temperature():
    # T -> 0 proxy: xi_1 d / c ~ 3e-3; the sum stops at n_max with a tail
    # bound of 6e-7 of the energy, far inside the tolerance below
    d = 1e-6
    mats = MatsubaraConfig(1.0, n_max=3000, zero_mode=FromModel())
    res = tangential_force_reduced(MIRROR, VAC, d, mats)
    ideal = math.pi ** 2 * hbar * c / (720.0 * d ** 3)
    assert res.force_per_width == pytest.approx(ideal, rel=1e-4)
    assert res.force_per_width == pytest.approx(4.333e-10, rel=1e-3)
    assert res.force_per_width > 0.0  # pulls the plate inward


def test_reduced_identical_media():
    mats = MatsubaraConfig(300.0, n_max=10)
    res = tangential_force_reduced(VAC, VAC, 1e-7, mats)
    assert res.force_per_width == 0.0


def test_reduced_validation():
    for d4 in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="d4 must be positive and finite"):
            tangential_force_reduced(GOLD, VAC, d4, MatsubaraConfig(300.0, 10))


def test_result_component_invariant():
    d4 = 1e-7
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 5e-7, 5e-7, d4)
    mats = MatsubaraConfig(300.0, n_max=150, zero_mode=DrudeLike())
    res = tangential_force_general(stack, mats)
    assert res.force_per_width == -(res.energy_full - res.energy_retracted
                                    - res.energy_slab)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_general_equals_three_separate_sums():
    # the full, retracted and slab sums run as rows of one pass, each equal
    # to its own call bit for bit, on the magnetodielectric five-layer stack
    plate = Layer(Constant(5.0), Permeability(2.0))
    stack = FiveLayerStack((GOLD, VAC, plate, VAC, GOLD), 1.5e-7, 2e-7, 1e-7)
    mats = MatsubaraConfig(300.0, n_max=80, zero_mode=DrudeLike())
    quad = QuadratureConfig(rel_tol=1e-8)
    full, retracted, slab = (
        energy_per_area_T(s, mats, quad).value
        for s in (stack, retracted_stack(stack),
                  Stack((VAC, plate, VAC), (2e-7,))))
    res = tangential_force_general(stack, mats, quad)
    assert (res.energy_full, res.energy_retracted, res.energy_slab) == \
        (full, retracted, slab)
    assert res.force_per_width == -(full - retracted - slab)


def test_general_symmetry_required():
    stack = FiveLayerStack((GOLD, VAC, GOLD, Layer(Constant(2.0)), GOLD),
                           1e-7, 1e-7, 1e-7)
    with pytest.raises(StackSymmetryError):
        tangential_force_general(stack, MatsubaraConfig(300.0, 10))


def test_general_all_identical_is_zero():
    stack = FiveLayerStack((VAC,) * 5, 1e-7, 1e-7, 1e-7)
    res = tangential_force_general(stack, MatsubaraConfig(300.0, 10))
    assert res.force_per_width == 0.0


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_general_without_outer_slabs_is_zero():
    # only the middle plate remains: full term equals the slab term exactly
    stack = FiveLayerStack((VAC, VAC, GOLD, VAC, VAC), 2e-7, 1e-7, 2e-7)
    mats = MatsubaraConfig(300.0, n_max=80, zero_mode=DrudeLike())
    res = tangential_force_general(stack, mats)
    assert res.energy_retracted == 0.0
    assert res.force_per_width == pytest.approx(0.0, abs=1e-9 * abs(res.energy_slab))


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_general_on_a_seven_layer_stack():
    # gold layers against the gold half-spaces reflect nothing, so the
    # seven-layer stack is the five-layer one written with two more layers
    mats = MatsubaraConfig(300.0, n_max=80, zero_mode=DrudeLike())
    five = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 1e-7, 1.5e-7)
    seven = Stack((GOLD, GOLD, VAC, GOLD, VAC, GOLD, GOLD),
                  (1e-7, 2e-7, 1e-7, 1.5e-7, 1e-7))
    assert tangential_force_general(seven, mats) == \
        tangential_force_general(five, mats)


def test_general_matches_reduced_in_deep_limit():
    # far interfaces 1000x the near gap: zero-mode corrections ~ (d4/d2)^2
    d4 = 1e-7
    mats = MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike())
    quad = QuadratureConfig()
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD),
                           1000 * d4, 1000 * d4, d4)
    gen = tangential_force_general(stack, mats, quad).force_per_width
    red = tangential_force_reduced(GOLD, VAC, d4, mats, quad).force_per_width
    assert gen == pytest.approx(red, rel=1e-6)


def test_gold_regression_goldens():
    # frozen after first computation; n_max=1000 reproduced each value
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=DrudeLike())
    quad = QuadratureConfig()
    expected = {
        1e-7: 2.206834614777439e-07,
        5e-7: 2.600262269527979e-09,
        1e-6: 3.173382917882819e-10,
    }
    got = {d: tangential_force_reduced(GOLD, VAC, d, mats,
                                       quad).force_per_width
           for d in expected}
    for d, val in expected.items():
        assert got[d] == pytest.approx(val, rel=1e-9)
    forces = [got[d] for d in sorted(got)]
    assert all(a > b > 0.0 for a, b in zip(forces, forces[1:]))


def drude_and_plasma(bounding, gap, grid, n_max):
    """(Drude, plasma) reduced forces per separation, as force-sweep has them.

    The plasma treatment takes the bounding material's plasma frequency.
    """
    quad = QuadratureConfig(rel_tol=1e-7)
    treatments = [MatsubaraConfig(300.0, n_max=n_max, zero_mode=zero_mode)
                  for zero_mode in (DrudeLike(),
                                    PlasmaLike(bounding.eps.omega_p))]
    return [tuple(tangential_force_reduced(bounding, gap, float(d), mats,
                                           quad).force_per_width
                  for mats in treatments)
            for d in grid]


def test_sweep_plasma_dominates_drude():
    for f_d, f_p in drude_and_plasma(GOLD, VAC, np.geomspace(1e-7, 1e-6, 5),
                                     n_max=200):
        assert abs(f_p) >= abs(f_d)
        assert f_p / f_d > 1.0


def test_sweep_ratio_approaches_two_in_ideal_limit():
    # large omega_p, large d: the zero mode dominates and plasma keeps
    # both polarizations while drude keeps one
    big = Layer(Drude(1e19, 1e15))
    ratios = [f_p / f_d for f_d, f_p in
              drude_and_plasma(big, VAC, [2e-6, 5e-6, 1e-5], n_max=200)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(2.0, abs=1e-3)


def test_sweep_identical_media_zero():
    # the force-sweep ratio column reads nan here (tests/test_cli.py)
    [(f_d, f_p)] = drude_and_plasma(Layer(Drude(1e16, 1e13)),
                                    Layer(Drude(1e16, 1e13)), [1e-7], n_max=20)
    assert f_d == 0.0
    assert f_p == 0.0


def test_aluminum_gold_ratio_approaches_one():
    mats = MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike())
    quad = QuadratureConfig(rel_tol=1e-7)
    ratios = []
    for d in np.geomspace(1e-7, 1e-5, 5):
        f_al = tangential_force_reduced(ALUMINUM, VAC, float(d), mats,
                                        quad).force_per_width
        f_au = tangential_force_reduced(GOLD, VAC, float(d), mats,
                                        quad).force_per_width
        ratios.append(f_al / f_au)
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[-3] > gaps[-2] > gaps[-1]
    assert ratios[-1] == pytest.approx(1.0, abs=0.01)
    assert all(r > 1.0 for r in ratios)  # Al is the better low-freq mirror


def test_tabulated_gold_variants_differ_most_when_close():
    au1 = tabulated_gold(9.0, 0.035)
    au2 = tabulated_gold(8.45, 0.047, merge_below=4.2)
    mats = MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike())
    quad = QuadratureConfig(rel_tol=1e-7)
    gaps = []
    for d in (1e-7, 3e-7, 1e-6):
        f1 = tangential_force_reduced(au1, VAC, d, mats, quad).force_per_width
        f2 = tangential_force_reduced(au2, VAC, d, mats, quad).force_per_width
        gaps.append(abs(f2 / f1 - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_failing_energy_is_named(monkeypatch):
    # the plasma zero mode of the full stack needs more than 10 panels
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 1e-7, 1e-7, 1e-7)
    mats = MatsubaraConfig(300.0, n_max=60,
                           zero_mode=PlasmaLike(ev_to_radps(9.0)))
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 10)
    quad = QuadratureConfig(1e-9)
    with pytest.raises(QuadratureError) as info:
        tangential_force_general(stack, mats, quad)
    err = info.value
    assert (err.matsubara_n, err.system, err.energy) == (0, 0, "full")
    assert str(err).endswith("n=0) in the full energy")
    with pytest.raises(QuadratureError) as alone:
        energy_per_area_T(stack, mats, quad)
    assert err.last_estimate == alone.value.last_estimate
    assert err.previous_estimate == alone.value.previous_estimate


def test_one_transform_per_k_pass(monkeypatch):
    # a tabulated layer answers once per k-pass, on the pass's distinct xi,
    # not once per integrand call
    transforms, evaluations, per_pass = [], [], []
    kk_transform, k_pass = materials.kk_transform, lifshitz._k_pass
    eps_imag_axis = Tabulated.eps_imag_axis

    def counted_transform(table, low_tail, high_tail, xi, *args):
        transforms.append(np.array(xi))
        return kk_transform(table, low_tail, high_tail, xi, *args)

    def counted_eps(model, xi):
        evaluations.append(xi)
        return eps_imag_axis(model, xi)

    def counted_pass(*args):
        before = len(transforms), len(evaluations)
        result = k_pass(*args)
        per_pass.append((len(transforms) - before[0], len(evaluations) - before[1]))
        return result

    monkeypatch.setattr(materials, "kk_transform", counted_transform)
    monkeypatch.setattr(Tabulated, "eps_imag_axis", counted_eps)
    monkeypatch.setattr(lifshitz, "_k_pass", counted_pass)
    wp = ev_to_radps(9.0)
    mats = (MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike()),
            MatsubaraConfig(300.0, n_max=300, zero_mode=PlasmaLike(wp)))
    results = tangential_force_reduced(tabulated_gold(9.0, 0.035), VAC,
                                       (1e-7, 3e-7, 1e-6), mats,
                                       QuadratureConfig(1e-7))
    assert len(results) == 3 and per_pass and per_pass == [(1, 1)] * len(per_pass)
    assert len(transforms) == len(per_pass)
    for xi in transforms:
        assert xi.ndim == 1 and np.all(np.diff(xi) > 0.0)
