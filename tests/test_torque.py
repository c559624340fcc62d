import importlib
import math
from dataclasses import replace

import pytest
from scipy.constants import c, hbar
from scipy.integrate import quad

from casimir import quadrature
from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              energy_per_area_T)
from casimir.materials import (DrudeTail, Drude, Plasma, Tabulated, Vacuum,
                               drude_synthetic_table, ev_to_radps,
                               fit_power_tail, plasma_frequency_of)
from casimir.quadrature import QuadratureError
from casimir.stack import DrudeLike, Layer, PlasmaLike, Stack
from casimir.torque import (BranchPointError, OverlapShape, TorqueGeometry,
                            area_derivative, edge_energy, edge_torque_ratio,
                            overlap, perimeter_derivative, theta0, torque,
                            torque_energy, torque_energy_density)
from clipped_overlap import clipped_overlap

VAC = Layer(Vacuum())
GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
MIRROR = Layer(Plasma(1e20))
# the module, which the package namespace shadows with its torque function
torque_module = importlib.import_module("casimir.torque")

K, L, H, D3 = 2e-3, 1e-3, 3e-3, 1e-7


def geom(theta, d3=D3):
    return TorqueGeometry(K, L, H, theta, d3)


@pytest.fixture(scope="module")
def gold_tab():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=100)
    low = drude_synthetic_table(8.45, 0.047, 0.01, 100.0, per_decade=100)
    merged = tab.replace_below(low, 4.2)
    return Layer(Tabulated(merged,
                           low_tail=DrudeTail(ev_to_radps(8.45),
                                              ev_to_radps(0.047), 0.01),
                           high_tail=fit_power_tail(merged)))


# ---------------------------------------------------------------------------
# geometry


def test_theta0_values():
    assert theta0(1.0, 1.0) == math.pi / 2.0
    assert theta0(2.0, 1.0) == pytest.approx(math.asin(0.8), rel=1e-15)
    assert theta0(2.0, 1.0) == pytest.approx(0.92730, abs=5e-6)
    # slender limit: arcsin(2KL/K**2) ~ 2L/K
    assert theta0(100.0, 1.0) == pytest.approx(0.02, rel=1e-3)


def test_theta0_validation():
    with pytest.raises(ValueError):
        theta0(1.0, 2.0)
    with pytest.raises(ValueError):
        theta0(1.0, 0.0)


def test_geometry_validation():
    with pytest.raises(ValueError):
        TorqueGeometry(1e-3, 2e-3, 3e-3, 0.5, D3)  # K <= L
    with pytest.raises(ValueError):
        TorqueGeometry(2e-3, 1e-3, 2e-3, 0.5, D3)  # H too short
    with pytest.raises(ValueError):
        TorqueGeometry(K, L, H, -0.1, D3)
    with pytest.raises(ValueError):
        TorqueGeometry(K, L, H, 2.0, D3)
    with pytest.raises(ValueError):
        TorqueGeometry(K, L, H, 0.5, 0.0)
    for d3 in (math.inf, math.nan):
        with pytest.raises(ValueError, match="d3 must be positive and finite"):
            TorqueGeometry(K, L, H, 0.5, d3)


def test_overlap_perpendicular():
    shape = overlap(geom(math.pi / 2.0))
    assert shape.area == pytest.approx(L ** 2, rel=1e-12)
    assert shape.perimeter == pytest.approx(4.0 * L, rel=1e-12)


def test_overlap_perpendicular_is_the_square_exactly():
    assert overlap(geom(math.pi / 2.0)) == OverlapShape(L ** 2, 4.0 * L)


def test_overlap_aligned_is_the_shorter_plate_exactly():
    assert overlap(geom(0.0)) == OverlapShape(K * L, 2.0 * (K + L))


def test_overlap_matches_parallelogram_closed_forms():
    for th in (1.0, 1.2, 1.5):
        g = geom(th)
        shape, clipped = overlap(g), clipped_overlap(g)
        assert shape.area == pytest.approx(clipped.area, rel=1e-12)
        assert shape.perimeter == pytest.approx(clipped.perimeter, rel=1e-12)


def test_overlap_small_angle_covers_shorter_plate():
    assert overlap(geom(1e-4)).area == pytest.approx(K * L, rel=1e-3)


def test_area_from_integrated_derivative():
    # anchor at S(pi/2) = L**2 and integrate S' back through the kink
    g = geom(0.0)
    th = g.theta_branch / 2.0
    integral, _ = quad(lambda t: area_derivative(geom(t)), th, math.pi / 2.0,
                       points=[g.theta_branch], limit=200)
    assert overlap(geom(th)).area == pytest.approx(L ** 2 - integral, rel=1e-9)


@pytest.mark.parametrize("th", [0.3, 0.6, 0.9, 1.0, 1.2, 1.5])
def test_derivatives_match_clipped_overlap(th):
    h = 1e-6
    ahead = clipped_overlap(geom(th + h))
    behind = clipped_overlap(geom(th - h))
    s_fd = (ahead.area - behind.area) / (2 * h)
    p_fd = (ahead.perimeter - behind.perimeter) / (2 * h)
    assert area_derivative(geom(th)) == pytest.approx(s_fd, rel=1e-6)
    assert perimeter_derivative(geom(th)) == pytest.approx(p_fd, rel=1e-6)


def test_area_derivative_continuous_at_branch():
    tb = theta0(2.0, 1.0)
    g = TorqueGeometry(2.0, 1.0, 3.0, tb, 1e-7)
    below = area_derivative(replace(g, theta=tb - 1e-9))
    above = area_derivative(replace(g, theta=tb + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)
    assert below == pytest.approx(-0.9375, rel=1e-6)


def test_perimeter_derivative_jumps_at_branch():
    tb = theta0(2.0, 1.0)
    g = TorqueGeometry(2.0, 1.0, 3.0, tb, 1e-7)
    below = perimeter_derivative(replace(g, theta=tb - 1e-9))
    above = perimeter_derivative(replace(g, theta=tb + 1e-9))
    assert below == pytest.approx(-5.0 / 12.0, rel=1e-6)
    assert above == pytest.approx(-3.75, rel=1e-6)


def test_derivative_small_angle_limits():
    g = geom(1e-6)
    assert area_derivative(g) == pytest.approx(-K ** 2 / 4.0, rel=1e-4)
    assert perimeter_derivative(g) == pytest.approx(-K, rel=1e-4)


def test_derivatives_vanish_when_perpendicular():
    g = geom(math.pi / 2.0)
    assert abs(area_derivative(g)) < 1e-20
    assert abs(perimeter_derivative(g)) < 1e-17


def test_branch_point_rejected():
    tb = theta0(K, L)
    with pytest.raises(BranchPointError):
        area_derivative(geom(tb))
    with pytest.raises(BranchPointError):
        perimeter_derivative(geom(tb))
    with pytest.raises(BranchPointError):
        area_derivative(geom(0.0))


# ---------------------------------------------------------------------------
# energetics


def test_density_zero_for_medium_matched_plates():
    mats = MatsubaraConfig(300.0, n_max=5)
    assert torque_energy_density(VAC, VAC, VAC, D3, mats) == 0.0


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_density_ideal_mirrors_low_temperature():
    # T -> 0 proxy at d3 = 100 nm; thermal correction ~ (d3/lambda_T)**3
    mats = MatsubaraConfig(10.0, n_max=3000)
    dens = torque_energy_density(MIRROR, MIRROR, VAC, D3, mats)
    ideal = -math.pi ** 2 * hbar * c / (720.0 * D3 ** 3)
    assert dens == pytest.approx(ideal, rel=0.01)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_energy_ideal_mirrors_perpendicular():
    mats = MatsubaraConfig(10.0, n_max=3000)
    e = torque_energy(geom(math.pi / 2.0), MIRROR, MIRROR, VAC, mats)
    ideal = -math.pi ** 2 * hbar * c / (720.0 * D3 ** 3) * L ** 2
    assert e == pytest.approx(ideal, rel=0.01)


def test_density_independent_of_plate_thickness():
    mats = MatsubaraConfig(300.0, n_max=200, zero_mode=DrudeLike())
    thick = torque_energy_density(GOLD, GOLD, VAC, D3, mats,
                                  plate_thickness=1e-6)
    thin = torque_energy_density(GOLD, GOLD, VAC, D3, mats,
                                 plate_thickness=3e-7)
    assert thin == pytest.approx(thick, rel=1e-4)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_equal_plates_share_the_isolated_plate_sum(monkeypatch):
    mats = MatsubaraConfig(300.0, n_max=60, zero_mode=DrudeLike())
    t = 1e-6

    def energy(*layers):
        thicknesses = (t, D3, t) if len(layers) == 5 else (t,)
        return energy_per_area_T(Stack(layers, thicknesses), mats).value

    twin = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
    silver = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.021)))
    # the three-sum differences, subtracted in the same order
    equal = ((energy(VAC, GOLD, VAC, GOLD, VAC) - energy(VAC, GOLD, VAC))
             - energy(VAC, GOLD, VAC))
    unequal = ((energy(VAC, GOLD, VAC, silver, VAC) - energy(VAC, GOLD, VAC))
               - energy(VAC, silver, VAC))
    calls = []
    sums = torque_module.energy_per_area_T

    def counted(stacks, *args):
        calls.append(stacks)
        return sums(stacks, *args)

    monkeypatch.setattr(torque_module, "energy_per_area_T", counted)
    # one pass: the five-layer stack and one isolated plate for equal plates
    assert torque_energy_density(GOLD, twin, VAC, D3, mats) == equal
    assert [len(stacks) for stacks in calls] == [2]
    calls.clear()
    # and both isolated plates for unequal ones
    assert torque_energy_density(GOLD, silver, VAC, D3, mats) == unequal
    assert [[s.layers[1] for s in stacks] for stacks in calls] == \
        [[GOLD, GOLD, silver]]


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_energy_ratio_is_area_ratio():
    mats = MatsubaraConfig(300.0, n_max=40, zero_mode=DrudeLike())
    e1 = torque_energy(geom(0.5), GOLD, GOLD, VAC, mats)
    e2 = torque_energy(geom(1.2), GOLD, GOLD, VAC, mats)
    assert e1 / e2 == pytest.approx(overlap(geom(0.5)).area
                                    / overlap(geom(1.2)).area, rel=1e-10)


def test_torque_zero_at_aligned_angle():
    mats = MatsubaraConfig(300.0, n_max=5)
    assert torque(geom(0.0), GOLD, GOLD, VAC, mats) == 0.0


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_torque_negligible_when_perpendicular():
    mats = MatsubaraConfig(300.0, n_max=20, zero_mode=DrudeLike())
    assert abs(torque(geom(math.pi / 2.0), GOLD, GOLD, VAC, mats)) < 1e-25


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@pytest.mark.parametrize("th", [0.5, 1.2])
def test_torque_scales_with_squared_plate_size(th):
    mats = MatsubaraConfig(300.0, n_max=40, zero_mode=DrudeLike())
    base = torque(geom(th), GOLD, GOLD, VAC, mats)
    scaled = torque(TorqueGeometry(3 * K, 3 * L, 3 * H, th, D3),
                    GOLD, GOLD, VAC, mats)
    assert scaled == pytest.approx(9.0 * base, rel=1e-10)
    assert base < 0.0  # drives the plates toward alignment


def test_density_regression_golden(gold_tab):
    # frozen after first computation; n_max=1000 reproduced the value
    wp = plasma_frequency_of(gold_tab.eps)
    assert wp == pytest.approx(ev_to_radps(8.45), rel=1e-12)
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=PlasmaLike(wp))
    dens = torque_energy_density(gold_tab, gold_tab, VAC, D3, mats)
    assert dens == pytest.approx(-2.179677717181208e-07, rel=1e-9)


def test_torque_regression_goldens(gold_tab):
    wp = plasma_frequency_of(gold_tab.eps)
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=PlasmaLike(wp))
    expected = {
        0.3: -1.7221687392691404e-13,
        0.9: -1.9604322568042293e-13,
        1.4: -3.814945243653874e-14,
    }
    for th, val in expected.items():
        got = torque(geom(th), gold_tab, gold_tab, VAC, mats)
        assert got == pytest.approx(val, rel=1e-9)


# ---------------------------------------------------------------------------
# edge corrections


def test_edge_energy_value_and_scaling():
    g = geom(math.pi / 2.0)
    assert edge_energy(g) == pytest.approx(1.1381496384588087e-17, rel=1e-12)
    assert edge_energy(geom(math.pi / 2.0, d3=2 * D3)) == \
        pytest.approx(0.25 * edge_energy(g), rel=1e-12)


def test_edge_torque_ratio_constant_above_branch():
    for th in (1.0, 1.2, 1.5):
        g = geom(th)
        assert edge_torque_ratio(g) == pytest.approx(0.264 * D3 / L, rel=1e-12)
    assert edge_torque_ratio(geom(1.2)) == pytest.approx(2.64e-5, rel=1e-12)


def test_edge_torque_ratio_small_below_branch():
    tb = theta0(K, L)
    for i in range(1, 40):
        g = geom(i * (tb - 1e-3) / 40.0 + 5e-4)
        r = edge_torque_ratio(g)
        assert 0.0 < r < 1.4e-5


def test_failing_energy_is_named(monkeypatch):
    # the plasma zero mode of the five-layer stack needs more than 10 panels
    mats = MatsubaraConfig(300.0, n_max=60,
                           zero_mode=PlasmaLike(ev_to_radps(9.0)))
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 10)
    budget = QuadratureConfig(1e-9)
    with pytest.raises(QuadratureError) as info:
        torque_energy_density(GOLD, GOLD, VAC, D3, mats, budget)
    err = info.value
    assert (err.matsubara_n, err.system, err.energy) == (0, 0, "five-layer")
    assert str(err).endswith("n=0) in the five-layer energy")
    five_layer = Stack((VAC, GOLD, VAC, GOLD, VAC), (1e-6, D3, 1e-6))
    with pytest.raises(QuadratureError) as alone:
        energy_per_area_T(five_layer, mats, budget)
    assert err.last_estimate == alone.value.last_estimate
