"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``criterion N PASS/FAIL`` line (bypassing pytest
capture) so a plain run yields one status line per criterion; ``pytest -v``
adds the per-test verdicts. Runtime budgets are asserted where stated.
"""

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import c, hbar, k as k_B
from scipy.special import zeta

from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              TruncationWarning, energy_per_area_T,
                              matsubara_xi, normal_pressure)
from casimir.materials import (Drude, DrudeTail, Plasma, Tabulated, Vacuum,
                               drude_synthetic_table, ev_to_radps,
                               fit_power_tail)
from casimir.stack import (DrudeLike, FiveLayerStack, FromModel, Layer,
                           PlasmaLike)
from casimir.tangential import (tangential_force_general,
                                tangential_force_reduced)
from casimir.torque import (TorqueGeometry, area_derivative,
                            edge_torque_ratio, overlap, perimeter_derivative,
                            theta0, torque, torque_energy,
                            torque_energy_density)
from clipped_overlap import clipped_overlap

VAC = Layer(Vacuum())
MIRROR = Layer(Plasma(1e20))
GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
ALUMINUM = Layer(Drude(ev_to_radps(12.5), ev_to_radps(0.063)))


def halfspace(material, d):
    # two half-spaces a gap d apart, written as a five-layer stack
    return FiveLayerStack((material, VAC, VAC, VAC, material),
                          d / 3.0, d / 3.0, d / 3.0)


@contextmanager
def criterion(num, description, budget_s=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        sys.__stderr__.write(f"\ncriterion {num} FAIL: {description}\n")
        raise
    elapsed = time.monotonic() - start
    sys.__stderr__.write(
        f"\ncriterion {num} PASS: {description} ({elapsed:.1f}s)\n")
    if budget_s is not None:
        assert elapsed < budget_s


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_criterion_1_ideal_mirror_limits():
    with criterion(1, "ideal-mirror force and pressure closed forms",
                   budget_s=60):
        mats = MatsubaraConfig(10.0, n_max=3000, zero_mode=FromModel())
        for d in (1e-7, 5e-7, 1e-6):
            force = tangential_force_reduced(MIRROR, VAC, d,
                                             mats).force_per_width
            assert force == pytest.approx(
                math.pi ** 2 * hbar * c / (720.0 * d ** 3), rel=5e-3)
            pressure = normal_pressure(halfspace(MIRROR, d), 3, mats)
            assert pressure == pytest.approx(
                -math.pi ** 2 * hbar * c / (240.0 * d ** 4), rel=5e-3)
        assert pressure == pytest.approx(-1.300e-3, rel=1e-3)  # d = 1 um


def test_criterion_2_matsubara_truncation():
    with criterion(2, "n_max=500 vs 100 force shift below 1e-6 over the "
                      "0.1-1 um grid", budget_s=600):
        # the n_max = 100 sum at 100 nm stops at n_max; a cut that does not
        # match, such as one of an n_max = 500 sum, still fails the test
        with pytest.warns(TruncationWarning, match="n_max = 100"):
            for d in np.geomspace(1e-7, 1e-6, 10):
                forces = {}
                for n_max in (100, 500):
                    mats = MatsubaraConfig(300.0, n_max=n_max,
                                           zero_mode=DrudeLike())
                    forces[n_max] = tangential_force_reduced(
                        GOLD, VAC, float(d), mats).force_per_width
                assert (abs(forces[500] - forces[100]) / abs(forces[500])
                        < 1e-6)


def test_criterion_3_first_matsubara_frequency():
    with criterion(3, "xi_1(300 K) = 2.468e14 rad/s"):
        assert matsubara_xi(1, 300.0) == pytest.approx(2.468e14, rel=5e-4)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_criterion_4_zero_mode_closed_form():
    with criterion(4, "drude-like n=0 term equals -kT zeta(3)/(16 pi d^2)"):
        d = 1e-6
        mats = MatsubaraConfig(300.0, n_max=1, zero_mode=DrudeLike())
        term = energy_per_area_T(halfspace(GOLD, d), mats).terms[0]
        exact = -k_B * 300.0 * zeta(3) / (16.0 * math.pi * d ** 2)
        assert term == pytest.approx(exact, rel=1e-9)


def test_criterion_5_kramers_kronig_oracle():
    with criterion(5, "tabulated-data transform matches the analytic model "
                      "within 1e-3"):
        table = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=100)
        model = Tabulated(table,
                          low_tail=DrudeTail(ev_to_radps(9.0),
                                             ev_to_radps(0.035), 0.01),
                          high_tail=fit_power_tail(table))
        wp, ga = ev_to_radps(9.0), ev_to_radps(0.035)
        for e_ev in np.geomspace(0.01, 50.0, 25):
            xi = ev_to_radps(float(e_ev))
            exact = 1.0 + wp ** 2 / (xi * (xi + ga))
            assert model.eps_imag_axis(xi) == pytest.approx(exact, rel=1e-3)


def test_criterion_6_overlap_geometry_suite():
    with criterion(6, "overlap areas, derivatives and edge-ratio constants",
                   budget_s=60):
        K, L, H, D3 = 2e-3, 1e-3, 3e-3, 1e-7

        def geom(th):
            return TorqueGeometry(K, L, H, th, D3)

        branch = theta0(K, L)
        for th in np.linspace(branch + 1e-3, math.pi / 2.0, 8):
            g = geom(float(th))
            shape, clipped = overlap(g), clipped_overlap(g)
            assert shape.area == pytest.approx(clipped.area, rel=1e-12)
            assert shape.perimeter == pytest.approx(clipped.perimeter,
                                                    rel=1e-12)

        h = 1e-6
        for th in (0.2, 0.5, 0.8, 1.0, 1.2, 1.5):
            ahead = clipped_overlap(geom(th + h))
            behind = clipped_overlap(geom(th - h))
            s_fd = (ahead.area - behind.area) / (2.0 * h)
            p_fd = (ahead.perimeter - behind.perimeter) / (2.0 * h)
            assert area_derivative(geom(th)) == pytest.approx(s_fd, rel=1e-6)
            assert perimeter_derivative(geom(th)) == pytest.approx(p_fd,
                                                                   rel=1e-6)

        for th in (1.0, 1.2, 1.5):
            assert edge_torque_ratio(geom(th)) == pytest.approx(
                0.264 * D3 / L, rel=1e-12)
        assert edge_torque_ratio(geom(1.2)) == pytest.approx(2.64e-5,
                                                             rel=1e-12)
        for th in np.linspace(1e-3, branch - 1e-3, 200):
            assert 0.0 < edge_torque_ratio(geom(float(th))) < 1.4e-5


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_criterion_7_torque_scaling():
    with criterion(7, "torque scales as f^2 with plate size"):
        mats = MatsubaraConfig(300.0, n_max=40, zero_mode=DrudeLike())
        for th in (0.5, 1.2):
            base = TorqueGeometry(2e-3, 1e-3, 3e-3, th, 1e-7)
            scaled = TorqueGeometry(4e-3, 2e-3, 6e-3, th, 1e-7)
            m_base = torque(base, GOLD, GOLD, VAC, mats)
            m_scaled = torque(scaled, GOLD, GOLD, VAC, mats)
            assert m_scaled == pytest.approx(4.0 * m_base, rel=1e-10)


def _tabulated_gold(omega_p_ev, gamma_ev, merge_below=None):
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=60)
    if merge_below is not None:
        low = drude_synthetic_table(omega_p_ev, gamma_ev, 0.01, 100.0,
                                    per_decade=60)
        tab = tab.replace_below(low, merge_below)
    return Layer(Tabulated(tab,
                           low_tail=DrudeTail(ev_to_radps(omega_p_ev),
                                              ev_to_radps(gamma_ev), 0.01),
                           high_tail=fit_power_tail(tab)))


def test_criterion_8_figure_shape_properties():
    with criterion(8, "prescription ordering, material ratios and torque "
                      "curve shape", budget_s=900):
        # plasma treatment never weaker than drude
        mats = MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike())
        plasma = MatsubaraConfig(300.0, n_max=300,
                                 zero_mode=PlasmaLike(GOLD.eps.omega_p))
        quad = QuadratureConfig(rel_tol=1e-7)
        for d in np.geomspace(1e-7, 1e-6, 6):
            f_d = tangential_force_reduced(GOLD, VAC, float(d), mats, quad)
            f_p = tangential_force_reduced(GOLD, VAC, float(d), plasma, quad)
            assert abs(f_p.force_per_width) >= abs(f_d.force_per_width)

        # aluminum/gold force ratio approaches 1 with distance
        gaps = []
        for d in np.geomspace(1e-7, 1e-5, 5):
            f_al = tangential_force_reduced(ALUMINUM, VAC, float(d), mats,
                                            quad).force_per_width
            f_au = tangential_force_reduced(GOLD, VAC, float(d), mats,
                                            quad).force_per_width
            gaps.append(abs(f_al / f_au - 1.0))
        assert gaps[-3] > gaps[-2] > gaps[-1]

        # alternative data sets disagree most at the smallest separation
        au1 = _tabulated_gold(9.0, 0.035)
        au2 = _tabulated_gold(8.45, 0.047, merge_below=4.2)
        deviations = []
        for d in (1e-7, 3e-7, 1e-6):
            f1 = tangential_force_reduced(au1, VAC, d, mats,
                                          quad).force_per_width
            f2 = tangential_force_reduced(au2, VAC, d, mats,
                                          quad).force_per_width
            deviations.append(abs(f2 / f1 - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]

        # torque vanishes at pi/2 and plateaus toward theta -> 0+
        K = 2e-3
        mats_t = MatsubaraConfig(300.0, n_max=200, zero_mode=DrudeLike())
        density = torque_energy_density(GOLD, GOLD, VAC, 1e-7, mats_t)
        perp = TorqueGeometry(K, 1e-3, 3e-3, math.pi / 2.0, 1e-7)
        assert abs(torque(perp, GOLD, GOLD, VAC, mats_t)) < 1e-25
        m_small = [torque(replace(perp, theta=th), GOLD, GOLD, VAC, mats_t)
                   for th in (0.05, 0.1)]
        assert all(m < 0.0 for m in m_small)
        assert m_small[0] == pytest.approx(density * K ** 2 / 4.0, rel=0.1)
        assert m_small[0] == pytest.approx(m_small[1], rel=0.08)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_criterion_9_internal_consistency():
    with criterion(9, "analytic derivatives match finite differences; "
                      "general matches reduced", budget_s=300):
        # normal pressure vs numerical energy derivative
        d = 2e-7
        stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), d, d, d)
        mats = MatsubaraConfig(300.0, n_max=200, zero_mode=DrudeLike())
        quad = QuadratureConfig()
        pressure = normal_pressure(stack, 4, mats, quad)
        h = 1e-4 * d
        up = FiveLayerStack(stack.layers, d, d, d + h)
        down = FiveLayerStack(stack.layers, d, d, d - h)
        fd = -(energy_per_area_T(up, mats, quad).value
               - energy_per_area_T(down, mats, quad).value) / (2.0 * h)
        assert pressure == pytest.approx(fd, rel=1e-5)

        # torque vs numerical angle derivative of the energy
        mats_t = MatsubaraConfig(300.0, n_max=40, zero_mode=DrudeLike())
        geom = TorqueGeometry(2e-3, 1e-3, 3e-3, 1.2, 1e-7)
        h = 1e-5
        e_up = torque_energy(replace(geom, theta=1.2 + h), GOLD, GOLD, VAC,
                             mats_t)
        e_down = torque_energy(replace(geom, theta=1.2 - h), GOLD, GOLD, VAC,
                               mats_t)
        m = torque(geom, GOLD, GOLD, VAC, mats_t)
        assert m == pytest.approx(-(e_up - e_down) / (2.0 * h), rel=1e-5)

        # five-layer tangential force vs two-interface reduction, deep limit
        d4 = 1e-7
        mats_g = MatsubaraConfig(300.0, n_max=300, zero_mode=DrudeLike())
        deep = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD),
                              1000 * d4, 1000 * d4, d4)
        general = tangential_force_general(deep, mats_g).force_per_width
        reduced = tangential_force_reduced(GOLD, VAC, d4,
                                           mats_g).force_per_width
        assert general == pytest.approx(reduced, rel=1e-6)
