import functools
import math

import numpy as np
import pytest
from scipy.constants import Boltzmann as k_B, c, hbar
from scipy.special import zeta

from casimir import lifshitz, quadrature
from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              TruncationWarning, energy_per_area_T,
                              energy_per_area_T0, matsubara_xi,
                              normal_pressure, truncation_report)
from casimir.materials import Constant, Drude, Plasma, Vacuum, ev_to_radps
from casimir.quadrature import QuadratureError
from casimir.stack import (DrudeLike, FiveLayerStack, FromModel, Layer,
                           PlasmaLike, Stack, d_ln_g, ln_g)

VAC = Layer(Vacuum())
GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
MIRROR = Layer(Plasma(1e20))  # skin depth c/omega_p ~ 3 pm, ideal for d >> that


def halfspace_stack(material, d):
    # two half-spaces separated by a vacuum gap d, written as five layers
    # with the inner gap split in three (adjacent identical layers give
    # exactly zero interface reflections, so the split is exact)
    return FiveLayerStack((material, VAC, VAC, VAC, material),
                          d / 3.0, d / 3.0, d / 3.0)


def test_matsubara_xi_values():
    assert matsubara_xi(0, 300.0) == 0.0
    xi1 = matsubara_xi(1, 300.0)
    assert xi1 == pytest.approx(2.468e14, rel=5e-4)
    assert matsubara_xi(500, 300.0) == 500.0 * xi1


def test_config_validation():
    with pytest.raises(ValueError):
        MatsubaraConfig(0.0)
    with pytest.raises(ValueError):
        MatsubaraConfig(300.0, n_max=0)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            MatsubaraConfig(bad)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=1e-2)


def test_n_max_must_be_an_integer():
    # a fractional n_max would fail deep in the sum with a bare TypeError
    for bad in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            MatsubaraConfig(300.0, n_max=bad)
    assert MatsubaraConfig(300.0, n_max=np.int64(3)).n_max == 3


def test_identical_layers_zero_energy():
    stack = FiveLayerStack((VAC,) * 5, 1e-7, 1e-7, 1e-7)
    assert energy_per_area_T(stack, MatsubaraConfig(300.0, n_max=5)).value == 0.0
    assert energy_per_area_T0(stack) == 0.0
    assert normal_pressure(stack, 3, MatsubaraConfig(300.0, n_max=5)) == 0.0


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_zero_mode_closed_form():
    # DrudeLike n=0 term for metal half-spaces: -kB T zeta(3) / (16 pi d^2)
    d = 1e-6
    mats = MatsubaraConfig(300.0, n_max=1, zero_mode=DrudeLike())
    energy = energy_per_area_T(halfspace_stack(GOLD, d), mats)
    exact = -k_B * 300.0 * zeta(3) / (16.0 * math.pi * d ** 2)
    assert energy.terms[0] == pytest.approx(exact, rel=5e-9)


def test_t0_ideal_mirrors():
    d = 1e-6
    e = energy_per_area_T0(halfspace_stack(MIRROR, d),
                           QuadratureConfig(rel_tol=1e-7))
    exact = -math.pi ** 2 * hbar * c / (720.0 * d ** 3)
    assert e == pytest.approx(exact, rel=1e-3)


def test_t0_scaling():
    # halving the gap multiplies the ideal-mirror energy by 8
    quad = QuadratureConfig(rel_tol=1e-7)
    e1 = energy_per_area_T0(halfspace_stack(MIRROR, 8e-7), quad)
    e2 = energy_per_area_T0(halfspace_stack(MIRROR, 4e-7), quad)
    assert e2 / e1 == pytest.approx(8.0, rel=2e-3)


def test_t0_failing_k_row_raises(monkeypatch):
    # a k row of an inner pass that runs out of panels fails the T = 0
    # energy with that row's own error
    failures = []
    k_pass = lifshitz._k_pass

    def recorded(*args):
        result = k_pass(*args)
        failures.extend(result[2].values())
        return result

    monkeypatch.setattr(lifshitz, "_k_pass", recorded)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3)
    with pytest.raises(QuadratureError) as info:
        energy_per_area_T0(Stack((GOLD, VAC, GOLD), (1e-7,)))
    assert any(info.value is err for err in failures)
    assert "within 3 panels" in str(info.value)


def test_finite_temperature_ideal_mirrors_regression():
    # frozen after first computation; n_max=2000 reproduced it bit-for-bit
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=FromModel())
    e = energy_per_area_T(halfspace_stack(MIRROR, 1e-6), mats)
    assert e.value == pytest.approx(-4.449281884312852e-10, rel=1e-9)
    # the thermal shift is attractive (larger magnitude) and small
    t0_value = -math.pi ** 2 * hbar * c / (720.0 * 1e-18)
    assert e.value < t0_value
    assert abs(e.value - t0_value) / abs(t0_value) < 0.05


def test_energy_terms_decay():
    mats = MatsubaraConfig(300.0, n_max=60, zero_mode=DrudeLike())
    energy = energy_per_area_T(halfspace_stack(GOLD, 1e-6), mats)
    mags = [abs(t) for t in energy.terms[1:] if t != 0.0]
    assert all(a > b for a, b in zip(mags[5:], mags[6:]))
    assert energy.value == pytest.approx(math.fsum(energy.terms), rel=0.0)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_pressure_ideal_mirrors():
    # T -> 0 proxy: T chosen so xi_1 d / c << 1; the sum stops at n_max with
    # a tail bound of 4e-6 of the pressure, far inside the tolerance below
    d = 1e-6
    mats = MatsubaraConfig(1.0, n_max=3000, zero_mode=FromModel())
    p = normal_pressure(halfspace_stack(MIRROR, d), 3, mats)
    exact = -math.pi ** 2 * hbar * c / (240.0 * d ** 4)
    assert p == pytest.approx(exact, rel=1e-3)
    assert p == pytest.approx(-1.300e-3, rel=1e-3)


def test_pressure_matches_finite_difference():
    d = 2e-7
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), d, d, d)
    mats = MatsubaraConfig(300.0, n_max=200, zero_mode=DrudeLike())
    quad = QuadratureConfig()
    p = normal_pressure(stack, 4, mats, quad)
    h = 1e-4 * d
    up = FiveLayerStack(stack.layers, d, d, d + h)
    dn = FiveLayerStack(stack.layers, d, d, d - h)
    fd = -(energy_per_area_T(up, mats, quad).value
           - energy_per_area_T(dn, mats, quad).value) / (2.0 * h)
    assert p == pytest.approx(fd, rel=1e-5)


def test_pressure_sign_attractive():
    mats = MatsubaraConfig(300.0, n_max=100, zero_mode=DrudeLike())
    assert normal_pressure(halfspace_stack(GOLD, 3e-7), 3, mats) < 0.0


def test_pressure_rejects_outer_index_before_integrating(monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("the Matsubara sum started")

    monkeypatch.setattr(lifshitz, "matsubara_energy", no_integration)
    mats = MatsubaraConfig(300.0, n_max=5)
    for which in (1, 5):
        with pytest.raises(ValueError, match="thickness index"):
            normal_pressure(halfspace_stack(GOLD, 3e-7), which, mats)


class CountingPermittivity:
    """A constant permittivity that counts its evaluations."""

    def __init__(self, value):
        self.value = value
        self.calls = 0

    def eps_imag_axis(self, xi):
        self.calls += 1
        return Constant(self.value).eps_imag_axis(xi)

    def zero_limit(self):
        return 0, self.value


@pytest.mark.parametrize("mode", [ln_g, functools.partial(d_ln_g, which=3)],
                         ids=["ln_g", "d_ln_g"])
def test_one_evaluation_per_layer_per_node(monkeypatch, mode):
    # both polarizations come from one evaluation of each distinct layer
    eps = [CountingPermittivity(value) for value in (2.0, 5.0, 11.0)]
    outer, gap, plate = (Layer(e) for e in eps)
    stack = Stack((outer, gap, plate, gap, outer), (1e-7, 2e-7, 1e-7))
    # the k pass makes two integrand calls, on rows [:2] and [2:]
    def two_calls(f, n_rows, **_):
        k = np.full((n_rows, 22), 1e7)
        return np.concatenate([f(k[:2], np.arange(2)),
                               f(k[2:], np.arange(2, n_rows))])

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", two_calls)
    xi = matsubara_xi(np.arange(1, 4), 300.0)
    values = lifshitz._k_pass(mode, (stack,), np.zeros(3, int), xi,
                              np.full(3, -1), (), QuadratureConfig())
    assert values.shape == (3, 22) and np.all(values != 0.0)
    # one evaluation per pass, not per integrand call
    assert [e.calls for e in eps] == [1, 1, 1]


def test_truncation_report():
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=DrudeLike())
    quad = QuadratureConfig()
    rows = truncation_report(halfspace_stack(GOLD, 3e-7), mats, quad,
                             [100, 500])
    assert [r.n for r in rows] == [100, 500]
    assert rows[0].rel_delta is None
    assert rows[1].rel_delta < 1e-6
    assert rows[1].value == pytest.approx(
        energy_per_area_T(halfspace_stack(GOLD, 3e-7), mats, quad).value,
        rel=1e-12)


def test_sum_cut_at_n_max_warns(recwarn):
    # Drude gold at 10 K, 100 nm, plasma zero mode: 20 terms leave out about
    # nine tenths of the energy, and the tail bound says so
    stack = Stack((GOLD, VAC, GOLD), (1e-7,))
    plasma = PlasmaLike(ev_to_radps(9.0))
    quad = QuadratureConfig(rel_tol=1e-7)
    cut = MatsubaraConfig(10.0, n_max=20, zero_mode=plasma)
    with pytest.warns(TruncationWarning, match="truncated at n_max = 20") as caught:
        energy = energy_per_area_T(stack, cut, quad)
    assert len(caught) == 1
    assert energy.n_stop == 20 and energy.tail > quad.rel_tol * abs(energy.value)
    # a sum that converges before n_max, and a report that tabulates the
    # truncation on purpose, stay silent
    energy_per_area_T(stack, MatsubaraConfig(300.0, n_max=500, zero_mode=plasma), quad)
    rows = truncation_report(stack, cut, quad, [10, 20])
    assert rows[-1].value == energy.value
    assert not [w for w in recwarn if issubclass(w.category, TruncationWarning)]


def test_truncation_report_single_checkpoint():
    mats = MatsubaraConfig(300.0, n_max=50, zero_mode=DrudeLike())
    rows = truncation_report(halfspace_stack(GOLD, 1e-6), mats,
                             QuadratureConfig(), [50])
    assert len(rows) == 1 and rows[0].rel_delta is None


def test_truncation_report_monotone_at_large_gap():
    # at d = 10 um the Matsubara terms die after a handful of n
    mats = MatsubaraConfig(300.0, n_max=40, zero_mode=FromModel())
    rows = truncation_report(halfspace_stack(MIRROR, 1e-5), mats,
                             QuadratureConfig(), list(range(5, 31, 5)))
    deltas = [r.rel_delta for r in rows[1:]]
    assert all(a > b or b == 0.0 for a, b in zip(deltas, deltas[1:]))


def test_truncation_report_validation():
    mats = MatsubaraConfig(300.0, n_max=100)
    with pytest.raises(ValueError):
        truncation_report(halfspace_stack(GOLD, 1e-6), mats,
                          QuadratureConfig(), [])
    with pytest.raises(ValueError):
        truncation_report(halfspace_stack(GOLD, 1e-6), mats,
                          QuadratureConfig(), [500, 100])
    with pytest.raises(ValueError):
        truncation_report(halfspace_stack(GOLD, 1e-6), mats,
                          QuadratureConfig(), [50, 101])


def test_truncation_report_rejects_fractional_checkpoints(monkeypatch):
    # [1.7, 20.9] once gave the rows n = 1 and n = 20 without a word
    def no_integration(*args, **kwargs):
        raise AssertionError("the Matsubara sum started")

    monkeypatch.setattr(lifshitz, "matsubara_energy", no_integration)
    mats = MatsubaraConfig(300.0, n_max=100)
    for bad in ([1.7, 20.9], [1, 20.0]):
        with pytest.raises(ValueError, match="checkpoints must be integers"):
            truncation_report(halfspace_stack(GOLD, 1e-6), mats,
                              QuadratureConfig(), bad)


def test_quadrature_error_tagged_with_index(monkeypatch):
    stack = halfspace_stack(GOLD, 1e-7)
    mats = MatsubaraConfig(300.0, n_max=5, zero_mode=DrudeLike())
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        energy_per_area_T(stack, mats, QuadratureConfig(rel_tol=1e-9))
    assert info.value.matsubara_n >= 0
    assert "n=" in str(info.value)
    assert info.value.last_estimate is not None


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_determinism():
    mats = MatsubaraConfig(300.0, n_max=50, zero_mode=DrudeLike())
    stack = halfspace_stack(GOLD, 2e-7)
    a = energy_per_area_T(stack, mats).value
    b = energy_per_area_T(stack, mats).value
    assert a == b


def test_single_config_observables_reject_a_tuple(monkeypatch):
    def no_integrals(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", no_integrals)
    stack = halfspace_stack(GOLD, 1e-7)
    pair = (MatsubaraConfig(300.0, n_max=50, zero_mode=DrudeLike()),
            MatsubaraConfig(300.0, n_max=50, zero_mode=FromModel()))
    with pytest.raises(TypeError, match="one MatsubaraConfig, got tuple"):
        normal_pressure(stack, 3, pair)
    with pytest.raises(TypeError, match="one MatsubaraConfig, got tuple"):
        truncation_report(stack, pair, QuadratureConfig(), [10, 50])


# ---------------------------------------------------------------------------
# the stop on a geometric tail bound: truncation within 0.1 rel_tol


def _ideal_mirror_mode(stack, k, xi, zero_mode=None):
    """sum_pol ln G of ideal mirrors across the vacuum gap of ``stack``."""
    kappa = np.sqrt(k ** 2 + (xi / c) ** 2)
    return {"sum": 2.0 * np.log1p(-np.exp(-2.0 * kappa * stack.thicknesses[0]))}


def _ideal_mirror_terms(temperature, d, n_max):
    """Closed-form terms n = 0 .. n_max of the ideal-mirror energy:
    -kT/(4 pi d^2) sum_m exp(-2ma)(1 + 2ma)/m^3, a = xi_n d/c, n = 0 halved."""
    a = matsubara_xi(np.arange(n_max + 1), temperature) * d / c
    m = np.arange(1, 401)[:, None]
    terms = -k_B * temperature / (4.0 * math.pi * d ** 2) * np.sum(
        np.exp(-2.0 * m * a) * (1.0 + 2.0 * m * a) / m ** 3, axis=0)
    terms[0] = -k_B * temperature / (8.0 * math.pi * d ** 2) * zeta(3)
    return terms.tolist()


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-7, 1e-9])
@pytest.mark.parametrize("d", [5e-8, 1e-7, 1e-6])
def test_stop_truncates_ideal_mirrors_within_a_tenth_of_rel_tol(d, rel_tol):
    exact = _ideal_mirror_terms(300.0, d, 6000)
    total = math.fsum(exact)
    energy = lifshitz.matsubara_energy(
        Stack((MIRROR, VAC, MIRROR), (d,)), MatsubaraConfig(300.0, n_max=3000),
        QuadratureConfig(rel_tol), _ideal_mirror_mode)
    assert energy.n_stop < 3000
    truncated = abs(math.fsum(exact[energy.n_stop + 1:]))
    assert truncated <= 0.1 * rel_tol * abs(total)
    assert energy.value == pytest.approx(total, rel=rel_tol)
    # the reported bound covers what the stop left out
    assert truncated <= energy.tail <= 100.0 * truncated


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
def test_stop_sees_a_slow_layer_hidden_at_low_n(rel_tol):
    # the weak 30 nm eps = 1.05 layer decays slower than the 300 nm gap, but
    # its terms are buried under the gap's at low n: the ideal-mirror cap on
    # the term ratio across 30 nm keeps the stop from ending on the gap's
    stack = Stack((GOLD, Layer(Constant(1.05)), VAC, GOLD), (3e-8, 3e-7))
    mats = MatsubaraConfig(300.0, n_max=3000, zero_mode=DrudeLike())
    reference = energy_per_area_T(stack, mats, QuadratureConfig(1e-12))
    energy = energy_per_area_T(stack, mats, QuadratureConfig(rel_tol))
    assert energy.n_stop < reference.n_stop < 3000
    truncated = abs(math.fsum(reference.terms[energy.n_stop + 1:]))
    assert truncated <= 0.1 * rel_tol * abs(reference.value)


def test_tail_covers_the_ideal_mirror_tail_at_n_max():
    # criterion 1's sum (10 K, 100 nm) reaches n_max = 3000 first; the
    # terms it leaves out are 6.0e-7 of the energy
    d = 1e-7
    with pytest.warns(TruncationWarning, match="n_max = 3000"):
        energy = lifshitz.matsubara_energy(
            Stack((MIRROR, VAC, MIRROR), (d,)),
            MatsubaraConfig(10.0, n_max=3000), QuadratureConfig(1e-9),
            _ideal_mirror_mode)
    assert energy.n_stop == 3000
    exact = _ideal_mirror_terms(10.0, d, 20000)
    truncated = abs(math.fsum(exact[3001:]))
    assert truncated / abs(energy.value) == pytest.approx(6.0e-7, rel=0.01)
    assert truncated <= energy.tail <= 100.0 * truncated


def test_eps_mu_below_one_stops_on_the_ratio_bound():
    # an inner layer with eps * mu = 0.5: its run's floor m = 0.5 gives the
    # stack the decay length sqrt(0.5) * d, so the sum stops on its tail bound
    stack = Stack((GOLD, Layer(Constant(0.5)), GOLD), (1e-7,))
    assert lifshitz._decay_length(stack) == math.sqrt(0.5) * 1e-7
    # the reference takes neither that bound, the floors nor the early stop:
    # every term to n = 340, each k-integral on its own at rel_tol 1e-12
    pref = k_B * 300.0 / (2.0 * math.pi)
    terms = []
    for n in range(341):
        xi = matsubara_xi(n, 300.0)
        terms.append(pref * quadrature.semi_infinite_integral(
            lambda k: k * sum(ln_g(stack, k, xi).values()),
            scale=lifshitz._k_scale(stack), rel_tol=1e-12))
    terms[0] *= 0.5
    assert abs(terms[-1]) < 1e-16 * abs(terms[0])
    reference = math.fsum(terms)
    for rel_tol in (1e-7, 1e-9):
        energy = energy_per_area_T(stack, MatsubaraConfig(300.0, n_max=500),
                                   QuadratureConfig(rel_tol))
        assert energy.n_stop < 500
        assert energy.tail <= 0.01 * rel_tol * abs(energy.value)
        assert abs(energy.value - reference) <= rel_tol * abs(reference)