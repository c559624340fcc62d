"""The batched Matsubara sum: panel counts, early stop and failure reporting.

Matsubara indices n >= 1 are integrated in batches that follow each
system's predicted stop, one quadrature row per index. These tests pin the
per-term panel decompositions to the counts of the term-by-term algorithm
and drive ``matsubara_energy`` with synthetic mode functions whose terms,
stop index and failing rows are known.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.constants import Boltzmann as k_B

from casimir import lifshitz, quadrature
from casimir.lifshitz import (MatsubaraConfig, QuadratureConfig,
                              TruncationWarning, energy_per_area_T,
                              matsubara_energy, matsubara_xi)
from casimir.materials import (Constant, Drude, DrudeTail, Permeability,
                               Plasma, Tabulated, Vacuum,
                               drude_synthetic_table, ev_to_radps,
                               fit_power_tail)
from casimir.quadrature import QuadratureError, semi_infinite_integral
from casimir.stack import (DrudeLike, FiveLayerStack, FromModel, Layer,
                           PlasmaLike, Stack, ln_g, retracted_stack)
from casimir.tangential import (tangential_force_general,
                                tangential_force_reduced)

GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
VAC = Layer(Vacuum())
T = 300.0
XI1 = matsubara_xi(1, T)
PREF = k_B * T / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# panel and point counts of the default passes (ROADMAP spot measurements)


def _assert_padding(energy, n_max):
    assert len(energy.terms) == n_max + 1
    assert all(t == 0.0 for t in energy.terms[energy.n_stop + 1:])


def _counted(monkeypatch):
    """Integrand points of every ``semi_infinite_rows`` call of ``lifshitz``,
    rows past the early stop included."""
    points = []
    rows = lifshitz.semi_infinite_rows

    def counted(f, n_rows, *args, **kwargs):
        def g(k, r):
            y = f(k, r)
            points.append(y.size)
            return y
        return rows(g, n_rows, *args, **kwargs)

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", counted)
    return points


def test_panels_gold_reduced_force(monkeypatch):
    points = _counted(monkeypatch)
    mats = MatsubaraConfig(T, n_max=500, zero_mode=DrudeLike())
    energy = energy_per_area_T(Stack((GOLD, VAC, GOLD), (1e-7,)), mats)
    assert energy.panels == 689
    assert sum(points) == 11085
    assert energy.n_stop < 500
    _assert_padding(energy, 500)


def test_tangential_points_with_equal_inner_layers_merged(monkeypatch):
    # the retracted stack gold | 3 x 200 nm vacuum | gold predicts its stop
    # from one 600 nm gap, not from a 200 nm layer
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 2e-7, 2e-7)
    lengths = [lifshitz._decay_length(s) for s in (stack, retracted_stack(stack))]
    assert lengths == [2e-7, 6e-7]
    points = _counted(monkeypatch)
    tangential_force_general(stack, MatsubaraConfig(T, n_max=500,
                                                    zero_mode=DrudeLike()))
    assert len(points) == 18
    assert sum(points) == 15345


def test_panels_ideal_mirrors_10k(monkeypatch):
    points = _counted(monkeypatch)
    mats = MatsubaraConfig(10.0, n_max=3000, zero_mode=FromModel())
    mirror = Layer(Plasma(1e20))
    with pytest.warns(TruncationWarning, match="n_max = 3000"):
        energy = energy_per_area_T(Stack((mirror, VAC, mirror), (1e-7,)),
                                   mats)
    assert energy.panels == 23569
    # the sum runs to n_max: no row past a stop, 15 points per panel
    assert sum(points) == 15 * 23569
    _assert_padding(energy, 3000)


def test_panels_five_layer_gold_energy(monkeypatch):
    points = _counted(monkeypatch)
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 2e-7, 2e-7)
    mats = MatsubaraConfig(T, n_max=200, zero_mode=DrudeLike())
    energy = energy_per_area_T(stack, mats)
    assert energy.panels == 376
    assert sum(points) == 5910
    assert energy.n_stop < 200
    _assert_padding(energy, 200)


# ---------------------------------------------------------------------------
# synthetic mode functions: ln G = -A(n) exp(-k), so term n = -pref * A(n)

QUAD = QuadratureConfig(rel_tol=1e-9)
# k-scale 1 and decay length 0.5; the synthetic modes ignore its materials
SYNTHETIC = Stack((GOLD, VAC, GOLD), (0.5,))


@pytest.fixture
def budget16(monkeypatch):
    """The engine's panel budget cut to 16, which the kinked rows exceed."""
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)


def _decaying(n):
    # the ratio of the terms is exp(-1) and the running sum -1.082 * pref,
    # so the tail bound exp(-n) / (e - 1) falls to 1% of rel_tol of the sum
    # at n = 25
    return np.exp(-n)


def _synthetic(amplitude, kinked=()):
    """A mode with term amplitudes A(n); rows in ``kinked`` get a kink
    that no 16-panel budget resolves to rel_tol = 1e-9."""

    def mode(stack, k, xi, zero_mode=None):
        if np.ndim(xi) == 0:   # the zero mode
            return {"sum": _zero(k)}
        n = np.rint(xi / XI1)
        smooth = -amplitude(n) * np.exp(-k)
        kink = np.abs(k - 1.0 / 3.0) ** 0.51 * np.exp(-k)
        return {"sum": np.where(np.isin(n, kinked), kink, smooth)}

    return mode


def _zero(k):
    return -np.exp(-k)


def _alone(mode, n):
    """Term n integrated on its own, as the term-by-term sum did."""
    xi = np.array([[matsubara_xi(n, T)]])
    return PREF * semi_infinite_integral(
        lambda k: k * mode(SYNTHETIC, k[None, :], xi)["sum"][0],
        rel_tol=QUAD.rel_tol)


def _energy(mode, n_max=100):
    return matsubara_energy(SYNTHETIC, MatsubaraConfig(T, n_max=n_max), QUAD,
                            mode)


@pytest.mark.usefixtures("budget16")
def test_early_stop_lands_inside_a_chunk():
    energy = _energy(_synthetic(_decaying))
    assert energy.n_stop == 25
    _assert_padding(energy, 100)
    assert energy.terms[0] == pytest.approx(-0.5 * PREF, rel=1e-12)
    for n in range(1, 26):
        assert energy.terms[n] == pytest.approx(
            _alone(_synthetic(_decaying), n), rel=1e-13)
    assert energy.value == math.fsum(energy.terms)


def _one_pass(monkeypatch):
    """Every system takes all its indices up to n_max in its first batch."""
    monkeypatch.setattr(lifshitz, "_batch", lambda *args: 10 ** 9)


@pytest.mark.usefixtures("budget16")
def test_failing_row_past_the_stop_is_discarded(monkeypatch):
    kinked = _synthetic(_decaying, kinked=(27, 64))
    for n in (27, 64):
        with pytest.raises(QuadratureError):
            _alone(kinked, n)
    clean = _energy(_synthetic(_decaying))
    _one_pass(monkeypatch)   # both rows sit in the pass that holds the stop
    energy = _energy(kinked)
    assert energy.terms == clean.terms
    assert energy.panels == clean.panels
    assert energy.n_stop == 25


@pytest.mark.usefixtures("budget16")
def test_lowest_failing_row_before_the_stop_raises():
    mode = _synthetic(_decaying, kinked=(10, 20))
    with pytest.raises(QuadratureError) as info:
        _energy(mode)
    err = info.value
    assert err.matsubara_n == 10
    assert "n=10" in str(err)
    with pytest.raises(QuadratureError) as alone:
        _alone(mode, 10)
    # the estimates carry the pref-free k-integral of row 10 alone
    assert err.last_estimate == pytest.approx(alone.value.last_estimate,
                                              rel=1e-13)
    assert err.previous_estimate == pytest.approx(
        alone.value.previous_estimate, rel=1e-13)
    assert err.last_estimate != err.previous_estimate


@pytest.mark.usefixtures("budget16")
def test_sign_changing_terms():
    # like a mu != 1 stack: repulsive low-n terms, attractive beyond n = 4
    def amplitude(n):
        return (n - 4.5) * np.exp(-0.5 * n)

    energy = _energy(_synthetic(amplitude), n_max=150)
    signs = [math.copysign(1.0, t) for t in energy.terms[1:energy.n_stop + 1]]
    assert signs[:4] == [1.0] * 4 and set(signs[4:]) == {-1.0}
    for n in (1, 4, 5, 30, energy.n_stop):
        assert energy.terms[n] == pytest.approx(_alone(_synthetic(amplitude), n),
                                                rel=1e-13)
    _assert_padding(energy, 150)
    assert energy.value == math.fsum(energy.terms)


def _sign_changing_sum(case, rel_tol):
    quad = QuadratureConfig(rel_tol)
    if case == "synthetic":
        return matsubara_energy(
            SYNTHETIC, MatsubaraConfig(T, n_max=400), quad,
            _synthetic(lambda n: (n - 4.5) * np.exp(-0.5 * n)))
    if case == "magnetic":
        stack = Stack((MAGNETIC, VAC, GOLD), (1e-7,))
        return energy_per_area_T(stack, MatsubaraConfig(T, n_max=400), quad)
    # the magnetodielectric plate of the convergence_five_layer golden
    plate = Layer(Constant(5.0), Permeability(2.0))
    stack = FiveLayerStack((GOLD, VAC, plate, VAC, GOLD), 1.5e-7, 2e-7, 2.5e-7)
    return energy_per_area_T(
        stack, MatsubaraConfig(T, n_max=400, zero_mode=DrudeLike()), quad)


@pytest.mark.parametrize("rel_tol", [1e-7, 1e-9])
@pytest.mark.parametrize("case", ["magnetic", "five_layer_plate", "synthetic"])
def test_sign_changing_sums_stop_within_rel_tol(case, rel_tol):
    # terms that change sign bound no tail, so the sum runs on until they
    # keep one sign; the terms the stop leaves out, taken from a sum at
    # 1e-12, stay within a tenth of rel_tol
    reference = _sign_changing_sum(case, 1e-12)
    energy = _sign_changing_sum(case, rel_tol)
    assert energy.n_stop < reference.n_stop < 400
    truncated = abs(math.fsum(reference.terms[energy.n_stop + 1:]))
    assert truncated <= 0.1 * rel_tol * abs(reference.value)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_magnetic_stack_matches_term_by_term_sum():
    magnetic = Layer(Constant(3.0), Permeability(4.0))
    stack = FiveLayerStack((magnetic, VAC, GOLD, VAC, magnetic),
                           1e-7, 1e-7, 1e-7)
    mats = MatsubaraConfig(T, n_max=40)
    quad = QuadratureConfig()
    energy = energy_per_area_T(stack, mats, quad)
    scale = 1.0 / (2.0 * 1e-7)
    for n in range(1, energy.n_stop + 1):
        xi = matsubara_xi(n, T)
        ref = PREF * semi_infinite_integral(
            lambda k: k * sum(ln_g(stack, k, xi).values()),
            scale=scale, rel_tol=quad.rel_tol)
        assert energy.terms[n] == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# one pass for several zero-mode treatments: the terms n >= 1 are shared

WP = ev_to_radps(9.0)
MAGNETIC = Layer(Constant(3.0), Permeability(4.0))


def _treatments(n_max):
    return tuple(MatsubaraConfig(T, n_max=n_max, zero_mode=zero_mode)
                 for zero_mode in (DrudeLike(), PlasmaLike(WP), FromModel()))


def _tabulated_gold():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=60)
    return Layer(Tabulated(tab, low_tail=DrudeTail(WP, ev_to_radps(0.035),
                                                   0.01),
                           high_tail=fit_power_tail(tab)))


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@pytest.mark.parametrize("stack, n_max", [
    (Stack((GOLD, VAC, GOLD), (1e-7,)), 300),
    (Stack((_tabulated_gold(), VAC, _tabulated_gold()), (1e-7,)), 300),
    (FiveLayerStack((MAGNETIC, VAC, GOLD, VAC, MAGNETIC), 1e-7, 1e-7, 1e-7),
     40),
], ids=["analytic_gold", "tabulated_gold", "magnetic_stack"])
def test_shared_pass_equals_separate_calls(stack, n_max):
    configs = _treatments(n_max)
    together = energy_per_area_T(stack, configs)
    assert isinstance(together, tuple) and len(together) == 3
    for mats, energy in zip(configs, together):
        alone = energy_per_area_T(stack, mats)
        assert energy.value == alone.value
        assert energy.terms == alone.terms
        assert energy.panels == alone.panels
        assert energy.n_stop == alone.n_stop
    # the plasma n = 0 term differs from the Drude one, nothing else does;
    # with it the running sum, so each may stop at its own index
    drude, plasma, _ = together
    stop = min(drude.n_stop, plasma.n_stop)
    assert plasma.terms[0] != drude.terms[0]
    assert plasma.terms[1:stop + 1] == drude.terms[1:stop + 1]


def test_one_element_tuple_is_the_single_call():
    stack = Stack((GOLD, VAC, GOLD), (3e-7,))
    mats = _treatments(100)[0]
    (energy,) = energy_per_area_T(stack, (mats,))
    assert energy == energy_per_area_T(stack, mats)


def test_tangential_results_carry_their_own_config():
    configs = _treatments(200)
    quad = QuadratureConfig(rel_tol=1e-7)
    together = tangential_force_reduced(GOLD, VAC, 2e-7, configs, quad)
    assert [r.mats for r in together] == list(configs)
    for mats, result in zip(configs, together):
        assert result == tangential_force_reduced(GOLD, VAC, 2e-7, mats, quad)


def _row_counter(monkeypatch):
    """Rows per ``semi_infinite_rows`` call made by ``lifshitz``."""
    sizes = []
    rows = lifshitz.semi_infinite_rows

    def counted(f, n_rows, *args, **kwargs):
        sizes.append(n_rows)
        return rows(f, n_rows, *args, **kwargs)

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", counted)
    return sizes


def _rows_per_call(monkeypatch):
    """Rows of every integrand call of the ``semi_infinite_rows`` calls
    made by ``lifshitz``."""
    sizes = []
    rows = lifshitz.semi_infinite_rows

    def counted(f, n_rows, *args, **kwargs):
        def g(k, r):
            sizes.append(r.size)
            return f(k, r)
        return rows(g, n_rows, *args, **kwargs)

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", counted)
    return sizes


def test_shared_pass_integrates_the_rows_once(monkeypatch):
    sizes = _row_counter(monkeypatch)
    stack = Stack((GOLD, VAC, GOLD), (1e-7,))
    drude, plasma, _ = _treatments(500)
    alone = energy_per_area_T(stack, drude)
    one = list(sizes)
    sizes.clear()
    energy_per_area_T(stack, (drude, plasma))
    # the pair's first pass holds one more n = 0 row; the rows n >= 1 are
    # those of the one-config call, which reach past its stop in one pass
    assert len(one) == 1 and one[0] - 1 >= alone.n_stop
    assert sizes == [one[0] + 1]


def test_mismatched_configs_raise_before_any_integral(monkeypatch):
    def no_integrals(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", no_integrals)
    stack = Stack((GOLD, VAC, GOLD), (1e-7,))
    base = MatsubaraConfig(T, n_max=50, zero_mode=DrudeLike())
    for other in (MatsubaraConfig(310.0, n_max=50, zero_mode=PlasmaLike(WP)),
                  MatsubaraConfig(T, n_max=60, zero_mode=PlasmaLike(WP))):
        with pytest.raises(ValueError, match="share temperature and n_max"):
            energy_per_area_T(stack, (base, other))
        with pytest.raises(ValueError, match="share temperature and n_max"):
            tangential_force_reduced(GOLD, VAC, 1e-7, (other, base))
    with pytest.raises(ValueError, match="at least one config"):
        energy_per_area_T(stack, ())


# Term 0 is -A0 * pref / 2. With A0 = 2e6 the running sum is about
# -1e6 * pref and the tail bound exp(-n) / (e - 1) falls below 1% of
# rel_tol of it at n = 11, so the sum stops there; with A0 = 1 it stops at
# 25, as in test_early_stop_lands_inside_a_chunk.
_ZERO_AMPLITUDE = {DrudeLike(): 2e6, FromModel(): 1.0}


def _two_stops(kinked=()):
    mode = _synthetic(_decaying, kinked)

    def with_zero_modes(stack, k, xi, zero_mode=None):
        values = mode(stack, k, xi)["sum"]
        if np.ndim(xi) == 0:
            return {"sum": _ZERO_AMPLITUDE[zero_mode] * values}
        return {"sum": values}

    return with_zero_modes


@pytest.mark.usefixtures("budget16")
def test_configs_with_different_stops(monkeypatch):
    early = MatsubaraConfig(T, n_max=100, zero_mode=DrudeLike())
    late = MatsubaraConfig(T, n_max=100, zero_mode=FromModel())
    both = matsubara_energy(SYNTHETIC, (early, late), QUAD, _two_stops())
    assert [e.n_stop for e in both] == [11, 25]
    for mats, energy in zip((early, late), both):
        assert energy == matsubara_energy(SYNTHETIC, mats, QUAD, _two_stops())
        _assert_padding(energy, 100)
    assert both[0].terms[1:12] == both[1].terms[1:12]
    # the later stop drives the passes: the pair integrates the rows n >= 1
    # of the later config alone once, with one more n = 0 row
    sizes = _row_counter(monkeypatch)
    matsubara_energy(SYNTHETIC, late, QUAD, _two_stops())
    alone = list(sizes)
    sizes.clear()
    matsubara_energy(SYNTHETIC, (early, late), QUAD, _two_stops())
    assert sizes == [alone[0] + 1] + alone[1:]
    assert sum(alone) - 1 >= 25


@pytest.mark.usefixtures("budget16")
def test_failing_row_between_the_stops_raises_for_the_later_config():
    early = MatsubaraConfig(T, n_max=100, zero_mode=DrudeLike())
    late = MatsubaraConfig(T, n_max=100, zero_mode=FromModel())
    kinked = _two_stops(kinked=(20,))
    clean = matsubara_energy(SYNTHETIC, early, QUAD, _two_stops())
    assert matsubara_energy(SYNTHETIC, early, QUAD, kinked) == clean
    for mats in (late, (early, late), (late, early)):
        with pytest.raises(QuadratureError) as info:
            matsubara_energy(SYNTHETIC, mats, QUAD, kinked)
        assert info.value.matsubara_n == 20


# ---------------------------------------------------------------------------
# one pass for several separations: each stack is a row of the same passes

SEPARATIONS = (1e-7, 3e-7, 1e-6)


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@pytest.mark.parametrize("layers, n_max", [
    ((GOLD, VAC, GOLD), 300),
    ((_tabulated_gold(), VAC, _tabulated_gold()), 300),
    ((MAGNETIC, VAC, GOLD), 60),
], ids=["analytic_gold", "tabulated_gold", "magnetic_stack"])
def test_stacks_in_one_pass_equal_separate_calls(layers, n_max):
    configs = _treatments(n_max)
    stacks = tuple(Stack(layers, (d,)) for d in SEPARATIONS)
    together = energy_per_area_T(stacks, configs)
    assert isinstance(together, tuple) and len(together) == len(stacks)
    for stack, energies in zip(stacks, together):
        assert len(energies) == len(configs)
        for mats, energy in zip(configs, energies):
            alone = energy_per_area_T(stack, mats)
            assert energy.value == alone.value
            assert energy.terms == alone.terms
            assert energy.panels == alone.panels
            assert energy.n_stop == alone.n_stop
    # a single config gives one energy per stack
    drude = energy_per_area_T(stacks, configs[0])
    assert drude == tuple(e[0] for e in together)


def test_stack_pass_builds_its_row_stacks_unchecked(monkeypatch):
    # the member stacks are checked once, when built; the row stacks of
    # every integrand call reuse them without running Stack's checks again
    configs = _treatments(200)[:2]
    stacks = tuple(Stack((GOLD, VAC, GOLD), (d,)) for d in SEPARATIONS)
    alone = [energy_per_area_T(stack, configs) for stack in stacks]
    checks = []
    original = Stack.__post_init__
    monkeypatch.setattr(Stack, "__post_init__",
                        lambda self: checks.append(1) or original(self))
    together = energy_per_area_T(stacks, configs)
    assert checks == []
    assert together == tuple(alone)
    # public construction keeps every check
    with pytest.raises(ValueError, match="d2 must be positive"):
        Stack((GOLD, VAC, GOLD), (np.array([[1e-7], [-1e-7]]),))
    assert len(checks) == 1


def test_tangential_separations_equal_scalar_calls():
    configs = _treatments(200)[:2]
    quad = QuadratureConfig(rel_tol=1e-7)
    together = tangential_force_reduced(GOLD, VAC, SEPARATIONS, configs, quad)
    assert len(together) == len(SEPARATIONS)
    for d, results in zip(SEPARATIONS, together):
        assert results == tangential_force_reduced(GOLD, VAC, d, configs, quad)
    single = tangential_force_reduced(GOLD, VAC, SEPARATIONS, configs[0], quad)
    assert single == tuple(results[0] for results in together)


def _n_stops(stacks, configs):
    """Last index any config of each stack needs, from separate calls."""
    return [max(energy_per_area_T(stack, mats).n_stop for mats in configs)
            for stack in stacks]


def test_separations_share_the_row_passes(monkeypatch):
    configs = _treatments(500)[:2]
    stacks = tuple(Stack((GOLD, VAC, GOLD), (d,)) for d in SEPARATIONS)
    stops = _n_stops(stacks, configs)
    sizes = _row_counter(monkeypatch)
    separate = []
    for stack in stacks:
        energy_per_area_T(stack, configs)
        separate.append(list(sizes))
        sizes.clear()
    energy_per_area_T(stacks, configs)
    # pass p of the sweep holds pass p of every separate call: the n = 0
    # rows of every config, then each stack's own batches
    assert sizes == [sum(s[p] for s in separate if p < len(s))
                     for p in range(max(map(len, separate)))]
    assert len(sizes) == 1 < sum(map(len, separate))
    assert sizes[0] - len(configs) * len(stacks) >= sum(stops)


# ---------------------------------------------------------------------------
# one pass for stacks of any layers: consecutive stacks with equal layers
# form one run, and each run is one mode-function call per integrand call


def _mixed_stacks():
    """3-, 5- and 7-layer stacks, one with a mu != 1 layer; the layers
    (GOLD, VAC, GOLD) come back after another stack and then repeat."""
    two = (GOLD, VAC, GOLD)
    return (Stack(two, (1e-7,)),
            FiveLayerStack((GOLD, VAC, MAGNETIC, VAC, GOLD), 1e-7, 2e-7, 1.5e-7),
            Stack(two, (3e-7,)),
            Stack(two, (1e-6,)),
            Stack((GOLD, VAC, GOLD, VAC, GOLD, VAC, GOLD),
                  (1e-7, 5e-8, 2e-7, 5e-8, 1e-7)))


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@pytest.mark.parametrize("configs", [_treatments(80)[0], _treatments(80)[:2]],
                         ids=["drude", "drude_plasma"])
def test_mixed_stacks_in_one_pass_equal_separate_calls(configs):
    stacks = _mixed_stacks()
    together = energy_per_area_T(stacks, configs)
    assert together == tuple(energy_per_area_T(stack, configs)
                             for stack in stacks)


def test_sweep_longer_than_the_row_cap_splits_into_passes(monkeypatch):
    # a sweep whose one Matsubara pass is longer than the engine's row cap
    # stays one pass; the engine splits it into slices of at most the cap
    configs = _treatments(200)[:2]
    separations = (1e-7, 1.5e-7, 2.5e-7, 4e-7, 7e-7)
    stacks = tuple(Stack((GOLD, VAC, GOLD), (d,)) for d in separations)
    alone = [energy_per_area_T(stack, configs) for stack in stacks]
    passes = _row_counter(monkeypatch)
    energy_per_area_T(stacks, configs)
    assert len(passes) == 1 and passes[0] > 128
    passes.clear()
    monkeypatch.setattr(quadrature, "_MAX_ROWS", 128)
    sizes = _rows_per_call(monkeypatch)
    assert energy_per_area_T(stacks, configs) == tuple(alone)
    assert len(passes) == 1 and max(sizes) == 128


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
def test_zero_rows_past_the_row_cap_split_into_groups(monkeypatch):
    # every n = 0 row sits in the first pass; the quadrature engine runs a
    # pass longer than its row cap as slices of rows, and every row is
    # reduced on its own, so no result moves
    stacks = _mixed_stacks()
    configs = _treatments(80)
    default = energy_per_area_T(stacks, configs)
    zeros = []   # rows n = 0 of every pass
    k_pass = lifshitz._k_pass

    def counted(mode, stacks, system, xi, zero, *args):
        zeros.append(int(np.count_nonzero(zero >= 0)))
        return k_pass(mode, stacks, system, xi, zero, *args)

    monkeypatch.setattr(lifshitz, "_k_pass", counted)
    sizes = _rows_per_call(monkeypatch)
    monkeypatch.setattr(quadrature, "_MAX_ROWS", 8)
    assert energy_per_area_T(stacks, configs) == default
    assert max(sizes) == 8 and len(sizes) > 1
    # 15 rows n = 0 (5 stacks, 3 configs), all in the first pass
    assert [zero for zero in zeros if zero] == [15] and zeros[0] == 15


@pytest.mark.filterwarnings("ignore::casimir.lifshitz.TruncationWarning")
@pytest.mark.parametrize("batch", ["one_index", "one_pass"])
def test_batch_sizes_never_change_a_result(monkeypatch, batch):
    stacks = _mixed_stacks()
    configs = _treatments(80)[:2]
    default = energy_per_area_T(stacks, configs)
    if batch == "one_index":
        monkeypatch.setattr(lifshitz, "_batch", lambda *args: 1)
    else:
        _one_pass(monkeypatch)
    sizes = _row_counter(monkeypatch)
    assert energy_per_area_T(stacks, configs) == default
    stops = max(e.n_stop for energies in default for e in energies)
    assert len(sizes) == (stops if batch == "one_index" else 1)


def test_one_mode_call_per_run_of_equal_layers(monkeypatch):
    stacks = _mixed_stacks()
    calls = []

    def counted(stack, k, xi, zero_mode=None):
        calls.append((len(stack.layers), k.shape[0], zero_mode))
        return ln_g(stack, k, xi, zero_mode)

    k = np.linspace(1e6, 3e7, 22)
    # the k pass makes one integrand call on all of its rows
    monkeypatch.setattr(lifshitz, "semi_infinite_rows",
                        lambda f, n_rows, **_: f(k * np.ones((n_rows, 1)),
                                                 np.arange(n_rows)))
    modes = (DrudeLike(), PlasmaLike(WP))
    # rows n = 0 of one config on stacks 0, 2 and 3 and of another on
    # stack 0, then rows n >= 1; the last row n = 0 and the first row
    # n >= 1 are in runs next to each other
    system = np.array([0, 2, 3, 0, 1, 1, 2, 3, 3, 4])
    zero = np.array([0, 0, 0, 1] + [-1] * 6)
    xi = matsubara_xi(np.maximum(np.arange(system.size) - 3, 0), T)
    together = lifshitz._k_pass(counted, stacks, system, xi, zero, modes,
                                QuadratureConfig())
    # runs: stack 0, stack 1, stacks 2 and 3 (equal layers), stack 4; one
    # call per run and zero mode, the rows n >= 1 with no zero mode
    assert calls == [(3, 1, modes[0]), (3, 2, modes[0]), (3, 1, modes[1]),
                     (5, 2, None), (3, 3, None), (7, 1, None)]
    for row, (s, z) in enumerate(zip(system.tolist(), zero.tolist())):
        at = (0.0, modes[z]) if z >= 0 else (xi[row:row + 1, None], None)
        alone = sum(ln_g(stacks[s], k[None], *at).values())
        assert np.array_equal(together[row:row + 1], k * alone)


def test_one_stand_in_per_distinct_layer_for_every_call(monkeypatch):
    # the pass builds its layer table before its first integrand call, so
    # every mode call, at xi = 0 and at n >= 1, sees the same stand-ins
    stacks = _mixed_stacks()   # distinct layers: GOLD, VAC, MAGNETIC
    seen, calls = {}, []   # seen keeps each object alive, so no id is reused

    def recording(stack, k, xi, zero_mode=None):
        seen.update((id(layer), layer) for layer in stack.layers)
        calls.append(zero_mode)
        return ln_g(stack, k, xi, zero_mode)

    # two integrand calls, on rows [:6] and [6:], both holding rows n >= 1
    def two_calls(f, n_rows, **_):
        k = np.full((n_rows, 22), 1e7)
        return np.concatenate([f(k[:6], np.arange(6)),
                               f(k[6:], np.arange(6, n_rows))])

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", two_calls)
    modes = (DrudeLike(), PlasmaLike(WP))
    system = np.array([0, 2, 3, 0, 1, 1, 2, 3, 3, 4])
    zero = np.array([0, 0, 0, 1] + [-1] * 6)
    xi = matsubara_xi(np.maximum(np.arange(system.size) - 3, 0), T)
    lifshitz._k_pass(recording, stacks, system, xi, zero, modes,
                     QuadratureConfig())
    assert calls == [modes[0], modes[0], modes[1], None, None, None]
    assert len(seen) == 3


def test_bad_separations_or_layers_raise_before_any_integral(monkeypatch):
    def no_integrals(*args, **kwargs):
        raise AssertionError("an integral ran")

    monkeypatch.setattr(lifshitz, "semi_infinite_rows", no_integrals)
    mats = _treatments(50)[0]
    for bad in (0.0, -1e-7, math.inf, math.nan):
        with pytest.raises(ValueError, match="d4 must be positive and finite"):
            tangential_force_reduced(GOLD, VAC, (1e-7, bad), mats)
    with pytest.raises(ValueError, match="at least one stack"):
        energy_per_area_T((), mats)


@pytest.mark.usefixtures("budget16")
def test_failing_row_names_its_system():
    # system 1 gets a kink at n = 10 that the 16-panel budget cannot resolve;
    # its other outer layer leaves k-scale and decay length as SYNTHETIC's
    other = Stack((GOLD, VAC, MAGNETIC), (0.5,))
    clean = _synthetic(_decaying)
    kinked = _synthetic(_decaying, kinked=(10,))

    def two_systems(stack, k, xi, zero_mode=None):
        # at n >= 1 the mode sees stand-in layers, one per distinct layer
        # object: SYNTHETIC has 2 of them, other 3
        mode = kinked if len(set(map(id, stack.layers))) == 3 else clean
        return mode(stack, k, xi, zero_mode)

    mats = MatsubaraConfig(T, n_max=100)
    with pytest.raises(QuadratureError) as info:
        matsubara_energy((SYNTHETIC, other), mats, QUAD, two_systems)
    assert (info.value.matsubara_n, info.value.system) == (10, 1)
    assert "n=10" in str(info.value)
    with pytest.raises(QuadratureError) as alone:
        matsubara_energy(SYNTHETIC, mats, QUAD, kinked)
    assert info.value.last_estimate == alone.value.last_estimate


@pytest.mark.usefixtures("budget16")
def test_failing_separation_is_named():
    # on this budget the plasma zero mode of 50 nm fails and 3 um does not
    mats = MatsubaraConfig(T, n_max=60, zero_mode=PlasmaLike(WP))
    quad = QuadratureConfig(rel_tol=1e-7)
    tangential_force_reduced(GOLD, VAC, 3e-6, mats, quad)
    with pytest.raises(QuadratureError) as alone:
        tangential_force_reduced(GOLD, VAC, 5e-8, mats, quad)
    with pytest.raises(QuadratureError) as info:
        tangential_force_reduced(GOLD, VAC, (3e-6, 5e-8), mats, quad)
    err = info.value
    assert (err.matsubara_n, err.separation) == (0, 5e-8)
    assert "n=0" in str(err) and "d4 = 5e-08 m" in str(err)
    assert err.last_estimate == alone.value.last_estimate
    assert alone.value.separation == 5e-8


# ---------------------------------------------------------------------------
# one stop rule for every passive stack: the ratio bound, or a term of 0

PALETTE = (GOLD, Layer(Drude(ev_to_radps(0.5), ev_to_radps(0.1))), VAC,
           Layer(Constant(3.0)), Layer(Constant(0.5)), Layer(Constant(5.0), Permeability(2.0)),
           Layer(Constant(2.0), Permeability(4.0)), Layer(Vacuum(), Permeability(0.5)))


@st.composite
def passive_stacks(draw):
    """A Stack of 3 to 5 layers from PALETTE, each inner one 50 nm to 3 um
    thick, log-uniformly."""
    n = draw(st.integers(3, 5))
    thickness = st.floats(math.log(5e-8), math.log(3e-6)).map(math.exp)
    return Stack(tuple(draw(st.sampled_from(PALETTE)) for _ in range(n)),
                 tuple(draw(thickness) for _ in range(n - 2)))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(passive_stacks())
def test_every_sum_stops_on_its_tail_bound(stack):
    # the soft Drude layer's eps(i xi) crosses the constant ones; the
    # eps * mu < 1 layers slow the terms down
    rel_tol = 1e-7
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        energies = energy_per_area_T(stack, _treatments(2000), QuadratureConfig(rel_tol))
    no_inner_run = len([layer for layer, _ in itertools.groupby(stack.layers)]) <= 2
    for energy in energies:
        assert energy.n_stop < 2000
        assert energy.tail <= 0.01 * rel_tol * abs(energy.value)
        if no_inner_run:
            assert energy.value == 0.0 and energy.tail == 0.0
