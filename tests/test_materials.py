import math
import re

import numpy as np
import pytest

from casimir import materials, quadrature
from casimir.materials import (Constant, DataFileError, Drude, DrudeTail,
                               OpticalDataTable, Permeability, Plasma,
                               PowerTail, Tabulated, Vacuum,
                               ZeroFrequencyError, drude_synthetic_table,
                               eps2_from_nk, ev_to_radps, fit_power_tail,
                               kk_transform, load_optical_data,
                               plasma_frequency_of, radps_to_ev)
from casimir.quadrature import QuadratureError

W_P = ev_to_radps(9.0)
GAMMA = ev_to_radps(0.035)


def drude_eps(xi):
    return 1.0 + W_P ** 2 / (xi * (xi + GAMMA))


# ---------------------------------------------------------------------------
# unit conversions


def test_ev_to_radps_one_ev():
    assert ev_to_radps(1.0) == pytest.approx(1.519267e15, rel=1e-6)


def test_ev_to_radps_zero():
    assert ev_to_radps(0.0) == 0.0


def test_roundtrip():
    assert radps_to_ev(ev_to_radps(4.133)) == pytest.approx(4.133, rel=1e-12)


def test_eps2_from_nk():
    assert eps2_from_nk(1.0, 0.0) == 0.0
    assert eps2_from_nk(0.5, 2.0) == 2.0
    assert eps2_from_nk(1.5, 1.5) == 4.5


# ---------------------------------------------------------------------------
# closed-form models


def test_drude_at_omega_p():
    # 1 + 81 / (9.0 * 9.035)
    assert Drude(W_P, GAMMA).eps_imag_axis(W_P) == pytest.approx(1.99613, rel=1e-5)


def test_plasma_at_omega_p():
    assert Plasma(W_P).eps_imag_axis(W_P) == 2.0


def test_vacuum_and_constant():
    assert Vacuum().eps_imag_axis(3.7e15) == 1.0
    assert Constant(2.25).eps_imag_axis(1e12) == 2.25
    assert Constant(2.25).eps_imag_axis(0.0) == 2.25


def test_drude_zero_frequency_raises():
    with pytest.raises(ZeroFrequencyError):
        Drude(W_P, GAMMA).eps_imag_axis(0.0)
    with pytest.raises(ZeroFrequencyError):
        Plasma(W_P).eps_imag_axis(0.0)


def test_zero_limits():
    assert Vacuum().zero_limit() == (0, 1.0)
    assert Constant(4.0).zero_limit() == (0, 4.0)
    assert Drude(W_P, GAMMA).zero_limit() == (1, W_P ** 2 / GAMMA)
    assert Drude(W_P, 0.0).zero_limit() == (2, W_P ** 2)
    assert Plasma(W_P).zero_limit() == (2, W_P ** 2)


def test_plasma_vs_drude_relation():
    # the metal terms differ by exactly (1 + gamma/xi)
    for xi in (0.1 * W_P, W_P, 10.0 * W_P):
        d = Drude(W_P, GAMMA).eps_imag_axis(xi) - 1.0
        p = Plasma(W_P).eps_imag_axis(xi) - 1.0
        assert d < p
        assert p == pytest.approx(d * (1.0 + GAMMA / xi), rel=1e-13)


def test_permeability():
    mu = Permeability(1.5)
    assert mu.mu_imag_axis(0.0) == 1.5
    assert mu.mu_imag_axis(1e15) == 1.5
    with pytest.raises(ValueError):
        Permeability(0.0)


def _array_models():
    table = drude_synthetic_table(9.0, 0.035, 0.1, 10.0, per_decade=20)
    return [
        ("eps", Vacuum()), ("eps", Constant(2.25)),
        ("eps", Drude(W_P, GAMMA)), ("eps", Drude(W_P, 0.0)),
        ("eps", Plasma(W_P)), ("mu", Permeability(1.5)),
        ("eps", Tabulated(table, low_tail=DrudeTail(W_P, GAMMA, 0.1))),
    ]


@pytest.mark.parametrize("kind,model", _array_models(),
                         ids=["vacuum", "constant", "drude", "drude-lossless",
                              "plasma", "permeability", "tabulated"])
def test_array_xi_equals_scalar_calls_bitwise(kind, model):
    # batched Matsubara sums pass one frequency per row as an (R, 1) column
    evaluate = model.eps_imag_axis if kind == "eps" else model.mu_imag_axis
    xi = np.geomspace(1e12, 1e17, 37)[:, None]
    batched = evaluate(xi)
    assert isinstance(batched, np.ndarray) and batched.shape == xi.shape
    scalar = np.array([[float(evaluate(float(x)))] for x in xi[:, 0]])
    assert batched.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("model", [Vacuum(), Constant(2.25), Drude(W_P, GAMMA),
                                   Plasma(W_P)])
def test_array_xi_rejects_non_positive(model):
    for bad in (0.0, -1e14):
        with pytest.raises(ZeroFrequencyError):
            model.eps_imag_axis(np.array([[1e14], [bad]]))
    # a NaN is named as such, not reported as the zero frequency
    with pytest.raises(ValueError, match="non-finite xi = nan") as info:
        model.eps_imag_axis(np.array([[1e14], [np.nan]]))
    assert not isinstance(info.value, ZeroFrequencyError)
    with pytest.raises(ZeroFrequencyError):
        Permeability(1.5).mu_imag_axis(np.array([1e14, 0.0]))


def test_non_finite_xi_is_named():
    tab, low, high = _gold_kk()
    tabulated = Tabulated(tab, low_tail=low, high_tail=high)
    for model in (Drude(W_P, GAMMA), tabulated):
        for bad in ([np.nan], np.array([1e15, np.inf]), np.nan):
            with pytest.raises(ValueError, match="non-finite xi") as info:
                model.eps_imag_axis(bad)
            assert not isinstance(info.value, ZeroFrequencyError)
    with pytest.raises(ValueError, match="non-finite xi = nan"):
        kk_transform(tab, None, high, np.array([1e15, np.nan]))
    # nothing was cached for the rejected frequencies
    assert tabulated.eps_imag_axis(1e15) == kk_transform(tab, low, high, 1e15)


def test_model_validation():
    with pytest.raises(ValueError):
        Drude(-1.0, GAMMA)
    with pytest.raises(ValueError):
        Drude(W_P, -1.0)
    # the xi -> 0 coefficient omega_p**2/gamma must be finite
    with pytest.raises(ValueError, match="overflows"):
        Drude(W_P, 5e-324)
    with pytest.raises(ValueError):
        Plasma(0.0)
    with pytest.raises(ValueError):
        Constant(0.0)
    # non-finite parameters, which the positivity checks alone let through
    for make in (lambda v: Drude(v, GAMMA), lambda v: Drude(W_P, v), Plasma,
                 Constant, Permeability, lambda v: DrudeTail(v, GAMMA, 0.01),
                 lambda v: DrudeTail(W_P, v, 0.01),
                 lambda v: DrudeTail(W_P, GAMMA, v)):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                make(value)
    with pytest.raises(ValueError, match="overflows"):
        DrudeTail(W_P, 5e-324, 0.01)
    with pytest.raises(ValueError, match="overflows"):
        Plasma(1e200)


def test_plasma_frequency_of():
    assert plasma_frequency_of(Drude(W_P, GAMMA)) == W_P
    assert plasma_frequency_of(Plasma(W_P)) == W_P
    assert plasma_frequency_of(Vacuum()) is None
    assert plasma_frequency_of(Constant(2.0)) is None


# ---------------------------------------------------------------------------
# Kramers-Kronig over many xi at once
#
# Each round of the data band runs for a chunk of xi at once, with each
# element's one-xi arithmetic, and the quadrature engine reduces each
# power-tail row and each bisecting (xi, segment) row on its own, so batched
# and scalar calls agree bit for bit. The tests compare against the one-xi
# algorithm written out in _band_reference.


def _gold_kk():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=50)
    return tab, DrudeTail(W_P, GAMMA, 0.01), fit_power_tail(tab)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(materials, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(materials, name, counted)
    return calls


# the data band's panel rules: nodes, Kronrod weights, Kronrod minus Gauss
_K7 = (quadrature._K7_X, quadrature._K7_W, quadrature._K7_D)
_K15 = (quadrature._K15_X, quadrature._K15_W, quadrature._K15_D)


def _round_reference(table, xi, rule):
    """One panel of ``rule`` per sample segment for one xi, written out: the
    summed values and the summed error estimates."""
    nodes, weights, diffs = rule
    w, e2 = table.omegas, np.maximum(table.eps2, 1e-300)
    xi2 = float(xi) * float(xi)   # as the band squares xi
    s = np.diff(np.log(e2)) / np.diff(np.log(w))
    half = 0.5 * np.diff(w)
    x = 0.5 * (w[:-1] + w[1:])[:, None] + half[:, None] * nodes
    y = (e2[:-1, None] * (x / w[:-1, None]) ** s[:, None] * x
         / (x ** 2 + xi2))
    return (float(np.sum(half * (y @ weights))),
            float(np.sum(np.abs(half * (y @ diffs)))))


def _band_reference(table, xi, rel_tol):
    """The data band of one xi written out: one K7 panel per sample segment;
    if their summed error misses the tolerance, one K15 panel per segment;
    if that misses too, each segment on its own engine row over t in [0, 1],
    to an equal share of the K15 round's tolerance."""
    for rule in (_K7, _K15):
        total, err = _round_reference(table, xi, rule)
        tol = rel_tol * max(abs(total), 1e-300)
        if err <= tol:
            return total
    w, e2 = table.omegas, np.maximum(table.eps2, 1e-300)
    xi2 = float(xi) * float(xi)
    s = np.diff(np.log(e2)) / np.diff(np.log(w))
    parts = []
    for k in range(s.size):
        # (1, 1) arrays, as the batched rows index them
        a, width, e_ref, p = (v[k:k + 1, None] for v in (w, np.diff(w), e2, s))

        def f(t, rows):
            x = a + width * t
            return width * e_ref * (x / a) ** p * x / (x ** 2 + xi2)

        value, _, failures = quadrature._adaptive_rows(
            f, 0.0, 1.0, np.arange(1), 0.0, max(tol / s.size, 1e-280))
        assert not failures
        parts.append(value[0])
    return float(np.add.reduce(parts))


def test_kk_array_equals_scalar_calls():
    tab, low, high = _gold_kk()
    # xi = gamma (degenerate low tail) and duplicates
    grid = ev_to_radps(np.geomspace(1e-3, 1e4, 150))
    xi = np.concatenate([grid, [GAMMA, GAMMA, grid[7]]])
    batched = kk_transform(tab, low, high, xi)
    scalar = np.array([kk_transform(tab, low, high, float(x)) for x in xi])
    assert batched.shape == xi.shape
    np.testing.assert_array_equal(batched, scalar)
    # and both equal the transform assembled from its per-xi parts
    lo, hi = tab.omegas[[0, -1]]
    tails = materials._power_tail_integral(high, hi, xi, 1e-6)
    parts = [1.0 + (2.0 / math.pi) * (
        materials._drude_tail_integral(low.omega_p, low.gamma, lo, x)
        + _band_reference(tab, x, 1e-6) + tail)
        for x, tail in zip(xi.tolist(), tails.tolist())]
    np.testing.assert_array_equal(batched, parts)
    column = kk_transform(tab, low, high, xi[:, None])
    assert column.shape == (xi.size, 1)
    np.testing.assert_array_equal(column[:, 0], scalar)
    assert isinstance(kk_transform(tab, low, high, float(GAMMA)), float)


def _drude_tail_reference(omega_p, gamma, w_hi, xi):
    """The Drude low-tail closed form for one xi, on math.atan."""
    a = omega_p ** 2 * gamma
    if abs(xi - gamma) > 1e-6 * (xi + gamma):
        return (a / (xi ** 2 - gamma ** 2)
                * (math.atan(w_hi / gamma) / gamma - math.atan(w_hi / xi) / xi))
    g = 0.5 * (xi + gamma)
    return a * (w_hi / (2.0 * g ** 2 * (w_hi ** 2 + g ** 2))
                + math.atan(w_hi / g) / (2.0 * g ** 3))


def test_drude_tail_matches_the_scalar_closed_form():
    # np.arctan and numpy's powers may round otherwise than math.atan and
    # Python's float power: a few ulp, on both branches (xi near gamma)
    tab, low, _ = _gold_kk()
    lo = tab.omegas[0]
    xi = np.concatenate([ev_to_radps(np.geomspace(1e-4, 1e4, 2001)),
                         GAMMA * (1.0 + np.linspace(-3e-6, 3e-6, 61))])
    reference = [_drude_tail_reference(low.omega_p, low.gamma, lo, x)
                 for x in xi.tolist()]
    np.testing.assert_allclose(
        materials._drude_tail_integral(low.omega_p, low.gamma, lo, xi),
        reference, rtol=8 * np.finfo(float).eps, atol=0.0)


def test_kk_power_tail_past_the_engine_cap_equals_the_default(monkeypatch):
    # the power tail hands every xi to the quadrature engine, which runs
    # them as slices of at most _MAX_ROWS rows; no result moves
    tab, low, high = _gold_kk()
    xi = ev_to_radps(np.geomspace(1e-3, 1e4, 30))
    sizes = []
    engine = materials._adaptive_rows

    def counted(f, *args):
        def g(t, rows):
            sizes.append(rows.size)
            return f(t, rows)
        return engine(g, *args)

    monkeypatch.setattr(materials, "_adaptive_rows", counted)
    default = kk_transform(tab, low, high, xi)
    assert max(sizes) == xi.size
    sizes.clear()
    monkeypatch.setattr(quadrature, "_MAX_ROWS", 8)
    np.testing.assert_array_equal(kk_transform(tab, low, high, xi), default)
    assert max(sizes) == 8 and len(sizes) > 1


def test_kk_data_band_matches_segment_formula_bitwise():
    # round 0 reuses the table's cached xi-independent integrand; at 50
    # samples per decade it meets the tolerance and must give the one-pass
    # K7 formula over the sample segments bit for bit
    tab, _, _ = _gold_kk()
    w = tab.omegas
    e2 = np.maximum(tab.eps2, 1e-300)
    s = (np.diff(np.log(e2)) / np.diff(np.log(w)))[:, None]
    half = 0.5 * (w[1:] - w[:-1])
    x = 0.5 * (w[:-1] + w[1:])[:, None] + half[:, None] * quadrature._K7_X
    for xi in ev_to_radps(np.geomspace(1e-3, 1e4, 8)):
        y = e2[:-1, None] * (x / w[:-1, None]) ** s * x / (x ** 2 + xi * xi)
        reference = float(np.sum(half * (y @ quadrature._K7_W)))
        assert materials._data_band_integral(tab, np.array([xi]), 1e-6)[0] == reference


def test_kk_array_row_with_band_refinement(monkeypatch):
    # five samples over four decades: every row bisects its segments
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=1)
    high = fit_power_tail(tab)
    xi = ev_to_radps(np.geomspace(1e-3, 1e3, 7))
    scalar = np.array([kk_transform(tab, None, high, float(x), rel_tol=1e-9)
                       for x in xi])
    bisected = _counting(monkeypatch, "_band_bisect")
    batched = kk_transform(tab, None, high, xi, rel_tol=1e-9)
    # every xi bisects, all of them in one engine call
    assert len(bisected) == 1
    np.testing.assert_array_equal(bisected[0][1], xi)
    np.testing.assert_array_equal(batched, scalar)


def _kk_spectrum_tables():
    """The two table shapes of the kk-spectrum benchmark: one gold table at
    100 samples per decade, and the same with an n,k table merged below
    4.2 eV."""
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=100)
    low = drude_synthetic_table(9.0, 0.035, 0.01, 5.0, per_decade=60)
    mod = np.hypot(low.eps1, low.eps2)
    n, k = np.sqrt(0.5 * (mod + low.eps1)), np.sqrt(0.5 * (mod - low.eps1))
    nk = OpticalDataTable(low.energies_ev, n ** 2 - k ** 2, eps2_from_nk(n, k))
    return {"single": tab, "merged": tab.replace_below(nk, 4.2)}


@pytest.mark.parametrize("name", ["single", "merged"])
def test_kk_batched_band_equals_per_xi_reference(name):
    tab = _kk_spectrum_tables()[name]
    # the chunk of round 0, on the K7 nodes
    chunk = max(1, materials._BAND_SCRATCH // (8 * 7 * (tab.omegas.size - 1)))
    assert 1 < chunk < 2000
    for size in (1, chunk - 1, chunk, chunk + 1, 2000):
        xi = (ev_to_radps(np.geomspace(0.01, 100.0, size)) if name == "single"
              else 2.4677902545e14 * np.arange(1, size + 1))  # Matsubara, 300 K
        batched = materials._data_band_integral(tab, xi, 1e-6)
        assert batched.shape == (size,)
        reference = [_band_reference(tab, x, 1e-6) for x in xi.tolist()]
        np.testing.assert_array_equal(batched, reference)


def test_kk_chunk_mixing_round_0_and_bisection(monkeypatch):
    # five samples over four decades: at rel_tol = 1e-3 round 0 meets the
    # tolerance at high xi only; every xi fits in one chunk, and the xi it
    # leaves go to the engine in one call
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=1)
    xi = ev_to_radps(np.geomspace(1e-4, 1e5, 40))
    bisected = _counting(monkeypatch, "_band_bisect")
    batched = materials._data_band_integral(tab, xi, 1e-3)
    assert len(bisected) == 1 and 0 < bisected[0][1].size < xi.size
    np.testing.assert_array_equal(
        batched, [_band_reference(tab, x, 1e-3) for x in xi.tolist()])


@pytest.mark.parametrize("per_decade", [10, 30, 100])
def test_kk_fine_table_stays_on_k7(monkeypatch, per_decade):
    # on 10 samples per decade or more, round 0 meets the tolerance at
    # every xi from a decade below to a decade above the table: no K15
    # integrand is built and nothing bisects. Its values stay within 1e-13
    # of one K15 panel per segment.
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=per_decade)
    xi = ev_to_radps(np.geomspace(1e-3, 1e3, 200))
    bisected = _counting(monkeypatch, "_band_bisect")
    band = materials._data_band_integral(tab, xi, 1e-6)
    assert list(tab._kk_bands) == [7] and bisected == []
    np.testing.assert_allclose(
        band, [_round_reference(tab, x, _K15)[0] for x in xi.tolist()],
        rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("per_decade, bisects", [(1, True), (3, False),
                                                 (5, False), (7, False)])
def test_kk_coarse_table_falls_back_to_k15(monkeypatch, per_decade, bisects):
    # below 10 samples per decade every xi misses K7 and takes the K15
    # round; from 3 per decade up that meets the tolerance, and gives one
    # K15 panel per segment bit for bit. At 1 per decade every xi bisects.
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=per_decade)
    xi = ev_to_radps(np.geomspace(1e-3, 1e3, 40))
    rounds = _counting(monkeypatch, "_band_round")
    bisected = _counting(monkeypatch, "_band_bisect")
    band = materials._data_band_integral(tab, xi, 1e-6)
    assert [call[3].size for call in rounds] == [xi.size, xi.size]
    assert len(bisected) == int(bisects)
    if bisects:
        np.testing.assert_array_equal(bisected[0][1], xi)
    np.testing.assert_array_equal(
        band, [_band_reference(tab, x, 1e-6) for x in xi.tolist()])
    if not bisects:
        np.testing.assert_array_equal(
            band, [_round_reference(tab, x, _K15)[0] for x in xi.tolist()])


def test_kk_band_failure_names_xi_and_estimates():
    # five samples over four decades: no segment meets 1e-30 of the band
    # within the engine's panel budget
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=1)
    xi = ev_to_radps(np.array([1.0, 2.0]))
    # the engine starts from the K15 round, which K7 hands the xi it misses
    round0 = _round_reference(tab, xi[0], _K15)[0]
    converged = _band_reference(tab, xi[0], 1e-9)
    named = re.escape(f"at xi = {xi[0]:g} rad/s") + r".* segment \d+ \("
    with pytest.raises(QuadratureError, match=named) as info:
        materials._data_band_integral(tab, xi, 1e-30)
    assert info.value.previous_estimate == round0
    assert (abs(info.value.last_estimate - converged)
            < abs(round0 - converged))
    assert isinstance(info.value.__cause__, QuadratureError)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-6, math.nan, math.inf, 1e-2])
def test_kk_rejects_rel_tol_outside_the_quadrature_range(monkeypatch, rel_tol):
    # checked before any quadrature: a tolerance of zero or less, or NaN,
    # can never be met, and QuadratureConfig admits none past 1e-3
    tab, low, high = _gold_kk()
    calls = [_counting(monkeypatch, name) for name in
             ("_data_band_integral", "_power_tail_integral", "_adaptive_rows")]
    with pytest.raises(ValueError, match=re.escape(f"got {rel_tol!r}")):
        kk_transform(tab, low, high, np.array([1e15, 1e16]), rel_tol=rel_tol)
    assert calls == [[], [], []]


def test_kk_power_tail_failure_names_xi():
    tab, low, high = _gold_kk()
    xi = ev_to_radps(np.array([1.0, 2.0]))
    named = re.escape(f"power tail at xi = {xi[0]:g} rad/s")
    with pytest.raises(QuadratureError, match=named) as info:
        kk_transform(tab, low, high, xi, rel_tol=1e-30)
    assert math.isfinite(info.value.last_estimate)
    assert isinstance(info.value.__cause__, QuadratureError)


def test_kk_array_rejects_non_positive():
    tab, low, high = _gold_kk()
    with pytest.raises(ZeroFrequencyError, match="diverges at xi = 0"):
        kk_transform(tab, low, high, np.array([1e15, 0.0, 1e16]))
    for bad in (np.array([1e15, -1e14]), np.array([[0.0], [-1e14]])):
        with pytest.raises(ValueError, match="xi must be non-negative"):
            kk_transform(tab, low, high, bad)
        with pytest.raises(ValueError, match="xi must be non-negative"):
            kk_transform(tab, None, high, bad)
    model = Tabulated(tab, low_tail=low, high_tail=high)
    with pytest.raises(ZeroFrequencyError, match="diverges at xi = 0"):
        model.eps_imag_axis(np.array([1e15, 0.0]))
    # without a low tail xi = 0 is the finite static limit, also in an array
    flat = Tabulated(tab, high_tail=high)
    values = flat.eps_imag_axis(np.array([0.0, 1e15]))
    assert values[0] == flat.zero_limit()[1]


def test_tabulated_array_misses_in_one_transform(monkeypatch):
    tab, low, high = _gold_kk()
    model = Tabulated(tab, low_tail=low, high_tail=high)
    xi = ev_to_radps(np.geomspace(0.01, 50.0, 40))
    grid = np.concatenate([xi, xi[:5]])[:, None]
    transforms = _counting(monkeypatch, "kk_transform")
    values = model.eps_imag_axis(grid)
    # one transform per array call, on the array as given; no cache
    assert len(transforms) == 1 and transforms[0][3] is grid
    assert values.shape == grid.shape
    # equal xi get equal values, and a scalar call equals its element
    assert values[40:].tobytes() == values[:5].tobytes()
    for i in (0, 3, 39):
        assert model.eps_imag_axis(float(xi[i])) == values[i, 0]
    assert len(transforms) == 4


def test_tabulated_zero_limit_transforms_once(monkeypatch):
    tab, _, high = _gold_kk()
    model = Tabulated(tab, high_tail=high)
    transforms = _counting(monkeypatch, "kk_transform")
    limits = [model.zero_limit() for _ in range(3)]
    assert len(transforms) == 1
    assert limits[0][0] == 0 and limits == [limits[0]] * 3


# ---------------------------------------------------------------------------
# tables and ingestion


def test_table_arrays_read_only():
    energies = np.array([1.0, 2.0, 3.0])
    tab = OpticalDataTable(energies, np.ones(3), np.array([0.5, 0.25, 0.1]))
    for name in ("energies_ev", "eps1", "eps2", "omegas"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(tab, name)[0] = 9.0
    energies[0] = 0.5  # the caller's array is copied, not frozen
    assert tab.energies_ev[0] == 1.0


def test_table_validation():
    with pytest.raises(DataFileError, match="columns differ in length"):
        OpticalDataTable(np.array([1.0, 2.0]), np.ones(3), np.zeros(2))
    with pytest.raises(DataFileError, match="photon energies must be positive"):
        OpticalDataTable(np.array([0.0, 1.0]), np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        OpticalDataTable(np.array([1.0]), np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError) as info:
        OpticalDataTable(np.array([1.0, 1.0, 2.0]), np.ones(3), np.zeros(3))
    assert "sample 1" in str(info.value)
    with pytest.raises(ValueError) as info:
        OpticalDataTable(np.array([1.0, 2.0]), np.ones(2),
                         np.array([0.0, -0.1]))
    assert "sample 1" in str(info.value)
    for bad in (math.nan, math.inf, -math.inf):
        for col in range(3):
            columns = [np.array([1.0, 2.0]), np.ones(2), np.ones(2)]
            columns[col][1] = bad
            with pytest.raises(DataFileError, match="must be finite; sample 1"):
                OpticalDataTable(*columns)


def test_load_optical_data_eps_header(tmp_path):
    p = tmp_path / "tab.csv"
    p.write_text("# comment\nenergy_ev,eps1,eps2\n1.0,2.0,0.5\n2.0,1.5,0.25\n")
    tab = load_optical_data(p)
    assert tab.energies_ev.tolist() == [1.0, 2.0]
    assert tab.eps2.tolist() == [0.5, 0.25]


def test_load_optical_data_nk_header(tmp_path):
    p = tmp_path / "tab.csv"
    p.write_text("energy_ev,n,k\n1.0,1.0,0.0\n2.0,0.5,2.0\n")
    tab = load_optical_data(p)
    # eps1 = n^2 - k^2, eps2 = 2 n k
    assert tab.eps1.tolist() == [1.0, -3.75]
    assert tab.eps2.tolist() == [0.0, 2.0]


def test_load_optical_data_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("energy_ev,eps1,eps2\n1.0,2.0\n")
    with pytest.raises(DataFileError) as info:
        load_optical_data(p)
    assert "line 2" in str(info.value)

    p.write_text("frequency,eps1,eps2\n1.0,2.0,0.1\n")
    with pytest.raises(DataFileError):
        load_optical_data(p)

    p.write_text("energy_ev,eps1,eps2\n2.0,2.0,0.1\n1.0,2.0,0.1\n")
    with pytest.raises(DataFileError):
        load_optical_data(p)


@pytest.mark.parametrize("text, message", [
    ("energy_ev,eps1,eps2\n1.0,2.0,0.5\n2.0,x,0.25\n",
     "line 3: could not parse '2.0,x,0.25'"),
    ("# a comment and nothing else\n\n", "no header row found"),
    ("energy_ev,eps1,eps2\n1.0,2.0,0.5\n", "need at least two data rows, got 1"),
], ids=["unparsable_cell", "no_header", "one_row"])
def test_load_optical_data_names_what_is_wrong(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(DataFileError, match=re.escape(f"{p}: {message}")):
        load_optical_data(p)


def test_replace_below_needs_a_sample_below_the_cutoff():
    hi = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=20)
    with pytest.raises(DataFileError, match="no samples below 0.005 eV"):
        hi.replace_below(hi, 0.005)


def test_fit_power_tail_with_one_positive_sample_in_the_top_decade():
    tab = OpticalDataTable(np.array([1.0, 5.0, 10.0, 20.0]), np.ones(4),
                           np.array([0.5, 0.0, 0.0, 0.25]))
    assert fit_power_tail(tab) == PowerTail(0.25, 3.0)


def test_replace_below():
    hi = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=20)
    lo = drude_synthetic_table(8.45, 0.047, 0.01, 100.0, per_decade=20)
    merged = hi.replace_below(lo, 4.2)
    assert np.all(np.diff(merged.energies_ev) > 0.0)
    below = merged.energies_ev < 4.2
    # below the cutoff the merged eps2 follows the second table
    i = np.searchsorted(lo.energies_ev, merged.energies_ev[below][0])
    assert merged.eps2[below][0] == lo.eps2[i]
    # above, it is untouched
    j = np.searchsorted(hi.energies_ev, merged.energies_ev[~below][0])
    assert merged.eps2[~below][0] == hi.eps2[j]


def test_fit_power_tail():
    # for Drude, eps2 ~ omega_p^2 gamma / omega^3 at high frequency
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 1000.0, per_decade=50)
    tail = fit_power_tail(tab)
    assert tail.exponent == pytest.approx(3.0, rel=1e-3)
    w_max = tab.omegas[-1]
    assert tail.amplitude == pytest.approx(W_P ** 2 * GAMMA / w_max ** 3,
                                           rel=1e-2)


def test_tail_validation():
    with pytest.raises(ValueError):
        DrudeTail(0.0, GAMMA, 0.01)
    with pytest.raises(ValueError):
        DrudeTail(W_P, -1.0, 0.01)
    with pytest.raises(ValueError):
        PowerTail(1.0, 0.5)
    with pytest.raises(ValueError, match="must be finite"):
        PowerTail(math.nan, 3.0)
    with pytest.raises(ValueError, match="must be finite"):
        PowerTail(1.0, math.inf)
    assert PowerTail(0.0, 0.5).amplitude == 0.0  # explicit zero tail is fine
    with pytest.raises(ValueError, match="join energy must be positive"):
        DrudeTail(W_P, GAMMA, 0.0)
    with pytest.raises(ValueError, match="amplitude must be non-negative"):
        PowerTail(-1.0, 3.0)


# ---------------------------------------------------------------------------
# Kramers-Kronig transform


def test_kk_matches_analytic_drude_at_1ev():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=100)
    low = DrudeTail(W_P, GAMMA, 0.01)
    high = fit_power_tail(tab)
    xi = ev_to_radps(1.0)
    val = kk_transform(tab, low, high, xi)
    assert val == pytest.approx(drude_eps(xi), rel=1e-4)


def test_kk_matches_analytic_drude_over_range():
    tab = drude_synthetic_table(9.0, 0.035, 1e-3, 1e4, per_decade=100)
    model = Tabulated(tab, low_tail=DrudeTail(W_P, GAMMA, 1e-3),
                      high_tail=fit_power_tail(tab))
    for e_ev in np.geomspace(0.01, 50.0, 9):
        xi = ev_to_radps(e_ev)
        assert model.eps_imag_axis(xi) == pytest.approx(drude_eps(xi),
                                                        rel=1e-3)


def test_kk_zero_absorption():
    tab = OpticalDataTable(np.array([0.1, 1.0, 10.0]), np.ones(3), np.zeros(3))
    model = Tabulated(tab)
    for xi in (1e13, 1e15, 1e17):
        assert model.eps_imag_axis(xi) == 1.0
    assert model.zero_limit() == (0, 1.0)


def test_drude_tail_without_damping_is_rejected():
    # gamma = 0 would put no absorption below the data and so drop the
    # lossless omega_p**2/xi**2 term without a word
    with pytest.raises(ValueError, match="gamma must be positive"):
        DrudeTail(W_P, 0.0, 0.01)


def test_kk_monotone_decrease_to_one():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=50)
    model = Tabulated(tab, low_tail=DrudeTail(W_P, GAMMA, 0.01),
                      high_tail=fit_power_tail(tab))
    xis = ev_to_radps(np.geomspace(0.1, 5000.0, 12))
    vals = [model.eps_imag_axis(float(xi)) for xi in xis]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 1.0 for v in vals)
    # far above the data, eps - 1 decays like 1/xi^2
    assert vals[-1] - 1.0 == pytest.approx(W_P ** 2 / xis[-1] ** 2, rel=0.05)


def test_kk_zero_frequency():
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=50)
    model = Tabulated(tab, low_tail=DrudeTail(W_P, GAMMA, 0.01))
    with pytest.raises(ZeroFrequencyError):
        model.eps_imag_axis(0.0)
    # diverging low end is reported through the zero limit instead
    order, coeff = model.zero_limit()
    assert order == 1
    assert coeff == pytest.approx(W_P ** 2 / GAMMA)

    flat = Tabulated(OpticalDataTable(np.array([1.0, 2.0]), np.ones(2),
                                      np.array([0.5, 0.25])))
    assert flat.zero_limit()[0] == 0
    assert flat.eps_imag_axis(0.0) == flat.zero_limit()[1]


def test_kk_degenerate_xi_equals_gamma():
    # the closed-form low tail has a removable singularity at xi = gamma
    tab = drude_synthetic_table(9.0, 0.035, 1.0, 100.0, per_decade=50)
    low = DrudeTail(W_P, GAMMA, 1.0)
    high = fit_power_tail(tab)
    at = kk_transform(tab, low, high, GAMMA)
    near = kk_transform(tab, low, high, GAMMA * (1.0 + 1e-9))
    assert at == pytest.approx(near, rel=1e-6)
    assert at == pytest.approx(drude_eps(GAMMA), rel=1e-3)


def test_tabulated_caching_and_equality():
    tab = drude_synthetic_table(9.0, 0.035, 0.1, 10.0, per_decade=20)
    a = Tabulated(tab, low_tail=DrudeTail(W_P, GAMMA, 0.1))
    b = Tabulated(tab, low_tail=DrudeTail(W_P, GAMMA, 0.1))
    assert a == b
    xi = ev_to_radps(1.0)
    assert a.eps_imag_axis(xi) is a.eps_imag_axis(xi) or \
        a.eps_imag_axis(xi) == a.eps_imag_axis(xi)
    assert plasma_frequency_of(a) == W_P


@pytest.mark.parametrize("evaluate, value", [
    (Vacuum().eps_imag_axis, 1.0),
    (Constant(2.25).eps_imag_axis, 2.25),
    (Permeability(1.5).mu_imag_axis, 1.5),
], ids=["vacuum", "constant", "permeability"])
def test_constant_models_check_a_scalar_xi(evaluate, value):
    # a scalar xi is checked as an array element is
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite xi") as info:
            evaluate(bad)
        assert not isinstance(info.value, ZeroFrequencyError)
    with pytest.raises(ZeroFrequencyError, match="frequencies must be positive"):
        evaluate(-1.0)
    # xi = 0 is the static limit the zero-mode prescriptions read
    assert evaluate(0.0) == value
    assert evaluate(1e14) == value
