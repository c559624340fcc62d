import math

import numpy as np
import pytest

from casimir import materials
from casimir.materials import (Constant, DataFileError, Drude, DrudeTail,
                               OpticalDataTable, Permeability, Plasma,
                               PowerTail, Tabulated, Vacuum,
                               ZeroFrequencyError, drude_synthetic_table,
                               eps2_from_nk, ev_to_radps, fit_power_tail,
                               kk_transform, load_optical_data,
                               plasma_frequency_of, radps_to_ev)

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
    with pytest.raises(ZeroFrequencyError):
        Permeability(1.5).mu_imag_axis(np.array([1e14, 0.0]))


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
# The data band runs the scalar arithmetic per xi and the quadrature reduces
# each power-tail row on its own, so batched and scalar calls agree bit for
# bit.


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


def test_kk_array_equals_scalar_calls():
    tab, low, high = _gold_kk()
    # three power-tail chunks, xi = gamma (degenerate low tail) and duplicates
    grid = ev_to_radps(np.geomspace(1e-3, 1e4, 150))
    xi = np.concatenate([grid, [GAMMA, GAMMA, grid[7]]])
    batched = kk_transform(tab, low, high, xi)
    scalar = np.array([kk_transform(tab, low, high, float(x)) for x in xi])
    assert batched.shape == xi.shape
    np.testing.assert_array_equal(batched, scalar)
    column = kk_transform(tab, low, high, xi[:, None])
    assert column.shape == (xi.size, 1)
    np.testing.assert_array_equal(column[:, 0], scalar)
    assert isinstance(kk_transform(tab, low, high, float(GAMMA)), float)


def test_kk_data_band_matches_segment_formula_bitwise():
    # round 0 reuses the table's cached xi-independent integrand; it must
    # give the one-pass formula over the sample segments bit for bit
    tab, _, _ = _gold_kk()
    w = tab.omegas
    e2 = np.maximum(tab.eps2, 1e-300)
    s = (np.diff(np.log(e2)) / np.diff(np.log(w)))[:, None]
    half = 0.5 * (w[1:] - w[:-1])
    x = 0.5 * (w[:-1] + w[1:])[:, None] + half[:, None] * materials._NODES[None, :]
    for xi in ev_to_radps(np.geomspace(1e-3, 1e4, 8)):
        y = e2[:-1, None] * (x / w[:-1, None]) ** s * x / (x ** 2 + xi ** 2)
        reference = float(np.sum(half * (y[:, :15] @ materials._GL15_W)))
        assert materials._data_band_integral(tab, float(xi), 1e-6) == reference


def test_kk_array_row_with_band_refinement(monkeypatch):
    # five samples over four decades: every row bisects its segments
    tab = drude_synthetic_table(9.0, 0.035, 0.01, 100.0, per_decade=1)
    high = fit_power_tail(tab)
    xi = ev_to_radps(np.geomspace(1e-3, 1e3, 7))
    scalar = np.array([kk_transform(tab, None, high, float(x), rel_tol=1e-9)
                       for x in xi])
    refinements = _counting(monkeypatch, "_band_panels")
    batched = kk_transform(tab, None, high, xi, rel_tol=1e-9)
    assert len(refinements) >= xi.size
    np.testing.assert_array_equal(batched, scalar)


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
    first = model.eps_imag_axis(grid)
    assert len(transforms) == 1
    assert transforms[0][3].tolist() == xi.tolist()  # distinct misses, in order
    second = model.eps_imag_axis(grid)
    assert model.eps_imag_axis(float(xi[3])) == first[3, 0]
    assert len(transforms) == 1
    assert second.tobytes() == first.tobytes()


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
