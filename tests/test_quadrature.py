import math

import numpy as np
import pytest
from scipy.special import zeta

from casimir import quadrature
from casimir.quadrature import (QuadratureError, adaptive_integral,
                                semi_infinite_integral, semi_infinite_rows)


def test_kronrod_constants_are_exact():
    # K15 integrates x^k on [-1, 1] exactly for k <= 22 and its embedded G7
    # (every second node) for k <= 13
    x = quadrature._K15_X
    assert x.size == 15 and np.all(np.diff(x) > 0) and np.all(x == -x[::-1])

    def error(weights, nodes, k):
        return abs(np.dot(weights, nodes ** k) - (1 + (-1) ** k) / (k + 1))

    for k in range(23):
        assert error(quadrature._K15_W, x, k) <= 4e-16
    for k in range(14):
        assert error(quadrature._G7_W, x[1::2], k) <= 4e-16
    assert error(quadrature._K15_W, x, 24) > 1e-10
    assert error(quadrature._G7_W, x[1::2], 14) > 1e-5
    # G7 is the 7-point Gauss-Legendre rule
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(x[1::2], nodes, rtol=0, atol=4e-16)
    assert np.allclose(quadrature._G7_W, weights, rtol=0, atol=4e-16)
    # K7 (the KK data band's first round) for k <= 11, its G3 for k <= 5
    x = quadrature._K7_X
    assert x.size == 7 and np.all(np.diff(x) > 0) and np.all(x == -x[::-1])
    for k in range(12):
        assert error(quadrature._K7_W, x, k) <= 4e-16
    for k in range(6):
        assert error(quadrature._G3_W, x[1::2], k) <= 4e-16
    assert error(quadrature._K7_W, x, 12) > 1e-4   # 2.8e-4
    assert error(quadrature._G3_W, x[1::2], 6) > 1e-2
    nodes, weights = np.polynomial.legendre.leggauss(3)
    assert np.allclose(x[1::2], nodes, rtol=0, atol=4e-16)
    assert np.allclose(quadrature._G3_W, weights, rtol=0, atol=4e-16)
    # y @ diff is K - G: the Kronrod weights less the Gauss weights at every
    # second node; both rules integrate 1 exactly, so the difference sums to 0
    for w, g, diff in ((quadrature._K15_W, quadrature._G7_W, quadrature._K15_D),
                       (quadrature._K7_W, quadrature._G3_W, quadrature._K7_D)):
        assert np.array_equal(diff[::2], w[::2])
        assert np.array_equal(diff[1::2], w[1::2] - g)
        assert abs(np.sum(diff)) <= 4e-16


def test_finite_polynomial_exact():
    # degree-5 polynomial is exact for the 15-point Kronrod rule
    val = adaptive_integral(lambda x: 3.0 * x ** 5 - x + 2.0, -1.0, 2.0)
    exact = 0.5 * (2.0 ** 6 - 1.0) - 0.5 * (4.0 - 1.0) + 2.0 * 3.0
    assert val == pytest.approx(exact, rel=1e-14)


def test_finite_oscillatory():
    val = adaptive_integral(np.cos, 0.0, 40.0, rel_tol=1e-12)
    assert val == pytest.approx(math.sin(40.0), rel=1e-11)


def test_zeta3_integral():
    # integral_0^inf k ln(1 - exp(-2 k d)) dk = -zeta(3) / (4 d^2)
    d = 1e-6
    val = semi_infinite_integral(lambda k: k * np.log1p(-np.exp(-2.0 * k * d)),
                                 scale=1.0 / (2.0 * d))
    assert val == pytest.approx(-zeta(3) / (4.0 * d ** 2), rel=1e-8)


def test_elementary_exponential():
    d = 2.5e-7
    val = semi_infinite_integral(lambda k: k * np.exp(-2.0 * k * d),
                                 scale=1.0 / (2.0 * d))
    assert val == pytest.approx(1.0 / (4.0 * d ** 2), rel=1e-12)


def test_zero_integrand():
    assert semi_infinite_integral(lambda k: np.zeros_like(k)) == 0.0
    assert adaptive_integral(lambda x: np.zeros_like(x), 0.0, 1.0) == 0.0


def test_scale_invariance():
    # the result must not depend on the rescaling, only its convergence path
    f = lambda k: k * np.exp(-k)
    a = semi_infinite_integral(f, scale=1.0, rel_tol=1e-11)
    b = semi_infinite_integral(f, scale=3.0, rel_tol=1e-11)
    assert a == pytest.approx(1.0, rel=1e-10)
    assert b == pytest.approx(1.0, rel=1e-10)


def test_determinism():
    f = lambda k: k ** 2 * np.exp(-1.3 * k) * np.cos(k)
    runs = {semi_infinite_integral(f) for _ in range(3)}
    assert len(runs) == 1


def test_panel_budget_error_carries_estimates(monkeypatch):
    # a kink plus a tiny budget exhausts the panels
    f = lambda x: np.abs(x - 1.0 / 3.0) ** 0.51
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        adaptive_integral(f, 0.0, 1.0, rel_tol=1e-13)
    err = info.value
    assert err.last_estimate is not None
    assert err.previous_estimate is not None
    assert err.last_estimate == pytest.approx(err.previous_estimate, rel=1e-2)
    assert "8 panels" in str(err)


def test_invalid_interval():
    with pytest.raises(ValueError):
        adaptive_integral(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        semi_infinite_integral(lambda x: x, scale=-1.0)


def test_non_decaying_integrand_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_BLOCKS", 8)
    with pytest.raises(QuadratureError, match="within 8 blocks"):
        semi_infinite_integral(lambda k: 1.0 / (1.0 + k ** 2) ** 0.2)


def _row_family(k, rows):
    # row r: k**2 * exp(-(1 + r/4) k), integral 2 / (1 + r/4)**3
    return k ** 2 * np.exp(-(1.0 + 0.25 * rows[:, None]) * k)


def _stepped_family(k, rows):
    # _row_family, but row 13 jumps at k = 1/3: no panel budget resolves it
    return np.where((rows[:, None] == 13) & (k < 1.0 / 3.0), 0.0,
                    _row_family(k, rows))


def test_failing_row_of_a_later_slice_keeps_its_index(monkeypatch):
    # 20 rows in slices of 8: row 13 fails in the second slice and is
    # reported under its own index, as when it runs alone
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 64)
    default, default_panels, _ = semi_infinite_rows(_stepped_family, 20,
                                                    rel_tol=1e-11)
    alone = semi_infinite_rows(
        lambda k, rows: _stepped_family(k, np.full_like(rows, 13)), 1,
        rel_tol=1e-11)[2][0]
    sizes = []

    def counted(k, rows):
        sizes.append(rows.size)
        return _stepped_family(k, rows)

    monkeypatch.setattr(quadrature, "_MAX_ROWS", 8)
    values, panels, failures = semi_infinite_rows(counted, 20, rel_tol=1e-11)
    assert max(sizes) == 8
    assert list(failures) == [13]
    assert str(failures[13]) == str(alone)
    assert failures[13].last_estimate == alone.last_estimate
    ok = np.arange(20) != 13
    assert np.array_equal(values[ok], default[ok])
    assert np.array_equal(panels, default_panels)


def test_rows_match_one_row_integrals():
    values, panels, failures = semi_infinite_rows(_row_family, 9,
                                                  rel_tol=1e-11)
    assert failures == {}
    for r in range(9):
        alone, alone_panels, _ = semi_infinite_rows(
            lambda k, rows, r=r: _row_family(k, np.full_like(rows, r)), 1,
            rel_tol=1e-11)
        # same panel decomposition and, row by row, the same arithmetic
        assert panels[r] == alone_panels[0]
        assert values[r] == alone[0]
        assert values[r] == pytest.approx(2.0 / (1.0 + 0.25 * r) ** 3,
                                          rel=1e-10)


def test_row_budget_failure_is_recorded_not_raised(monkeypatch):
    kink = lambda k: np.abs(k - 1.0 / 3.0) ** 0.51 * np.exp(-k)

    def f(k, rows):
        smooth = np.exp(-k)
        return np.where((rows == 2)[:, None], kink(k), smooth)

    monkeypatch.setattr(quadrature, "_MAX_PANELS", 16)
    values, _, failures = semi_infinite_rows(f, 4, rel_tol=1e-13)
    assert list(failures) == [2]
    for r in (0, 1, 3):
        assert values[r] == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(QuadratureError) as alone:
        semi_infinite_integral(kink, rel_tol=1e-13)
    # the batched row stops where the row alone stops, with its estimates
    assert str(failures[2]) == str(alone.value)
    assert failures[2].last_estimate == pytest.approx(
        alone.value.last_estimate, rel=1e-13)
    assert failures[2].previous_estimate == pytest.approx(
        alone.value.previous_estimate, rel=1e-13)


def test_rows_do_not_depend_on_their_batch():
    # a row's integral is the same bit for bit whichever rows share its batch
    rng = np.random.default_rng(1)
    decay = rng.uniform(0.2, 5.0, size=200)
    wave = rng.uniform(0.0, 3.0, size=200)

    def family(first):
        def f(k, rows):
            r = first + rows[:, None]
            return k * np.exp(-decay[r] * k) * (1.0 + np.sin(wave[r] * k) ** 2)
        return f

    one_row = None
    for size in (1, 2, 7, 64, 200):
        values = np.concatenate([
            semi_infinite_rows(family(first), min(size, 200 - first),
                               rel_tol=1e-10)[0]
            for first in range(0, 200, size)])
        if one_row is None:
            one_row = values
        np.testing.assert_array_equal(values, one_row, err_msg=f"size {size}")


def test_one_scale_per_row_equals_scalar_calls():
    # row i decays on its own length d_i and is rescaled by 1 / (2 d_i)
    d = np.array([1e-7, 3e-7, 1e-6])

    def f(k, rows):
        return k * np.exp(-2.0 * k * d[rows, None])

    total, panels, failures = semi_infinite_rows(f, d.size,
                                                 scale=1.0 / (2.0 * d))
    assert not failures
    for i, di in enumerate(d):
        alone, used, _ = semi_infinite_rows(
            lambda k, rows: k * np.exp(-2.0 * k * di), 1, scale=1.0 / (2.0 * di))
        assert total[i] == alone[0] and panels[i] == used[0]


def test_row_scales_are_checked():
    def f(k, rows):
        return np.exp(-k)

    with pytest.raises(ValueError, match="one per row"):
        semi_infinite_rows(f, 3, scale=np.ones(2))
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            semi_infinite_rows(f, 2, scale=np.array([1.0, bad]))
        with pytest.raises(ValueError, match="positive and finite"):
            semi_infinite_rows(f, 2, scale=bad)


def test_empty_row_set():
    values, panels, failures = semi_infinite_rows(lambda k, rows: np.exp(-k), 0)
    assert values.size == panels.size == 0 and failures == {}


def test_floor_and_tail_bound_end_rows_early():
    # integral of exp(-k) over [K, inf) is exp(-K), a bound the rule of two
    # negligible blocks cannot use: it stops after [24, 56] and [56, 120]
    def f(k, rows):
        return np.exp(-k) + 0.0 * rows[:, None]

    def exact_tail(k, rows):
        return np.exp(-k)

    rel_tol = 1e-9
    plain, plain_panels, _ = semi_infinite_rows(f, 2, rel_tol=rel_tol)
    # a bound that holds nowhere leaves the block rule as it is
    same, same_panels, _ = semi_infinite_rows(
        f, 2, rel_tol=rel_tol, tail=lambda k, rows: np.full(rows.size, np.inf))
    assert np.array_equal(same, plain) and np.array_equal(same_panels, plain_panels)
    bounded, bounded_panels, _ = semi_infinite_rows(f, 2, rel_tol=rel_tol,
                                                    tail=exact_tail)
    assert np.all(bounded_panels < plain_panels)
    assert np.all(np.abs(bounded - 1.0) <= 0.5 * rel_tol)
    # an absolute floor of 1e-4 on row 1 alone: fewer panels, error of a few
    # floors at most, and row 0 as it was
    floored, floored_panels, _ = semi_infinite_rows(
        f, 2, rel_tol=rel_tol, share=lambda first: np.array([0.0, 1e-4]))
    assert floored[0] == plain[0] and floored_panels[0] == plain_panels[0]
    assert floored_panels[1] < plain_panels[1]
    assert abs(floored[1] - 1.0) <= 3e-4
