"""Deterministic adaptive Gauss-Kronrod quadrature.

The k- and frequency integrals and the KK power tail and data band share
one row-batched engine; the KK Drude tail is a closed form. A panel is the
15-point Kronrod rule K15 with error |K15 - G7| (QK15, Piessens et al.,
*QUADPACK*, 1983). Subdivision depends only on integrand values, never on
timing or order, so results are reproducible bit for bit. R integrands
(rows, say one per Matsubara frequency) run in lockstep: each step makes
one vectorized call on a (live rows, points) array, and every row follows
exactly the panel sequence of a scalar worst-panel-first bisection, in
slices of at most ``_MAX_ROWS`` rows. ``adaptive_integral`` and
``semi_infinite_integral`` are its one-row case. The engine owns its
budgets (``_MAX_ROWS``, ``_MAX_BLOCKS``, ``_MAX_PANELS``), read at call time.
The KK data band tries the 7-point pair K7/G3 below before it takes K15.

Rows that are the terms of one sum need not each be solved to rel_tol of
their own value: ``semi_infinite_rows`` takes a per-row absolute floor, the
row's share of the sum's tolerance, and an a-priori bound on each row's
omitted tail, and spends panels on the sum's error, the global strategy of
M. A. Malcolm & R. B. Simpson, "Local versus global strategies for adaptive
quadrature", ACM TOMS 1(2), 129 (1975).
"""

from __future__ import annotations

import numpy as np

# QK15 on [-1, 1]: the nodes x >= 0 descending, their K15 weights, and the
# G7 weights of the second, fourth, sixth and eighth of them
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
       0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
       0.20778495500789848, 0.0)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
       0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
       0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
       0.4179591836734694)
# all 15 nodes in ascending order, G7 on every second one
_K15_X = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_K15_W = np.array(_WK[:-1] + _WK[::-1])
_G7_W = np.array(_WG[:-1] + _WG[::-1])
# K7 with its embedded G3, laid out as QK15: the KK data band's round 0
_XK7 = (0.9604912687080203, 0.7745966692414834, 0.4342437493468026, 0.0)
_WK7 = (0.10465622602646727, 0.26848808986833345, 0.4013974147759622,
        0.45091653865847414)
_K7_X = np.array([-x for x in _XK7[:-1]] + list(_XK7[::-1]))
_K7_W = np.array(_WK7[:-1] + _WK7[::-1])
_G3_W = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
# Kronrod minus Gauss weights, zero at the Kronrod-only nodes: y @ _D = K - G
_K15_D = _K15_W - np.insert(_G7_W, range(8), 0.0)
_K7_D = _K7_W - np.insert(_G3_W, range(4), 0.0)
_K15_ROW = _K15_X[None, :]
_ONE_ROW = np.arange(1)
# Rows per integrand call: bounds the (rows, points) arrays of the engine
_MAX_ROWS = 640
# Blocks of a semi-infinite integral before a row is reported as not decaying
_MAX_BLOCKS = 64
# Panels of one row (of one block of a semi-infinite row) before it fails
_MAX_PANELS = 512


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement hits its panel budget.

    Carries the last two global estimates so callers can judge how far the
    refinement had converged when it gave up.
    """

    def __init__(self, message, last_estimate=None, previous_estimate=None):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.previous_estimate = previous_estimate


def _estimates(y, half):
    """(K15 values, |K15 - G7|) of one panel per row of y at the K15 nodes.

    ``half`` is the half width of the panels: a scalar, or one entry per
    row. Each row is reduced on its own, not through a matrix product, so
    its estimates do not depend on which rows share its batch.
    """
    k15 = np.sum(y * _K15_W, axis=1) * half
    g7 = np.sum(y[:, 1::2] * _G7_W, axis=1) * half
    return k15, np.abs(k15 - g7)


def _evaluate(f, x, rows):
    """Integrand values of ``rows`` at nodes ``x``, one row of values each.

    ``x`` has one row of nodes per entry of ``rows``, or a single row of
    nodes shared by all of them.
    """
    y = np.asarray(f(x, rows), dtype=float)
    shape = (rows.size, x.shape[1])
    return y if y.shape == shape else np.broadcast_to(y, shape)


# Error estimates this small are denormal noise from underflowed integrands
# (e.g. exp(-2*kappa*d) straddling the smallest subnormal); refining them
# further can never satisfy a relative tolerance.
_NOISE_FLOOR = 1e-280
# Initial panel slots per bisecting row (1 + 2 * bisections).
_STORE_SLOTS = 33


def _first_panels(f, a, b, rows):
    """(K15 values, |K15 - G7|) of the one panel [a, b] of every row in
    ``rows``, in slices of at most ``_MAX_ROWS`` rows."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _K15_ROW
    parts = [_estimates(_evaluate(f, x, rows[i:i + _MAX_ROWS]), half)
             for i in range(0, max(rows.size, 1), _MAX_ROWS)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _adaptive_rows(f, a, b, rows, rel_tol, floor, first=None):
    """Integrate every row in ``rows`` over [a, b] to its own tolerance.

    ``f(x, rows)`` returns the integrands of ``rows`` at nodes ``x`` (see
    :func:`_evaluate`). Each row bisects its panel with the largest error
    estimate, ties going to the older panel, until its summed error
    estimate drops below ``max(rel_tol * |integral|, floor)``, where
    ``floor`` (a scalar or one per row) already includes the noise floor.
    ``first``, if given, is :func:`_first_panels` of the rows on [a, b].
    Returns the integrals, the panel counts and ``{position in rows:
    QuadratureError}`` for the rows that ran out of ``_MAX_PANELS``.

    Rows past ``_MAX_ROWS`` run in consecutive slices of that many, which
    moves no result: each row is reduced on its own.
    """
    if rows.size > _MAX_ROWS:
        floor = np.broadcast_to(floor, rows.shape)
        cut = [slice(i, i + _MAX_ROWS) for i in range(0, rows.size, _MAX_ROWS)]
        parts = [(at.start, *_adaptive_rows(
                      f, a, b, rows[at], rel_tol, floor[at],
                      None if first is None else (first[0][at], first[1][at])))
                 for at in cut]
        return (np.concatenate([value for _, value, _, _ in parts]),
                np.concatenate([used for _, _, used, _ in parts]),
                {i + r: e for i, *_, fail in parts for r, e in fail.items()})
    total, total_err = (_first_panels(f, a, b, rows) if first is None
                        else (first[0].copy(), first[1].copy()))

    def over_budget():
        return total_err > np.maximum(rel_tol * np.abs(total), floor)

    panels = np.ones(rows.size, dtype=int)
    pending = over_budget()
    if not np.count_nonzero(pending):
        return total, panels, {}
    pos = np.flatnonzero(pending)
    failures = {}
    # Panel store of the rows that bisect: one column per row, one slot per
    # panel in creation order, so argmax ties go to the oldest panel.
    # Bisected panels are retired with an error of -inf. The store doubles
    # when full, so its size follows the deepest refinement, not the budget.
    lo, hi, val, err = np.empty((4, _STORE_SLOTS, pos.size))
    lo[0], hi[0], val[0], err[0] = a, b, total[pos], total_err[pos]
    col = np.arange(pos.size)
    previous = total.copy()
    count = 1
    while pos.size:
        if count + 1 > _MAX_PANELS:
            for p in pos.tolist():
                failures[p] = QuadratureError(
                    f"quadrature did not reach rel_tol={rel_tol:g} within "
                    f"{_MAX_PANELS} panels (error estimate {total_err[p]:g})",
                    last_estimate=float(total[p]),
                    previous_estimate=float(previous[p]))
            break
        if count + 2 > len(lo):
            lo, hi, val, err = (np.concatenate([s, np.empty_like(s)])
                                for s in (lo, hi, val, err))
        worst = err[:count, col].argmax(axis=0)
        pa, pb = lo[worst, col], hi[worst, col]
        pval, perr = val[worst, col], err[worst, col]
        err[worst, col] = -np.inf
        mid = 0.5 * (pa + pb)
        # children (m, 2): left [pa, mid] and right [mid, pb] of each row
        ca = np.stack([pa, mid], axis=1)
        cb = np.stack([mid, pb], axis=1)
        chalf = 0.5 * (cb - ca)
        x = (0.5 * (ca + cb))[..., None] + chalf[..., None] * _K15_X
        y = _evaluate(f, x.reshape(pos.size, -1), rows[pos])
        cval, cerr = _estimates(y.reshape(-1, _K15_X.size), chalf.reshape(-1))
        cval = cval.reshape(-1, 2)
        cerr = cerr.reshape(-1, 2)
        previous[pos] = total[pos]
        total[pos] += cval[:, 0] + cval[:, 1] - pval
        total_err[pos] += cerr[:, 0] + cerr[:, 1] - perr
        lo[count:count + 2, col] = ca.T
        hi[count:count + 2, col] = cb.T
        val[count:count + 2, col] = cval.T
        err[count:count + 2, col] = cerr.T
        count += 2
        panels[pos] = count
        keep = over_budget()[pos]
        pos, col = pos[keep], col[keep]
    return total, panels, failures


def semi_infinite_rows(f, n_rows, scale=1.0, rel_tol=1e-9, share=None, tail=None):
    """Integrate ``n_rows`` integrands over [0, inf) in one lockstep pass.

    ``f(x, rows)`` returns the integrands of the row indices ``rows`` at
    nodes ``x``: one row of nodes per index, shape (len(rows), points), or
    a single row (1, points) shared by all of them, in which case the
    result must broadcast to (len(rows), points). Row i is rescaled to
    u = x / scale_i, where ``scale`` is one value for all rows or one per
    row, and every row is covered by the same geometrically growing blocks
    in u, and fails after ``_MAX_BLOCKS`` blocks.

    Each row has an absolute floor a: ``share(first)`` of the K15 values
    ``first`` of every row's first panel on block 0, one per row, or 0
    without ``share``. A row refines each block until its error estimate is
    at most max(rel_tol * |block|, 0.25 * rel_tol * |running|, a), and it
    stops once what it leaves out is at most
    max(0.5 * rel_tol * |running|, a): after two consecutive blocks that
    each add at most that much, or as soon as ``tail(k, rows)``, a bound on
    the integral of each row over [k, inf) (inf where none holds), is at
    most that much at the end k of a block. So each row is accurate to the
    looser of rel_tol of its own value and a few a: where the rows are the
    terms of one sum and each a is the row's share of the sum's tolerance,
    the sum's error stays within rel_tol of its terms' magnitudes plus a
    few times the sum of their a.

    Returns ``(integrals, panels, failures)``: per-row integrals and panel
    counts, and ``{row: QuadratureError}`` for the rows that did not
    converge. A failed row's integral is meaningless.
    """
    scale = np.asarray(scale, dtype=float)
    if scale.ndim and scale.shape != (n_rows,):
        raise ValueError(f"scale must be one value or one per row, got shape "
                         f"{scale.shape} for {n_rows} rows")
    if not np.all((scale > 0.0) & np.isfinite(scale)):
        raise ValueError("scale must be positive and finite")

    def g(u, rows):
        s = scale[rows, None] if scale.ndim else scale
        return s * np.asarray(f(u * s, rows), dtype=float)

    total = np.zeros(n_rows)
    panels = np.zeros(n_rows, dtype=int)
    negligible = np.zeros(n_rows, dtype=int)
    failures = {}
    live = np.arange(n_rows)
    lo = 0.0
    width = 8.0
    first = _first_panels(g, lo, width, live)
    floor = np.zeros(n_rows) if share is None else np.asarray(share(first[0]), dtype=float)
    for _ in range(_MAX_BLOCKS):
        a = floor[live]
        block, used, failed = _adaptive_rows(
            g, lo, lo + width, live, rel_tol,
            np.maximum(np.maximum(0.25 * rel_tol * np.abs(total[live]), a), _NOISE_FLOOR),
            first)
        first = None
        panels[live] += used
        running = total[live] + block
        total[live] = running
        allowed = np.maximum(0.5 * rel_tol * np.abs(running), a)
        small = (np.abs(block) <= allowed) | (running == 0.0)
        negligible[live] = np.where(small, negligible[live] + 1, 0)
        done = negligible[live] >= 2
        if tail is not None:
            bound = tail((lo + width) * (scale[live] if scale.ndim else scale), live)
            done |= bound <= allowed
        for p, error in failed.items():
            failures[int(live[p])] = error
            done[p] = True
        live = live[~done]
        if not live.size:
            return total, panels, failures
        lo += width
        width *= 2.0
    for row in live.tolist():
        failures[row] = QuadratureError(
            f"semi-infinite integral did not converge within {_MAX_BLOCKS} blocks",
            last_estimate=float(total[row]))
    return total, panels, failures


def _one_row(f):
    """Row form of a scalar vectorized integrand f(x)."""
    return lambda x, rows: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)


def adaptive_integral(f, a, b, rel_tol=1e-9):
    """Integrate a vectorized integrand over [a, b] to a relative tolerance.

    The panel with the largest error estimate is bisected until the summed
    error estimate drops below ``rel_tol * |integral|``.
    Raises :class:`QuadratureError` if ``_MAX_PANELS`` panels do not suffice.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    total, _, failures = _adaptive_rows(_one_row(f), a, b, _ONE_ROW, rel_tol,
                                        _NOISE_FLOOR)
    if failures:
        raise failures[0]
    return float(total[0])


def semi_infinite_integral(f, scale=1.0, rel_tol=1e-9):
    """Integrate f over [0, inf) for integrands decaying on the given scale.

    The axis is rescaled to the dimensionless variable u = x / scale and
    covered by geometrically growing blocks; accumulation stops once two
    consecutive blocks contribute below the running relative tolerance.
    The integrand must decay at least exponentially in u.
    """
    total, _, failures = semi_infinite_rows(_one_row(f), 1, scale, rel_tol)
    if failures:
        raise failures[0]
    return float(total[0])
