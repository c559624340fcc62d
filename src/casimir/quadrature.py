"""Deterministic adaptive Gauss-Legendre quadrature.

All integrals in this package run through one row-batched engine so that
results are reproducible bit for bit: panel subdivision depends only on the
integrand values, never on timing or iteration order. The engine integrates
R independent integrands (rows, such as one per Matsubara frequency) in
lockstep. Each step makes one vectorized integrand call on a
(live rows, points) array, and every row follows exactly the panel sequence
of a scalar worst-panel-first bisection. ``adaptive_integral`` and
``semi_infinite_integral`` are its one-row case.
"""

from __future__ import annotations

import numpy as np

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_GL7_X, _GL7_W = np.polynomial.legendre.leggauss(7)
# Both rules are evaluated from one vectorized call on the joint node set.
_NODES = np.concatenate([_GL15_X, _GL7_X])
_NODES_ROW = _NODES[None, :]
# Both rules as one weight matrix: column 0 is the 15-point rule on the
# first 15 nodes, column 1 the 7-point rule on the last 7.
_RULES = np.zeros((_NODES.size, 2))
_RULES[:15, 0] = _GL15_W
_RULES[15:, 1] = _GL7_W
_ONE_ROW = np.arange(1)
# Rows per batched pass (Matsubara indices n >= 1, Kramers-Kronig
# frequencies): bounds the (rows, points) working set of one lockstep pass.
_CHUNK = 64


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
    """(15-point estimates, |15-point - 7-point|) of one panel per row of y.

    ``half`` is the half width of the panels: a scalar, or a column with
    one entry per row.
    """
    i = np.dot(y, _RULES) * half
    return i[:, 0], np.abs(i[:, 0] - i[:, 1])


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


def _adaptive_rows(f, a, b, rows, rel_tol, max_panels, floor):
    """Integrate every row in ``rows`` over [a, b] to its own tolerance.

    ``f(x, rows)`` returns the integrands of ``rows`` at nodes ``x`` (see
    :func:`_evaluate`). Each row bisects its panel with the largest error
    estimate, ties going to the older panel, until its summed error
    estimate drops below ``max(rel_tol * |integral|, floor)``, where
    ``floor`` (a scalar or one per row) already includes the noise floor.
    Returns the integrals, the panel counts (1 when no row bisected) and
    ``{position in rows: QuadratureError}`` for the rows that ran out of
    ``max_panels``.
    """
    half = 0.5 * (b - a)
    x = 0.5 * (a + b) + half * _NODES_ROW
    total, total_err = _estimates(_evaluate(f, x, rows), half)

    def over_budget():
        return total_err > np.maximum(rel_tol * np.abs(total), floor)

    pending = over_budget()
    if not np.count_nonzero(pending):
        return total, 1, {}
    pos = np.flatnonzero(pending)
    panels = np.ones(rows.size, dtype=int)
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
        if count + 1 > max_panels:
            for p in pos.tolist():
                failures[p] = QuadratureError(
                    f"quadrature did not reach rel_tol={rel_tol:g} within "
                    f"{max_panels} panels (error estimate {total_err[p]:g})",
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
        x = (0.5 * (ca + cb))[..., None] + chalf[..., None] * _NODES
        y = _evaluate(f, x.reshape(pos.size, -1), rows[pos])
        cval, cerr = _estimates(y.reshape(-1, _NODES.size),
                                chalf.reshape(-1, 1))
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


def semi_infinite_rows(f, n_rows, scale=1.0, rel_tol=1e-9, max_panels=512,
                       max_blocks=64):
    """Integrate ``n_rows`` integrands over [0, inf) in one lockstep pass.

    ``f(x, rows)`` returns the integrands of the row indices ``rows`` at
    nodes ``x``: one row of nodes per index, shape (len(rows), points), or
    a single row (1, points) shared by all of them, in which case the
    result must broadcast to (len(rows), points). The axis is rescaled to
    u = x / scale and covered by geometrically growing blocks shared by all
    rows; a row stops once two consecutive blocks contribute below its
    running relative tolerance. Returns ``(integrals, panels, failures)``:
    per-row integrals and panel counts, and ``{row: QuadratureError}`` for
    the rows that did not converge. A failed row's integral is meaningless.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")

    def g(u, rows):
        return scale * np.asarray(f(u * scale, rows), dtype=float)

    total = np.zeros(n_rows)
    panels = np.zeros(n_rows, dtype=int)
    negligible = np.zeros(n_rows, dtype=int)
    failures = {}
    live = np.arange(n_rows)
    lo = 0.0
    width = 8.0
    for _ in range(max_blocks):
        floor = np.maximum(0.25 * rel_tol * np.abs(total[live]), _NOISE_FLOOR)
        block, used, failed = _adaptive_rows(g, lo, lo + width, live, rel_tol,
                                             max_panels, floor)
        panels[live] += used
        running = total[live] + block
        total[live] = running
        small = ((np.abs(block) <= 0.5 * rel_tol * np.abs(running))
                 | (running == 0.0))
        negligible[live] = np.where(small, negligible[live] + 1, 0)
        done = negligible[live] >= 2
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
            f"semi-infinite integral did not converge within {max_blocks} blocks",
            last_estimate=float(total[row]))
    return total, panels, failures


def _one_row(f):
    """Row form of a scalar vectorized integrand f(x)."""
    return lambda x, rows: np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)


def adaptive_integral(f, a, b, rel_tol=1e-9, max_panels=512, abs_floor=0.0):
    """Integrate a vectorized integrand over [a, b] to a relative tolerance.

    The panel with the largest error estimate is bisected until the summed
    error estimate drops below ``max(rel_tol * |integral|, abs_floor)``.
    Raises :class:`QuadratureError` if ``max_panels`` panels do not suffice.
    """
    if not b > a:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    total, _, failures = _adaptive_rows(_one_row(f), a, b, _ONE_ROW, rel_tol,
                                        max_panels, max(abs_floor, _NOISE_FLOOR))
    if failures:
        raise failures[0]
    return float(total[0])


def semi_infinite_integral(f, scale=1.0, rel_tol=1e-9, max_panels=512,
                           max_blocks=64):
    """Integrate f over [0, inf) for integrands decaying on the given scale.

    The axis is rescaled to the dimensionless variable u = x / scale and
    covered by geometrically growing blocks; accumulation stops once two
    consecutive blocks contribute below the running relative tolerance.
    The integrand must decay at least exponentially in u.
    """
    total, _, failures = semi_infinite_rows(_one_row(f), 1, scale, rel_tol,
                                            max_panels, max_blocks)
    if failures:
        raise failures[0]
    return float(total[0])
