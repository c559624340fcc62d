"""Material response models evaluated on the imaginary frequency axis.

Dispersive models (Drude, plasma) are closed forms in the imaginary
frequency xi; tabulated optical data is carried to the imaginary axis
with a Kramers-Kronig transform over the measured absorption eps''(w),
extended below and above the data range by analytic tails. It takes many
xi at once; its xi-independent integrand is computed once per table.

Electronvolts appear only at ingestion and reporting boundaries; every
internal frequency is in rad/s.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import quadrature
from .constants import e as _ELEMENTARY_CHARGE, hbar
# adaptive_integral stays a name here: perfbench/tracing.py patches it
from .quadrature import (_K7_D, _K7_W, _K7_X, _K15_D, _K15_W, _K15_X, _NOISE_FLOOR,
                         QuadratureError, _adaptive_rows, adaptive_integral)

_EV = _ELEMENTARY_CHARGE / hbar  # rad/s per eV

# eps'' values of exactly zero are floored here before log-log
# interpolation; the floored segments integrate to ~1e-300, i.e. zero.
_LOG_FLOOR = 1e-300


class ZeroFrequencyError(ValueError):
    """A diverging permittivity model was evaluated at xi = 0."""


class DataFileError(ValueError):
    """An optical data file could not be parsed or failed validation."""


def ev_to_radps(energy_ev):
    """Convert a photon energy in eV to an angular frequency in rad/s."""
    return energy_ev * _EV


def radps_to_ev(omega):
    """Convert an angular frequency in rad/s to a photon energy in eV."""
    return omega / _EV


def eps2_from_nk(n, k):
    """Imaginary permittivity from refractive index data: eps'' = 2 n k."""
    return 2.0 * np.asarray(n, dtype=float) * np.asarray(k, dtype=float)


# ---------------------------------------------------------------------------
# permittivity models
#
# Each model provides
#   eps_imag_axis(xi) -> eps(i*xi), real and >= 1 for passive media, and
#   zero_limit() -> (order, coeff) with eps(i*xi) ~ coeff * xi**(-order)
#                   as xi -> 0+ (order 0 means a finite static value).
# eps_imag_axis also takes an ndarray of frequencies, all > 0 (one row per
# Matsubara frequency in the batched sums), and returns an array of the same
# shape that equals the scalar calls element by element, bit for bit.


def _require_finite_xi(xi):
    bad = xi[~np.isfinite(xi)]
    if bad.size:
        raise ValueError(f"non-finite xi = {bad.flat[0]} (rad/s)")


def _require_positive(xi, what):
    xi = np.asarray(xi)
    if not ((xi > 0.0) & (xi < math.inf)).all():
        _require_finite_xi(xi)
        raise ZeroFrequencyError(
            f"{what}; the zero-frequency term must come from a zero-mode "
            "prescription")


def _require_finite(owner, **params):
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{owner} {name} must be finite, got {value}")


def _require_drude(owner, omega_p, gamma=0.0):
    """Finite omega_p > 0 and gamma >= 0 whose xi -> 0 coefficient is finite."""
    _require_finite(owner, omega_p=omega_p, gamma=gamma)
    if not omega_p > 0.0:
        raise ValueError(f"{owner} omega_p must be positive")
    if gamma < 0.0:
        raise ValueError(f"{owner} gamma must be non-negative")
    if not math.isfinite(omega_p * omega_p / (gamma if gamma > 0.0 else 1.0)):
        raise ValueError(f"{owner} xi -> 0 coefficient overflows "
                         f"(omega_p = {omega_p:g}, gamma = {gamma:g})")


def _constant_response(value, xi):
    """A frequency-independent response: the scalar, or one per array xi.

    A scalar xi = 0 is the static limit, where the zero-mode limits read the
    permeability; any other xi, scalar or array, must be positive and finite.
    """
    if np.ndim(xi) == 0 and xi == 0.0:
        return value
    _require_positive(xi, "frequencies must be positive")
    return value if np.ndim(xi) == 0 else np.full(np.shape(xi), value, dtype=float)


@dataclass(frozen=True)
class Vacuum:
    """Unit permittivity."""

    def eps_imag_axis(self, xi):
        return _constant_response(1.0, xi)

    def zero_limit(self):
        return 0, 1.0


@dataclass(frozen=True)
class Constant:
    """Frequency-independent permittivity."""

    value: float

    def __post_init__(self):
        _require_finite("constant permittivity", value=self.value)
        if not self.value > 0.0:
            raise ValueError(f"constant permittivity must be positive, got {self.value}")

    def eps_imag_axis(self, xi):
        return _constant_response(self.value, xi)

    def zero_limit(self):
        return 0, self.value


@dataclass(frozen=True)
class Drude:
    """Drude metal: eps(i*xi) = 1 + omega_p**2 / (xi * (xi + gamma)).

    omega_p and gamma are in rad/s.
    """

    omega_p: float
    gamma: float

    def __post_init__(self):
        _require_drude("Drude", self.omega_p, self.gamma)

    def eps_imag_axis(self, xi):
        _require_positive(xi, "Drude permittivity diverges at xi = 0")
        return 1.0 + self.omega_p ** 2 / (xi * (xi + self.gamma))

    def zero_limit(self):
        if self.gamma > 0.0:
            return 1, self.omega_p ** 2 / self.gamma
        return 2, self.omega_p ** 2


@dataclass(frozen=True)
class Plasma:
    """Dissipationless metal: eps(i*xi) = 1 + omega_p**2 / xi**2."""

    omega_p: float

    def __post_init__(self):
        _require_drude("plasma", self.omega_p)

    def eps_imag_axis(self, xi):
        _require_positive(xi, "plasma permittivity diverges at xi = 0")
        ratio = self.omega_p / xi
        return 1.0 + ratio * ratio

    def zero_limit(self):
        return 2, self.omega_p ** 2


@dataclass(frozen=True)
class Permeability:
    """Frequency-independent relative permeability."""

    value: float = 1.0

    def __post_init__(self):
        _require_finite("permeability", value=self.value)
        if not self.value > 0.0:
            raise ValueError(f"permeability must be positive, got {self.value}")

    def mu_imag_axis(self, xi):
        return _constant_response(self.value, xi)


# ---------------------------------------------------------------------------
# tabulated optical data


class OpticalDataTable:
    """Measured absorption spectrum sampled at increasing photon energies.

    Parameters
    ----------
    energies_ev : array_like
        Strictly increasing photon energies in eV, at least two samples.
    eps1, eps2 : array_like
        Real and imaginary permittivity on the real frequency axis.
        eps2 must be non-negative (passivity).
    source_label : str
        Free-form provenance tag copied into report metadata.
    """

    def __init__(self, energies_ev, eps1, eps2, source_label=""):
        e = np.array(energies_ev, dtype=float)
        e1 = np.array(eps1, dtype=float)
        e2 = np.array(eps2, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise DataFileError("optical data needs at least two samples")
        if e1.shape != e.shape or e2.shape != e.shape:
            raise DataFileError("energy and permittivity columns differ in length")
        for name, column in (("energy", e), ("eps1", e1), ("eps2", e2)):
            if not np.isfinite(column).all():
                i = int(np.argmax(~np.isfinite(column)))
                raise DataFileError(f"{name} must be finite; sample {i} is {column[i]:g}")
        steps = np.diff(e)
        if np.any(steps <= 0.0):
            i = int(np.argmax(steps <= 0.0))
            raise DataFileError(
                f"energies must be strictly increasing; violation at sample {i + 1} "
                f"({e[i]:g} -> {e[i + 1]:g} eV)")
        if np.any(e2 < 0.0):
            i = int(np.argmax(e2 < 0.0))
            raise DataFileError(f"eps2 must be non-negative; sample {i} is {e2[i]:g}")
        if not e[0] > 0.0:
            raise DataFileError("photon energies must be positive")
        self.energies_ev = e
        self.eps1 = e1
        self.eps2 = e2
        self.source_label = source_label
        self.omegas = e * _EV  # rad/s
        # read-only, so the transform integrands cached below cannot go stale
        for column in (e, e1, e2, self.omegas):
            column.setflags(write=False)
        self._kk_bands = {}

    def _kk_band(self, nodes):
        """The data band's integrand per sample segment, built once per node
        count: its start, width, eps'' at the start, log-log exponent, and
        x**2 and x*eps''(x) at its ``nodes`` x as (segment, node) blocks."""
        if nodes.size not in self._kk_bands:
            w, e2 = self.omegas, np.maximum(self.eps2, _LOG_FLOOR)
            a, e_ref = w[:-1], e2[:-1]
            s = np.diff(np.log(e2)) / np.diff(np.log(w))
            x = 0.5 * (a + w[1:])[:, None] + 0.5 * np.diff(w)[:, None] * nodes
            num = e_ref[:, None] * (x / a[:, None]) ** s[:, None] * x
            self._kk_bands[nodes.size] = a, np.diff(w), e_ref, s, x ** 2, num
        return self._kk_bands[nodes.size]

    @property
    def e_min_ev(self):
        return float(self.energies_ev[0])

    @property
    def e_max_ev(self):
        return float(self.energies_ev[-1])

    def __eq__(self, other):
        if not isinstance(other, OpticalDataTable):
            return NotImplemented
        return (np.array_equal(self.energies_ev, other.energies_ev)
                and np.array_equal(self.eps1, other.eps1)
                and np.array_equal(self.eps2, other.eps2))

    def __repr__(self):
        return (f"OpticalDataTable({self.energies_ev.size} samples, "
                f"{self.e_min_ev:g}-{self.e_max_ev:g} eV, "
                f"label={self.source_label!r})")

    def replace_below(self, other, cutoff_ev):
        """Merge two tables: ``other`` supplies all samples below the cutoff.

        Rows of this table at or above ``cutoff_ev`` are kept unchanged.
        """
        keep = self.energies_ev >= cutoff_ev
        take = other.energies_ev < cutoff_ev
        if not np.any(take):
            raise DataFileError(f"replacement table has no samples below {cutoff_ev:g} eV")
        label = f"{other.source_label}<{cutoff_ev:g}eV<{self.source_label}"
        return OpticalDataTable(
            np.concatenate([other.energies_ev[take], self.energies_ev[keep]]),
            np.concatenate([other.eps1[take], self.eps1[keep]]),
            np.concatenate([other.eps2[take], self.eps2[keep]]),
            source_label=label)


def load_optical_data(path, source_label=None):
    """Read an optical data table from a CSV file.

    The first non-comment row is a header naming either
    ``energy_ev,eps1,eps2`` or ``energy_ev,n,k`` (case-insensitive);
    ``#`` starts a comment. n,k files are converted with eps1 = n**2 - k**2
    and eps2 = 2 n k. Parse failures report the offending line number.
    """
    if not os.path.exists(path):
        raise DataFileError(f"data file not found: {path}")
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = [t.strip() for t in line.split(",")]
            if header is None:
                header = [t.lower() for t in fields]
                if header not in (["energy_ev", "eps1", "eps2"], ["energy_ev", "n", "k"]):
                    raise DataFileError(
                        f"{path}: line {lineno}: header must be "
                        f"'energy_ev,eps1,eps2' or 'energy_ev,n,k', got {line!r}")
                continue
            if len(fields) != 3:
                raise DataFileError(f"{path}: line {lineno}: expected 3 columns, got {len(fields)}")
            try:
                rows.append([float(t) for t in fields])
            except ValueError:
                raise DataFileError(f"{path}: line {lineno}: could not parse {line!r}") from None
    if header is None:
        raise DataFileError(f"{path}: no header row found")
    if len(rows) < 2:
        raise DataFileError(f"{path}: need at least two data rows, got {len(rows)}")
    data = np.asarray(rows, dtype=float)
    label = source_label if source_label is not None else str(path)
    if header[1] == "n":
        n, k = data[:, 1], data[:, 2]
        return OpticalDataTable(data[:, 0], n ** 2 - k ** 2, eps2_from_nk(n, k),
                                source_label=label)
    return OpticalDataTable(data[:, 0], data[:, 1], data[:, 2], source_label=label)


@dataclass(frozen=True)
class DrudeTail:
    """Analytic eps'' extension below the lowest tabulated energy.

    eps''(w) = omega_p**2 * gamma / (w * (w**2 + gamma**2)) for w below
    the join energy. omega_p and gamma are in rad/s; the join energy is
    in eV (normally the lowest tabulated energy).
    """

    omega_p: float
    gamma: float
    join_energy_ev: float

    def __post_init__(self):
        _require_drude("DrudeTail", self.omega_p, self.gamma)
        if self.gamma == 0.0:
            # eps'' would vanish at every w > 0 and drop the lossless
            # omega_p**2/xi**2 term, which sits in a delta function at w = 0
            raise ValueError("DrudeTail gamma must be positive")
        _require_finite("DrudeTail", join_energy_ev=self.join_energy_ev)
        if not self.join_energy_ev > 0.0:
            raise ValueError("DrudeTail join energy must be positive")


@dataclass(frozen=True)
class PowerTail:
    """Power-law eps'' extension above the highest tabulated energy.

    eps''(w) = amplitude * (w_max / w)**exponent with exponent > 1 so the
    transform kernel stays integrable.
    """

    amplitude: float
    exponent: float

    def __post_init__(self):
        _require_finite("PowerTail", amplitude=self.amplitude,
                        exponent=self.exponent)
        if self.amplitude < 0.0:
            raise ValueError("PowerTail amplitude must be non-negative")
        if self.amplitude > 0.0 and not self.exponent > 1.0:
            raise ValueError("PowerTail exponent must exceed 1 for an integrable tail")


def fit_power_tail(table):
    """Least-squares power-law fit of eps2 over the table's top decade."""
    w = table.omegas
    mask = (w >= w[-1] / 10.0) & (table.eps2 > 0.0)
    if int(mask.sum()) < 2:
        if table.eps2[-1] > 0.0:
            return PowerTail(float(table.eps2[-1]), 3.0)
        return PowerTail(0.0, 3.0)
    x = np.log(w[-1] / w[mask])
    y = np.log(table.eps2[mask])
    slope, intercept = np.polyfit(x, y, 1)
    return PowerTail(float(math.exp(intercept)), float(slope))


def drude_synthetic_table(omega_p_ev, gamma_ev, e_min_ev, e_max_ev,
                          per_decade=100, source_label="synthetic-drude"):
    """Sample the analytic Drude spectrum onto a log-spaced table.

    Useful for validating the Kramers-Kronig path against the closed-form
    imaginary-axis result, and as a stand-in where measured data is absent.
    """
    n = max(2, int(round(per_decade * math.log10(e_max_ev / e_min_ev))) + 1)
    e = np.geomspace(e_min_ev, e_max_ev, n)
    eps2 = omega_p_ev ** 2 * gamma_ev / (e * (e ** 2 + gamma_ev ** 2))
    eps1 = 1.0 - omega_p_ev ** 2 / (e ** 2 + gamma_ev ** 2)
    return OpticalDataTable(e, eps1, eps2, source_label=source_label)


# ---------------------------------------------------------------------------
# Kramers-Kronig transform to the imaginary axis

# Bytes of the one (xi, segment, node) block that each data-band round reuses
_BAND_SCRATCH = 256 * 1024


def _drude_tail_integral(omega_p, gamma, w_hi, xi):
    """Closed form of int_0^w_hi w*eps''_drude(w) / (w**2 + xi**2) dw, for
    a scalar or an array of xi > 0."""
    xi = np.asarray(xi, dtype=float)
    if gamma == 0.0:
        return np.zeros(xi.shape)
    a = omega_p ** 2 * gamma
    # Degenerate xi ~ gamma: both the numerator and xi**2 - gamma**2 vanish;
    # there the equal-parameter form is taken at the midpoint. np.where
    # computes both forms, so the general form's 0/0 at xi = gamma is silenced.
    g = 0.5 * (xi + gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            np.abs(xi - gamma) > 1e-6 * (xi + gamma),
            a / (xi ** 2 - gamma ** 2)
            * (np.arctan(w_hi / gamma) / gamma - np.arctan(w_hi / xi) / xi),
            a * (w_hi / (2.0 * g ** 2 * (w_hi ** 2 + g ** 2))
                 + np.arctan(w_hi / g) / (2.0 * g ** 3)))


def _power_tail_integral(tail, w_max, xi, rel_tol):
    """int_{w_max}^inf w*eps''_tail(w) / (w**2 + xi**2) dw, one row per xi.

    Each row may bisect into at most the engine's panel budget.
    """
    if tail is None or tail.amplitude == 0.0:
        return np.zeros(xi.size)
    amp, p = tail.amplitude, tail.exponent

    def f(t, rows):
        return (amp * w_max ** 2 * t ** (p - 1.0)
                / (w_max ** 2 + (xi[rows, None] * t) ** 2))

    out, _, failures = _adaptive_rows(f, 0.0, 1.0, np.arange(xi.size),
                                      rel_tol, _NOISE_FLOOR)
    if failures:
        row, error = min(failures.items())
        raise QuadratureError(
            f"Kramers-Kronig power tail at xi = {xi[row]:g} rad/s: {error}",
            error.last_estimate, error.previous_estimate) from error
    return out


def _band_round(band, weights, diffs, xi2, rel_tol):
    """Totals, tolerances and converged flags of the data band on one panel
    per segment, one row per xi**2, of the rule with ``weights`` and error
    weights ``diffs`` (Kronrod minus Gauss) at the nodes ``band`` holds; xi
    go in chunks through one reused block of ``_BAND_SCRATCH`` bytes."""
    half, x2, num = 0.5 * band[1], band[4], band[5]
    chunk = max(1, _BAND_SCRATCH // x2.nbytes)
    scratch = np.empty(min(chunk, xi2.size) * x2.size)
    total, err = np.empty((2, xi2.size))
    for start in range(0, xi2.size, chunk):
        rows = slice(start, start + chunk)
        y = scratch[:xi2[rows].size * x2.size].reshape((-1,) + x2.shape)
        np.add(x2, xi2[rows, None, None], out=y)
        np.divide(num, y, out=y)
        total[rows] = np.add.reduce((y @ weights) * half, axis=-1)
        err[rows] = np.add.reduce(np.abs((y @ diffs) * half), axis=-1)
    tol = rel_tol * np.maximum(np.abs(total), _LOG_FLOOR)
    return total, tol, err <= tol


def _band_bisect(band, xi, xi2, tol, round0, rel_tol):
    """The data band of the xi that failed round 0, on the quadrature engine.

    Each (xi, segment) pair is one row on t in [0, 1] that runs to an equal
    share of its xi's tolerance ``tol``; the sum of those shares meets it.
    """
    a, width, e_ref, s = band[:4]
    segments = a.size
    pairs = np.arange(xi.size * segments)
    which, seg = divmod(pairs, segments)

    def f(t, rows):
        k = seg[rows, None]
        x = a[k] + width[k] * t
        return (width[k] * e_ref[k] * (x / a[k]) ** s[k] * x
                / (x ** 2 + xi2[which[rows, None]]))

    floor = np.maximum(np.repeat(tol / segments, segments), _NOISE_FLOOR)
    values, _, failures = _adaptive_rows(f, 0.0, 1.0, pairs, 0.0, floor)
    totals = np.add.reduce(values.reshape(xi.size, segments), axis=-1)
    if failures:
        row, error = min(failures.items())
        i, k = divmod(row, segments)
        raise QuadratureError(
            f"Kramers-Kronig data-band integral at xi = {xi[i]:g} rad/s did "
            f"not converge to rel_tol={rel_tol:g}: segment {k} ({a[k]:g} to "
            f"{a[k] + width[k]:g} rad/s) needs over "
            f"{quadrature._MAX_PANELS} panels",
            last_estimate=float(totals[i]),
            previous_estimate=float(round0[i])) from error
    return totals


def _data_band_integral(table, xi, rel_tol):
    """int over the tabulated range of w*eps''(w) / (w**2 + xi**2) dw, for a
    1-d array xi.

    eps'' is interpolated log-log between samples, so each sample segment
    carries an analytic power law. Round 0, one K7 panel per segment on the
    table's cached integrand, runs for chunks of xi at once; the xi it
    misses take one K15 panel per segment, and the xi that miss again go to
    the quadrature engine together, one row per segment. Each xi gets its
    one-xi result bit for bit."""
    xi2, out, rows = xi * xi, np.empty(xi.size), np.arange(xi.size)
    for nodes, weights, diffs in ((_K7_X, _K7_W, _K7_D), (_K15_X, _K15_W, _K15_D)):
        band = table._kk_band(nodes)
        out[rows], tol, done = _band_round(band, weights, diffs, xi2[rows], rel_tol)
        rows, tol = rows[~done], tol[~done]
        if not rows.size:
            return out
    out[rows] = _band_bisect(band, xi[rows], xi2[rows], tol, out[rows], rel_tol)
    return out


def kk_transform(table, low_tail, high_tail, xi, rel_tol=1e-6):
    """Permittivity on the imaginary axis from tabulated absorption data.

    eps(i*xi) = 1 + (2/pi) * int_0^inf w * eps''(w) / (w**2 + xi**2) dw,
    with eps'' given by ``low_tail`` below the join energy, log-log
    interpolation of the table inside the data range and ``high_tail``
    above it. Either tail may be None (treated as zero absorption).

    ``xi`` is a scalar or an array; an array gives the scalar results in its
    shape, bit for bit. The power tail of all elements is integrated as
    batched rows, and the data band's K7 round, then its K15 round for the
    xi K7 misses, runs for many xi at once; only the xi that miss both
    bisect, together.
    ``rel_tol`` must lie in (0, 1e-3].
    """
    if not 0.0 < rel_tol <= 1e-3:
        raise ValueError(f"rel_tol must lie in (0, 1e-3], got {rel_tol!r}")
    xis = np.asarray(xi, dtype=float)
    _require_finite_xi(xis)
    if (xis < 0.0).any():
        raise ValueError("xi must be non-negative")
    if (xis == 0.0).any() and low_tail is not None:
        raise ZeroFrequencyError(
            "tabulated permittivity with a Drude low-frequency tail diverges "
            "at xi = 0; the zero-frequency term must come from a zero-mode "
            "prescription")
    flat, low = xis.ravel(), 0.0
    if low_tail is not None:
        lo = min(table.omegas[0], ev_to_radps(low_tail.join_energy_ev))
        low = _drude_tail_integral(low_tail.omega_p, low_tail.gamma, lo, flat)
    tails = _power_tail_integral(high_tail, table.omegas[-1], flat, rel_tol)
    total = low + _data_band_integral(table, flat, rel_tol)
    out = 1.0 + (2.0 / math.pi) * (total + tails)
    return float(out[0]) if xis.ndim == 0 else out.reshape(xis.shape)


@dataclass(frozen=True)
class Tabulated:
    """Permittivity model backed by measured data via the transform above:
    ``eps_imag_axis`` of a scalar or an array of xi is one :func:`kk_transform`
    call at that function's default tolerance, with no cache. The Matsubara
    sums ask each layer once per k-pass, for all of the pass's distinct xi."""

    table: OpticalDataTable
    low_tail: DrudeTail | None = None
    high_tail: PowerTail | None = None

    def eps_imag_axis(self, xi):
        return kk_transform(self.table, self.low_tail, self.high_tail, xi)

    def zero_limit(self):
        if self.low_tail is not None and self.low_tail.gamma > 0.0:
            return 1, self.low_tail.omega_p ** 2 / self.low_tail.gamma
        return 0, self._static_eps

    @functools.cached_property
    def _static_eps(self):
        # eps(0) without the low tail: a full transform, so computed once
        return kk_transform(self.table, None, self.high_tail, 0.0)


def plasma_frequency_of(model):
    """Plasma frequency in rad/s implied by a permittivity model, or None."""
    if isinstance(model, (Drude, Plasma)):
        return model.omega_p
    if isinstance(model, Tabulated) and model.low_tail is not None:
        return model.low_tail.omega_p
    return None
