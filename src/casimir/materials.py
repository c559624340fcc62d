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
from scipy.constants import c, e as _ELEMENTARY_CHARGE, hbar

# adaptive_integral stays a name here: perfbench/tracing.py patches it
from .quadrature import (_CHUNK, _GL15_W, _GL7_W, _NODES, _NOISE_FLOOR,
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


def _require_positive(xi, what):
    if (np.asarray(xi) <= 0.0).any():
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
    """A frequency-independent response: the scalar, or one per array xi."""
    if np.ndim(xi) == 0:
        return value
    _require_positive(xi, "array frequencies must be positive")
    out = np.empty(np.shape(xi))
    out.fill(value)
    return out


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
        # read-only, so the transform integrand cached below cannot go stale
        for column in (e, e1, e2, self.omegas):
            column.setflags(write=False)

    @functools.cached_property
    def _kk_band(self):
        """Round-0 panels of :func:`_data_band_integral`, one per segment."""
        w, e2 = self.omegas, np.maximum(self.eps2, _LOG_FLOOR)
        return _band_panels(w[:-1], w[1:], w[:-1], e2[:-1],
                            np.diff(np.log(e2)) / np.diff(np.log(w)))

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


def _drude_tail_integral(omega_p, gamma, w_hi, xi):
    """Closed form of int_0^w_hi w*eps''_drude(w) / (w**2 + xi**2) dw."""
    if gamma == 0.0:
        return 0.0
    a = omega_p ** 2 * gamma
    if abs(xi - gamma) > 1e-6 * (xi + gamma):
        return (a / (xi ** 2 - gamma ** 2)
                * (math.atan(w_hi / gamma) / gamma - math.atan(w_hi / xi) / xi))
    # Degenerate xi ~ gamma: both the numerator and xi**2 - gamma**2 vanish;
    # evaluate the equal-parameter form at the midpoint instead.
    g = 0.5 * (xi + gamma)
    return a * (w_hi / (2.0 * g ** 2 * (w_hi ** 2 + g ** 2))
                + math.atan(w_hi / g) / (2.0 * g ** 3))


def _power_tail_integral(tail, w_max, xi, rel_tol, max_panels):
    """int_{w_max}^inf w*eps''_tail(w) / (w**2 + xi**2) dw, one row per xi."""
    out = np.zeros(xi.size)
    if tail is None or tail.amplitude == 0.0:
        return out
    amp, p = tail.amplitude, tail.exponent
    for start in range(0, xi.size, _CHUNK):
        col = xi[start:start + _CHUNK, None]
        def f(t, rows):
            return (amp * w_max ** 2 * t ** (p - 1.0)
                    / (w_max ** 2 + (col[rows] * t) ** 2))
        out[start:start + _CHUNK], _, failures = _adaptive_rows(
            f, 0.0, 1.0, np.arange(col.size), rel_tol, max_panels, _NOISE_FLOOR)
        if failures:
            raise failures[min(failures)]
    return out


def _band_panels(a, b, w_ref, e_ref, s):
    """Panel arrays, then half widths, x**2 and x*eps''(x) at the Gauss nodes x."""
    half = 0.5 * (b - a)
    x = 0.5 * (a + b)[:, None] + half[:, None] * _NODES[None, :]
    return (a, b, w_ref, e_ref, s, half, x ** 2,
            e_ref[:, None] * (x / w_ref[:, None]) ** s[:, None] * x)


def _data_band_integral(table, xi, rel_tol, max_rounds=24):
    """int over the tabulated range of w*eps''(w) / (w**2 + xi**2) dw.

    eps'' is interpolated log-log between samples, so each sample segment
    carries an analytic power law; segments are integrated with paired
    15/7-point Gauss rules, bisecting (with the segment's own power law)
    until the summed error estimate meets the tolerance. Round 0, one panel
    per segment, starts from the table's cached xi-independent integrand.
    """
    a, b, w_ref, e_ref, s, half, x2, num = table._kk_band
    for _ in range(max_rounds):
        y = num / (x2 + xi ** 2)
        i15 = half * (y[:, :15] @ _GL15_W)
        i7 = half * (y[:, 15:] @ _GL7_W)
        err = np.abs(i15 - i7)
        total = float(np.sum(i15))
        tol = rel_tol * max(abs(total), _LOG_FLOOR)
        if float(np.sum(err)) <= tol:
            return total
        # bisect every panel whose error exceeds its share of the budget
        split = err > tol / max(err.size, 1)
        keep = ~split
        mid = 0.5 * (a[split] + b[split])
        a, b, w_ref, e_ref, s, half, x2, num = _band_panels(
            np.concatenate([a[keep], a[split], mid]),
            np.concatenate([b[keep], mid, b[split]]),
            *(np.concatenate([v[keep], v[split], v[split]])
              for v in (w_ref, e_ref, s)))
    raise QuadratureError(
        f"Kramers-Kronig data-band integral did not converge to rel_tol={rel_tol:g}")


def kk_transform(table, low_tail, high_tail, xi, rel_tol=1e-6, max_panels=512):
    """Permittivity on the imaginary axis from tabulated absorption data.

    eps(i*xi) = 1 + (2/pi) * int_0^inf w * eps''(w) / (w**2 + xi**2) dw,
    with eps'' given by ``low_tail`` below the join energy, log-log
    interpolation of the table inside the data range and ``high_tail``
    above it. Either tail may be None (treated as zero absorption).

    ``xi`` is a scalar or an array; an array gives the scalar results in its
    shape, with the power tail of all elements integrated as batched rows.
    """
    xis = np.asarray(xi, dtype=float)
    if (xis < 0.0).any():
        raise ValueError("xi must be non-negative")
    if (xis == 0.0).any() and low_tail is not None:
        raise ZeroFrequencyError(
            "tabulated permittivity with a Drude low-frequency tail diverges "
            "at xi = 0; the zero-frequency term must come from a zero-mode "
            "prescription")
    lo = table.omegas[0]
    if low_tail is not None:
        lo = min(lo, ev_to_radps(low_tail.join_energy_ev))
    tails = _power_tail_integral(high_tail, table.omegas[-1], xis.ravel(),
                                 rel_tol, max_panels)
    out = []
    for x, tail in zip(xis.ravel().tolist(), tails.tolist()):
        total = 0.0 if low_tail is None else _drude_tail_integral(
            low_tail.omega_p, low_tail.gamma, lo, x)
        total += _data_band_integral(table, x, rel_tol)
        out.append(1.0 + (2.0 / math.pi) * (total + tail))
    return out[0] if xis.ndim == 0 else np.reshape(out, xis.shape)


class Tabulated:
    """Permittivity model backed by measured data via the transform above.

    Evaluations are cached per xi value, so Matsubara sweeps touching the
    same frequency grid pay the transform cost once per material.
    ``eps_imag_axis`` takes a scalar or an array of frequencies and
    transforms all of its cache misses in one :func:`kk_transform` call.
    """

    def __init__(self, table, low_tail=None, high_tail=None,
                 rel_tol=1e-6, max_panels=512):
        self.table = table
        self.low_tail = low_tail
        self.high_tail = high_tail
        self.rel_tol = rel_tol
        self.max_panels = max_panels
        self._cache = {}

    def eps_imag_axis(self, xi):
        keys = np.asarray(xi, dtype=float).ravel().tolist()
        missing = list(dict.fromkeys(x for x in keys if x not in self._cache))
        if missing:
            values = kk_transform(self.table, self.low_tail, self.high_tail,
                                  np.array(missing), rel_tol=self.rel_tol,
                                  max_panels=self.max_panels)
            self._cache.update(zip(missing, values.tolist()))
        if np.ndim(xi) == 0:
            return self._cache[keys[0]]
        return np.array([self._cache[x] for x in keys]).reshape(np.shape(xi))

    def zero_limit(self):
        if self.low_tail is not None and self.low_tail.gamma > 0.0:
            return 1, self.low_tail.omega_p ** 2 / self.low_tail.gamma
        return 0, self._static_eps

    @functools.cached_property
    def _static_eps(self):
        # eps(0) without the low tail: a full transform, so computed once
        return kk_transform(self.table, None, self.high_tail, 0.0,
                            rel_tol=self.rel_tol, max_panels=self.max_panels)

    def __eq__(self, other):
        if not isinstance(other, Tabulated):
            return NotImplemented
        return (self.table == other.table and self.low_tail == other.low_tail
                and self.high_tail == other.high_tail)

    def __repr__(self):
        return f"Tabulated({self.table!r}, {self.low_tail!r}, {self.high_tail!r})"


def plasma_frequency_of(model):
    """Plasma frequency in rad/s implied by a permittivity model, or None."""
    if isinstance(model, (Drude, Plasma)):
        return model.omega_p
    if isinstance(model, Tabulated) and model.low_tail is not None:
        return model.low_tail.omega_p
    return None
