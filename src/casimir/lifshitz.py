"""Zero-point energies and normal pressures of layered stacks.

At finite temperature the interaction free energy per unit area is a sum
over discrete imaginary frequencies xi_n = 2*pi*n*kB*T/hbar with the n = 0
term at half weight; at T = 0 the sum becomes an integral over xi. Every
frequency term is a semi-infinite integral over the transverse wavenumber
of k times a mode function of the stack summed over polarizations: ln G
for the energy, its thickness derivative for a normal pressure. One
function, :func:`matsubara_energy`, runs that sum for every observable.

The zero-mode prescriptions (Drude, plasma, model) differ only in the
n = 0 term, so a tuple of configs that share temperature and n_max is
summed in the same passes: each config gets its own n = 0 row, the terms
n >= 1 are integrated once and each config takes them up to its own early
stop. So is a tuple of stacks (the separations of a force sweep, or the
full, retracted and slab stacks of a difference observable), each row on
its own stack's k-scale. Every result equals the one of a separate call
bit for bit.

Sign convention: attractive configurations have negative energy per area
and negative normal pressure.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .constants import c, hbar, k_B
from .materials import Constant
from .quadrature import (QuadratureError, semi_infinite_integral,
                         semi_infinite_rows)
from .stack import FromModel, Layer, Stack, _require_inner, d_ln_g, ln_g
# perfbench/tracing.py patches these names here; nothing in this module calls them
from .stack import g_full_thickness_derivative, ln_g_full  # noqa: F401


def matsubara_xi(n, temperature):
    """n-th Matsubara frequency 2*pi*n*kB*T/hbar in rad/s.

    Written as n times the first frequency so linearity is exact in
    floating point.
    """
    return n * (2.0 * math.pi * k_B * temperature / hbar)


class TruncationWarning(UserWarning):
    """A Matsubara sum ended at n_max before its tail bound fell to rel_tol
    of its value: the terms after n_max may be missing from the result."""


@dataclass(frozen=True)
class MatsubaraConfig:
    """Finite-temperature summation settings.

    temperature is in kelvin; the sum runs over n = 0 .. n_max with the
    n = 0 term at half weight, evaluated under ``zero_mode``.
    """

    temperature: float
    n_max: int = 500
    zero_mode: object = field(default_factory=FromModel)

    def __post_init__(self):
        if not (self.temperature > 0.0 and math.isfinite(self.temperature)):
            raise ValueError(
                f"temperature must be positive and finite, got {self.temperature}")
        if not isinstance(self.n_max, numbers.Integral):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance of the wavenumber (and T = 0 frequency) integrals.

    Integrands are rescaled to a dimensionless semi-infinite axis set by
    the smallest decay length of the system before panel subdivision; the
    panel budget is the quadrature engine's.
    """

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol <= 1e-3:
            raise ValueError("rel_tol must lie in (0, 1e-3]")


@dataclass
class EnergyPerArea:
    """Energy per unit area in J/m^2 with its per-n breakdown.

    ``terms[n]`` is the full contribution of Matsubara index n including
    prefactor and the half weight at n = 0; ``value`` is their compensated
    (ascending-n) sum, so partial sums are reproducible regardless of how
    the terms were computed. ``n_stop`` is the last index evaluated: the
    terms after it are zero padding left by the early stop. ``panels``
    counts the k-quadrature panels of terms 0 .. n_stop. ``tail`` bounds
    the terms after n_stop, inf where no bound holds (see :class:`_RunningSum`).
    """

    value: float
    terms: list
    panels: int = 0
    n_stop: int | None = None
    tail: float = math.inf


def k_integral(f, quad, scale=1.0):
    """Semi-infinite integral of a vectorized integrand over k in [0, inf).

    ``f`` must include the k Jacobian itself and decay at least
    exponentially on the given k-scale.
    """
    return semi_infinite_integral(f, scale=scale, rel_tol=quad.rel_tol)


def _k_scale(stack):
    # Rescaling by the maximum thickness keeps structure from every layer
    # visible: the slowest decay sits at u ~ 1 and faster ones at larger u,
    # which the geometrically growing blocks always reach. The reverse
    # choice would bury large-layer structure inside the first panel.
    return 1.0 / (2.0 * max(stack.thicknesses))


def _stand_in(layer, nodes):
    """``layer`` as a stand-in: eps(i xi) at any xi of the ascending ``nodes``
    from one evaluation on them, the layer's own xi -> 0 limit and constant mu."""
    eps, mu = layer.eps.eps_imag_axis(nodes), layer.mu.value
    return Layer(SimpleNamespace(eps_imag_axis=lambda xi: eps[np.searchsorted(nodes, xi)],
                                 zero_limit=layer.eps.zero_limit),
                 SimpleNamespace(mu_imag_axis=lambda _: mu))


def _k_pass(mode, stacks, system, xi, zero, zero_modes, quad, share=None):
    """:func:`semi_infinite_rows` of k times ``mode`` summed over polarizations:
    row r on ``stacks[system[r]]`` at ``xi[r]`` or, where ``zero[r] >= 0``, at
    xi = 0 under ``zero_modes[zero[r]]``, each on its stack's k-scale. Consecutive
    stacks with equal layers form one run, whose thicknesses become (rows, 1)
    columns that broadcast against k like xi; an integrand call makes one
    ``mode`` call per run and zero mode of its rows. Before the first integrand
    call each distinct layer becomes one :func:`_stand_in` on the distinct xi
    of the rows n >= 1; every mode call of the pass, xi = 0 rows included,
    sees its run's stand-ins.

    ``share``, if given, is the engine's ``share(first)``: each row's absolute
    floor from the first panels of the pass (see :func:`_lockstep`). A row
    also stops on the mode's a-priori bound of its omitted k-tail, where the
    mode has one (:func:`_k_tail`), from its stack and xi alone."""
    # with return_inverse: the plain np.unique imports numpy.ma on numpy >= 2.3
    nodes = np.unique(xi[zero < 0], return_inverse=True)[0]
    stand_in = {}   # id of a distinct layer -> its stand-in
    # per run: (first stack, stand-ins, thicknesses as (inner layer, member, 1))
    runs, run_of = [], []
    for layers, group in itertools.groupby(stacks, key=lambda s: s.layers):
        members = np.array([s.thicknesses for s in group], dtype=float)
        for layer in layers:
            if id(layer) not in stand_in:
                stand_in[id(layer)] = _stand_in(layer, nodes)
        runs.append((len(run_of), tuple(stand_in[id(layer)] for layer in layers),
                     members.T[..., None]))
        run_of += [len(runs) - 1] * len(members)
    run = np.array(run_of)[system]
    # one key per (run, zero mode or none): the rows of a key are one call
    key = run * (len(zero_modes) + 1) + zero + 1
    column = xi[:, None]

    def f(k, rows):
        # _lockstep orders its rows by config, then by stack, so the
        # rows of a key are one contiguous slice of the ascending rows
        edges = [0, *(np.flatnonzero(np.diff(key[rows])) + 1).tolist(), rows.size]
        out = []
        for a, b in zip(edges, edges[1:]):
            at, z = rows[a:b], zero[rows[a]]
            first, layers, thickness = runs[run[at[0]]]
            at_xi, zero_mode = (0.0, zero_modes[z]) if z >= 0 else (column[at], None)
            # the member stacks were checked when they were built
            members = Stack._unchecked(layers, thickness[:, system[at] - first])
            out.append(k[a:b] * sum(mode(members, k[a:b], at_xi, zero_mode).values()))
        return out[0] if len(out) == 1 else np.concatenate(out)

    scales = np.array([_k_scale(s) for s in stacks])[system]
    return semi_infinite_rows(f, system.size, scale=scales, rel_tol=quad.rel_tol,
                              share=share, tail=_k_tail(mode, stacks, system, xi))


def _k_tail(mode, stacks, system, xi):
    """``tail(k, rows)`` of a k pass: ``mode.k_tail`` summed over the runs of
    equal inner layers of each row's stack (:func:`_run_table`), each at
    kappa = sqrt(k**2 + m*xi**2/c**2) for its floor m of eps*mu; None for a
    mode without ``k_tail``."""
    k_tail = getattr(mode, "k_tail", None)
    if k_tail is None:
        return None
    # per stack its runs' (thickness, m), padded with (nan, 0), which nansum drops
    table = [_run_table(s) for s in stacks]
    width = max(map(len, table))
    runs = np.array([t + [(np.nan, 0.0)] * (width - len(t)) for t in table])
    runs = runs.reshape(len(stacks), width, 2)[system]
    thickness, kappa_xi = runs[..., 0], runs[..., 1] * ((xi / c) ** 2)[:, None]

    def tail(k, rows):
        kappa = np.sqrt(k[:, None] ** 2 + kappa_xi[rows])
        return np.nansum(k_tail(thickness[rows], kappa), axis=1)

    return tail


def _tagged(err, n, system):
    tagged = QuadratureError(
        f"{err} (while integrating Matsubara index n={n})",
        last_estimate=err.last_estimate,
        previous_estimate=err.previous_estimate)
    tagged.matsubara_n, tagged.system = n, system
    return tagged


@contextlib.contextmanager
def _naming_systems(names, attribute="energy", phrase="in the {} energy"):
    """Re-raise a failing Matsubara row's error naming its system,
    ``names[system]``, in ``phrase`` and as ``attribute``."""
    try:
        yield
    except QuadratureError as err:
        if not hasattr(err, "system"):   # not a row of the Matsubara sum
            raise
        name = names[err.system]
        tagged = QuadratureError(f"{err} {phrase.format(name)}",
                                 err.last_estimate, err.previous_estimate)
        vars(tagged).update(vars(err), **{attribute: name})
        raise tagged from err


def _shared_pass(mats):
    """``mats`` as a tuple of configs that share temperature and n_max."""
    configs = mats if isinstance(mats, tuple) else (mats,)
    if not configs:
        raise ValueError("a Matsubara pass needs at least one config")
    first = configs[0]
    for cfg in configs[1:]:
        if (cfg.temperature, cfg.n_max) != (first.temperature, first.n_max):
            raise ValueError("configs of one Matsubara pass must share "
                             f"temperature and n_max, got {first} and {cfg}")
    return configs


def _one_config(mats, caller):
    if not isinstance(mats, MatsubaraConfig):
        raise TypeError(f"{caller} takes one MatsubaraConfig, "
                        f"got {type(mats).__name__}")


class _RunningSum:
    """One config's terms and panels, up to its own early stop.

    From n = 2 on (t_0 starts no ratio), where t_n and t_(n-1) share their
    sign, ``tail`` = |t_n|*rho/(1 - rho) bounds the terms after n, with
    rho = max(t_n/t_(n-1), q_n) < 1; the sum stops once it is 1% of rel_tol
    of the running sum. q_n = exp(-2a)(1 + 2(n+1)a)/(1 + 2na), a = xi_1*L/c,
    is the term ratio of ideal mirrors across the decay length L: no layer's
    terms fall slower, even where they hide at low n. A term of exactly 0
    bounds the terms after it by 0: a passive stack has one only with no
    inner run (L = 0) or once its gap factors underflow, which only shrink
    as xi grows. Where t_n and t_(n-1) differ in sign, and at n = 1, no
    bound holds: ``tail`` is inf.
    """

    def __init__(self, term0, panels, a, rel_tol):
        self.terms = [term0]
        self.panels = panels
        self.total = term0
        self.a, self.floor = a, 0.01 * rel_tol

    def add(self, term, panels):
        """Append a term; False once the sum has stopped."""
        n, last, a = len(self.terms), self.terms[-1], self.a
        self.terms.append(term)
        self.panels += panels
        self.total += term
        cap = math.exp(-2.0 * a) * (1.0 + 2.0 * (n + 1) * a) / (1.0 + 2.0 * n * a)
        rho = (0.0 if term == 0.0
               else max(term / last, cap) if n > 1 and term * last > 0.0 else 1.0)
        self.tail = abs(term) * rho / (1.0 - rho) if rho < 1.0 else math.inf
        return self.tail > self.floor * abs(self.total)

    def energy(self, n_max):
        n_stop = len(self.terms) - 1
        terms = self.terms + [0.0] * (n_max - n_stop)
        return EnergyPerArea(math.fsum(terms), terms, self.panels, n_stop, self.tail)


def _terms(length, xi1, rel_tol):
    """Terms n >= 1 a sum of decay length ``length`` > 0 needs: they fall like
    exp(-2 xi_n L / c), to the stop's 1% of rel_tol near 2 xi_n L / c =
    ln(100 / rel_tol)."""
    return math.ceil(math.log(100.0 / rel_tol) * c / (2.0 * xi1 * length))


def _batch(length, xi1, n_done, rel_tol):
    """Indices n >= 1 of a system's next batch: up to the stop predicted
    from its decay length ``length``, then at least as many as done."""
    # L = 0 (no inner run: every term is 0) takes one index, whose 0 ends the sum
    predicted = _terms(length, xi1, rel_tol) + 5 if length else 0
    return max(predicted - n_done, n_done, 1)


def _lockstep(mode, stacks, configs, quad):
    """``[[_RunningSum per config] per stack]`` of ``mode`` on ``stacks``.

    Each pass is one :func:`_k_pass` of ``matsubara_xi(ns, T)`` with the
    stack index of every row and its index into ``configs`` for its zero
    mode, -1 for n >= 1. The first pass holds the n = 0 rows of every
    config (config by config, each by stack), then each stack's first
    :func:`_batch` of indices n >= 1; later passes the next batch of each
    stack that has not stopped. The rows n >= 1 of a pass are sorted by
    stack, then by n. The quadrature engine bounds the rows of each
    integrand call.

    Every row of a stack s, n = 0 included, takes the floor
    a_s = rel_tol * |first panel of its n = 1 row| / N_s, its share of the
    sum's tolerance, with N_s the smaller of n_max and the terms
    :func:`_terms` predicts from the decay length alone. The n = 1 rows are
    all in the first pass, and a_s depends on stack s alone, so neither
    batches, row slices nor the other stacks and configs of a pass move a
    result.
    """
    if not stacks:
        raise ValueError("a Matsubara pass needs at least one stack")
    mats = configs[0]
    xi1 = matsubara_xi(1, mats.temperature)
    pref = k_B * mats.temperature / (2.0 * math.pi)
    lengths = [_decay_length(s) for s in stacks]
    zero_modes = tuple(cfg.zero_mode for cfg in configs)
    sums = [[] for _ in stacks]
    live = dict(enumerate(sums))      # running sums before their stop
    done = dict.fromkeys(live, 0)     # last index integrated per stack
    zero = np.tile(np.arange(len(stacks)), len(configs))   # n = 0 rows
    terms = np.array([min(_terms(L, xi1, quad.rel_tol) if L else math.inf,
                          mats.n_max) for L in lengths])
    floor = np.zeros(len(stacks))   # a_s, set by the first pass

    def share(first, system, one):
        floor[system[one]] = quad.rel_tol * np.abs(first[one]) / terms[system[one]]
        return floor[system]

    while live:
        batches = []
        for s in live:
            size = min(_batch(lengths[s], xi1, done[s], quad.rel_tol), mats.n_max - done[s])
            batches.append((s, range(done[s] + 1, done[s] + 1 + size)))
        system = np.concatenate([zero] + [[s] * len(b) for s, b in batches])
        ns = np.concatenate([0 * zero] + [b for _, b in batches])
        config = np.where(ns == 0, np.arange(ns.size) // len(stacks), -1)
        values, panels, failures = _k_pass(
            mode, stacks, system, matsubara_xi(ns, mats.temperature), config,
            zero_modes, quad, functools.partial(share, system=system, one=ns == 1))
        values, panels = values.tolist(), panels.tolist()
        if failures and min(failures) < zero.size:
            row = min(failures)
            raise _tagged(failures[row], 0, int(zero[row])) from failures[row]
        for row, s in enumerate(zero.tolist()):
            sums[s].append(_RunningSum(0.5 * pref * values[row], panels[row],
                                       xi1 * lengths[s] / c, quad.rel_tol))
        row, zero = zero.size, zero[:0]
        for s, batch in batches:
            for n, r in zip(batch, range(row, row + len(batch))):
                if r in failures:
                    raise _tagged(failures[r], n, s) from failures[r]
                live[s] = [x for x in live[s]
                           if x.add(pref * values[r], panels[r])]
                if not live[s]:
                    break
            row, done[s] = row + len(batch), batch[-1]
            if not live[s] or done[s] == mats.n_max:
                del live[s]
    return sums


def _run_table(stack):
    """``[(thickness, m)]`` of each run of equal adjacent inner layers, a run
    that takes in a half-space being none. m = min(1, eps_low*mu) bounds the
    run's eps(i xi)*mu from below at every xi, with eps_low a Constant's value
    and 1 for every other model: passive models keep eps(i xi) >= 1."""
    d = (0.0, *stack.thicknesses, 0.0)
    runs = []
    for layer, run in itertools.groupby(enumerate(stack.layers), key=lambda p: p[1]):
        eps = layer.eps.value if isinstance(layer.eps, Constant) else 1.0
        runs.append((sum(d[j] for j, _ in run), min(1.0, eps * layer.mu.value)))
    return runs[1:-1]


def _decay_length(stack):
    """The smallest sqrt(m)*d over the runs (:func:`_run_table`): a run's kappa
    is at least sqrt(k**2 + m*xi**2/c**2) >= sqrt(m)*sqrt(k**2 + xi**2/c**2),
    so its terms fall at least like those of ideal mirrors sqrt(m)*d apart.
    0 for a stack with no inner run: G = 1, so its term n = 1 is 0 and ends the sum."""
    return min((math.sqrt(m) * d for d, m in _run_table(stack)), default=0.0)


def matsubara_energy(stack, mats, quad=QuadratureConfig(), mode=ln_g):
    """Finite-temperature free energy per area of a mode function of a stack.

    ``mode(stack, k, xi, zero_mode)`` returns ``{polarization: values}``
    like :func:`ln_g` (the default) and :func:`d_ln_g`, for k of shape
    (rows, points) with xi of shape (rows, 1) and ``zero_mode=None`` at
    n >= 1, and with the scalar xi = 0.0 and a config's ``zero_mode`` at
    n = 0. Every mode call, n = 0 included, sees a stack of stand-in layers,
    one per distinct layer, built before the first integrand call of the
    pass (see :func:`_k_pass`): a mode reads eps and mu through
    ``eps_imag_axis``, ``zero_limit`` and ``mu_imag_axis`` and must not
    compare layer objects. Terms are accumulated in ascending n and summed
    with compensation, so the result is bitwise stable for a fixed panel
    decomposition.

    ``mats`` is one :class:`MatsubaraConfig` or a tuple of configs that
    share temperature and n_max, and ``stack`` one stack or a tuple of
    stacks of any layers; a tuple gives a tuple of results in its order
    (over stacks, then configs). All run in the same row-batched passes
    (see :func:`_lockstep`), each row on its stack's k-scale, and every
    (stack, config) keeps its own early stop: each result equals the one
    of a separate call bit for bit. A failing row raises
    :class:`QuadratureError` tagged with its ``matsubara_n`` and its
    stack's index as ``system``. A sum that ends at n_max with its ``tail``
    above rel_tol of its value warns with :class:`TruncationWarning`.
    """
    configs = _shared_pass(mats)
    stacks = stack if isinstance(stack, tuple) else (stack,)
    n_max = configs[0].n_max
    results = []
    for running in _lockstep(mode, stacks, configs, quad):
        energies = tuple(r.energy(n_max) for r in running)
        for e in energies:
            if e.n_stop == n_max and e.tail > quad.rel_tol * abs(e.value):
                warnings.warn(f"Matsubara sum truncated at n_max = {n_max}: "
                              f"value {e.value:.6g} J/m^2, tail bound {e.tail:.3g} "
                              f"J/m^2; raise n_max", TruncationWarning, stacklevel=2)
        results.append(energies if isinstance(mats, tuple) else energies[0])
    return tuple(results) if isinstance(stack, tuple) else results[0]


def energy_per_area_T(stack, mats, quad=QuadratureConfig()):
    """Finite-temperature interaction free energy per unit area in J/m^2:
    :func:`matsubara_energy` of ln G, for one stack or a tuple of stacks of
    any layers, and one config or a tuple of configs that differ only in
    ``zero_mode`` (the terms n >= 1 are integrated once)."""
    return matsubara_energy(stack, mats, quad)


def energy_per_area_T0(stack, quad=QuadratureConfig()):
    """Zero-temperature energy per unit area: integral over xi instead of a sum."""
    def outer(xis):
        # every xi node of an outer panel is one row of the inner k pass
        values, _, failures = _k_pass(ln_g, (stack,), np.zeros(xis.size, int),
                                      xis, np.full(xis.size, -1), (), quad)
        if failures:
            raise failures[min(failures)]
        return values

    integral = semi_infinite_integral(outer, scale=c * _k_scale(stack),
                                      rel_tol=quad.rel_tol)
    return hbar / (4.0 * math.pi ** 2) * integral


def normal_pressure(stack, which, mats, quad=QuadratureConfig()):
    """Normal pressure (N/m^2) conjugate to the thickness d_which of an
    inner layer, 2 <= which <= N - 1.

    Computed from the analytic thickness derivative of ln G, not finite
    differences: P = -d(E/A)/dd_which. Negative values mean attraction.
    ``mats`` is one :class:`MatsubaraConfig`.
    """
    _one_config(mats, "normal_pressure")
    _require_inner(stack, which)
    return -matsubara_energy(stack, mats, quad,
                             functools.partial(d_ln_g, which=which)).value


@dataclass(frozen=True)
class TruncationRow:
    n: int
    value: float
    rel_delta: float | None


def truncation_report(stack, mats, quad, checkpoints):
    """Partial free energies at increasing n_max cutoffs from a single pass.

    Returns one row per checkpoint with the partial sum through that index
    and its relative change against the previous checkpoint. ``mats`` is
    one :class:`MatsubaraConfig`.
    """
    _one_config(mats, "truncation_report")
    checkpoints = list(checkpoints)
    if not all(isinstance(n, numbers.Integral) for n in checkpoints):
        raise ValueError(f"checkpoints must be integers, got {checkpoints}")
    if not checkpoints or sorted(checkpoints) != checkpoints:
        raise ValueError("checkpoints must be a non-empty ascending list")
    if checkpoints[0] < 0 or checkpoints[-1] > mats.n_max:
        raise ValueError(f"checkpoints must lie within [0, n_max={mats.n_max}]")
    run = MatsubaraConfig(mats.temperature, n_max=max(checkpoints[-1], 1),
                          zero_mode=mats.zero_mode)
    with warnings.catch_warnings():   # the report tabulates the truncation
        warnings.simplefilter("ignore", TruncationWarning)
        energy = energy_per_area_T(stack, run, quad)
    rows = []
    previous = None
    for n in checkpoints:
        value = math.fsum(energy.terms[:n + 1])
        if previous is None or value == 0.0:
            rel = None
        else:
            rel = abs(value - previous) / abs(value)
        rows.append(TruncationRow(n, value, rel))
        previous = value
    return rows
