"""Outside-in tracing of the casimir package.

The tracer replaces public functions at the module attributes where the
package looks them up (``from .x import y`` binds ``y`` in the importing
module, so each importing module is its own lookup site) with wrappers that
record one span per call: name, start, end, parent span and, for array
calls, the number of nodes passed. Spans are grouped by pass; a pass is one
run of the workload, so its index is the run id the spans share. Spans stay in memory and are
written out once, when the run ends. Nothing under ``src/`` is changed;
``uninstall`` puts the original functions back.

Span names are ``<layer>.<function>``; the layer is the part before the
dot. Integrands passed to ``adaptive_integral`` are wrapped too and form
the pseudo-layer ``integrand``: one integrand call is one quadrature panel.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

import numpy as np

# (module[:class], attribute, span name, index of the array argument whose
# size is recorded, or None). Functions a module imports are wrapped in the
# importer.
SITES = (
    ("casimir.cli", "main", "cli.main", None),
    ("casimir.cli", "read_config", "config.read_config", None),
    ("casimir.cli", "build_layer", "config.build_layer", None),
    ("casimir.cli", "build_stack", "config.build_stack", None),
    ("casimir.config", "build_layer", "config.build_layer", None),
    ("casimir.cli", "tangential_force_reduced", "tangential.force_reduced", None),
    ("casimir.tangential", "tangential_force_general", "tangential.force_general", None),
    ("casimir.cli", "torque_energy_density", "torque.energy_density", None),
    ("casimir.cli", "overlap", "torque.overlap", None),
    ("casimir.cli", "area_derivative", "torque.area_derivative", None),
    ("casimir.cli", "edge_torque_ratio", "torque.edge_torque_ratio", None),
    ("casimir.cli", "truncation_report", "lifshitz.truncation_report", None),
    ("casimir.lifshitz", "normal_pressure", "lifshitz.normal_pressure", None),
    ("casimir.lifshitz", "energy_per_area_T0", "lifshitz.energy_per_area_T0", None),
    ("casimir.lifshitz", "energy_per_area_T", "lifshitz.energy_per_area_T", None),
    ("casimir.tangential", "energy_per_area_T", "lifshitz.energy_per_area_T", None),
    ("casimir.torque", "energy_per_area_T", "lifshitz.energy_per_area_T", None),
    ("casimir.lifshitz", "matsubara_energy", "lifshitz.matsubara_energy", None),
    ("casimir.tangential", "matsubara_energy", "lifshitz.matsubara_energy", None),
    ("casimir.torque", "matsubara_energy", "lifshitz.matsubara_energy", None),
    ("casimir.lifshitz", "k_integral", "lifshitz.k_integral", None),
    ("casimir.lifshitz", "ln_g_full", "stack.ln_g_full", 2),
    ("casimir.lifshitz", "g_full_thickness_derivative",
     "stack.g_full_thickness_derivative", 3),
    ("casimir.tangential", "ln_g_two_interface", "stack.ln_g_two_interface", 4),
    ("casimir.torque", "ln_g_slab_in_medium", "stack.ln_g_slab_in_medium", 4),
    ("casimir.materials", "kk_transform", "materials.kk_transform", None),
    ("casimir.materials:Tabulated", "eps_imag_axis", "materials.eps_imag_axis", None),
)

# adaptive_integral is wrapped separately because its integrand is wrapped too
QUADRATURE_SITES = ("casimir.quadrature", "casimir.materials")

SPAN_FIELDS = ("name", "start", "end", "parent", "size")


def _owner(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans around the package's lookup sites while installed."""

    def __init__(self):
        self.passes = []     # one span list per traced pass
        self._open = []      # indices of the spans currently running
        self._saved = []     # (owner, attribute, original)

    def begin_pass(self):
        """Start a new span list; parent indices are local to the pass."""
        if self._open:
            raise RuntimeError("a span is still open")
        self.passes.append([])

    def _wrap(self, name, fn, size_arg):
        open_ = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.passes[-1]
            size = 0 if size_arg is None else np.size(args[size_arg])
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, size]
            open_.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()
        return traced

    def _wrap_adaptive(self, fn):
        wrap = self._wrap

        def adaptive_integral(f, *args, **kwargs):
            return fn(wrap("integrand.panel", f, 0), *args, **kwargs)
        return self._wrap("quadrature.adaptive_integral",
                          functools.wraps(fn)(adaptive_integral), None)

    def _patch(self, owner, attribute, replacement):
        self._saved.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for path, attribute, name, size_arg in SITES:
            owner = _owner(path)
            self._patch(owner, attribute,
                        self._wrap(name, getattr(owner, attribute), size_arg))
        for path in QUADRATURE_SITES:
            owner = importlib.import_module(path)
            self._patch(owner, "adaptive_integral",
                        self._wrap_adaptive(owner.adaptive_integral))

    def uninstall(self):
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def write(self, path):
        """Write the spans of every pass as gzip-compressed JSON.

        The list index of a pass is its run id; ``parent`` indexes the
        span list of the same pass, -1 for a root span.
        """
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "passes": self.passes}, fh,
                      separators=(",", ":"))


def _layer(name):
    return name.split(".", 1)[0]


def layer_metrics(spans):
    """Per-layer counts and times from the spans of one pass.

    busy time is the summed duration of a layer's outermost spans (those
    with no ancestor in the same layer); self time is the summed duration
    of a layer's spans minus the time covered by their direct children.
    Ratios whose denominator is zero are reported as 0.
    """
    names = sorted({s[0] for s in spans})
    bit = {n: 1 << i for i, n in enumerate(names)}
    layer_bits = {}
    for n in names:
        layer_bits[_layer(n)] = layer_bits.get(_layer(n), 0) | bit[n]

    count = dict.fromkeys(names, 0)
    size = dict.fromkeys(names, 0)
    busy = {}
    self_time = {}
    children = {}
    masks = {}
    terms = kk_misses = 0
    for i, (name, start, end, parent, n) in enumerate(spans):
        dur = end - start
        layer = _layer(name)
        above = masks.get(parent, 0)
        masks[i] = above | bit[name]
        count[name] += 1
        size[name] += n
        if not above & layer_bits[layer]:
            busy[layer] = busy.get(layer, 0.0) + dur
        self_time[layer] = self_time.get(layer, 0.0) + dur
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + dur
        if name == "lifshitz.k_integral" and above & bit.get(
                "lifshitz.matsubara_energy", 0):
            terms += 1
        if name == "materials.kk_transform" and parent >= 0 \
                and spans[parent][0] == "materials.eps_imag_axis":
            kk_misses += 1
    for parent, dur in children.items():
        layer = _layer(spans[parent][0])
        self_time[layer] -= dur

    def c(name):
        return count.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    stack_names = [n for n in names if _layer(n) == "stack"]
    stack_calls = sum(count[n] for n in stack_names)
    stack_points = sum(size[n] for n in stack_names)
    kk_calls = c("materials.kk_transform")
    kk_busy = sum(e - s for name, s, e, *_ in spans
                  if name == "materials.kk_transform")
    eps_calls = c("materials.eps_imag_axis")
    integrals = c("quadrature.adaptive_integral")
    panels = c("integrand.panel")
    sums = c("lifshitz.matsubara_energy")
    t0_busy = sum(e - s for name, s, e, *_ in spans
                  if name == "lifshitz.energy_per_area_T0")
    return {
        "materials.kk_calls": (kk_calls, "count"),
        "materials.kk_busy_s": (kk_busy, "s"),
        "materials.kk_us_per_call": (ratio(kk_busy, kk_calls) * 1e6, "us"),
        "materials.eps_calls": (eps_calls, "count"),
        "materials.kk_hit_ratio": (ratio(eps_calls - kk_misses, eps_calls), "ratio"),
        "stack.calls": (stack_calls, "count"),
        "stack.points": (stack_points, "count"),
        "stack.busy_s": (busy.get("stack", 0.0), "s"),
        "stack.ns_per_point": (ratio(busy.get("stack", 0.0), stack_points) * 1e9, "ns"),
        "quadrature.integrals": (integrals, "count"),
        "quadrature.panels": (panels, "count"),
        "quadrature.points": (size.get("integrand.panel", 0), "count"),
        "quadrature.panels_per_integral": (ratio(panels, integrals), "count"),
        "quadrature.leaf_ratio": (ratio(panels + integrals, 2 * panels), "ratio"),
        "quadrature.self_s": (self_time.get("quadrature", 0.0), "s"),
        "lifshitz.sums": (sums, "count"),
        "lifshitz.terms": (terms, "count"),
        "lifshitz.terms_per_sum": (ratio(terms, sums), "count"),
        "lifshitz.self_s": (self_time.get("lifshitz", 0.0), "s"),
        "lifshitz.t0_busy_s": (t0_busy, "s"),
        "tangential.busy_s": (busy.get("tangential", 0.0), "s"),
        "torque.busy_s": (busy.get("torque", 0.0), "s"),
        "torque.overlap_calls": (c("torque.overlap"), "count"),
        "cli.self_s": (self_time.get("cli", 0.0), "s"),
        "config.busy_s": (busy.get("config", 0.0), "s"),
    }


COUNT_METRICS = ("materials.kk_calls", "materials.eps_calls",
                 "materials.kk_hit_ratio", "stack.calls", "stack.points",
                 "quadrature.integrals", "quadrature.panels",
                 "quadrature.points", "quadrature.panels_per_integral",
                 "quadrature.leaf_ratio", "lifshitz.sums", "lifshitz.terms",
                 "lifshitz.terms_per_sum", "torque.overlap_calls")
