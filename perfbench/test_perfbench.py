"""Self-checks of the benchmark's counters and span arithmetic.

    python3 -m pytest perfbench/test_perfbench.py

The outside-in panel count must reproduce the spot numbers recorded in
ROADMAP.md exactly, and two traced runs of one workload must give the same
counts.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from casimir import (Drude, DrudeLike, FiveLayerStack, FromModel, Layer,  # noqa: E402
                     MatsubaraConfig, Plasma, Vacuum, ev_to_radps)
from tracing import COUNT_METRICS, SITES, Tracer, layer_metrics  # noqa: E402

GOLD = Layer(Drude(ev_to_radps(9.0), ev_to_radps(0.035)))
VAC = Layer(Vacuum())


def _traced(call):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_pass()
        call()
    finally:
        tracer.uninstall()
    return layer_metrics(tracer.passes[0])


def _panels(call):
    return _traced(call)["quadrature.panels"][0]


def test_panels_gold_reduced_force():
    tangential = importlib.import_module("casimir.tangential")
    mats = MatsubaraConfig(300.0, n_max=500, zero_mode=DrudeLike())
    assert _panels(lambda: tangential.tangential_force_reduced(
        GOLD, VAC, 1e-7, mats)) == 1933


def test_panels_ideal_mirrors_10k():
    tangential = importlib.import_module("casimir.tangential")
    mats = MatsubaraConfig(10.0, n_max=3000, zero_mode=FromModel())
    assert _panels(lambda: tangential.tangential_force_reduced(
        Layer(Plasma(1e20)), VAC, 1e-7, mats)) == 33713


def test_panels_five_layer_gold_energy():
    lifshitz = importlib.import_module("casimir.lifshitz")
    stack = FiveLayerStack((GOLD, VAC, GOLD, VAC, GOLD), 2e-7, 2e-7, 2e-7)
    mats = MatsubaraConfig(300.0, n_max=200, zero_mode=DrudeLike())
    metrics = _traced(lambda: lifshitz.energy_per_area_T(stack, mats))
    assert metrics["quadrature.panels"][0] == 1053
    assert metrics["lifshitz.sums"][0] == 1
    assert metrics["stack.calls"][0] == 2 * metrics["quadrature.panels"][0]


def test_uninstall_restores_every_site():
    before = [getattr(importlib.import_module(path.split(":")[0]), attr, None)
              for path, attr, _, _ in SITES if ":" not in path]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = [getattr(importlib.import_module(path.split(":")[0]), attr, None)
             for path, attr, _, _ in SITES if ":" not in path]
    assert before == after


def test_busy_and_self_time_from_spans():
    # k_integral [0, 10] holds one panel [1, 4] holding ln G [2, 3]
    spans = [
        ["lifshitz.matsubara_energy", 0.0, 12.0, -1, 0],
        ["lifshitz.k_integral", 0.0, 10.0, 0, 0],
        ["quadrature.adaptive_integral", 0.5, 9.0, 1, 0],
        ["integrand.panel", 1.0, 4.0, 2, 22],
        ["stack.ln_g_full", 2.0, 3.0, 3, 22],
        ["stack.ln_g_full", 3.0, 3.5, 3, 22],
    ]
    m = layer_metrics(spans)
    assert m["lifshitz.terms"][0] == 1
    assert m["lifshitz.self_s"][0] == pytest.approx((12 - 10) + (10 - 8.5))
    assert m["quadrature.self_s"][0] == pytest.approx(8.5 - 3.0)
    assert m["quadrature.leaf_ratio"][0] == pytest.approx(1.0)
    assert m["stack.busy_s"][0] == pytest.approx(1.5)
    assert m["stack.points"][0] == 44


def _traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    return {k: result["metrics"][k]["value"] for k in COUNT_METRICS}


@pytest.mark.parametrize("workload", ["lateral-sweep", "kk-spectrum"])
def test_two_traced_runs_give_identical_counts(workload):
    assert _traced_run(workload) == _traced_run(workload)
