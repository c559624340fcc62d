"""Benchmark of the casimir package, driven the way its users drive it.

    python3 perfbench/run.py --workload lateral-sweep|kk-spectrum|layered-stack|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``. One process, one thread, closed loop: each operation starts when
the previous one returns. A pass is one run of every operation of the
workload; passes repeat for about ``--seconds`` seconds (at least three).

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics wall_s, cpu_s (medians per pass), setup_s (median of
five fresh-interpreter set-ups) and peak_rss_mb. With ``--trace 1`` half
of the time runs untraced, then three passes run traced, and the JSON
carries the per-layer metrics of ``tracing.py`` plus trace.overhead_s; the
spans are written to ``.perfbench-out/``. Outputs of every pass are
checked: the first pass against the workload's oracles (and, for seed 0,
against ``reference_seed0.json``), every later pass for identity with the
first.
"""

import time

_INTERPRETER_READY = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("lateral-sweep", "kk-spectrum", "layered-stack")
SETUP_SAMPLES = 5
MIN_PASSES = 3
TRACED_PASSES = 3   # spans of a pass can number 1e5; keep memory bounded


def _cpu():
    """User plus system CPU seconds of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _setup(name, seed):
    """Import the package and write the workload's input files."""
    if not (ROOT / "src" / "casimir" / "__init__.py").is_file():
        sys.exit(f"error: no casimir package under {ROOT / 'src'}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports casimir, numpy and scipy

    workdir = OUT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[name](seed, workdir), workdir


class Passes:
    """Pass timings plus the first pass's outputs.

    Later outputs are compared with the first as they arrive and only the
    mismatches are counted, so memory does not grow with the pass count.
    """

    def __init__(self, first=None):
        self.walls, self.cpus = [], []
        self.first = first
        self.differ = {}     # operation -> passes whose output differed


def _run_passes(workload, seconds, min_passes, tracer=None, first=None):
    """Closed-loop passes for about ``seconds``.

    A pass is not started when the median pass would overrun ``seconds``,
    unless fewer than ``min_passes`` have run. ``first`` is the reference
    output to compare with; by default it is this call's first pass.
    """
    from workloads import run_op

    ops = workload.ops()
    passes = Passes(first)
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.begin_pass()
        results = []
        c0, t0 = _cpu(), time.perf_counter()
        for _, fn in ops:
            results.append(run_op(fn))
        t1, c1 = time.perf_counter(), _cpu()
        passes.walls.append(t1 - t0)
        passes.cpus.append(c1 - c0)
        outputs = {op: workload.read(op, r) for (op, _), r in zip(ops, results)}
        if passes.first is None:
            passes.first = outputs
        else:
            for op, out in outputs.items():
                if out != passes.first[op]:
                    passes.differ[op] = passes.differ.get(op, 0) + 1
        if (len(passes.walls) >= min_passes
                and time.perf_counter() - start
                + statistics.median(passes.walls) > seconds):
            return passes


def _verify(workload, seed, first, runs):
    """(attempted, failed) over ``runs``, a list of Passes compared with
    ``first``: oracles judge the first outputs, later ones must equal them.
    """
    try:
        failures = workload.check(first)
        if seed == 0:
            reference = json.loads((HERE / "reference_seed0.json").read_text())
            expected = reference[workload.name]
            values = workload.key_values(first)
            if set(values) != set(expected):
                for op in first:
                    failures.setdefault(op, []).append(
                        "reference labels differ from the outputs")
            for label, (op, value, tol) in values.items():
                want = expected.get(label)
                if want is None or not abs(value - want) <= tol * abs(want):
                    failures.setdefault(op, []).append(
                        f"{label} = {value!r}, reference {want!r}")
    except Exception as err:  # an oracle that cannot run fails every output
        failures = {op: [f"oracle error: {err!r}"] for op in first}
    for op, messages in failures.items():
        for message in messages[:5]:
            print(f"oracle failure: {workload.name} {op}: {message}",
                  file=sys.stderr)
    attempted = failed = 0
    for passes in runs:
        n = len(passes.walls)
        attempted += n * len(first)
        for op in first:
            failed += n if op in failures else passes.differ.get(op, 0)
    return attempted, failed


def _setup_probe(name, seed):
    """Set-up time of one fresh interpreter, in seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _report(name, seed, passes, attempted, failed, metrics):
    walls = passes.walls
    print(f"{name} seed {seed}: {len(walls)} passes, wall per pass "
          f"min {min(walls):.4f} s, max {max(walls):.4f} s")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} outputs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def _run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    workload, workdir = _setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _INTERPRETER_READY
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        if args.trace:
            passes, attempted, failed, metrics = _traced(workload, args)
        else:
            passes, attempted, failed, metrics = _untraced(workload, args,
                                                           setup_s)
        _report(workload.name, args.seed, passes, attempted, failed, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, args, setup_s):
    passes = _run_passes(workload, args.seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = _verify(workload, args.seed, passes.first, [passes])
    setups = [setup_s] + [_setup_probe(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    metrics = {
        "wall_s": _metric(statistics.median(passes.walls), "s"),
        "cpu_s": _metric(statistics.median(passes.cpus), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return passes, attempted, failed, metrics


def _traced(workload, args):
    from tracing import COUNT_METRICS, Tracer, layer_metrics

    plain = _run_passes(workload, args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _run_passes(workload, 0.0, TRACED_PASSES, tracer, plain.first)
    finally:
        tracer.uninstall()
    attempted, failed = _verify(workload, args.seed, plain.first,
                                [plain, traced])
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json.gz")
    per_pass = [layer_metrics(spans) for spans in tracer.passes]
    counts = [{k: m[k] for k in COUNT_METRICS} for m in per_pass]
    attempted += 1
    if any(c != counts[0] for c in counts):
        print("trace failure: counts differ between traced passes",
              file=sys.stderr)
        failed += 1
    metrics = {key: _metric(statistics.median(m[key][0] for m in per_pass), unit)
               for key, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_s"] = _metric(
        statistics.median(traced.walls) - statistics.median(plain.walls), "s")
    return traced, attempted, failed, metrics


if __name__ == "__main__":
    sys.exit(main())
