"""Record the seed-0 reference outputs checked by run.py.

    python3 perfbench/record_reference.py

Runs one pass of every workload with seed 0 and writes the labelled key
values to ``reference_seed0.json``. Rerun only when a change is meant to
alter results; the values in the repository come from the commit that
introduced the benchmark.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workdir = HERE.parent / ".perfbench-out" / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            workload = cls(0, workdir)
            outputs = {op: workload.read(op, workloads.run_op(fn))
                       for op, fn in workload.ops()}
            failures = workload.check(outputs)
            if failures:
                sys.exit(f"{name}: oracle failures, not recording: {failures}")
            reference[name] = {label: value for label, (_, value, _)
                               in workload.key_values(outputs).items()}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    path = HERE / "reference_seed0.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
