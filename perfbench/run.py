"""The repository's benchmark runner.

Usage (from the repository root)::

    python3 perfbench/run.py --workload repeat-expand --seed 1 \\
        --seconds 28 --trace 0

Runs one named workload on inputs made from ``--seed``, checks every
output against the reference path, and prints, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics
of a separate traced run.  The line before it is a JSON stamp: commit,
Python, CPU count, seed, workload sizes and mismatches, if any.

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("repeat-expand", "build-incremental", "daemon-closed-loop")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # daemon socket paths are relative to the checkout

    from common import Context, compile_bytecode, stamp

    workdir = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    ctx = Context(root=ROOT, workdir=workdir, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace))
    if args.workload == "repeat-expand":
        import repeat_expand as workload
    elif args.workload == "build-incremental":
        import build_incremental as workload
    else:
        import daemon_loop as workload
    try:
        compile_bytecode(ctx)
        outcome = workload.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    oracle = outcome.oracle
    record = stamp(ctx, args.workload)
    record.update(outcome.info)
    record["attempted"] = oracle.checked
    record["failed"] = oracle.failed
    record["failed_share"] = oracle.failed / max(1, oracle.checked)
    record["mismatches"] = oracle.mismatches
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": oracle.failed == 0,
        "attempted": oracle.checked,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
