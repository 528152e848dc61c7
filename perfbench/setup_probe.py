"""Fresh-interpreter set-up probe.

Usage: ``python perfbench/setup_probe.py [PROGRAM.c]``

Imports ``repro.api``, builds a processor with the benchmark's
packages loaded and prints ``ready`` as soon as it could start the
first unit of work; the parent times spawn-to-``ready``.  With a
program argument it then expands that program and prints ``done``;
the parent times spawn-to-``done``, a cold start to the first result.
Last comes one JSON line: the import time and the output.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def main() -> int:
    start = perf_counter()
    import repro.api  # noqa: F401

    import_s = perf_counter() - start
    from gen import PACKAGES
    from repro.engine import MacroProcessor
    from repro.options import Ms2Options
    from repro.packages import register_named

    program = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    mp = MacroProcessor(options=Ms2Options())
    for name in PACKAGES:
        register_named(mp, name)
    print("ready", flush=True)
    result = {"import_s": import_s}
    if program is not None:
        result["output"] = mp.expand(program.read_text(), program.name).output
        print("done", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
