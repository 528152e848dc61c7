"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/traced_serve.py DUMP.json serve ARGS...``

The daemon runs exactly as ``python -m repro serve ARGS...`` does;
when it has drained and returned, the span totals of every thread are
written to ``DUMP.json``.  Only the traced daemon run uses this
launcher; the measured run starts ``python -m repro`` itself.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Patches, SpanRecorder  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    dump = Path(sys.argv[1])
    recorder = SpanRecorder()
    with Patches(recorder):
        code = repro_main(sys.argv[2:])
    dump.write_text(json.dumps(recorder.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main())
