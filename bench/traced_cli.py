"""Run one ``clpa`` command with the layer tracer installed.

    python3 bench/traced_cli.py TOTALS.jsonl <clpa arguments...>

Used by traced runs of the cli workload in place of ``python -m clpa.cli``:
the command's stdout and exit code are unchanged, and one line of layer
totals is appended to TOTALS.jsonl when it ends.
"""

import json
import sys

import clpa.cli
from tracing import Tracer


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.op(argv[0], lambda: clpa.cli.main(argv))
    finally:
        tracer.uninstall()
        with open(totals_path, "a") as fh:
            fh.write(json.dumps(tracer.totals()) + "\n")


if __name__ == "__main__":
    sys.exit(main())
