"""One cold start: import clpa and load a workload's inputs with the
program's own loaders.

    python3 bench/setup_probe.py MANIFEST.json

MANIFEST.json lists (loader, path) pairs written by ``corpus.Corpus``.  The
benchmark times this whole process from outside as one set-up sample.
"""

import json
import sys

import clpa
from loaders import load


def main() -> int:
    with open(sys.argv[1]) as fh:
        manifest = json.load(fh)
    for loader, path in manifest:
        load(clpa, loader, path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
