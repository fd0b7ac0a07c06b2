"""Filtration barcodes of generated complexes from tests/oracles.py.

Usage: python3 perfbench/oracle.py OUT.json COMPLEX.json [COMPLEX.json ...]

Runs in a process of its own, once per run, so the reference reduction
(dense columns, package-independent) neither shares memory with the
timed jobs nor imports persheaf.  A constant rank-1 sheaf reproduces
these bars in every degree.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "tests"))

from oracles import persistence_bars  # noqa: E402


def main(argv):
    out, paths = argv[0], argv[1:]
    result = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        simplices = [(tuple(s["vertices"]), s["entry"]) for s in data["simplices"]]
        bars = persistence_bars(simplices, data["field"])
        result.append({str(k): v for k, v in bars.items()})
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
