"""A fixed job with no persheaf code, timed beside the benchmark's jobs.

Usage: python3 perfbench/calibrate.py

It does what a small CLI job does, in about the same proportions: start
an interpreter, import numpy, build dictionaries and lists in pure
Python, and run a column elimination mod 5 like Field._column_echelon.
Its wall time tracks how fast the host runs such jobs at the moment.
"""

import numpy


def main():
    table = {}
    for i in range(150000):
        table[(i % 997, i % 13)] = table.get((i % 997, i % 13), 0) + i
    m = numpy.random.default_rng(0).integers(0, 5, size=(200, 120)).astype(numpy.int64)
    owner = {}
    for j in range(m.shape[1]):
        while True:
            nz = numpy.nonzero(m[:, j])[0]
            if nz.size == 0:
                break
            low = int(nz[-1])
            other = owner.get(low)
            if other is None:
                owner[low] = j
                break
            coef = (int(m[low, j]) * pow(int(m[low, other]), 3, 5)) % 5
            m[:, j] = (m[:, j] - coef * m[:, other]) % 5
    return 0 if len(owner) == m.shape[1] and len(table) > 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
