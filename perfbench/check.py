"""Output checks for benchmark jobs.

A job fails on a non-zero exit, on anything written to stderr (a
traceback, or the note the forward pipeline prints when it falls back
from the graded engine), or on stdout that disagrees with what the
workload's check expects.  check_job returns None for a good job and a
one-line reason otherwise; it never raises on bad output.
"""

from __future__ import annotations

import hashlib
import re

_BAR = re.compile(r"^H\^(\d+): \[(\d+), (?:(\d+)\]|inf\))$")
_EMPTY = re.compile(r"^H\^(\d+): \(empty\)$")


def parse_bars(text):
    """{degree: sorted [(a, b or None)]} from the CLI's text barcode output."""
    bars = {}
    for line in text.splitlines():
        m = _EMPTY.match(line)
        if m:
            bars.setdefault(int(m.group(1)), [])
            continue
        m = _BAR.match(line)
        if not m:
            raise ValueError(f"unexpected line {line!r}")
        b = None if m.group(3) is None else int(m.group(3))
        bars.setdefault(int(m.group(1)), []).append((int(m.group(2)), b))
    return {k: sorted(v, key=_bar_key) for k, v in bars.items()}


def _bar_key(bar):
    return (bar[0], bar[1] is None, bar[1] or 0)


def parse_grid(text):
    """{degree: rows of dims} from bipersist's text output."""
    grids = {}
    rows = None
    for line in text.splitlines():
        if line.startswith("k="):
            rows = grids.setdefault(int(line[2:]), [])
        elif rows is None:
            raise ValueError(f"grid row before any degree: {line!r}")
        else:
            rows.append([int(v) for v in line.split()])
    return grids


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def bars_match(got, want, degrees):
    """Reason the barcodes differ in one of degrees, or None."""
    for k in degrees:
        g = got.get(k, [])
        w = sorted(want.get(k, []), key=_bar_key)
        if g != w:
            return f"H^{k} bars {g[:5]}... differ from the oracle's {w[:5]}..."
    return None


def alive_counts(bars, k, length):
    """Bars of degree k alive at each index 0..length-1."""
    return [
        sum(1 for a, b in bars.get(k, []) if a <= i and (b is None or i <= b))
        for i in range(length)
    ]


def check_bars_shape(bars, degrees, steps):
    """Every expected degree is present and every bar lies inside 0..steps-1."""
    if sorted(bars) != sorted(degrees):
        return f"degrees {sorted(bars)} reported, expected {sorted(degrees)}"
    for k, bs in bars.items():
        for a, b in bs:
            if not (0 <= a < steps and (b is None or a <= b < steps)):
                return f"H^{k} bar [{a}, {b}] is outside 0..{steps - 1}"
    return None


def check_job(returncode, stdout, stderr, expect):
    """None if the job passed; otherwise why it failed.

    expect is a callable taking stdout and returning a reason or None.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    if "Traceback" in stderr:
        return "traceback on stderr"
    if stderr.strip():
        return f"stderr: {stderr.strip().splitlines()[0]}"
    try:
        return expect(stdout)
    except ValueError as exc:
        return f"unparseable output: {exc}"
