"""Tests of the benchmark's own output checks.

Run from the repository root:  python3 -m pytest -q perfbench/test_check.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402
import run  # noqa: E402

ORACLE = {0: [(0, None), (0, 1)], 1: [(1, 1)], 2: []}
GOOD = "H^0: [0, 1]\nH^0: [0, inf)\nH^1: [1, 1]\nH^2: (empty)\n"


def _backward_expect():
    spec = run.WORKLOADS["backward-rips"]
    expect = run._expectation("backward", "persist-t", 0, spec, {})
    expect.oracle = ORACLE
    return expect


def test_good_output_passes():
    assert check.check_job(0, GOOD, "", _backward_expect()) is None


def test_one_altered_bar_fails():
    altered = GOOD.replace("H^1: [1, 1]", "H^1: [1, 2]")
    assert check.check_job(0, altered, "", _backward_expect()) is not None


def test_missing_bar_fails():
    missing = GOOD.replace("H^0: [0, 1]\n", "")
    assert check.check_job(0, missing, "", _backward_expect()) is not None


def test_nonzero_exit_fails():
    assert check.check_job(3, GOOD, "", _backward_expect()) == "exit code 3"


def test_traceback_on_stderr_fails():
    err = 'Traceback (most recent call last):\n  File "x", line 1\nKeyError: 1\n'
    assert check.check_job(0, GOOD, err, _backward_expect()) == "traceback on stderr"


def test_fallback_note_fails():
    note = "note: diagram not free at 0, step 1; falling back to the pointwise engine\n"
    assert check.check_job(0, GOOD, note, _backward_expect()) is not None


def test_unparseable_output_fails():
    assert check.check_job(0, "nonsense\n", "", _backward_expect()).startswith("unparseable")


def test_reference_digest_mismatch_fails():
    spec = run.WORKLOADS["labeled-cloud"]
    text = "H^0: [0, inf)\nH^1: (empty)\n"
    ok = run._expectation("labeled", "unicolored", 0, spec, {"0/unicolored": check.digest(text)})
    bad = run._expectation("labeled", "unicolored", 0, spec, {"0/unicolored": check.digest("x")})
    assert check.check_job(0, text, "", ok) is None
    assert check.check_job(0, text, "", bad) is not None


def test_grid_must_match_persist_a():
    spec = run.WORKLOADS["forward-diagram"]
    persist_a = run._expectation("forward", "persist-a", 0, spec, {})
    bipersist = run._expectation("forward", "bipersist", 0, spec, {})
    bipersist.partner = persist_a
    bars = "H^0: [0, inf)\nH^1: [1, 3]\nH^2: (empty)\n"
    assert check.check_job(0, bars, "", persist_a) is None
    rows = "\n".join(["1 1 1 1 1"] + ["0 0 0 0 0"] * 2)
    grid = "k=0\n" + rows + "\nk=1\n0 1 1 1 0\n0 0 0 0 0\n0 0 0 0 0\nk=2\n" + "\n".join(
        ["0 0 0 0 0"] * 3) + "\n"
    assert check.check_job(0, grid, "", bipersist) is None
    wrong = grid.replace("k=1\n0 1 1 1 0", "k=1\n0 1 1 0 0")
    assert check.check_job(0, wrong, "", bipersist) is not None


def test_runner_counts_a_failing_job(tmp_path):
    """A real CLI call that exits non-zero is counted as attempted and failed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    runner = run.Runner(str(tmp_path), env)
    missing = str(tmp_path / "missing.json")
    job = run.Job(0, "persist-t", ["persist-t", missing, missing], _backward_expect())
    runner.run(job)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit code 2" in runner.reasons[0]
