"""Seeded end-to-end benchmark of the persheaf CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed under .perfbench_work/,
runs the CLI on them as fresh processes, one at a time (a closed loop
with one client), checks every output outside the timed region, and
prints one JSON object as the last line of stdout.  The line before it
holds the environment and the realised input sizes.

--trace 0 reports the end-to-end metrics: medians over the passes of a
run, where a pass runs every job of the workload once per instance.
--trace 1 follows each pass with the same pass traced
(perfbench/tracer.py) and reports the per-layer metrics, each as a
total per traced pass, plus cli.trace_overhead_ratio: traced over
untraced wall time.

See perfbench/README.md for the workloads and what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
CLI = "import sys; from persheaf.cli import main; sys.exit(main())"
SETUP_SPAWNS = 3  # before the timed passes, and again after each one
MIN_PASSES = 2
TOLERANCE = 0.01
# Median wall time of perfbench/calibrate.py on the reference host (2-core
# AMD EPYC VM, Python 3.11.7, numpy 2.4.6) at rest.  Every reported time is
# multiplied by host_factor = CALIBRATION_REF / this run's median, so it
# reads as seconds on that host at that speed: the host's own speed drifted
# by up to 1.6x within ten minutes, moving every job and start-up alike.
CALIBRATION_REF = 0.118

# Simplex counts per "dim,entry" that every generated cloud is pinned to
# (medians of unpinned uniform clouds of the same size).
WORKLOADS = {
    "backward-rips": {
        "why": "persist-t with CLI defaults (both engines, all degrees) on a 40-point "
        "VR constant sheaf over F_2: _quotient rank calls and the graded reduction.",
        "kind": "backward",
        "instances": 6,
        "points": 40,
        "thresholds": [0.1, 0.2, 0.3],
        "target": {"1,0": 22, "1,1": 60, "1,2": 84, "2,0": 4, "2,1": 65, "2,2": 231},
        "jobs": [("persist-t", [])],
    },
    "backward-rips-wide": {
        "why": "persist-t --engine direct --k 1 on 120 points (4,509 triangles): the "
        "dense kernel_basis memory wall, where no graded code runs.",
        "kind": "backward",
        "instances": 4,
        "points": 120,
        "thresholds": [0.1, 0.2, 0.25],
        "target": {"1,0": 203, "1,1": 537, "1,2": 364, "2,0": 140, "2,1": 1825, "2,2": 2544},
        "jobs": [("persist-t", ["--engine", "direct", "--k", "1"])],
    },
    "forward-diagram": {
        "why": "persist-a (both engines) then bipersist on nested subsheaf diagrams "
        "over p = 2^31-1: the only forward-pipeline workload.",
        "kind": "forward",
        "instances": 4,
        "points": 14,
        "thresholds": [0.25, 0.35, 0.45],
        "target": {"1,0": 14, "1,1": 11, "1,2": 12, "2,0": 4, "2,1": 12, "2,2": 24},
        "snapshots": 5,
        "top_rank": 4,
        "stalk_target": [126, 438, 535],
        "jobs": [("persist-a", []), ("bipersist", [])],
    },
    "labeled-cloud": {
        "why": "labeled (3 labels) and unicolored (2 labels) on 50-point CSV clouds: "
        "per-step, per-label-subset homology bases, no JSON, no graded code.",
        "kind": "labeled",
        "instances": 2,
        "points": 50,
        "thresholds": [0.1, 0.15, 0.2, 0.25, 0.3],
        "targets": {
            3: {"1,0": 35, "1,1": 41, "1,2": 53, "1,3": 63, "1,4": 71,
                "2,0": 9, "2,1": 36, "2,2": 91, "2,3": 179, "2,4": 296},
            2: {"1,0": 35, "1,1": 41, "1,2": 53, "1,3": 63, "1,4": 71},
        },
        "jobs": [
            ("labeled", ["--hom-n", "1", "--max-dim", "2"]),
            ("unicolored", []),
        ],
    },
}

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "job_s.first": "s", "job_s.last": "s",
}

PER_LAYER = {
    "formats.parse_s": "s", "formats.render_s": "s", "formats.input_bytes": "bytes",
    "complexes.build_s": "s", "complexes.validate_s": "s",
    "complexes.simplices_built": "count",
    "sheaves.validate_s": "s", "sheaves.validate.calls": "count",
    "sheaves.validate.repeat_ratio": "ratio", "sheaves.pullback_s": "s",
    "cohomology.assemble_s": "s", "cohomology.coboundary_cells": "cells",
    "cohomology.basis_s": "s", "cohomology.bases": "count",
    "cohomology.quotient_rank_calls": "count", "cohomology.quotient_yield": "ratio",
    "cohomology.induced_s": "s",
    "linalg.echelon_s": "s", "linalg.echelon.calls": "count",
    "linalg.echelon_cells": "cells", "linalg.max_matrix_cells": "cells",
    "linalg.solve_s": "s", "linalg.solve.calls": "count",
    "linalg.matmul_s": "s", "linalg.matmul.calls": "count", "linalg.matmul_cells": "cells",
    "graded.to_sheaf_s": "s", "graded.assemble_s": "s", "graded.reduce_s": "s",
    "graded.reduce_cells": "cells",
    "persistence.decompose_s": "s", "persistence.rank_calls": "count",
    "typet.direct_s": "s", "typet.graded_s": "s",
    "bipersistence.grid_s": "s", "bipersistence.commute_s": "s",
    "labeled.diagram_s": "s", "labeled.unicolored_s": "s",
    "cli.main_s": "s", "cli.trace_overhead_ratio": "ratio",
}
for _module in ("formats", "complexes", "sheaves", "cohomology", "linalg", "graded",
                "persistence", "typet", "bipersistence", "labeled", "cli"):
    PER_LAYER[f"{_module}.rss_rise_mb"] = "MB"


class Job:
    """One CLI call: which instance and subcommand, its argv and its check."""

    def __init__(self, instance, sub, argv, expect):
        self.instance = instance
        self.sub = sub
        self.argv = argv
        self.expect = expect


def spawn(argv, out_path, err_path, env):
    """Run argv to completion; (wall_s, cpu_s, maxrss_mb, returncode)."""
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


def read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


class Runner:
    """Runs jobs, checks them and keeps the counts for one benchmark run."""

    def __init__(self, workdir, env):
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.seen = {}

    def run(self, job, traced=False):
        out = os.path.join(self.workdir, "job.out")
        err = os.path.join(self.workdir, "job.err")
        spans = os.path.join(self.workdir, "spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans] + job.argv
        else:
            argv = [sys.executable, "-c", CLI] + job.argv
        wall, cpu, rss, code = spawn(argv, out, err, self.env)
        stdout = read(out)
        reason = check.check_job(code, stdout, read(err), job.expect)
        key = (job.instance, job.sub)
        if reason is None:
            first = self.seen.setdefault(key, stdout)
            if first != stdout:
                reason = "output differs from an earlier run of the same job"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{job.sub} (instance {job.instance}): {reason}")
        layer = None
        if traced and code == 0 and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                layer = json.load(fh)
            os.remove(spans)
        return {"sub": job.sub, "wall": wall, "cpu": cpu, "rss": rss, "layer": layer}


def _reference(workload, seed):
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def build_jobs(name, seed, workdir, reference):
    """Generate the inputs; return (jobs, sizes).

    reference maps "instance/subcommand" to the digest its stdout must
    have, for seeds that ship one; it may be empty.
    """
    spec = WORKLOADS[name]
    kind = spec["kind"]
    jobs, sizes = [], []
    oracle_inputs = []
    for inst in range(spec["instances"]):
        idir = os.path.join(workdir, f"i{inst}")
        os.makedirs(idir)
        inst_seed = seed * 1000 + inst
        if kind == "backward":
            sizes.append(gen.backward(idir, inst_seed, spec["points"], spec["thresholds"],
                                      spec["target"], TOLERANCE))
            oracle_inputs.append(os.path.join(idir, "complex.json"))
        elif kind == "forward":
            sizes.append(gen.forward(
                idir, inst_seed, spec["points"], spec["thresholds"], spec["target"],
                TOLERANCE, spec["snapshots"], spec["top_rank"], spec["stalk_target"]))
        else:
            sizes.append(gen.labeled(idir, inst_seed, spec["points"], spec["thresholds"],
                                     spec["targets"], TOLERANCE))
        expects = []
        for sub, extra in spec["jobs"]:
            argv = [sub] + _inputs(kind, sub, idir, spec) + extra
            expects.append(_expectation(kind, sub, inst, spec, reference))
            expects[-1].partner = expects[0]
            jobs.append(Job(inst, sub, argv, expects[-1]))
    if oracle_inputs:
        bars = _oracle(workdir, oracle_inputs)
        for job in jobs:
            job.expect.oracle = bars[job.instance]
        for size, inst_bars in zip(sizes, bars):
            size["bars"] = {k: len(v) for k, v in inst_bars.items()}
    return jobs, sizes


def _inputs(kind, sub, idir, spec):
    if kind == "backward":
        return [f"{idir}/complex.json", f"{idir}/sheaf.json"]
    if sub == "persist-a":
        return [f"{idir}/diagram.json"]
    if sub == "bipersist":
        return [f"{idir}/complex.json", f"{idir}/diagram.json"]
    labels = 3 if sub == "labeled" else 2
    return [f"{idir}/points{labels}.csv", "--thresholds",
            ",".join(str(t) for t in spec["thresholds"])]


def _oracle(workdir, paths):
    out = os.path.join(workdir, "oracle.json")
    argv = [sys.executable, os.path.join(HERE, "oracle.py"), out] + paths
    subprocess.run(argv, check=True, cwd=ROOT)
    with open(out, encoding="utf-8") as fh:
        return [{int(k): [tuple(b) for b in v] for k, v in inst.items()} for inst in json.load(fh)]


class _Expect:
    """Callable check of one job's stdout; holds what the check compares to."""

    def __init__(self, fn):
        self.fn = fn
        self.oracle = None
        self.bars = None
        self.partner = None

    def __call__(self, stdout):
        return self.fn(self, stdout)


def _expectation(kind, sub, inst, spec, reference):
    ref = reference.get(f"{inst}/{sub}")

    def against_reference(stdout):
        if ref is not None and check.digest(stdout) != ref:
            return "output differs from the reference for this seed"
        return None

    if kind == "backward":
        extra = dict(zip(spec["jobs"][0][1][::2], spec["jobs"][0][1][1::2]))
        degrees = [int(extra["--k"])] if "--k" in extra else [0, 1, 2]

        def fn(self, stdout):
            bars = check.parse_bars(stdout)
            return check.check_bars_shape(bars, degrees, len(spec["thresholds"])) or (
                check.bars_match(bars, self.oracle, degrees))

        return _Expect(fn)
    if kind == "forward":
        snapshots, steps = spec["snapshots"], len(spec["thresholds"])
        if sub == "persist-a":
            def fn(self, stdout):
                self.bars = bars = check.parse_bars(stdout)
                return check.check_bars_shape(bars, [0, 1, 2], snapshots) or (
                    against_reference(stdout))

            return _Expect(fn)

        def fn(self, stdout):
            grids = check.parse_grid(stdout)
            if sorted(grids) != [0, 1, 2]:
                return f"grid degrees {sorted(grids)}, expected [0, 1, 2]"
            for k, rows in grids.items():
                if len(rows) != steps or any(len(r) != snapshots for r in rows):
                    return f"grid at degree {k} is not {steps} x {snapshots}"
                if self.partner.bars is not None:
                    alive = check.alive_counts(self.partner.bars, k, snapshots)
                    if rows[0] != alive:
                        return f"top grid row at degree {k} disagrees with persist-a"
            return against_reference(stdout)

        return _Expect(fn)
    degrees = [0, 1, 2] if sub == "labeled" else [0, 1]

    def fn(self, stdout):
        bars = check.parse_bars(stdout)
        return check.check_bars_shape(bars, degrees, len(spec["thresholds"])) or (
            against_reference(stdout))

    return _Expect(fn)


def environment():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def measure_setup(runner, times, calibrations):
    """Append SETUP_SPAWNS start-up times and as many calibration times.

    A start-up is spawn, import persheaf.cli and exit; a calibration is
    perfbench/calibrate.py, which runs no persheaf code.
    """
    out = os.path.join(runner.workdir, "setup.out")
    calibrate = [sys.executable, os.path.join(HERE, "calibrate.py")]
    for _ in range(SETUP_SPAWNS):
        for argv, samples in (([sys.executable, "-c", "import persheaf.cli"], times),
                              (calibrate, calibrations)):
            wall, _, _, code = spawn(argv, out, out, runner.env)
            if code != 0:
                raise RuntimeError(f"{argv[1:]} failed: {read(out).strip()}")
            samples.append(wall)


def run_pass(runner, jobs, traced=False):
    return [runner.run(job, traced) for job in jobs]


def timed_passes(runner, jobs, seconds, setup_times, calibrations, traced_too=False):
    """Passes until the next one would overrun seconds (at least MIN_PASSES).

    Start-ups and calibrations are timed between passes, so they sample
    the whole run rather than one moment of it; they do not count as a pass.
    """
    measure_setup(runner, setup_times, calibrations)
    start = time.perf_counter()
    passes = []
    busy = 0.0
    while True:
        began = time.perf_counter()
        p = {"plain": run_pass(runner, jobs)}
        if traced_too:
            p["traced"] = run_pass(runner, jobs, traced=True)
        passes.append(p)
        busy += time.perf_counter() - began
        measure_setup(runner, setup_times, calibrations)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + busy / len(passes) > seconds:
            return passes


def end_to_end(name, passes, setup_s):
    """Medians over the passes of each pass's total (or, for memory, highest)."""
    subs = [sub for sub, _ in WORKLOADS[name]["jobs"]]

    def per_pass(fn):
        return statistics.median(fn(p["plain"]) for p in passes)

    return {
        "wall_s": per_pass(lambda rs: sum(r["wall"] for r in rs)),
        "cpu_s": per_pass(lambda rs: sum(r["cpu"] for r in rs)),
        "peak_rss_mb": per_pass(lambda rs: max(r["rss"] for r in rs)),
        "setup_s": setup_s,
        "job_s.first": per_pass(lambda rs: sum(r["wall"] for r in rs if r["sub"] == subs[0])),
        "job_s.last": per_pass(lambda rs: sum(r["wall"] for r in rs if r["sub"] == subs[-1])),
    }


def per_layer(passes):
    totals = {}
    count = 0
    for p in passes:
        for r in p["traced"]:
            for key, value in (r["layer"] or {}).items():
                if key == "linalg.max_matrix_cells":
                    totals[key] = max(totals.get(key, 0), value)
                else:
                    totals[key] = totals.get(key, 0) + value
        count += 1
    out = {}
    for key in PER_LAYER:
        value = totals.get(key, 0)
        out[key] = value if key == "linalg.max_matrix_cells" else value / count
    calls = totals.get("sheaves.validate.calls", 0)
    distinct = totals.get("sheaves.validate.distinct", 0)
    out["sheaves.validate.repeat_ratio"] = calls / distinct if distinct else 0
    kept = totals.get("cohomology.quotient_kept", 0)
    rank_calls = totals.get("cohomology.quotient_rank_calls", 0)
    out["cohomology.quotient_yield"] = kept / rank_calls if rank_calls else 0
    plain = sum(r["wall"] for p in passes for r in p["plain"])
    traced = sum(r["wall"] for p in passes for r in p["traced"])
    out["cli.trace_overhead_ratio"] = traced / plain
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    for needed in (os.path.join(src, "persheaf", "cli.py"),
                   os.path.join(ROOT, "tests", "oracles.py")):
        if not os.path.isfile(needed):
            sys.stderr.write(f"perfbench: {needed} is missing; run from a persheaf checkout\n")
            return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=src)
    runner = Runner(workdir, env)

    jobs, sizes = build_jobs(args.workload, args.seed, workdir,
                             _reference(args.workload, args.seed) or {})
    first_instance = [job for job in jobs if job.instance == 0]
    run_pass(runner, first_instance)  # warm-up, untimed
    setup_times, calibrations = [], []
    passes = timed_passes(runner, jobs, args.seconds, setup_times, calibrations,
                          traced_too=bool(args.trace))
    host_factor = CALIBRATION_REF / statistics.median(calibrations)
    setup_s = statistics.median(setup_times)
    metrics = per_layer(passes) if args.trace else end_to_end(args.workload, passes, setup_s)
    units = PER_LAYER if args.trace else END_TO_END
    for key in units:
        if units[key] == "s":
            metrics[key] *= host_factor
    for (inst, sub), stdout in sorted(runner.seen.items()):
        if "bars" not in sizes[inst] and sub != "bipersist":
            bars = check.parse_bars(stdout)
            sizes[inst][f"bars.{sub}"] = {k: len(v) for k, v in bars.items()}
            sizes[inst][f"finite_bars.{sub}"] = {
                k: sum(b is not None for _, b in v) for k, v in bars.items()}

    for reason in runner.reasons[:10]:
        sys.stderr.write(f"perfbench: failed job: {reason}\n")
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "why": WORKLOADS[args.workload]["why"],
        "passes": len(passes),
        "host_factor": host_factor,
        "sizes": sizes,
        "environment": environment(),
    }
    print(json.dumps(info))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
