"""Record reference output digests for the shipped seeds.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0-19 [--workload NAME ...]

For each workload without a package-independent oracle (forward-diagram
and labeled-cloud by default), runs every job of each seed once and
stores the sha256 of its stdout in perfbench/reference.json.  A job
that fails its other checks is not recorded and the script exits 1.
Re-run only when the generator or a workload's sizes change; an output
change in the program is what the references exist to catch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a seed or a range such as 0-19")
    parser.add_argument("--workload", action="append",
                        default=None, choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    status = 0
    for name in args.workload or ["forward-diagram", "labeled-cloud"]:
        for seed in _seeds(args.seeds):
            workdir = os.path.join(run.WORK, f"reference-{name}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            runner = run.Runner(workdir, env)
            jobs, _ = run.build_jobs(name, seed, workdir, {})
            run.run_pass(runner, jobs)
            if runner.failed:
                sys.stderr.write(f"{name} seed {seed}: {runner.reasons}\n")
                status = 1
            else:
                reference.setdefault(name, {})[str(seed)] = {
                    f"{inst}/{sub}": run.check.digest(out)
                    for (inst, sub), out in sorted(runner.seen.items())
                }
            shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
