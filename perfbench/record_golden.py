"""Record the golden outputs the benchmark compares against.

    python3 perfbench/record_golden.py [--workload W ...]

For each in-process workload, runs the first ``GOLDEN_JOBS[W]`` jobs of its
default seed and stores one digest of each job's exact outputs in
``perfbench/golden/<W>.json``.  For ``cli_cold`` it stores each case's
standard output in ``perfbench/golden/cli/<case>.out`` after checking the
exit code.  Re-record only when a change is meant to alter outputs.
"""

import argparse
import json
import os
import sys

import run

GOLDEN_JOBS = {"invariants": 60, "sweep": 12, "approx": 40}


def record_jobs(workload):
    import workloads
    spec = workloads.WORKLOADS[workload]
    seed = spec["default_seed"]
    inputs = workloads.make_inputs(workload, seed)[:GOLDEN_JOBS[workload]]
    digests = []
    for index, item in enumerate(inputs):
        outputs, problems = spec["job"](item)
        if problems:
            raise SystemExit(f"{workload} job {index} fails its checks: {problems}")
        digests.append(workloads.digest(outputs))
    with open(workloads.golden_path(workload), "w") as fh:
        json.dump({"seed": seed, "digests": digests}, fh, indent=1)
        fh.write("\n")
    print(f"{workload}: {len(digests)} digests")


def record_cli():
    import workloads
    for case, (name, _, _) in enumerate(workloads.CLI_CASES):
        _, argv, expected = workloads.cli_argv(case, [sys.executable, "-m", "conestab.cli"])
        code, out, err, _ = workloads.run_child(argv, os.environ)
        if code != expected:
            raise SystemExit(f"{name}: exit {code}, expected {expected}: {err.decode()}")
        with open(os.path.join(workloads.GOLDEN_DIR, "cli", name + ".out"), "wb") as fh:
            fh.write(out)
    print(f"cli_cold: {len(workloads.CLI_CASES)} stdout files")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=sorted(GOLDEN_JOBS) + ["cli_cold"])
    args = parser.parse_args()
    run.pin_environment()
    import workloads
    workloads.load_library()
    for workload in args.workload or sorted(GOLDEN_JOBS) + ["cli_cold"]:
        if workload == "cli_cold":
            record_cli()
        else:
            record_jobs(workload)


if __name__ == "__main__":
    main()
