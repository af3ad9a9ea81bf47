"""conestab benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {invariants,sweep,approx,cli_cold}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  One client, single-threaded: each job
starts when the previous one has ended, and the loop stops at the first
job boundary after ``--seconds``.  Every job's output is checked; a job
that raises or fails a check counts as failed, and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; job costs are in reference units, which take the
shared host's changing speed out (see ``reference.py``).  With
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
are written to ``.perfbench/``.  See ``perfbench/README.md`` for the
workloads and the metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 3  # fresh-interpreter set-up samples before and again after the loop


def pin_environment():
    """One CPU, single-threaded BLAS, no budget override, the source tree
    importable.

    Applies to this process (before numpy is imported) and to every child.
    Jobs and the reference computation share one CPU, so a slowdown of that
    CPU reaches both.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("CONESTAB_BUDGET", None)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    paths = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def setup(workload, seed):
    """Import the library and generate the inputs; returns the inputs."""
    import workloads
    workloads.load_library()
    return workloads.make_inputs(workload, seed)


def setup_probe(workload, seed):
    """One set-up sample in a fresh interpreter, in CPU seconds."""
    from workloads import run_child
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    code, out, err, _ = run_child(argv, os.environ)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')}")
    return float(out.decode().split()[-1])


def cpu_seconds():
    """CPU time of this process and of its children that have ended."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Loop:
    """Closed-loop job runner with per-job timing, checks and failure counts."""

    def __init__(self, workload, seed, seconds, tracer):
        import workloads
        self.w = workloads
        self.workload = workload
        self.spec = workloads.WORKLOADS[workload]
        self.seconds = seconds
        self.tracer = tracer
        self.durations = []
        self.failed = 0
        self.problems = []
        self.child_rss_kib = 0
        self.covered_ns = 0
        self.job_ns = 0
        self.prefix_counts = None
        self.cli_import = []
        self.cli_main = []
        golden = workloads.load_golden(workload)
        self.golden = None
        if golden and seed == self.spec["default_seed"] and golden.get("seed") == seed:
            self.golden = golden["digests"]

    def run(self, inputs):
        import reference
        prefix = self.spec["prefix"]
        if self.tracer is not None:
            from tracer import cache_totals
            self.cache0 = cache_totals()
        sampler = reference.Sampler()
        spans = []
        sampler.start()
        try:
            start = time.perf_counter()
            deadline = start + self.seconds
            for index, item in enumerate(inputs):
                if time.perf_counter() >= deadline and (self.tracer is None or index >= prefix):
                    break
                busy = sampler.busy
                cpu = cpu_seconds()
                t0 = time.perf_counter()
                try:
                    problems = self.one(index, item)
                except Exception as exc:  # a failed job is counted, not fatal
                    problems = [f"raised {type(exc).__name__}: {exc}"]
                t1 = time.perf_counter()
                busy = sampler.busy - busy
                spans.append((t0, t1, cpu_seconds() - cpu - busy))
                self.durations.append(t1 - t0 - busy)
                if problems:
                    self.failed += 1
                    if len(self.problems) < 5:
                        self.problems.append(f"job {index}: {'; '.join(problems)}")
                if self.tracer is not None and index + 1 == prefix:
                    self.prefix_counts = self.snapshot()
            self.wall = time.perf_counter() - start - sampler.busy
        finally:
            sampler.stop()
        self.costs = [sampler.cost(*span) for span in spans]
        self.samples = sampler.refs

    def one(self, index, item):
        if self.workload == "cli_cold":
            return self.cli_job(index, item)
        tracer = self.tracer
        if tracer is not None:
            frame, t0 = tracer.open_job(index)
        try:
            outputs, problems = self.spec["job"](item)
        finally:
            if tracer is not None:
                job_ns, covered = tracer.close_job(frame, t0)
                self.job_ns += job_ns
                self.covered_ns += covered
        if self.golden is not None and index < len(self.golden):
            if self.w.digest(outputs) != self.golden[index]:
                problems.append("output digest differs from the golden record")
        return problems

    def cli_job(self, index, item):
        case = item["case"]
        if self.tracer is None:
            child = [sys.executable, "-m", "conestab.cli"]
        else:
            child = [sys.executable, os.path.join(HERE, "cli_child.py")]
        name, argv, expected = self.w.cli_argv(case, child)
        t0 = time.perf_counter_ns()
        code, out, err, rss = self.w.run_child(argv, os.environ)
        wall_ns = time.perf_counter_ns() - t0
        self.child_rss_kib = max(self.child_rss_kib, rss)
        problems = []
        if code != expected:
            problems.append(f"{name}: exit {code}, expected {expected}")
        if out != self.w.cli_golden_stdout(case):
            problems.append(f"{name}: stdout differs from the golden file")
        if self.tracer is not None:
            self.merge_child(index, err, wall_ns)
        return problems

    def merge_child(self, index, err, wall_ns):
        """Fold a traced child's counts and spans into this run's tracer.

        A process's top-level spans are its import and its ``main`` call;
        interpreter start-up is the uncovered rest of the job.
        """
        from cli_child import TRACE_MARK
        lines = err.decode().splitlines()
        if not lines or not lines[-1].startswith(TRACE_MARK):
            raise RuntimeError("traced CLI child printed no trace")
        report = json.loads(lines[-1][len(TRACE_MARK):])
        tracer = self.tracer
        for key, value in report["counts"].items():
            tracer.counts[key] += value
        for key, value in report["self_ns"].items():
            tracer.self_ns[key] += value
        tracer.lattice_ns += report["lattice_ns"]
        offset = tracer.next_id
        names = report["functions"]
        for sid, fid, start, end, parent, _ in report["spans"]:
            tracer.spans.append((sid + offset, tracer._function_id(names[fid]), start, end,
                                 None if parent is None else parent + offset, index))
        tracer.next_id += max((s[0] for s in report["spans"]), default=0) + 1
        self.job_ns += wall_ns
        self.covered_ns += report["import_ns"] + report["main_ns"]
        self.cli_import.append(report["import_ns"] / 1e9)
        self.cli_main.append(report["main_ns"] / 1e9)

    def snapshot(self):
        counts = dict(self.tracer.counts)
        if self.workload != "cli_cold":
            from tracer import cache_totals
            hits, misses = cache_totals()
            counts["cache_hits"] = hits - self.cache0[0]
            counts["cache_misses"] = misses - self.cache0[1]
        return counts


def untraced_jobs_per_ref(args):
    """jobs_per_ref of an untraced run of the same workload, seed and length."""
    from workloads import run_child
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    code, out, err, _ = run_child(argv, os.environ)
    if code != 0:
        raise RuntimeError(f"untraced run failed: {err.decode(errors='replace')}")
    result = json.loads(out.decode().splitlines()[-1])
    return result["metrics"]["jobs_per_ref"]["value"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("invariants", "sweep", "approx", "cli_cold"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "conestab", "__init__.py")):
        print(f"error: no conestab sources under {SRC}", file=sys.stderr)
        return 2
    pin_environment()

    t0 = time.process_time()
    import workloads
    if args.seed is None:
        args.seed = workloads.WORKLOADS[args.workload]["default_seed"]
    inputs = setup(args.workload, args.seed)
    own_setup = time.process_time() - t0
    if args.setup_probe:
        print(f"{own_setup!r}")
        return 0

    import numpy
    print(f"env python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={os.cpu_count()} seed={args.seed} commit={git_commit()} "
          f"workload={args.workload} seconds={args.seconds:g} trace={args.trace}")

    if args.trace:
        return traced(args, inputs)

    setups = [own_setup] + [setup_probe(args.workload, args.seed)
                            for _ in range(SETUP_PROBES)]
    loop = Loop(args.workload, args.seed, args.seconds, tracer=None)
    loop.run(inputs)
    setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    attempted = len(loop.durations)
    ok = attempted - loop.failed
    durations = sorted(loop.durations)
    costs = loop.costs  # per job, in reference units (see reference.py)
    if args.workload == "cli_cold":
        rss_kib = loop.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_ref": (ok / sum(costs), "1/ref"),
        "job_ref.p50": (statistics.median(costs), "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    print(f"jobs attempted={attempted} failed={loop.failed} "
          f"fail_ratio={loop.failed / attempted:.6g} loop_s={loop.wall:.3f} "
          f"golden={'on' if loop.golden or args.workload == 'cli_cold' else 'off'}")
    p90 = attempted >= 100
    print(f"job_s samples={attempted} p50={statistics.median(durations):.6g}"
          + (f" p90={percentile(durations, 0.9):.6g}" if p90 else
             " p90=n/a (fewer than 100 jobs)") + f" jobs_per_s={ok / loop.wall:.6g}")
    print(f"job_ref samples={attempted} p50={metrics['job_ref.p50'][0]:.6g}"
          + (f" p90={percentile(sorted(costs), 0.9):.6g}" if p90 else "")
          + f" reference_s median={statistics.median(loop.samples):.6g}"
          f" samples={len(loop.samples)}")
    print(f"setup_s samples={len(setups)} values="
          + ",".join(f"{x:.4f}" for x in setups))
    for problem in loop.problems:
        print(f"FAILED {problem}")
    emit(loop.failed, attempted, metrics)
    return 0


def traced(args, inputs):
    from tracer import Tracer, layer_metrics

    untraced_rate = untraced_jobs_per_ref(args)
    tracer = Tracer()
    if args.workload != "cli_cold":
        tracer.install()
    loop = Loop(args.workload, args.seed, args.seconds, tracer=tracer)
    loop.run(inputs)
    tracer.uninstall()

    attempted = len(loop.durations)
    ok = attempted - loop.failed
    metrics = layer_metrics(loop.prefix_counts, tracer.self_ns, attempted)
    points = tracer.counts["lattice_points"]
    metrics["lattice.points_per_s"] = (
        points / (tracer.lattice_ns / 1e9) if tracer.lattice_ns else 0.0, "1/s")
    metrics["cli.import_s"] = (
        statistics.median(loop.cli_import) if loop.cli_import else 0.0, "s")
    metrics["cli.main_s"] = (
        statistics.median(loop.cli_main) if loop.cli_main else 0.0, "s")
    traced_rate = ok / sum(loop.costs)
    metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    metrics["trace.span_coverage"] = (
        loop.covered_ns / loop.job_ns if loop.job_ns else 0.0, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    exact = {k: loop.prefix_counts[k] for k in sorted(loop.prefix_counts)}
    print(f"jobs attempted={attempted} failed={loop.failed} "
          f"prefix={loop.spec['prefix']} spans={len(tracer.spans)} -> {spans_path}")
    print(f"tracing overhead: untraced jobs_per_ref={untraced_rate:.6g} "
          f"traced jobs_per_ref={traced_rate:.6g}")
    print("exact counts over the prefix " + json.dumps(exact, sort_keys=True))
    for problem in loop.problems:
        print(f"FAILED {problem}")
    emit(loop.failed, attempted, metrics)
    return 0


def emit(failed, attempted, metrics):
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
