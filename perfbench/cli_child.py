"""Traced CLI process: ``python3 perfbench/cli_child.py <verb> <document> ...``.

Runs ``conestab.cli.main`` exactly as ``python -m conestab.cli`` would,
after timing ``import conestab.cli`` and wrapping the library's public
functions.  Standard output and the exit code are the CLI's own; the
trace goes to the last line of standard error, prefixed with ``TRACE_MARK``.
"""

import json
import os
import sys
import time

TRACE_MARK = "PERFBENCH_TRACE "


def main():
    start = time.perf_counter_ns()
    import conestab.cli
    imported = time.perf_counter_ns()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer, cache_totals

    tracer = Tracer()
    tracer.install()
    hits0, misses0 = cache_totals()
    frame, job_start = tracer.open_job(0)
    try:
        code = conestab.cli.main(sys.argv[1:])
    finally:
        main_ns, covered = tracer.close_job(frame, job_start)
        hits, misses = cache_totals()
        tracer.counts["cache_hits"] += hits - hits0
        tracer.counts["cache_misses"] += misses - misses0
        tracer.counts["cli.calls"] += 1
        tracer.self_ns["cli"] += main_ns - covered
        report = {
            "import_ns": imported - start,
            "main_ns": main_ns,
            "counts": tracer.counts,
            "self_ns": tracer.self_ns,
            "lattice_ns": tracer.lattice_ns,
            "functions": tracer.functions,
            "spans": tracer.spans,
        }
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
