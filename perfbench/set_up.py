"""Runs the benchmark's set-ups in a process of their own.

    python3 perfbench/set_up.py < plan.json

The plan on stdin is a JSON list of set-ups, each a list of ``pseudocal``
CLI argv lists (``generate``, then ``train``), run in-process through
``pseudocal.cli.main``. The last stdout line is ``{"seconds": [...],
"peak_rss_mb": ...}``: the wall time of each set-up and this process's
peak resident memory. ``run.py`` starts it so that the set-up's memory
stays out of the peak that the timed invocations report.
"""

import json
import sys
import time

import run


def main():
    plan = json.load(sys.stdin)
    run.limit_blas_threads()
    run.import_program()
    seconds = []
    for argvs in plan:
        t0 = time.perf_counter()
        for argv in argvs:
            _, error = run.call_cli(argv)
            if error:
                sys.exit(f"set-up {argv[0]} failed: {error}")
        seconds.append(time.perf_counter() - t0)
    print(json.dumps({"seconds": seconds, "peak_rss_mb": run.peak_rss_mb()}))


if __name__ == "__main__":
    main()
