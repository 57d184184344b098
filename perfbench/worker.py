"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --size full|smoke --seed N [--trace] [--spans FILE]
    python3 perfbench/worker.py --setup-only

The worker imports xfam, notes the monotonic time at which it is ready for
the first call (the parent subtracts its spawn time to get `setup_s`),
prepares the inputs, times the workload, and prints one JSON record on
stdout. The report text the xfam CLI would print is captured in memory and
only its digest and checked values leave the process.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time

import workloads  # imports xfam and numpy

READY = time.monotonic()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    if args.setup_only:
        import numpy

        record = {"ready": READY, "python": platform.python_version(), "numpy": numpy.__version__}
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workloads.prepare(args.workload, args.size, args.seed)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    outputs = workloads.run(args.workload, inputs)
    wall1, cpu1 = time.perf_counter(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary, digests, report_bytes = workloads.summarize(args.workload, outputs)
    record = {
        "ready": READY,
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "summary": summary,
        "digests": digests,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(report_bytes)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
