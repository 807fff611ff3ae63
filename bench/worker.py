"""One pass of one workload, in a fresh process started by ``run.py``.

Prints one JSON line: set-up and solve times, peak RSS, the outcome of every
operation and, in a traced pass, where the spans were written. Set-up runs
from process start (taken by the parent just before it spawned this
process) until every module is imported and every algebra the workload
needs is built with its Jacobi check, with the algebra cache cold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_package():
    """Import spencerlab from this checkout's ``src``, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import spencerlab

    where = os.path.dirname(os.path.abspath(spencerlab.__file__))
    if where != os.path.join(src, "spencerlab"):
        raise SystemExit(f"spencerlab was imported from {where}, not from {src}")
    return spencerlab


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--expect-body-sha", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    spencerlab = import_package()
    import spans
    from workloads import WORKLOADS, KernelTap, Pass

    modules = spans.load_modules(spencerlab)
    recorder = spans.SpanRecorder(args.run_id)
    absent = spans.install(recorder, spencerlab) if args.trace else []
    tap = KernelTap(modules)
    labels, run_pass = WORKLOADS[args.workload]
    for label in labels:
        if not spencerlab.chevalley.algebra(label).jacobi_checked:
            raise SystemExit(f"{label} was built without its Jacobi check")
    setup_s = time.monotonic() - args.spawned_at

    result = {"setup_s": setup_s}
    if not args.setup_only:
        work = Pass(ROOT, args.tmp, args.seed, args.expect_body_sha, tap)
        solve_start = time.perf_counter()
        run_pass(work)
        solve_end = time.perf_counter()
        result.update({
            "solve_s": solve_end - solve_start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops": work.ops.records,
            "body_sha": work.body_sha,
        })
        if args.trace:
            path = os.path.join(args.tmp, f"spans-{args.run_id}.json")
            recorder.dump(path)
            result.update({
                "spans_file": path, "absent": absent,
                "solve_start": solve_start, "solve_end": solve_end,
            })
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
