"""Benchmark command: times one workload end to end, or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass runs in a fresh single-threaded worker process (``worker.py``),
one at a time, so the load comes from one process. A run first makes a few
set-up-only workers, then at least two full passes, and starts another
pass only while it is expected to end within ``--seconds``. Every metric is
the median over the run's passes (set-up: over every worker). CLI reports
go to a temporary directory inside the checkout, removed at exit.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` the workers wrap spencerlab's functions in
spans (``spans.py``) and the last line holds the per-layer metrics. Lines
before it name every metric with its unit, plus ``ops_failed_ratio`` with
its base.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_WORKERS = 3
MIN_PASSES = 2
# Every run must end within 180 s; no worker starts unless it should end by this.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], timeout: float) -> dict | None:
    """Run one worker; its parsed result, or None if it failed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"worker timed out after {timeout:.0f} s: {' '.join(args)}\n")
        return None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        sys.stderr.write(f"worker exited with status {proc.returncode}:\n{err}")
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(f"worker printed no result:\n{out}{err}")
        return None


def run(workload: str, seed: int, seconds: float, trace: int, tmp: str) -> dict:
    """Set-up samples and pass results of one run."""
    start = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed), "--tmp", tmp, "--trace", str(trace)]
    setups: list[float] = []
    passes: list[dict | None] = []
    durations: list[float] = []
    for _ in range(SETUP_ONLY_WORKERS):
        result = spawn(base + ["--setup-only"], DEADLINE_S - (time.monotonic() - start))
        if result is not None:
            setups.append(result["setup_s"])
    expect_sha = None
    while True:
        elapsed = time.monotonic() - start
        expected = statistics.median(durations) if durations else 0.0
        if elapsed + expected > DEADLINE_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + expected > seconds:
            break
        extra = ["--run-id", f"{workload}-{seed}-{len(passes)}"]
        if expect_sha:
            extra += ["--expect-body-sha", expect_sha]
        began = time.monotonic()
        result = spawn(base + extra, DEADLINE_S - (began - start))
        durations.append(time.monotonic() - began)
        passes.append(result)
        if result is not None:
            setups.append(result["setup_s"])
            expect_sha = expect_sha or result["body_sha"]
    return {"setups": setups, "passes": passes}


def summarize(outcome: dict, trace: int) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines printed before it."""
    done = [p for p in outcome["passes"] if p is not None]
    attempted = failed = 0
    for p in outcome["passes"]:
        if p is None:  # a crashed worker counts as one failed operation
            attempted += 1
            failed += 1
            continue
        attempted += len(p["ops"])
        failed += sum(not op["ok"] for op in p["ops"])
        for op in p["ops"]:
            if not op["ok"]:
                sys.stderr.write(f"failed: {json.dumps(op)}\n")
    lines = [
        f"{len(outcome['passes'])} passes, {len(outcome['setups'])} set-ups",
        "set-up seconds: " + " ".join(f"{s:.3f}" for s in outcome["setups"]),
        "pass seconds: " + " ".join(f"{p['solve_s']:.3f}" for p in done),
    ]
    metrics: dict[str, dict] = {}
    if not trace and done and outcome["setups"]:
        values = {
            "setup_s": statistics.median(outcome["setups"]),
            "solve_s": statistics.median(p["solve_s"] for p in done),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in done),
        }
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
            lines.append(f"{name} = {value:.4f} {END_TO_END_UNITS[name]}")
    if trace and done:
        per_pass = []
        absent = done[0]["absent"]
        for p in done:
            with open(p["spans_file"], encoding="utf-8") as fh:
                dump = json.load(fh)
            per_pass.append(spans.layer_metrics(
                dump["spans"], dump["counters"], absent, p["solve_start"], p["solve_end"]))
        for name in spans.layer_metric_names():
            if name in absent or name not in per_pass[0]:
                lines.append(f"{name} = absent (its function no longer exists)")
                continue
            value = statistics.median(m[name] for m in per_pass)
            unit = spans.metric_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{name} = {value:.6g} {unit}")
    ratio = failed / attempted if attempted else 1.0
    lines.append(f"ops_failed_ratio = {ratio:.4f} ({failed} failed of {attempted} operations)")
    correct = failed == 0 and bool(done) and bool(metrics)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}, lines


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into SystemExit, so the running worker is
    # killed and waited for and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    needed = [os.path.join(ROOT, "src", "spencerlab", "__init__.py"),
              os.path.join(ROOT, "tests", "golden", "e7_sym2_kernel.json")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        sys.stderr.write(f"not a spencerlab checkout, missing: {', '.join(missing)}\n")
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        outcome = run(args.workload, args.seed, args.seconds, args.trace, tmp)
        result, lines = summarize(outcome, args.trace)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    for line in lines:
        print(f"{args.workload} seed {args.seed}: {line}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
