"""Benchmark of the ssqw package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Workloads (see workloads.py for the op
and gate of each): census, spectrum, sweep, verify.  Each run starts fresh
processes with BLAS pinned to one thread and SSQW_THREADS unset: a few that
only import and build the inputs (set-up samples) and one that also runs
the ops.  The last line printed is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The line before it records the environment, the raw
per-op times and the host-speed readings.  Exit code 2 means the benchmark
could not run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)
from worker import REFERENCE_S  # noqa: E402
WORKLOAD_NAMES = ("census", "spectrum", "sweep", "verify")
SETUP_SAMPLES = 5  # fresh processes timed from spawn to ready; the median is setup_s
WORKER_TIMEOUT_S = 170


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _source_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(ROOT, "src", "ssqw")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("SSQW_THREADS", None)  # the sweep measures the default pool
    return env


class WorkerError(Exception):
    pass


def _run_worker(args, extra):
    """Run one worker to its end; return (seconds from spawn to ready at the
    reference speed, its stdout)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    spawned = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(),
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"worker ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    # the worker stamps its ready line with the same system-wide monotonic clock
    head = [line.split() for line in out.split("\n", 2)[:2]]
    if [words[:1] for words in head] != [["ready"], ["speed"]] or any(len(w) != 2 for w in head):
        raise WorkerError(f"worker did not report ready and speed: {head!r}")
    return (float(head[0][1]) - spawned) * REFERENCE_S / float(head[1][1]), out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ssqw benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the program's result guards are asserts; -O would silently drop them
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        return _fail("refusing to run with python -O or PYTHONOPTIMIZE set")
    if not os.path.isfile(os.path.join(ROOT, "src", "ssqw", "__init__.py")):
        return _fail(f"no ssqw sources under {os.path.join(ROOT, 'src')}; run from a checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(_run_worker(args, ["--setup-only"])[0])
        ready_s, out = _run_worker(args, [])
    except WorkerError as exc:
        return _fail(str(exc))
    setup.append(ready_s)
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": result["op_p50_s"], "unit": "s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "inconclusive": result["inconclusive"],
        "op_durations_s": result["durations"],
        "reference_s": result["references"],
        "setup_samples_s": setup,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "env": result["env"],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
