"""One workload in a fresh process; started by ``run.py``, not by hand.

The process imports ``ssqw`` from the checkout's ``src``, builds the
workload's inputs from the seed, prints ``ready <time.monotonic()>`` and
``speed <HostSpeed reading>``, then either exits (``--setup-only``, a
set-up sample) or runs ops back to back, one client, until the next op
would overrun ``--seconds`` (always at least one op).
The last line it prints is a JSON object with the per-op results.

With ``--trace 1`` the ops run twice on the same inputs: first untraced for
half the time, then the same number of ops traced.  Per-layer numbers come
from the traced pass; ``trace_overhead_frac`` compares the two passes.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


# The host's speed is not steady: a fixed task on one vCPU of a shared
# 2-vCPU VM ran at speeds up to 1.7 times apart, in phases of seconds to
# minutes that followed the other tenants, not the program, and that no run
# length within the time limit averaged out (ten runs of the same code spread
# 0.05 to 0.25 of their median).  So while ops run, a background thread
# times a fixed LAPACK call that does not touch ssqw, and each op's time is
# scaled to the speed at which that call takes REFERENCE_S.  The thread
# clock counts only the call's own CPU time, not the time it waits for the
# op's thread on the shared CPU.
REFERENCE_S = 0.020  # about the call's median time on a 2-vCPU Xeon 2.1 GHz VM
SAMPLE_EVERY_S = 0.5  # the calls take about 4% of the CPU the ops run on


class HostSpeed:
    """Times ``eigvals`` of a fixed 128x128 complex matrix every
    SAMPLE_EVERY_S, on its own thread, from entry to exit."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        self.eigvals = np.linalg.eigvals
        self.readings = []  # (perf_counter at the call's middle, its thread CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed")

    def reading(self) -> float:
        c0 = time.thread_time()
        self.eigvals(self.matrix)
        return time.thread_time() - c0

    def _read(self):
        p0 = time.perf_counter()
        value = self.reading()
        self.readings.append((0.5 * (p0 + time.perf_counter()), value))

    def _sample(self):
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._read()

    def __enter__(self):
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._read()

    def scaled(self, times):
        """Each op's wall time at the reference speed: times REFERENCE_S over
        the mean reading taken during the op, or the nearest reading when
        none was."""
        out = []
        for t0, t1 in times:
            inside = [v for t, v in self.readings if t0 <= t <= t1]
            if not inside:
                inside = [min(self.readings, key=lambda r: abs(r[0] - 0.5 * (t0 + t1)))[1]]
            out.append((t1 - t0) * REFERENCE_S / statistics.mean(inside))
        return out


def run_ops(workload, budget_s=None, count=None):
    """Run ops 0, 1, ... and return ((start, end) per op, verdicts, bytes
    written per op).

    Stops after ``count`` ops, or once the time spent so far plus one more
    op at the median op time would exceed ``budget_s``.  An op that raises
    is a failed op; its traceback goes to stderr.
    """
    times, verdicts, outputs = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        try:
            out = workload.op(i)
            t1 = time.perf_counter()
            verdict = workload.check(i, out)
            outputs.append(workload.output_bytes(out))
        except Exception as exc:  # one failed op must not end the run
            t1 = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            verdict = f"raised {type(exc).__name__}: {exc}"
        times.append((t0, t1))
        verdicts.append(verdict)
        if verdict not in ("ok", "inconclusive"):
            print(f"op {i} failed: {verdict}", file=sys.stderr)
        i += 1
        if count is not None:
            if i >= count:
                break
        elif (time.perf_counter() - start
              + statistics.median(t1 - t0 for t0, t1 in times) > budget_s):
            break
    return times, verdicts, outputs


def _failed(verdicts) -> int:
    return sum(v not in ("ok", "inconclusive") for v in verdicts)


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(ssqw) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SSQW_THREADS": os.environ.get("SSQW_THREADS"),
        "ssqw": os.path.dirname(ssqw.__file__),
    }


def timed(workload, seconds: float) -> dict:
    with HostSpeed() as speed:
        times, verdicts, _ = run_ops(workload, budget_s=seconds)
    op_s = speed.scaled(times)
    passed = len(verdicts) - _failed(verdicts)
    return {
        "attempted": len(verdicts),
        "failed": _failed(verdicts),
        "inconclusive": verdicts.count("inconclusive"),
        "durations": [t1 - t0 for t0, t1 in times],
        "references": [v for _, v in speed.readings],
        "ops_per_s": passed / sum(op_s),
        "op_p50_s": statistics.median(op_s),
    }


def traced(ssqw, workload, seconds: float, spans_path: str) -> dict:
    from tracing import SPAN_NAMES, Tracer

    tracer = Tracer(ssqw)
    with HostSpeed() as speed:
        plain, plain_verdicts, _ = run_ops(workload, budget_s=seconds / 2)
        with tracer.installed():
            spanned, spanned_verdicts, outputs = run_ops(workload, count=len(plain))
    ops = len(spanned)
    overhead = sum(speed.scaled(spanned)) / sum(speed.scaled(plain)) - 1.0
    metrics = {"trace.ops": (ops, "count"), "trace_overhead_frac": (overhead, "frac")}
    totals = tracer.self_times()
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_s"] = (self_s / ops, "s/op")
    for name in ("lattice.build_q_epsilon", "lattice.build_evolution"):
        metrics[f"{name}.matrix_bytes"] = (tracer.matrix_bytes.get(name, 0), "bytes")
    blocks = max(tracer.blocks, 1)
    metrics["solver.kernel_count_svd.candidate_block_frac"] = (tracer.candidate_blocks / blocks, "frac")
    metrics["solver.kernel_count_svd.conclusive_frac"] = (tracer.conclusive_blocks / blocks, "frac")
    metrics["cli.output_bytes"] = (sum(outputs) / max(len(outputs), 1), "bytes/op")
    tracer.write_spans(spans_path)
    verdicts = plain_verdicts + spanned_verdicts
    return {
        "attempted": len(verdicts),
        "failed": _failed(verdicts),
        "inconclusive": verdicts.count("inconclusive"),
        "durations": [t1 - t0 for t0, t1 in plain + spanned],
        "references": [v for _, v in speed.readings],
        "per_layer": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # One core, like the one BLAS thread: the phase-diagram pool's two threads
    # then hand the GIL over on one CPU.  Across two vCPUs the same sweep took
    # 18 to 21 s against a steady 12.2 s pinned, and spread 0.24 over ten seeds.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, BENCH_DIR)
    import ssqw
    import ssqw.cli  # noqa: F401  (binds ssqw.cli, ssqw.lattice, ssqw.solver)
    from workloads import WORKLOADS

    if os.path.commonpath([os.path.abspath(ssqw.__file__), src]) != src:
        print(f"error: imported ssqw from {ssqw.__file__}, not from {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as workdir:
        workload = WORKLOADS[args.workload](ssqw, args.seed, workdir)
        print(f"ready {time.monotonic()!r}", flush=True)
        # the host's speed at set-up, to scale this process's set-up time
        host = HostSpeed()
        host.reading()  # the first call also pays for lazy LAPACK set-up
        print(f"speed {statistics.median(host.reading() for _ in range(3))!r}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            result = traced(ssqw, workload, args.seconds,
                            os.path.join(out_dir, f"{args.workload}.spans.jsonl"))
        else:
            result = timed(workload, args.seconds)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(ssqw)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
