"""Timing, percentiles and run metadata shared by the benchmark runs."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np


def latency_summary(latencies) -> dict:
    """Closed-loop throughput (requests over the time spent inside them) and
    latency percentiles of per-request times in seconds."""
    p50, p90, p99 = np.percentile(latencies, [50, 90, 99])
    return {
        "throughput_ops_s": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "latency_p99_ms": p99 * 1e3,
    }


def wall(cmd, **kwargs) -> tuple:
    """Run a child process to completion; return (seconds, CompletedProcess)."""
    start = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, timeout=120, **kwargs)
    return time.perf_counter() - start, done


def median_wall(cmd, reps: int, **kwargs) -> float:
    """Median wall time of `reps` runs of a child that must exit 0."""
    times = []
    for _ in range(reps):
        dt, done = wall(cmd, **kwargs)
        if done.returncode != 0:
            raise RuntimeError(f"{cmd[:3]} exited {done.returncode}: "
                               f"{done.stderr.decode(errors='replace')[-400:]}")
        times.append(dt)
    return statistics.median(times)


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def calibration_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: shows host speed drift.

    Reported beside the metrics; no metric is divided by it.
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _commit(root: str) -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(root: str, **extra) -> dict:
    return {
        "commit": _commit(root),
        **extra,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "executable": os.path.basename(sys.executable),
    }
