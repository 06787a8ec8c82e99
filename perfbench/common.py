"""Shared helpers: statistics, memory peaks, digests and the run record."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy

#: Repository root (the benchmark runs from a checkout of it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Everything the benchmark writes: cached model, results, spans.
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def size_distribution(sizes: Sequence[int]) -> Dict[str, float]:
    """Vertex-count distribution of a set of inputs."""
    return {
        "count": len(sizes),
        "mean": round(sum(sizes) / len(sizes), 3),
        "min": min(sizes),
        "p50": percentile(sizes, 50),
        "p90": percentile(sizes, 90),
        "max": max(sizes),
    }


def digest_texts(items: Iterable) -> str:
    """sha256 over a sequence of text/number items, order-sensitive."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


# -- memory ------------------------------------------------------------


def reset_peak_rss(pids: Iterable[int]) -> bool:
    """Restart the kernel's peak-RSS counter (VmHWM) of each process.

    Returns ``False`` when the kernel refuses, in which case
    :func:`peak_rss_mb` reports the current RSS instead of the peak.
    """
    ok = True
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as handle:
                handle.write("5")
        except OSError:
            ok = False
    return ok


def _status_kib(pid: int, field: str) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        return None
    return None


def peak_rss_mb(pids: Iterable[int], reset_ok: bool = True) -> float:
    """Highest peak RSS, in MiB, over ``pids`` since the last reset."""
    field = "VmHWM" if reset_ok else "VmRSS"
    peaks = [_status_kib(pid, field) for pid in pids]
    return max(peak for peak in peaks if peak is not None) / 1024.0


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU time consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / os.sysconf("SC_CLK_TCK")


# -- machine speed -------------------------------------------------------


class SpeedProbe:
    """Machine-speed reference: a fixed kernel timed between units of work.

    A shared virtual machine runs 20-50% slower for minutes at a time while
    its neighbours are busy, and every timing of a run moves with it; two
    runs of the same seed a minute apart differed by half.  The probe times
    a fixed mix of interpreter work, small matrix products and memory
    streaming (the resources the MAGIC pipeline uses) from the benchmark's
    own code, which the program under test cannot change.  Timing metrics
    are scaled to the nominal speed, times multiplied by ``NOMINAL_S`` over
    the probe time (rates divided): a slow period lengthens the probe and
    the work alike and cancels out, while a change to the program moves
    the work alone.  classify-fresh scales each batch by the sample taken
    right before it; the other workloads scale a run by :meth:`slowdown`.
    Raw timings go to the run record next to the slowdown.
    """

    #: Median probe time on the two-vCPU Xeon virtual machine the
    #: benchmark was written on; a slowdown of 1 means that speed.
    NOMINAL_S = 0.028

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._square = numpy.random.default_rng(0).random((160, 160))

    def sample(self) -> None:
        # The collector stays off, so that garbage the program under test
        # left behind cannot slow the probe (and flatter the program).
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            counts: Dict[int, int] = {}
            for i in range(60000):
                counts[i % 997] = counts.get(i % 997, 0) + i
            for _ in range(20):
                self._square @ self._square
            stream = numpy.ones(4_000_000)
            (stream * 2.0).sum()
            self.samples.append(time.perf_counter() - started)
        finally:
            if collecting:
                gc.enable()

    def slowdown(self) -> float:
        """Median probe time over ``NOMINAL_S``: above 1 on a slow machine."""
        return median(self.samples) / self.NOMINAL_S


# -- run record ----------------------------------------------------------


def source_digest() -> str:
    """sha256 of the program's sources (the checkout is not a git repo)."""
    hasher = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, subdirs, files in os.walk(src):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def git_sha() -> str:
    """HEAD commit when run inside a git work tree, else ``"unknown"``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int, workload: str, trace: bool) -> Dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def write_record(name: str, payload: Dict) -> str:
    """Persist one run's full record under the work directory."""
    directory = os.path.join(WORK_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name + ".json")
    staging = path + ".tmp"
    with open(staging, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
    os.replace(staging, path)
    return path


def log(message: str) -> None:
    """Progress notes go to stderr; stdout carries only the results."""
    print(message, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> Dict:
    return {"value": float(value), "unit": unit}


def check(condition: bool, failures: List[str], message: str) -> None:
    """Record an oracle mismatch (the run then reports correct=false)."""
    if not condition:
        failures.append(message)
