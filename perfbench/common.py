"""Shared pieces of the benchmark: paths, process probes, checks, records."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from typing import List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for span dumps, inside the checkout (git-ignored)
SCRATCH = ROOT / ".perfbench_tmp"


def have_program() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` resolve to the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


# ----------------------------------------------------------------------
# process probes (Linux /proc; the benchmark host is Linux)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    # fields[0] is field 3 (state); utime and stime are fields 14 and 15
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# correctness checks (compare by content, never by packet id)

def first_mismatch(
    observed: Sequence, expected: Sequence, label: str
) -> Optional[str]:
    """``None`` when equal, else a one-line description of the first
    difference between two served sequences."""
    for index, (got, want) in enumerate(zip(observed, expected)):
        if got != want:
            return f"{label}: entry {index} is {got!r}, replay has {want!r}"
    if len(observed) != len(expected):
        return (
            f"{label}: {len(observed)} entries served, "
            f"replay served {len(expected)}"
        )
    return None


def run_record(seed: int, workload: str, **fields) -> dict:
    """The facts a reader needs to interpret one result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is in the toolchain
        numpy_version = None
    record = {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }
    record.update(fields)
    return record


# ----------------------------------------------------------------------
# window statistics

#: timed windows are cut into slices of this length
SLICE_S = 0.5
#: calls per stretch of the window over which one p99 is taken
P99_STRETCH = 1000


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def summarize(slices: List[dict]) -> dict:
    """End-to-end figures of one timed window from its slices.

    Each slice holds ``window_s``, ``ops``, ``served`` and the
    ``latencies`` (seconds) of its calls.  The host is shared and its
    speed moves in bursts of seconds, up to ~40% faster while neighbours
    idle, so rates are the 25th percentile over slices (the rate held in
    three quarters of the window) and the median latency is that of the
    slice at the 75th percentile.  The p99 is the median over stretches
    of consecutive slices holding at least :data:`P99_STRETCH` calls, so
    each stretch has ten samples beyond its p99 and one burst moves one
    stretch only.
    """
    rates = [s["ops"] / s["window_s"] for s in slices]
    served = [s["served"] / s["window_s"] for s in slices]
    medians = [percentile(s["latencies"], 0.50) for s in slices if s["latencies"]]
    stretches: List[List[float]] = [[]]
    for s in slices:
        if len(stretches[-1]) >= P99_STRETCH:
            stretches.append([])
        stretches[-1].extend(s["latencies"])
    if len(stretches) > 1 and len(stretches[-1]) < P99_STRETCH:
        stretches[-2].extend(stretches.pop())
    return {
        "window_s": sum(s["window_s"] for s in slices),
        "ops": sum(s["ops"] for s in slices),
        "attempted": sum(s["attempted"] for s in slices),
        "failed": sum(s["failed"] for s in slices),
        "served": sum(s["served"] for s in slices),
        "throughput_ops_s": percentile(rates, 0.25),
        "pkts_served_s": percentile(served, 0.25),
        "latency_p50_us": percentile(medians, 0.75) * 1e6,
        "latency_p99_us": statistics.median(
            percentile(stretch, 0.99) for stretch in stretches
        ) * 1e6,
        "latency_samples": sum(len(s["latencies"]) for s in slices),
        "latency_s_total": sum(sum(s["latencies"]) for s in slices),
    }
