"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``perfbench/README.md``):

* ``serve_mixed``    closed loop over loopback TCP against ``repro serve``
* ``embedded_batch`` in-process batch fabric on the vector engine
* ``timer_churn``    in-process timer wheel over a 4-shard fabric

``--trace 0`` prints the end-to-end metrics; set-up is repeated
:data:`SETUP_SAMPLES` times in fresh processes and its median reported.
``--trace 1`` runs an untraced and a traced window of ``S/2`` each and
prints the per-layer metrics derived from the traced window's spans.
Every window's output is checked against an untimed replay on the other
engine; a mismatch fails the run and the exit code is 1.  The line
before the result is the run record (host, versions, CPU shares).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    SCRATCH,
    SLICE_S,
    have_program,
    program_env,
    run_record,
    summarize,
    use_program,
)
from layers import derive, load, per_layer_metrics  # noqa: E402

WORKLOADS = ("serve_mixed", "embedded_batch", "timer_churn")
SETUP_SAMPLES = 5
HOST_TIMEOUT_S = 170.0


# ----------------------------------------------------------------------
# one window of a workload, in its own process(es)

def host_window(workload: str, seed: int, seconds: float, phase: str,
                spans: Path = None) -> dict:
    """Launch a host child; returns its result plus the set-up sample."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "host.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--phase", phase,
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    launched = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=str(ROOT), env=program_env(), stdout=subprocess.PIPE
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - launched
        rest, _ = proc.communicate(timeout=HOST_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"{workload} host failed (exit {proc.returncode})")
    result = json.loads(rest.splitlines()[-1]) if phase != "setup" else {}
    result["setup_s"] = setup_s
    return result


def serve_window(seed: int, seconds: float, spans: Path = None,
                 setup_only: bool = False) -> dict:
    import serve_mixed

    session = serve_mixed.Session(seed, None if spans is None else str(spans))
    if setup_only:
        session.finish()
        return {"setup_s": session.setup_s}
    try:
        measured = session.run(seconds, max(1, round(seconds / SLICE_S)))
        finish = session.finish()
    except BaseException:
        session.abort()
        raise
    result = summarize(measured.pop("slices"))
    result.update(measured)
    result["problems"] = serve_mixed.check(session, finish["stats"])
    result["peak_rss_mb"] = finish["peak_rss_mb"]
    result["setup_s"] = session.setup_s
    return result


def window(workload: str, seed: int, seconds: float, *, spans: Path = None,
           setup_only: bool = False) -> dict:
    if workload == "serve_mixed":
        return serve_window(seed, seconds, spans, setup_only)
    phase = "setup" if setup_only else ("traced" if spans else "plain")
    return host_window(workload, seed, seconds, phase, spans)


# ----------------------------------------------------------------------

def cpu_shares(workload: str, result: dict) -> tuple:
    """(server, client) CPU share of the window's wall time."""
    if workload == "serve_mixed":
        return result["server_cpu_share"], result["client_cpu_share"]
    # in-process: one process is both the scheduler host and the client
    return 0.0, result["host_cpu_share"]


def record_for(workload: str, seed: int, result: dict, **extra) -> dict:
    server, client = cpu_shares(workload, result)
    return run_record(
        seed,
        workload,
        path=(
            "host loopback TCP (not a real link)"
            if workload == "serve_mixed"
            else "in-process library calls"
        ),
        window_s=result["window_s"],
        latency_samples=result["latency_samples"],
        **{"serve.server_cpu_share": server, "bench.client_cpu_share": client},
        saturated=(
            "server" if server > client else "client"
        ) if workload == "serve_mixed" else "host process",
        problems=result["problems"],
        **extra,
    )


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    setups = [
        window(workload, seed, seconds, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = window(workload, seed, seconds)
    setups.append(result["setup_s"])
    attempted = max(1, result["attempted"])
    failed = result["failed"]
    correct = not result["problems"]
    if not correct:
        failed = attempted  # outputs that fail the check count as failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (result["throughput_ops_s"], "ops/s"),
        "pkts_served_s": (result["pkts_served_s"], "pkts/s"),
        "latency_p50_us": (result["latency_p50_us"], "us"),
        "latency_p99_us": (result["latency_p99_us"], "us"),
        "ok_share": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    record = record_for(workload, seed, result, setup_samples_s=setups)
    return metrics, attempted, failed, correct, record


def traced(workload: str, seed: int, seconds: float) -> tuple:
    plain = window(workload, seed, seconds / 2)
    spans = SCRATCH / f"spans-{workload}-{seed}-{os.getpid()}.bin"
    try:
        result = window(workload, seed, seconds / 2, spans=spans)
        header, columns = load(spans)
    finally:
        if spans.exists():
            spans.unlink()
    stats = derive(header, columns)
    counters = header["extra"]
    server, client = cpu_shares(workload, plain)
    metrics = per_layer_metrics(
        stats,
        header,
        ops=result["ops"],
        counters=counters,
        buffer_high_watermark=(
            counters.get("buffer_high_watermark", 0)
            if workload == "serve_mixed"
            else result["buffer_high_watermark"]
        ),
        client_rtt_s=(
            result["latency_s_total"] if workload == "serve_mixed" else 0.0
        ),
        server_cpu_share=server,
        client_cpu_share=client,
        tracing_overhead=result["throughput_ops_s"] / plain["throughput_ops_s"],
    )
    attempted = max(1, plain["attempted"] + result["attempted"])
    problems = plain["problems"] + result["problems"]
    correct = not problems
    failed = plain["failed"] + result["failed"]
    if not correct:
        failed = attempted
    record = record_for(workload, seed, dict(plain, problems=problems),
                        traced_spans=header["spans"])
    return metrics, attempted, failed, correct, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_program():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    use_program()
    SCRATCH.mkdir(exist_ok=True)
    measure = traced if args.trace else end_to_end
    metrics, attempted, failed, correct, record = measure(
        args.workload, args.seed, args.seconds
    )
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
