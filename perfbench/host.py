"""Child process that hosts one in-process workload.

    python3 perfbench/host.py --workload NAME --seed N --seconds S \\
        --phase {setup,plain,traced} [--spans FILE]

Prints ``ready`` as soon as set-up is done: the parent times launch to
``ready`` as one set-up sample, interpreter start and imports included.
``--phase setup`` exits there.  Otherwise the timed window runs in
equal slices, the output is checked against an untimed replay, and one
JSON line with the window's figures is printed.  ``traced`` records
spans around every layer and writes them to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SLICE_S, self_peak_rss_mb, summarize, use_program  # noqa: E402
from layers import SpanRecorder, install, window_counters  # noqa: E402


def workload_class(name: str):
    if name == "embedded_batch":
        from embedded_batch import Workload
    elif name == "timer_churn":
        from timer_churn import Workload
    else:
        raise SystemExit(f"unknown in-process workload {name!r}")
    return Workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    use_program()
    recorder = None
    if args.phase == "traced":
        recorder = SpanRecorder()
        install(recorder)
        recorder.watch_gc()
    workload = workload_class(args.workload)(args.seed)
    print("ready", flush=True)
    if args.phase == "setup":
        return 0

    slices = max(1, round(args.seconds / SLICE_S))
    before = window_counters(workload.fabric)
    cpu = time.process_time()
    started = time.perf_counter()
    if recorder is not None:
        recorder.recording = True
    windows = [workload.run(args.seconds / slices, recorder) for _ in range(slices)]
    if recorder is not None:
        recorder.recording = False
    # packet generation between timed segments is CPU time too
    cpu_share = (time.process_time() - cpu) / (time.perf_counter() - started)
    peak_rss = self_peak_rss_mb()
    after = window_counters(workload.fabric)
    result = summarize(windows)
    result.update(
        peak_rss_mb=peak_rss,
        host_cpu_share=cpu_share,
        window_counters={k: after[k] - before[k] for k in after},
        buffer_high_watermark=workload.buffer_high_watermark(),
    )
    result["problems"] = workload.check()
    if recorder is not None:
        recorder.dump(Path(args.spans), result["window_counters"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
