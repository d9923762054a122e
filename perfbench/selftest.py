"""Self-test of the benchmark: tiny runs, metric names, failing checks.

    python3 perfbench/selftest.py

1. A one-second run of every workload, untraced and traced, must print a
   result line with exactly the contract's keys and every metric that
   ``BENCHMARK.json`` names, with its unit, and pass its checks.
2. Each workload's correctness check must *fail* when one served entry
   is perturbed (and pass untouched).
3. In a directory holding only ``BENCHMARK.json`` and ``perfbench/``
   the benchmark must exit non-zero without printing a result.

Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SCRATCH, use_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ]
    return subprocess.run(
        command, cwd=str(cwd), capture_output=True, text=True, timeout=180
    )


def check_metrics_emitted() -> None:
    for entry in SPEC["workloads"]:
        workload = entry["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_benchmark(workload, trace)
            expect(done.returncode == 0,
                   f"{workload} --trace {trace} exited {done.returncode}: "
                   f"{done.stderr[-500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{workload}: check failed")
            expect(result["attempted"] >= 1, f"{workload}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            expect(got == wanted,
                   f"{workload} --trace {trace}: metrics differ from "
                   f"BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
            for name, value in result["metrics"].items():
                expect(isinstance(value["value"], (int, float)),
                       f"{workload}: {name} is not a number")
            print(f"ok  {workload} --trace {trace}: {len(got)} metrics")


def check_perturbation_fails() -> None:
    use_program()
    import embedded_batch
    import serve_mixed
    import timer_churn

    workload = embedded_batch.Workload(7)
    workload.run(0.3)
    expect(workload.check() == [], "embedded_batch: clean run flagged")
    workload.served[1][len(workload.served[1]) // 2] += 1.0
    expect(workload.check() != [], "embedded_batch: perturbed tag passed")
    print("ok  embedded_batch check fails on a perturbed finish tag")

    workload = timer_churn.Workload(7)
    workload.run(0.5)
    fired = workload.mix.fired[1]
    expect(len(fired) > 1, "timer_churn: nothing fired")
    expect(workload.check() == [], "timer_churn: clean run flagged")
    fired[0], fired[1] = fired[1], fired[0]
    expect(workload.check() != [], "timer_churn: swapped fire order passed")
    print("ok  timer_churn check fails on a swapped fire order")

    session = serve_mixed.Session(7)
    try:
        session.run(0.5, 1)
        stats = session.finish()["stats"]
    except BaseException:
        session.abort()
        raise
    expect(serve_mixed.check(session, stats) == [], "serve_mixed: clean run flagged")
    seq, flow, tag, size = session.served[-1]
    session.served[-1] = (seq, flow, tag, size + 1)
    expect(serve_mixed.check(session, stats) != [], "serve_mixed: perturbed size passed")
    print("ok  serve_mixed check fails on a perturbed served size")


def check_refuses_without_program() -> None:
    bare = SCRATCH / "bare-checkout"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run_benchmark(SPEC["workloads"][0]["name"], 0, cwd=bare)
        expect(done.returncode != 0, "bare checkout: exit code 0")
        expect('"metrics"' not in done.stdout, "bare checkout: printed a result")
    finally:
        shutil.rmtree(bare)
    print("ok  bare checkout exits non-zero without a result")


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    try:
        check_refuses_without_program()
        check_perturbation_fails()
        check_metrics_emitted()
    except SelfTestFailure as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
