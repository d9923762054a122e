"""Command-line interface: ``python -m repro <artifact>``.

Regenerates any of the paper's evaluation artifacts without pytest:

.. code-block:: console

   $ python -m repro list
   $ python -m repro table1
   $ python -m repro fig7 --output fig7.txt
   $ python -m repro all --format json --output artifacts.json

``python -m repro bench`` runs the perf-regression suite instead (see
:mod:`repro.bench.perf` for its own flags: ``--smoke``, ``--check``),
``python -m repro obs`` runs a traced telemetry soak (see
:mod:`repro.obs.runner`), ``python -m repro fabric`` runs a traced soak
through the sharded scheduling fabric (see :mod:`repro.fabric.runner`:
``--shards``, ``--monitor``, ``--checkpoint``), and
``python -m repro analyze`` runs trace forensics over archived JSONL
traces (see :mod:`repro.obs.analyze`: ``profile``, ``check``, ``diff``,
``timeline``), and ``python -m repro timer`` runs a timer-wheel workload
over the circuit's remove/retag primitives (see :mod:`repro.net.timer`:
``--pattern {churn,retransmit,expiry}``, ``--shards``, ``--monitor``).
All six subsystems share one output convention: ``--output FILE`` writes
where you say, ``--format {text,json}`` picks the representation.

``python -m repro serve`` runs the always-on WFQ scheduling server —
line-delimited JSON over TCP in front of the sorting fabric, with SLA
admission, ECN-style backpressure, snapshot/restore lifecycle, and the
live observability plane attached via ``--metrics PORT`` (see
:mod:`repro.serve.server`).  ``python -m repro client`` drives a running
server with a deterministic mixed workload (see
:mod:`repro.serve.client`).

The soak runners (``obs``, ``fabric``, ``timer``) additionally accept
``--serve PORT`` to expose the live observability plane (``/metrics``
Prometheus text, ``/health`` JSON status, ``/snapshot`` full instrument
dump) over HTTP while the soak runs, ``--watchdog SECONDS`` to arm the
progress-based stall watchdog, and — for ``obs`` and ``fabric`` —
``--flight FILE`` to auto-dump an analyze-loadable flight-recorder
window around the first invariant violation (see :mod:`repro.obs.live`,
:mod:`repro.obs.flight`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Optional

from .analysis import reports

#: artifact name -> (generator, description)
ARTIFACTS: Dict[str, tuple] = {
    "table1": (reports.table1, "lookup-method comparison (worst-case accesses)"),
    "table2": (reports.table2, "post-layout synthesis estimate"),
    "fig6": (reports.fig6, "drifting new-tag distribution under WFQ"),
    "fig7": (reports.fig7, "matcher delay vs word length"),
    "fig8": (reports.fig8, "matcher area vs word length"),
    "throughput": (reports.throughput, "Section IV 35.8 Mpps / 40 Gb/s chain"),
    "qos": (reports.qos, "WFQ vs round robin delay/fairness"),
    "memory": (reports.memory, "external tag-storage technologies"),
    "shapes": (reports.shapes, "branching-factor ablation sweep"),
    "demo": (reports.demo, "live sorted-service proof on the circuit"),
    "fairness": (reports.fairness, "WF2Q vs WFQ worst-case fairness burst"),
    "e2e": (reports.e2e, "end-to-end delay bounds over WFQ hop chains"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the evaluation artifacts of 'A Scalable Packet "
            "Sorting Circuit for High-Speed WFQ Packet Scheduling'."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=sorted(ARTIFACTS) + ["all", "list"],
        help="which artifact to regenerate ('list' shows descriptions)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the artifact(s) here instead of stdout",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="plain text blocks or one JSON document",
    )
    return parser


def run_artifact(name: str) -> str:
    """Generate one artifact's text."""
    generator: Callable[[], str] = ARTIFACTS[name][0]
    return generator()


def render_artifacts(names: List[str], fmt: str) -> str:
    """Render the named artifacts as one text or JSON payload."""
    if fmt == "json":
        document = {
            "artifacts": [
                {
                    "name": name,
                    "description": ARTIFACTS[name][1],
                    "content": run_artifact(name),
                }
                for name in names
            ]
        }
        return json.dumps(document, indent=2) + "\n"
    blocks = [run_artifact(name) for name in names]
    return "\n\n".join(blocks) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # The bench harness owns its flags; dispatch before the artifact
        # parser rejects them.  Imported lazily so artifact generation
        # never pays for the benchmark machinery.
        from .bench.perf import main as bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "obs":
        # Same lazy dispatch for the telemetry soak runner.
        from .obs.runner import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "fabric":
        # Sharded-fabric soak runner (same lazy-import rationale).
        from .fabric.runner import main as fabric_main

        return fabric_main(argv[1:])
    if argv and argv[0] == "analyze":
        # Trace forensics: profile / check / diff / timeline.
        from .obs.analyze import main as analyze_main

        return analyze_main(argv[1:])
    if argv and argv[0] == "timer":
        # Timer-wheel workloads over the remove/retag primitives.
        from .net.timer import main as timer_main

        return timer_main(argv[1:])
    if argv and argv[0] == "serve":
        # The always-on scheduling server (asyncio; lazy for the same
        # reason — artifact generation never pays for it).
        from .serve.server import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        # Load driver for a running serve endpoint.
        from .serve.client import main as client_main

        return client_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.artifact == "list":
        width = max(len(name) for name in ARTIFACTS)
        for name, (_, description) in sorted(ARTIFACTS.items()):
            print(f"  {name:<{width}}  {description}")
        return 0
    names = sorted(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    try:
        payload = render_artifacts(names, args.format)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(payload)
        else:
            sys.stdout.write(payload)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        sys.stderr.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
