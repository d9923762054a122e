"""Traced ``repro serve``: install the layer wrappers, then run the server.

    python3 perfbench/serve_launcher.py --spans FILE -- [repro serve args]

Wraps the serve layer (codec, ``ServeEngine.handle_request`` per verb,
backpressure) and every lower layer at class level, then calls
``repro.serve.server.main``.  Recording follows the benchmark's request
ids: it is on while integer ids (the timed window) arrive and stops at
the first post-window id.  When the server exits the spans and the
window's counters are written to ``FILE``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402
from layers import SpanRecorder, install, window_counters  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    server_args = [a for a in args.server_args if a != "--"]

    use_program()
    from repro.serve import server
    from repro.serve.backpressure import BackpressureController

    recorder = SpanRecorder()
    install(recorder)
    recorder.watch_gc()
    engines = []
    marks = {}

    original_init = server.ServeEngine.__init__

    def capture_init(self, *a, **k):
        original_init(self, *a, **k)
        engines.append(self)

    server.ServeEngine.__init__ = capture_init

    decode = server.decode_line
    decode_index = recorder.intern("serve.decode")

    def traced_decode(line):
        span = recorder.open(decode_index) if recorder.recording else None
        try:
            message = decode(line)
        finally:
            if span is not None:
                recorder.close(span)
        rid = message.get("id")
        if isinstance(rid, int) and not isinstance(rid, bool):
            if not recorder.recording:
                marks["start"] = window_counters(engines[0].system.store)
                recorder.recording = True
            recorder.current_rid = rid
        elif recorder.recording:
            recorder.recording = False
            marks["end"] = window_counters(engines[0].system.store)
        return message

    server.decode_line = traced_decode
    server.encode = recorder.span("serve.encode", server.encode)
    BackpressureController.decide = recorder.span(
        "serve.backpressure", BackpressureController.decide
    )
    handle = server.ServeEngine.handle_request
    verb_spans = {}

    def traced_handle(self, request):
        if not recorder.recording:
            return handle(self, request)
        op = request.get("op")
        name_index = verb_spans.get(op)
        if name_index is None:
            name_index = verb_spans[op] = recorder.intern(f"serve.handle.{op}")
        span = recorder.open(name_index)
        try:
            return handle(self, request)
        finally:
            recorder.close(span)

    server.ServeEngine.handle_request = traced_handle

    status = server.main(server_args)
    start, end = marks.get("start", {}), marks.get("end", {})
    extra = {key: end.get(key, 0) - start.get(key, 0) for key in end}
    if engines:
        extra["buffer_high_watermark"] = engines[0].system.buffer.high_watermark
    recorder.dump(Path(args.spans), extra)
    return status


if __name__ == "__main__":
    sys.exit(main())
