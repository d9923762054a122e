"""The serve read path: one fixed buffer per connection.

``_LineProtocol`` is an ``asyncio.BufferedProtocol``: every socket read
lands in the connection's one preallocated buffer, so the transport
never allocates a fresh receive block per read.  Such a block can be
large enough for the allocator to ``mmap`` and ``munmap`` it on every
request, which shows up as minor page faults in the server process.

The socket tests check that the buffer is reused and that the line
splitter answers every framing exactly as before.  The fault test
drives a closed loop shaped like the ``serve_mixed`` benchmark against
a ``repro serve`` subprocess and reads the server's minor-fault count
from ``/proc``.  Run as a script, the same check measures a server that
is already up, then shuts it down (exit 1 over the budget)::

    python tests/serve/test_read_path.py PID PORT
"""

import asyncio
import json
import os
import random
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve.server import (
    MAX_LINE_BYTES,
    READ_BUFFER_BYTES,
    ServeConfig,
    ServeEngine,
    WfqServer,
    _LineProtocol,
)

#: faults per request the fault test allows; a read path that maps and
#: unmaps its receive block costs about two per request
MAX_FAULTS_PER_REQUEST = 0.25
FLOWS = 64
TENANTS = 8
LINK_RATE_BPS = 40e9  # ServeConfig default


def minor_faults(pid):
    """Minor page faults of process ``pid`` so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        stat = handle.read()
    # Field 10; the fields after the parenthesized command start at 3.
    return int(stat.rsplit(")", 1)[1].split()[7])


class LineClient:
    """Blocking line-delimited JSON client with one request in flight."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.requests = 0

    def call(self, message):
        self.sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
        self.requests += 1
        reply = json.loads(self.reader.readline())
        assert reply["ok"], reply
        return reply

    def close(self):
        self.reader.close()
        self.sock.close()


def drive_mixed(client, requests, seed=1):
    """A ``serve_mixed``-shaped closed loop of about ``requests`` requests.

    70% enqueue, 20% drain of 32, 5% enqueue then cancel, 5% enqueue
    then reschedule, sizes 64-1500 B, over flows the caller opened.
    """
    rng = random.Random(seed)
    rate = 0.8 * LINK_RATE_BPS / FLOWS
    tag_unit = 8 * 1500 * LINK_RATE_BPS / rate
    start = client.requests
    while client.requests - start < requests:
        roll = rng.random()
        flow = rng.randrange(FLOWS)
        size = rng.randint(64, 1500)
        if roll < 0.70:
            client.call({"op": "enqueue", "flow": flow, "size": size})
        elif roll < 0.90:
            client.call({"op": "drain", "count": 32})
        else:
            reply = client.call({"op": "enqueue", "flow": flow, "size": size})
            if roll < 0.95:
                client.call({"op": "cancel", "handle": reply["handle"]})
            else:
                client.call(
                    {
                        "op": "reschedule",
                        "handle": reply["handle"],
                        "tag": reply["tag"] + rng.random() * 4 * tag_unit,
                    }
                )


def measure(pid, port, requests=3000):
    """Open flows, warm up, then the server's minor faults per request."""
    client = LineClient(port)
    try:
        rate = 0.8 * LINK_RATE_BPS / FLOWS
        for flow in range(FLOWS):
            client.call(
                {
                    "op": "open",
                    "tenant": f"tenant{flow % TENANTS}",
                    "flow": flow,
                    "rate_bps": rate,
                }
            )
        drive_mixed(client, 500, seed=0)
        before_faults, before_requests = minor_faults(pid), client.requests
        drive_mixed(client, requests)
        faults = minor_faults(pid) - before_faults
        sent = client.requests - before_requests
    finally:
        client.close()
    return {
        "requests": sent,
        "minor_faults": faults,
        "faults_per_request": faults / sent,
    }


# ----------------------------------------------------------------------
# framing over a real socket


@pytest.fixture
def served(monkeypatch):
    """A ``WfqServer`` on a thread, recording every ``get_buffer`` reply."""
    handed = []
    get_buffer = _LineProtocol.get_buffer

    def recording(self, sizehint):
        buffer = get_buffer(self, sizehint)
        handed.append((self, buffer))
        return buffer

    monkeypatch.setattr(_LineProtocol, "get_buffer", recording)
    server = WfqServer(ServeEngine(ServeConfig(shards=2)))
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve()), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10
    while server.port is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.port is not None, "server did not come up"
    yield server, handed
    with socket.create_connection(("127.0.0.1", server.port), 10) as sock:
        sock.sendall(b'{"op":"shutdown"}\n')
        sock.makefile("rb").readline()
    thread.join(10)


def connect(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    return sock, sock.makefile("rb")


def hello(ident):
    return b'{"op":"hello","id":%d}\n' % ident


def test_one_buffer_per_connection_for_every_read(served):
    server, handed = served
    sock, reader = connect(server)
    # Dribbled: one request line split over many reads.
    for byte in range(len(hello(1))):
        sock.sendall(hello(1)[byte:byte + 1])
        time.sleep(0.002)
    assert json.loads(reader.readline())["id"] == 1
    # Pipelined past the buffer: lines straddle read boundaries.
    count = 3 * READ_BUFFER_BYTES // len(hello(10_000)) + 1
    sock.sendall(b"".join(hello(10_000 + i) for i in range(count)))
    ids = [json.loads(reader.readline())["id"] for _ in range(count)]
    assert ids == [10_000 + i for i in range(count)]
    reader.close()
    sock.close()
    protocols = {id(protocol) for protocol, _ in handed}
    assert len(protocols) == 1
    buffers = [buffer for _, buffer in handed]
    assert len(buffers) > len(hello(1))
    assert all(buffer is buffers[0] for buffer in buffers)
    assert len(buffers[0]) == READ_BUFFER_BYTES


def test_lines_as_long_as_the_buffer_are_answered_as_before(served):
    server, _ = served
    sock, reader = connect(server)
    expected = ServeEngine(ServeConfig(shards=2)).handle_request(
        {"op": "hello", "id": 7}
    )
    sock.sendall(b'{"op":"hello","id":7}\r\n\n' * 3)
    assert [json.loads(reader.readline()) for _ in range(3)] == [expected] * 3
    # READ_BUFFER_BYTES == MAX_LINE_BYTES: a line of exactly the limit
    # fills one read and ends in the next, and is still a request; one
    # byte more is an overlong line, answered once and skipped.
    pad = MAX_LINE_BYTES - len(b'{"op":"hello","id":8,"pad":""}')
    sock.sendall(b'{"op":"hello","id":8,"pad":"' + b"x" * pad + b'"}\n')
    assert json.loads(reader.readline())["id"] == 8
    sock.sendall(b'{"op":"hello","id":9,"pad":"' + b"x" * pad + b'x"}\n')
    sock.sendall(hello(10))
    assert json.loads(reader.readline()) == {
        "ok": False,
        "reason": f"request line exceeds {MAX_LINE_BYTES} bytes",
    }
    assert json.loads(reader.readline())["id"] == 10
    # An unterminated last line is answered at EOF.
    sock.sendall(b'{"op":"hello","id":11}')
    sock.shutdown(socket.SHUT_WR)
    assert json.loads(reader.readline())["id"] == 11
    assert reader.readline() == b""
    reader.close()
    sock.close()


def shutdown(port):
    client = LineClient(port)
    client.call({"op": "shutdown"})
    client.close()


# ----------------------------------------------------------------------
# fault budget against a real server process


def launch_server():
    """``python -m repro serve --port 0``; returns (process, port)."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    # glibc raises its mmap threshold after the first large free, so a
    # per-read receive block may or may not be mapped, depending on heap
    # layout.  A fixed threshold makes any per-read block over 128 KiB
    # map every time, so the budget below sees it on every run.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
    )
    deadline = time.monotonic() + 60
    announce = b""
    while b"\n" not in announce:
        left = deadline - time.monotonic()
        if left <= 0 or proc.poll() is not None:
            proc.kill()
            proc.wait()
            raise RuntimeError("server did not announce its port")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            announce += proc.stdout.read1(4096)
    return proc, int(json.loads(announce.split(b"\n", 1)[0])["port"])


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/stat"),
    reason="reads minor-fault counts from Linux /proc",
)
def test_read_path_minor_faults_per_request():
    proc, port = launch_server()
    try:
        result = measure(proc.pid, port)
        shutdown(port)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    assert result["requests"] >= 3000
    assert result["faults_per_request"] <= MAX_FAULTS_PER_REQUEST, result


if __name__ == "__main__":
    outcome = measure(int(sys.argv[1]), int(sys.argv[2]))
    shutdown(int(sys.argv[2]))
    print(json.dumps(outcome))
    sys.exit(outcome["faults_per_request"] > MAX_FAULTS_PER_REQUEST)
