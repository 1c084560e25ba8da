"""The newline-delimited JSON service protocol over a local socket: one
request object per line in, one response object per line out, each handled
by a ``LocalEngine`` (``engine.py``) on the service's store.

A service loads every layer an op may run when it starts (the orchestrator
and the simulated fleet, which a cold read process skips), so no request
pays for an import.

Every answer is one line whose bytes are those of
``json.dumps(resp, sort_keys=True) + "\\n"``. A report of more than
``SLICE_ENTRIES`` site entries (a group push answers one per site) is
encoded and written ``SLICE_ENTRIES`` entries at a time, so the service
holds one slice of text, never the whole line; a smaller answer is one
encode and one write. ``request``, the client, reads an answer in time
linear in its length.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from pathlib import Path

from . import orchestrator, simharness  # noqa: F401  (loaded at start, see above)
from .engine import LocalEngine, _error

# The longest request line the service reads, in bytes. A longer line is
# discarded up to its newline and answered USAGE, so one endless line cannot
# grow the service's memory without bound.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

# Site entries per encoded slice of a long answer. A slice is small because
# the C encoder holds several times a slice's text while it encodes it; a
# 1000-site push answer of 7 MB goes out in slices of about 110 KB.
SLICE_ENTRIES = 16

# A background service polls for shutdown this often (a foreground one stops
# on SIGINT), so that ``ServiceServer.shutdown`` returns within it.
BACKGROUND_POLL_S = 0.02

# The C encoder behind ``json.dumps(..., sort_keys=True)``, made once.
_encode = json.JSONEncoder(sort_keys=True).encode

# ---------------------------------------------------------------------------
# Socket transport


def _parse_addr(addr: str):
    """``host:port`` for TCP, anything with a slash for a unix socket."""
    if "/" in addr:
        return ("unix", addr)
    host, _, port = addr.rpartition(":")
    return ("tcp", (host or "127.0.0.1", int(port)))


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        while raw := self.rfile.readline(MAX_REQUEST_BYTES + 1):
            # A line that is too long, not UTF-8, not JSON, or nested past the
            # decoder's recursion limit gets a USAGE answer, and an unexpected
            # fault in the op a last-resort INTERNAL; the connection stays open.
            if len(raw) > MAX_REQUEST_BYTES and not raw.endswith(b"\n"):
                while (rest := self.rfile.readline(MAX_REQUEST_BYTES + 1)) and not rest.endswith(b"\n"):
                    pass
                write_answer(self.wfile, _error("USAGE", f"request line longer than {MAX_REQUEST_BYTES} bytes"))
                continue
            try:
                line = raw.decode().strip()
                if not line:
                    continue
                req = json.loads(line)
            except (ValueError, RecursionError) as err:
                resp = _error("USAGE", f"bad request line: {err}")
            else:
                with self.server.engine_lock:
                    try:
                        resp = self.server.engine.handle(req)
                    except Exception as err:
                        import traceback  # only on this path: a cold CLI start does not pay for it

                        traceback.print_exc()
                        resp = _error("INTERNAL", f"{type(err).__name__}: {err}")
            write_answer(self.wfile, resp)


def write_answer(wfile, resp: dict) -> None:
    """Write ``resp`` to ``wfile`` as the bytes of
    ``json.dumps(resp, sort_keys=True) + "\\n"``. A report of more than
    SLICE_ENTRIES entries is encoded and written SLICE_ENTRIES entries at a
    time; any other answer takes one encode and one write."""
    report = resp.get("report")
    entries = report.get("entries") if isinstance(report, dict) else None
    if not isinstance(entries, list) or len(entries) <= SLICE_ENTRIES:
        wfile.write((_encode(resp) + "\n").encode())
        return
    # The answer's text with no entries and with one empty entry differs
    # first just inside the entries list: that index cuts the text before the
    # entries from the text after them.
    bare = _encode({**resp, "report": {**report, "entries": []}})
    one = _encode({**resp, "report": {**report, "entries": [[]]}})
    cut = next(i for i, (a, b) in enumerate(zip(bare, one)) if a != b)
    wfile.write(bare[:cut].encode())
    for start in range(0, len(entries), SLICE_ENTRIES):
        if start:
            wfile.write(b", ")
        # The slice's text less its brackets, dropped once written.
        wfile.write(memoryview(_encode(entries[start : start + SLICE_ENTRIES]).encode())[1:-1])
    wfile.write((bare[cut:] + "\n").encode())


class ServiceServer:
    """NDJSON request/response service over a local socket."""

    def __init__(self, store: str | Path, addr: str):
        self.engine = LocalEngine(store)
        kind, target = _parse_addr(addr)
        if kind == "unix":
            server_cls = type(
                "_UnixServer",
                (socketserver.ThreadingUnixStreamServer,),
                {"daemon_threads": True, "block_on_close": False},
            )
            self._server = server_cls(target, _Handler)
            self.address = target
        else:
            server_cls = type("_TcpServer", (socketserver.ThreadingTCPServer,), {
                "allow_reuse_address": True,
                "daemon_threads": True,
                "block_on_close": False,
            })
            self._server = server_cls(target, _Handler)
            host, port = self._server.server_address
            self.address = f"{host}:{port}"
        self._server.engine = self.engine
        self._server.engine_lock = threading.Lock()
        self._thread: threading.Thread | None = None

    def serve_forever(self):
        self._server.serve_forever()

    def start_background(self):
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": BACKGROUND_POLL_S}, daemon=True
        )
        self._thread.start()

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def request(addr: str, req: dict, timeout: float = 10.0) -> dict:
    """Send one request line to a service and read one answer line."""
    kind, target = _parse_addr(addr)
    family = socket.AF_UNIX if kind == "unix" else socket.AF_INET
    with socket.socket(family, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(target)
        sock.sendall((json.dumps(req) + "\n").encode())
        with sock.makefile("rb") as answer:
            line = answer.readline()
    if not line.endswith(b"\n"):
        raise OSError("connection closed mid-answer")
    return json.loads(line)
