"""The newline-delimited JSON service protocol over a local socket: one
request object per line in, one response object per line out, each handled
by a ``LocalEngine`` (``engine.py``) on the service's store.

A service loads every layer an op may run when it starts (the orchestrator
and the simulated fleet, which a cold read process skips), so no request
pays for an import.
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
                self._answer(_error("USAGE", f"request line longer than {MAX_REQUEST_BYTES} bytes"))
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
            self._answer(resp)

    def _answer(self, resp: dict) -> None:
        self.wfile.write((json.dumps(resp, sort_keys=True) + "\n").encode())
        self.wfile.flush()


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
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


def request(addr: str, req: dict, timeout: float = 10.0) -> dict:
    """Send one request line to a service and read one response line."""
    kind, target = _parse_addr(addr)
    if kind == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(target)
        sock.sendall((json.dumps(req) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
        return json.loads(buf.decode())
    finally:
        sock.close()
