"""The program's processes as the benchmark drives them.

``Service`` is one ``orya serve`` child on a unix socket, started the way an
operator starts it, with one persistent client connection. ``cold_cli`` runs
one ``orya`` command in a fresh process. With a span file given, both run
under ``tracer.py`` instead.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 10


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def orya_command(args: list[str], span_file: Path | None = None) -> list[str]:
    if span_file is None:
        return [sys.executable, "-m", "orya.cli", *args]
    return [sys.executable, str(BENCH_DIR / "tracer.py"), str(span_file), *args]


class ServiceError(RuntimeError):
    pass


class Service:
    """One ``orya serve`` process and a client connection to it.

    ``sock`` is a path relative to the checkout root: the service is given it
    as is and the client reaches it relative to its own working directory,
    which keeps both inside the unix socket path limit however deep the
    checkout is.
    """

    def __init__(self, store: Path, sock: str, log: Path, span_file: Path | None = None):
        self.store, self.sock_path, self.log, self.span_file = store, sock, log, span_file
        self.proc: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.rtt_ns: list[int] = []

    def start(self) -> float:
        """Spawn the service; seconds until it has answered a ping."""
        if (ROOT / self.sock_path).exists():
            (ROOT / self.sock_path).unlink()
        cmd = orya_command(["--universe", str(self.store), "serve", "--listen", self.sock_path], self.span_file)
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
        while True:
            if self.proc.poll() is not None:
                raise ServiceError(f"orya serve exited with {self.proc.returncode}; see {self.log}")
            if time.perf_counter() - t0 > START_TIMEOUT_S:
                raise ServiceError("orya serve did not start listening")
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(os.path.relpath(ROOT / self.sock_path))
                break
            except (FileNotFoundError, ConnectionRefusedError):
                sock.close()
                time.sleep(0.002)
        self.sock = sock
        self._rfile = sock.makefile("rb")
        resp, _ = self.request({"op": "ping"})
        if resp != {"ok": True, "pong": True}:
            raise ServiceError(f"bad ping answer {resp}")
        return time.perf_counter() - t0

    def request(self, req: dict) -> tuple[dict, float]:
        """One request line out, one answer line back; seconds of round trip."""
        data = (json.dumps(req) + "\n").encode()
        t0 = time.perf_counter_ns()
        self.sock.sendall(data)
        line = self._rfile.readline()
        rtt = time.perf_counter_ns() - t0
        if not line.endswith(b"\n"):
            raise ServiceError("connection closed mid-answer")
        self.rtt_ns.append(rtt)
        return json.loads(line), rtt / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServiceError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Close the connection, interrupt the service and wait until it ends."""
        if self.sock is not None:
            self._rfile.close()
            self.sock.close()
            self.sock = None
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        (ROOT / self.sock_path).unlink(missing_ok=True)
        if self.span_file is not None and not self.span_file.exists():
            raise ServiceError("traced service wrote no spans")


def cold_cli(args: list[str], span_file: Path | None = None) -> tuple[dict, float]:
    """Run one ``orya --format json`` command in a fresh process.

    Returns the parsed answer and the process's wall time in seconds.
    """
    cmd = orya_command(["--format", "json", *args], span_file)
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=program_env(), capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode not in (0, 1):
        raise ServiceError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return json.loads(proc.stdout), elapsed


def bare_interpreter_s() -> float:
    """Wall time of ``python -c pass``: the floor under every cold command."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0
