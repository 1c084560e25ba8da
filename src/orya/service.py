"""Operation engine plus the newline-delimited JSON service protocol.

Every orchestrator and universe operation is reachable as one JSON request
object per line: ``{"op": "deploy", ...}`` in, one JSON response object out.
The CLI speaks the same request shapes whether it executes locally or
against a remote service, so no business rule lives in either adapter.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from pathlib import Path

from . import orchestrator as orch
from .errors import OryaError, UnknownTargetError
from .model import MachineKind, enterprise_to_json, lookup_machine, validate_enterprise
from .safety import SafetyPolicy
from .simharness import Fleet, build_fleet, sync_properties
from .units import unit_from_json
from .universe import (
    Universe,
    open_universe,
    publish_unit,
    remove_unit,
    save_universe,
    universe_digest,
)
from .values import value_from_json

# Outcomes that count as "the operation did something" for exit-code purposes.
POSITIVE_OUTCOMES = {
    "DEPLOYED",
    "WOULD_DEPLOY",
    "UPDATED",
    "REMOVED",
    "ACTIVATED",
    "DEACTIVATED",
    "RECONFIGURED",
}

# The longest request line the service reads, in bytes. A longer line is
# discarded up to its newline and answered USAGE, so one endless line cannot
# grow the service's memory without bound.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

# Errors that are the operator's problem (bad store, bad usage) exit 2;
# everything else is a domain refusal and exits 1.
USAGE_ERROR_CODES = {"CORRUPT", "LOCKED", "USAGE", "SYNTAX", "ERROR"}


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def _report_response(report: orch.FleetReport) -> dict:
    refusal = bool(report.entries) and not any(
        e.outcome in POSITIVE_OUTCOMES for e in report.entries
    )
    return {"ok": True, "refusal": refusal, "report": report.to_json()}


class LocalEngine:
    """Executes protocol requests against one universe store."""

    def __init__(self, store: str | Path):
        self.store = Path(store)
        self.universe: Universe = open_universe(self.store)

    def reload(self) -> None:
        self.universe = open_universe(self.store)

    def _fleet(self, u: Universe) -> Fleet:
        """The fleet a write op runs on: a fresh one per op over ``u``."""
        return build_fleet(u)

    def _commit(self, u: Universe, fleet: Fleet | None = None) -> None:
        """Save over ``self.universe``, last opened or saved, so only what the
        op changed is serialised; after a failed save, reload and re-raise."""
        if fleet is not None:
            u = sync_properties(u, fleet)
        try:
            save_universe(u, self.store, base=self.universe)
        except Exception:
            self.reload()
            raise
        self.universe = u

    def handle(self, req: dict) -> dict:
        """A domain error answers by its code and a malformed request as
        USAGE; any other fault propagates to the caller."""
        if not isinstance(req, dict):
            return _error("USAGE", "request must be a JSON object")
        op = req.get("op")
        handler = getattr(self, f"op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return _error("USAGE", f"unknown op {op!r}")
        try:
            return handler(req)
        except OryaError as err:
            return _error(err.code, err.message)
        except (KeyError, ValueError, TypeError) as err:
            return _error("USAGE", str(err))

    # -- model ---------------------------------------------------------------

    def op_ping(self, req):
        return {"ok": True, "pong": True}

    def op_model_validate(self, req):
        report = validate_enterprise(self.universe.enterprise)
        return {"ok": True, "refusal": not report.ok, "report": report.to_json()}

    def op_model_show(self, req):
        return {"ok": True, "model": enterprise_to_json(self.universe.enterprise)}

    # -- catalog ---------------------------------------------------------------

    def op_publish(self, req):
        unit = unit_from_json(req["manifest"])
        u = publish_unit(self.universe, req["server"], unit)
        self._commit(u)
        return {"ok": True, "published": unit.id, "server": req["server"]}

    def op_unpublish(self, req):
        u = remove_unit(self.universe, req["server"], req["unit"])
        self._commit(u)
        return {"ok": True, "removed": req["unit"], "server": req["server"]}

    # -- deployment -------------------------------------------------------------

    def op_deploy(self, req):
        target = req.get("group") or tuple(req.get("sites", ()))
        if not target:
            return _error("USAGE", "deploy needs a group or at least one site")
        fleet = self._fleet(self.universe)
        request = orch.DeployRequest(
            target=target,
            product_id=req["product"],
            policy=SafetyPolicy(req.get("policy", "reject")),
            dry_run=bool(req.get("dry_run", False)),
            extra_filters=tuple(req.get("filters", ())),
        )
        u, report = orch.push_deploy(self.universe, request, fleet)
        if not request.dry_run:
            self._commit(u, fleet)
        return _report_response(report)

    def op_pull(self, req):
        policy = SafetyPolicy(req.get("policy", "reject"))
        return self._site_op(orch.pull_update, req["site"], req["product"], policy=policy)

    def op_undeploy(self, req):
        force = bool(req.get("force", False))
        return self._site_op(orch.undeploy, req["site"], req["unit"], force=force)

    def op_activate(self, req):
        return self._site_op(orch.activate, req["site"], req["unit"])

    def op_deactivate(self, req):
        return self._site_op(orch.deactivate, req["site"], req["unit"])

    def _site_op(self, fn, site, target, **options):
        """``fn`` over one site's ``target`` (a product or unit) on a fresh
        fleet, committed."""
        fleet = self._fleet(self.universe)
        u, report = fn(self.universe, site, target, fleet, **options)
        self._commit(u, fleet)
        return _report_response(report)

    def op_set_prop(self, req):
        site_id = req["site"]
        if lookup_machine(self.universe.enterprise, site_id).kind is not MachineKind.CLIENT_SITE:
            raise UnknownTargetError(f"machine {site_id!r} is not a client site")
        name, remove = req["name"], bool(req.get("remove"))
        value = None if remove else value_from_json(req["value"])
        fleet = self._fleet(self.universe)
        event = fleet.sites[site_id].set_property(name, value, remove=remove)
        result = orch.on_property_change(
            self.universe, site_id, event, fleet, apply=bool(req.get("apply", False))
        )
        if isinstance(result, tuple):
            u, report = result
            response = _report_response(report)
        else:
            u, response = self.universe, {"ok": True, "refusal": False, "plan": result.to_json()}
        self._commit(u, fleet)
        response["noop"] = event.noop
        return response

    def op_status(self, req):
        report = orch.status(
            self.universe,
            site=req.get("site"),
            product=req.get("product"),
            outcome=req.get("outcome"),
            mode=req.get("mode"),
        )
        return {"ok": True, "refusal": False, "report": report.to_json()}

    def op_digest(self, req):
        return {"ok": True, "digest": universe_digest(self.universe)}


class ScenarioEngine(LocalEngine):
    """The same ops over an in-memory universe and one live fleet; nothing is
    saved. The fleet's clock, armed faults and site files carry across ops."""

    def __init__(self, u: Universe, fleet: Fleet):
        self.universe = u
        self.fleet = fleet

    def _fleet(self, u: Universe) -> Fleet:
        return self.fleet

    def _commit(self, u: Universe, fleet: Fleet | None = None) -> None:
        self.universe = sync_properties(u, self.fleet)


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
