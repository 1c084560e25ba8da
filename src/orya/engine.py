"""The operation engine: every orchestrator and universe operation as one
JSON request object, ``{"op": "deploy", ...}`` in, one JSON response object
out. The CLI runs it in process or reaches it through the service
(``service.py``), with the same request shapes, so no business rule lives in
either adapter.

A read op (``status``, ``digest``, ``model``) needs only the store: the
orchestrator and the simulated fleet are imported by the ops that run them,
so a cold read process never loads them.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .errors import OryaError, StoreChangedError, UnknownTargetError
from .model import MachineKind, enterprise_to_json, lookup_machine, validate_enterprise
from .report import FleetReport, status
from .units import unit_from_json
from .universe import Store, Universe, publish_unit, remove_unit, universe_digest
from .values import value_from_json

if TYPE_CHECKING:
    from .simharness import Fleet

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

# Errors that are the operator's problem (bad store, bad usage) exit 2;
# everything else is a domain refusal and exits 1.
USAGE_ERROR_CODES = {"CORRUPT", "LOCKED", "USAGE", "SYNTAX", "ERROR"}

# An op refused because another writer committed since the store was read
# runs again on the store read again, up to STALE_RERUNS times; the refusal
# after that answers LOCKED.
STALE_RERUNS = 8


def _error(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}


def _report_response(report: FleetReport) -> dict:
    refusal = bool(report.entries) and not any(
        e.outcome in POSITIVE_OUTCOMES for e in report.entries
    )
    return {"ok": True, "refusal": refusal, "report": report.to_json()}


class Engine:
    """Executes protocol requests against ``self.universe``. A subclass holds
    the universe and its ``store`` (None when nothing is saved), and gives the
    fleet an op runs on (``_fleet``) and how an op's result is kept
    (``_commit``)."""

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
            for _ in range(STALE_RERUNS):
                try:
                    return handler(req)
                except StoreChangedError:
                    # Another writer committed since the store was read:
                    # read it again and run the op once more.
                    self.store.reopen()
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
        from . import orchestrator as orch

        fleet = self._fleet(self.universe)
        request = orch.DeployRequest(
            target=target,
            product_id=req["product"],
            policy=orch.SafetyPolicy(req.get("policy", "reject")),
            dry_run=bool(req.get("dry_run", False)),
            extra_filters=tuple(req.get("filters", ())),
        )
        u, report = orch.push_deploy(self.universe, request, fleet)
        if not request.dry_run:
            self._commit(u, fleet)
        return _report_response(report)

    def op_pull(self, req):
        from .safety import SafetyPolicy

        policy = SafetyPolicy(req.get("policy", "reject"))
        return self._site_op("pull_update", req["site"], req["product"], policy=policy)

    def op_undeploy(self, req):
        force = bool(req.get("force", False))
        return self._site_op("undeploy", req["site"], req["unit"], force=force)

    def op_activate(self, req):
        return self._site_op("activate", req["site"], req["unit"])

    def op_deactivate(self, req):
        return self._site_op("deactivate", req["site"], req["unit"])

    def _site_op(self, name, site, target, **options):
        """The orchestrator's ``name`` over one site's ``target`` (a product
        or unit) on a fresh fleet, committed."""
        from . import orchestrator as orch

        fleet = self._fleet(self.universe)
        u, report = getattr(orch, name)(self.universe, site, target, fleet, **options)
        self._commit(u, fleet)
        return _report_response(report)

    def op_set_prop(self, req):
        site_id = req["site"]
        if lookup_machine(self.universe.enterprise, site_id).kind is not MachineKind.CLIENT_SITE:
            raise UnknownTargetError(f"machine {site_id!r} is not a client site")
        name, remove = req["name"], bool(req.get("remove"))
        value = None if remove else value_from_json(req["value"])
        from . import orchestrator as orch

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
        report = status(
            self.universe,
            site=req.get("site"),
            product=req.get("product"),
            outcome=req.get("outcome"),
            mode=req.get("mode"),
            store=self.store,
        )
        return {"ok": True, "refusal": False, "report": report.to_json()}

    def op_digest(self, req):
        return {"ok": True, "digest": universe_digest(self.universe, self.store)}


class LocalEngine(Engine):
    """Executes protocol requests against one universe store."""

    def __init__(self, root: str | Path):
        self.store = Store(root)

    @property
    def universe(self) -> Universe:
        return self.store.universe

    def _fleet(self, u: Universe) -> Fleet:
        """The fleet a write op runs on: a fresh one per op over ``u``."""
        from .simharness import build_fleet

        return build_fleet(u)

    def _commit(self, u: Universe, fleet: Fleet | None = None) -> None:
        if fleet is not None:
            from .simharness import sync_properties

            u = sync_properties(u, fleet)
        self.store.commit(u)


class ScenarioEngine(Engine):
    """The same ops over an in-memory universe and one live fleet; nothing is
    saved. The fleet's clock, armed faults and site files carry across ops."""

    def __init__(self, u: Universe, fleet: Fleet):
        self.universe, self.store, self.fleet = u, None, fleet

    def _fleet(self, u: Universe) -> Fleet:
        return self.fleet

    def _commit(self, u: Universe, fleet: Fleet | None = None) -> None:
        from .simharness import sync_properties

        self.universe = sync_properties(u, self.fleet)


