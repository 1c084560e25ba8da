"""Deterministic simulated fleet: in-process app servers and client sites,
plus the scenario runner that drives the engine over one such fleet.

Sites hold the store's own frozen values: their enterprise ``Machine`` (the one
home of their properties and standing constraints, swapped for a new value on
every change and folded back by ``sync_properties`` for the sites a fleet
holds: one for a single-site op, every site for a push or a scenario) and their
``DeployedUnit`` entries. They keep a flat keyed file namespace instead of a
real filesystem, consume integer virtual-clock ticks per primitive, and
support bit-exact snapshot and restore (the compensation oracle). App servers hold no unit table: the deployment service
hands them the catalog unit whose resource it fetches. Fault plans arm
step-level failures by step path or primitive kind with an occurrence index.

A scenario script is a list of service ops, spelled with dashes, run through
``Engine.handle`` over an in-memory universe and one live fleet; a
``set-prop`` changes the live site's machine. ``inject`` (arm faults) is the
only harness-only command. A step the engine refuses stops the run with the
engine's error code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import OryaError, StepFailure, UnknownUnitError
from .expr import DISK_FREE, evaluate
from .model import (
    ClientSiteState,
    DeployedUnit,
    Machine,
    MachineKind,
    apply_property_change,
    deployed_unit_from_json,
    deployed_unit_to_json,
    derive_products,
    enterprise_from_json,
    validate_enterprise,
)
from .process import ActivityKind, LifecycleState, transition
from .units import PackagedUnit, unit_from_json
from .universe import (
    Universe,
    empty_universe,
    publish_unit,
    read_document,
    universe_digest,
)
from .values import Size, value_from_json, value_to_json


class VirtualClock:
    """Integer tick counter; every primitive consumes at least one tick."""

    def __init__(self):
        self.tick = 0

    def now(self) -> int:
        self.tick += 1
        return self.tick

    def advance(self, n: int) -> None:
        self.tick += n


@dataclass(frozen=True)
class Fault:
    site_id: str
    match: str  # step path ("root.2") or primitive kind ("install")
    mode: str = "FAIL"  # FAIL | HANG_THEN_FAIL
    occurrence: int = 1

    def __post_init__(self):
        if self.occurrence < 1:
            raise ValueError("occurrence index must be >= 1")


@dataclass
class CallLogEntry:
    tick: int
    role: str  # "site" | "server"
    actor: str
    method: str
    detail: str


@dataclass(frozen=True)
class ResourcePayload:
    """Simulated resource content: identity plus size and digest."""

    unit_id: str
    name: str
    size: Size
    digest: str


# ---------------------------------------------------------------------------
# Simulated client site


def _deployed(unit: PackagedUnit, state: LifecycleState) -> DeployedUnit:
    """The retained footprint of ``unit`` once it lands on a site."""
    return DeployedUnit(
        unit_id=unit.id,
        product_id=unit.product_id,
        version=unit.product_version,
        state=state,
        footprint=unit.footprint,
        provides=unit.provides,
        requires=unit.requires,
        constraints=unit.constraints,
    )


def _moved(entry: DeployedUnit | None, unit: PackagedUnit, state: LifecycleState) -> DeployedUnit:
    """``entry`` in ``state``, or ``unit`` newly placed on the site in ``state``."""
    return replace(entry, state=state) if entry else _deployed(unit, state)


class SimulatedSite:
    """In-process client site: its enterprise machine, units, files, primitives.

    ``machine`` is the frozen ``Machine`` value ``build_fleet`` hands over; a
    property change swaps in a new value, never edits the one it shares with
    the committed universe. Role calls are appended to ``call_log`` unless it
    is None."""

    def __init__(self, machine: Machine, clock, call_log, state=None):
        self.machine = machine
        self.clock = clock
        self.call_log = call_log
        self.units: dict[str, DeployedUnit] = {
            du.unit_id: du for du in (state.deployed_units if state else ())
        }
        self.files: dict[str, str] = {}
        self._faults: list[dict] = []

    @property
    def machine_id(self) -> str:
        return self.machine.id

    @property
    def properties(self):
        """The machine's property map: read it, never write it."""
        return self.machine.properties

    # -- role surface -------------------------------------------------------

    def get_properties(self):
        self._log("get_properties", "")
        return dict(self.properties)

    def set_property(self, name, value=None, *, remove=False):
        self._log("set_property", name)
        self.machine, event = apply_property_change(self.machine, name, value, remove=remove)
        return event

    def get_constraints(self):
        self._log("get_constraints", "")
        return list(self.machine.standing_constraints)

    def get_state(self) -> ClientSiteState:
        units = tuple(self.units[k] for k in sorted(self.units))
        return ClientSiteState(self.machine_id, units, derive_products(units))

    def snapshot(self) -> dict:
        """Bit-exact state capture as plain JSON: compare snapshots with ``==``."""
        return {
            "properties": {k: value_to_json(v) for k, v in sorted(self.properties.items())},
            "constraints": list(self.machine.standing_constraints),
            "units": {k: deployed_unit_to_json(self.units[k]) for k in sorted(self.units)},
            "files": dict(sorted(self.files.items())),
        }

    def restore(self, snap: dict) -> None:
        self.machine = replace(
            self.machine,
            properties={k: value_from_json(v) for k, v in snap["properties"].items()},
            standing_constraints=tuple(snap["constraints"]),
        )
        self.units = {k: deployed_unit_from_json(d) for k, d in snap["units"].items()}
        self.files = dict(snap["files"])

    # -- fault injection ----------------------------------------------------

    def arm(self, fault: Fault) -> None:
        self._faults.append({"fault": fault, "hits": 0})

    def _check_fault(self, path: str, kind: ActivityKind) -> None:
        for armed in self._faults:
            f = armed["fault"]
            if f.match == path or f.match == kind.value:
                armed["hits"] += 1
                if armed["hits"] == f.occurrence:
                    if f.mode == "HANG_THEN_FAIL":
                        self.clock.advance(5)  # hang: burn virtual time first
                    raise StepFailure(f"injected fault at {path} ({kind.value})")

    # -- primitives ---------------------------------------------------------

    def run_primitive(self, path, activity, ctx):
        kind = activity.kind
        unit_id = ctx.params.get("unit_id")
        self._log("run_primitive", f"{kind.value} unit={unit_id} path={path}")
        self.clock.advance(1)
        self._check_fault(path, kind)

        entry = self.units.get(unit_id)
        state = entry.state if entry else LifecycleState.ABSENT
        new_state = transition(state, kind)  # raises IllegalTransitionError

        if kind is ActivityKind.TRANSFER:
            payload = ctx.params.get("_payload")
            resource = activity.param("resource")
            created = entry is None
            key = f"staged/{unit_id}/{resource}"
            self.files[key] = payload.digest if payload is not None else ""
            self.units[unit_id] = _moved(entry, ctx.unit, new_state)
            return {"kind": kind.value, "unit": unit_id, "key": key, "created": created}

        if kind is ActivityKind.INSTALL:
            created = entry is None  # resourceless unit installing straight from absent
            entry = self.units[unit_id] = _moved(entry, ctx.unit, new_state)
            staged = [k for k in sorted(self.files) if k.startswith(f"staged/{unit_id}/")]
            for key in staged:
                self.files[key.replace("staged/", "installed/", 1)] = self.files.pop(key)
            self._adjust_disk(-entry.footprint.count)
            return {
                "kind": kind.value,
                "unit": unit_id,
                "created": created,
                "staged": staged,
                "footprint": entry.footprint.count,
            }

        if kind in (ActivityKind.ACTIVATE, ActivityKind.DEACTIVATE):
            self.units[unit_id] = replace(entry, state=new_state)
            return {"kind": kind.value, "unit": unit_id, "prior": entry.state}

        if kind is ActivityKind.CONFIGURE:
            params = activity.param("params") or {}
            config = dict(entry.config) | {str(k): str(v) for k, v in params.items()}
            self.units[unit_id] = replace(entry, config=tuple(sorted(config.items())))
            return {"kind": kind.value, "unit": unit_id, "prior": entry.config}

        if kind is ActivityKind.UPDATE:
            new_unit = ctx.params.get("_new_unit")
            if new_unit is None:
                raise StepFailure("update: no replacement unit supplied")
            prior_files = {
                k: v for k, v in self.files.items() if k.startswith(f"installed/{unit_id}/")
            }
            for k in prior_files:
                del self.files[k]
            del self.units[unit_id]
            fresh = _deployed(new_unit, LifecycleState.INSTALLED)
            self.units[new_unit.id] = fresh
            for r in new_unit.resources:
                self.files[f"installed/{new_unit.id}/{r.name}"] = r.digest
            self._adjust_disk(entry.footprint.count - fresh.footprint.count)
            ctx.params["unit_id"] = new_unit.id  # later steps address the new unit
            return {
                "kind": kind.value,
                "old_entry": entry,
                "old_files": prior_files,
                "old_unit": unit_id,
                "new_unit": new_unit.id,
            }

        if kind is ActivityKind.UNINSTALL:
            for k in list(self.files):
                if k.startswith(f"installed/{unit_id}/"):
                    del self.files[k]
            del self.units[unit_id]
            self._adjust_disk(entry.footprint.count)
            return None  # non-compensable pivot

        if kind is ActivityKind.COPY:
            src = activity.param("from")
            dst = activity.param("to")
            existed = dst in self.files
            old = self.files.get(dst)
            self.files[dst] = self.files.get(src, f"copy-of:{src}")
            return {"kind": kind.value, "dst": dst, "existed": existed, "old": old}

        if kind is ActivityKind.VERIFY:
            if activity.expression is not None:
                outcome = evaluate(activity.expression, self.properties)
                if not outcome.is_satisfied:
                    raise StepFailure(f"verify failed: {json.dumps(outcome.to_json())}")
            return None

        raise StepFailure(f"unknown primitive {kind!r}")

    def compensate(self, path, activity, token, ctx):
        kind = activity.kind
        self._log("compensate", f"{kind.value} path={path}")
        self.clock.advance(1)

        if kind is ActivityKind.TRANSFER:
            self.files.pop(token["key"], None)
            if token["created"]:
                self.units.pop(token["unit"], None)
            return
        if kind is ActivityKind.INSTALL:
            unit_id = token["unit"]
            entry = self.units.get(unit_id)
            for key in token["staged"]:
                installed = key.replace("staged/", "installed/", 1)
                if installed in self.files:
                    self.files[key] = self.files.pop(installed)
            self._adjust_disk(token["footprint"])
            if token["created"]:
                self.units.pop(unit_id, None)
            elif entry is not None:
                self.units[unit_id] = replace(entry, state=LifecycleState.STAGED)
            return
        if kind is ActivityKind.ACTIVATE or kind is ActivityKind.DEACTIVATE:
            entry = self.units.get(token["unit"])
            if entry is not None:
                self.units[token["unit"]] = replace(entry, state=token["prior"])
            return
        if kind is ActivityKind.CONFIGURE:
            entry = self.units.get(token["unit"])
            if entry is not None:
                self.units[token["unit"]] = replace(entry, config=token["prior"])
            return
        if kind is ActivityKind.UPDATE:
            new_id = token["new_unit"]
            fresh = self.units.pop(new_id, None)
            for k in list(self.files):
                if k.startswith(f"installed/{new_id}/"):
                    del self.files[k]
            self.units[token["old_unit"]] = token["old_entry"]
            self.files.update(token["old_files"])
            if fresh is not None:
                self._adjust_disk(fresh.footprint.count - token["old_entry"].footprint.count)
            ctx.params["unit_id"] = token["old_unit"]
            return
        if kind is ActivityKind.COPY:
            if token["existed"]:
                self.files[token["dst"]] = token["old"]
            else:
                self.files.pop(token["dst"], None)
            return
        # verify: nothing to undo

    # -- internals ----------------------------------------------------------

    def _adjust_disk(self, delta: int) -> None:
        free = self.properties.get(DISK_FREE)
        if not isinstance(free, Size):
            return
        left = Size(max(0, free.count + delta))
        if left != free:
            self.machine = replace(self.machine, properties={**self.properties, DISK_FREE: left})

    def _log(self, method, detail):
        if self.call_log is not None:
            self.call_log.append(CallLogEntry(self.clock.tick, "site", self.machine_id, method, detail))


# ---------------------------------------------------------------------------
# Simulated app server


class SimulatedAppServer:
    """Serves resources of the catalog units the deployment service names."""

    def __init__(self, server_id, clock, call_log):
        self.server_id = server_id
        self.clock = clock
        self.call_log = call_log

    def fetch_resource(self, unit: PackagedUnit, resource_name: str) -> ResourcePayload:
        self._log("fetch_resource", f"{unit.id}/{resource_name}")
        self.clock.advance(1)
        for r in unit.resources:
            if r.name == resource_name:
                return ResourcePayload(unit.id, r.name, r.size, r.digest)
        raise UnknownUnitError(f"resource {resource_name!r} not in unit {unit.id!r}")

    def _log(self, method, detail):
        if self.call_log is not None:
            self.call_log.append(CallLogEntry(self.clock.tick, "server", self.server_id, method, detail))


# ---------------------------------------------------------------------------
# Fleet


@dataclass
class Fleet:
    sites: dict[str, SimulatedSite]
    servers: dict[str, SimulatedAppServer]
    clock: VirtualClock
    call_log: list[CallLogEntry] | None = None


def build_fleet(u: Universe, site_ids=None, call_log: list[CallLogEntry] | None = None) -> Fleet:
    """Spin up a role handle for every app server and for each client site
    that ``site_ids`` names, every client site when it is None. An id names
    the last machine with that id, as ``cross_validate`` reads it, so an id
    whose last machine is no client site gets no site handle. A single-site
    op builds its one site; a push and a scenario build every site.

    Every role call is appended to ``call_log`` when one is given. Only tests
    of the roles pass one: the engines (``LocalEngine``, ``ScenarioEngine``)
    pass none, so their fleets keep no log."""
    clock = VirtualClock()
    machines, positions = u.enterprise.machines, u.enterprise.positions
    servers = {mid: SimulatedAppServer(mid, clock, call_log) for mid in u.enterprise.app_servers}
    sites: dict[str, SimulatedSite] = {}
    client = MachineKind.CLIENT_SITE
    for sid in positions if site_ids is None else site_ids:
        i = positions.get(sid)
        if i is not None and machines[i].kind is client:
            sites[sid] = SimulatedSite(machines[i], clock, call_log, state=u.site_states.get(sid))
    return Fleet(sites=sites, servers=servers, clock=clock, call_log=call_log)


def sync_properties(u: Universe, fleet: Fleet) -> Universe:
    """Fold the machine of each site ``fleet`` holds back into the enterprise
    model, at the position of the last machine with its id, the one
    ``build_fleet`` hands over. Only the fleet's sites are looked at; a
    machine no op changed stays the same object, and with none changed ``u``
    is returned."""
    machines, positions = u.enterprise.machines, u.enterprise.positions
    swapped = {}
    for sid, site in fleet.sites.items():
        i = positions[sid]
        if site.machine is not machines[i]:
            swapped[i] = site.machine
    if not swapped:
        return u
    machines = list(machines)
    for i, machine in swapped.items():
        machines[i] = machine
    return replace(u, enterprise=replace(u.enterprise, machines=tuple(machines)))


def inject(fleet: Fleet, plan) -> Fleet:
    """Arm a fault plan; an empty plan is a no-op."""
    for fault in plan:
        site = fleet.sites.get(fault.site_id)
        if site is None:
            raise UnknownUnitError(f"no such site {fault.site_id!r}")
        site.arm(fault)
    return fleet


# ---------------------------------------------------------------------------
# Scenarios


class StepRefused(OryaError):
    """A scenario step the engine answered with an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class ExpectResult:
    clause: dict
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"clause": self.clause, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ScenarioReport:
    results: tuple[ExpectResult, ...]
    universe_digest: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "digest": self.universe_digest,
            "results": [r.to_json() for r in self.results],
        }


@dataclass
class Scenario:
    enterprise: dict
    catalog: dict
    script: list
    expects: list

    @classmethod
    def from_json(cls, doc: dict) -> "Scenario":
        return cls(
            enterprise=doc["enterprise"],
            catalog=doc.get("catalog", {}),
            script=list(doc.get("script", ())),
            expects=list(doc.get("expects", ())),
        )


def load_scenario(path: str | Path) -> Scenario:
    return read_document(path, str(path), Scenario.from_json)


def spawn_fleet(scenario: Scenario) -> tuple[Universe, Fleet]:
    """Build the universe and role handles a scenario script runs against."""
    enterprise = enterprise_from_json(scenario.enterprise)
    report = validate_enterprise(enterprise)
    if not report.ok:
        raise ValueError(f"scenario enterprise invalid: {report.to_json()}")
    u = replace(empty_universe(), enterprise=enterprise)
    for server_id in sorted(scenario.catalog):
        for manifest in scenario.catalog[server_id]:
            u = publish_unit(u, server_id, unit_from_json(manifest))
    return u, build_fleet(u)


def run_scenario(source: str | Path | dict) -> ScenarioReport:
    """Execute a scenario script and judge its expect clauses."""
    from .engine import ScenarioEngine  # the engine imports this module on first use

    scenario = (
        Scenario.from_json(source) if isinstance(source, dict) else load_scenario(source)
    )
    engine = ScenarioEngine(*spawn_fleet(scenario))
    responses: dict[str, dict] = {}
    for index, cmd in enumerate(scenario.script):
        response = _run_step(engine, cmd)
        if not response["ok"]:
            raise StepRefused(response["error"]["code"], response["error"]["message"])
        responses[cmd.get("id", str(index))] = response

    digest = universe_digest(engine.universe)
    results = tuple(
        _judge(clause, engine.universe, engine.fleet, responses) for clause in scenario.expects
    )
    return ScenarioReport(results, digest)


def _run_step(engine, cmd: dict) -> dict:
    """``inject`` arms faults; any other command is the service op of that
    name with dashes for underscores (a publish's manifest is under ``unit``)."""
    if cmd["cmd"] == "inject":
        faults = [
            Fault(
                site_id=f["site"],
                match=f["step"],
                mode=f.get("mode", "FAIL"),
                occurrence=int(f.get("occurrence", 1)),
            )
            for f in cmd["faults"]
        ]
        inject(engine.fleet, faults)
        return {"ok": True, "armed": len(faults)}
    req = {k: v for k, v in cmd.items() if k not in ("cmd", "id")}
    req["op"] = cmd["cmd"].replace("-", "_")
    if req["op"] == "publish":
        req["manifest"] = req.pop("unit")
    return engine.handle(req)


def _report_entries(responses: dict, step) -> list | None:
    report = responses.get(str(step), {}).get("report")
    return report.get("entries") if isinstance(report, dict) else None


def _judge(clause: dict, u, fleet, responses) -> ExpectResult:
    kind = clause["expect"]
    if kind == "lifecycle":
        site = fleet.sites.get(clause["site"])
        unit = site.units.get(clause["unit"]) if site else None
        actual = unit.state.value if unit else "ABSENT"
        ok = actual == clause["state"]
        return ExpectResult(clause, ok, f"actual state {actual}")
    if kind == "outcome":
        entries = _report_entries(responses, clause["step"])
        if entries is None:
            return ExpectResult(clause, False, "step produced no fleet report")
        matches = [e for e in entries if e["site"] == clause["site"]]
        if not matches:
            return ExpectResult(clause, False, "no entry for site")
        entry = matches[0]
        ok = entry["outcome"] == clause["value"]
        detail = f"actual {entry['outcome']} ({entry.get('reason', '')})"
        if not ok and "selection" in entry:
            detail += f"; selection: {json.dumps(entry['selection'])}"
        return ExpectResult(clause, ok, detail)
    if kind == "conflict":
        entries = _report_entries(responses, clause["step"])
        if entries is None:
            return ExpectResult(clause, False, "step produced no fleet report")
        found = []
        for e in entries:
            found.extend(e.get("conflicts", ()))
            for c in e.get("selection", {}).get("candidates", ()):
                found.extend(c["conflicts"])
        ok = any(
            c["kind"] == clause["kind"]
            and c["name"] == clause.get("name", c["name"])
            and c["blocking"] == clause.get("blocking", c["blocking"])
            for c in found
        )
        return ExpectResult(clause, ok, f"{len(found)} conflicts seen")
    if kind == "property":
        site = fleet.sites.get(clause["site"])
        actual = site.properties.get(clause["name"]) if site else None
        expected = value_from_json(clause["value"]) if clause.get("value") is not None else None
        ok = actual == expected
        return ExpectResult(clause, ok, f"actual {actual!r}")
    if kind == "plan-nonempty":
        plan = responses.get(str(clause["step"]), {}).get("plan")
        ok = isinstance(plan, dict) and bool(plan["actions"])
        return ExpectResult(clause, ok, "")
    if kind == "record-count":
        actual = len(u.deployments)
        return ExpectResult(clause, actual == clause["value"], f"actual {actual}")
    raise ValueError(f"unknown expect clause {kind!r}")
