"""The deployment service: global view, push/pull/reconfigure over a fleet.

App servers and client sites never address each other; every resource fetch
is brokered here. Per-site failures never abort a fleet loop, and all
operations are pure over the universe: they return the updated value plus a
report.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as expr_mod
from .errors import (
    IllegalTransitionError,
    NotDeployedError,
    StepFailure,
    UnknownProductError,
    UnknownUnitError,
)
from .expr import EvalMemo, Status
from .model import ChangeEvent, DeployedUnit, Machine, resolve_targets
from .process import (
    PRESENT,
    Activity,
    ActivityKind,
    ExecutionContext,
    LifecycleState,
    ProcessDef,
    Seq,
    TraceStatus,
    default_process_for,
    execute,
    transition,
    validate_process,
)
from .report import FleetReport, SiteOutcome
from .safety import SafetyPolicy, blocking_conflicts, check_removal_safety
from .selection import select_package
from .units import PackagedUnit
from .universe import (
    DeployMode,
    DeploymentRecord,
    Universe,
    record_deployment,
    set_site_state,
)

# ---------------------------------------------------------------------------
# Requests and reports


@dataclass(frozen=True)
class DeployRequest:
    target: str | tuple[str, ...]  # group id or explicit machine ids
    product_id: str
    policy: SafetyPolicy = SafetyPolicy.REJECT
    dry_run: bool = False
    extra_filters: tuple[str, ...] = ()  # constraint text over candidate properties


@dataclass(frozen=True)
class PlanAction:
    unit_id: str
    action: str  # RESELECT | DEACTIVATE | NONE
    replacement: str | None = None
    reasons: tuple[str, ...] = ()

    def to_json(self) -> dict:
        out = {"unit": self.unit_id, "action": self.action, "reasons": list(self.reasons)}
        if self.replacement:
            out["replacement"] = self.replacement
        return out


@dataclass(frozen=True)
class ReconfigurationPlan:
    site_id: str
    actions: tuple[PlanAction, ...] = ()

    @property
    def empty(self) -> bool:
        return not self.actions

    def to_json(self) -> dict:
        return {"site": self.site_id, "actions": [a.to_json() for a in self.actions]}


# ---------------------------------------------------------------------------
# Brokered primitive execution


class BrokeredExecutor:
    """Runs primitives against one site; resource and unit lookups go through
    the deployment service, never from the site to an app server."""

    def __init__(self, site, fetcher, units_by_id):
        self.site = site
        self.fetcher = fetcher  # (unit_id, resource_name) -> ResourcePayload
        self.units_by_id = units_by_id

    def run(self, path: str, activity: Activity, ctx: ExecutionContext):
        if activity.kind is ActivityKind.TRANSFER:
            unit = ctx.unit
            resource = activity.param("resource")
            try:
                ctx.params["_payload"] = self.fetcher(unit.id, resource)
            except Exception as err:
                raise StepFailure(f"fetch {resource!r} failed: {err}") from err
        elif activity.kind is ActivityKind.UPDATE:
            new_id = activity.param("unit")
            new_unit = self.units_by_id.get(new_id)
            if new_unit is None:
                raise StepFailure(f"update target unit {new_id!r} unknown")
            ctx.params["_new_unit"] = new_unit
        try:
            return self.site.run_primitive(path, activity, ctx)
        except StepFailure:
            raise
        except IllegalTransitionError as err:
            raise StepFailure(err.message) from err

    def compensate(self, path: str, activity: Activity, token, ctx: ExecutionContext):
        self.site.compensate(path, activity, token, ctx)


def _catalog_candidates(u: Universe, product_id: str) -> dict[str, PackagedUnit]:
    """Candidates across all app servers; duplicate unit ids resolve to the
    first server in id order."""
    by_id: dict[str, PackagedUnit] = {}
    for server in sorted(u.catalog):
        for unit in u.catalog[server]:
            if unit.product_id == product_id and unit.id not in by_id:
                by_id[unit.id] = unit
    return by_id


def _make_fetcher(u: Universe, fleet):
    def fetch(unit_id: str, resource_name: str):
        for server in sorted(u.catalog):
            for unit in u.catalog[server]:
                if unit.id == unit_id:
                    return fleet.servers[server].fetch_resource(unit, resource_name)
        raise UnknownUnitError(f"no server holds unit {unit_id!r}")

    return fetch


def _site_view(handle) -> Machine:
    """The live site's machine, for constraint checks. The view is read
    through the site's role calls, so both stay in the call log; the machine
    itself is returned, so its parsed standing constraints live as long as
    it does."""
    handle.get_properties()
    handle.get_constraints()
    return handle.machine


# The outcome of a site whose process failed; each op names its own success.
_STATUS_OUTCOME = {
    TraceStatus.ROLLED_BACK: "ROLLED_BACK",
    TraceStatus.PARTIALLY_ROLLED_BACK: "FAILED",
}


def _run_process(
    u: Universe,
    fleet,
    site_id: str,
    unit: PackagedUnit | DeployedUnit,
    process: ProcessDef,
    mode: DeployMode,
    units_by_id,
    success: str,
    result_unit_id: str | None = None,
    **fields,
) -> tuple[Universe, SiteOutcome]:
    """Execute one process on one site, commit site state, append the record.

    ``unit`` is the catalog unit a deployment places, or the site's deployed
    unit for undeploy, activation and update, which read only its ids. The
    site's outcome is ``success`` when the trace succeeded, else the label
    of its failure status; ``fields`` are the outcome's other report fields."""
    handle = fleet.sites[site_id]
    executor = BrokeredExecutor(handle, _make_fetcher(u, fleet), units_by_id)
    deployment_id = u.next_deployment_id()
    ctx = ExecutionContext(
        deployment_id=deployment_id,
        unit=unit,
        params={"unit_id": unit.id},
        clock=fleet.clock.now,
    )
    started = fleet.clock.now()
    trace = execute(process, ctx, executor)
    finished = fleet.clock.now()
    # Site state commits before the record: a crash in between leaves only a
    # record-less state change, which open_universe tolerates.
    u = set_site_state(u, handle.get_state())
    record = DeploymentRecord(
        id=deployment_id,
        site_id=site_id,
        product_id=unit.product_id,
        unit_id=result_unit_id or unit.id,
        process=process,
        params=(),
        trace=trace,
        mode=mode,
        started_at=started,
        finished_at=finished,
    )
    u = record_deployment(u, record)
    outcome = success if trace.status is TraceStatus.SUCCESS else _STATUS_OUTCOME[trace.status]
    return u, SiteOutcome(site_id, outcome, unit_id=record.unit_id, record_id=record.id, **fields)


# ---------------------------------------------------------------------------
# Push deployment


def push_deploy(u: Universe, req: DeployRequest, fleet) -> tuple[Universe, FleetReport]:
    """Deploy one product to every resolved target site.

    Per site: gather candidates across all app servers, select, execute the
    chosen unit's process, record the outcome. Sites with no admissible
    candidate are skipped with the per-candidate reasons attached. A unit's
    process is built and validated once per push, the first time a site
    chooses the unit, and the push's one ``EvalMemo`` evaluates each
    constraint once per distinct input.
    """
    units_by_id = _catalog_candidates(u, req.product_id)
    if not units_by_id:
        raise UnknownProductError(f"product {req.product_id!r} not in any catalog")
    for text in req.extra_filters:
        expr_mod.parse_once(text)  # SYNTAX before any site
    targets = resolve_targets(u.enterprise, req.target)
    processes: dict[str, ProcessDef | None] = {}  # unit id -> process, None if invalid
    memo = EvalMemo()

    entries: list[SiteOutcome] = []
    for site_id in sorted(targets):
        try:
            u, entry = _deploy_one(u, fleet, site_id, req, units_by_id, processes, memo)
        except Exception as err:  # per-site isolation: never abort the loop
            entry = SiteOutcome(site_id, "FAILED", reason=str(err))
        entries.append(entry)
    return u, FleetReport(tuple(entries))


def _deploy_one(u, fleet, site_id, req, units_by_id, processes, memo):
    handle = fleet.sites[site_id]
    view = _site_view(handle)
    state = handle.get_state()
    # Push deployment is idempotent per unit: units already on the site are
    # not candidates again, and a site holding every candidate is skipped.
    present = {du.unit_id for du in state.deployed_units if du.state != LifecycleState.REMOVED}
    candidates = [units_by_id[k] for k in sorted(units_by_id) if k not in present]
    if not candidates:
        return u, SiteOutcome(site_id, "SKIPPED", reason="ALREADY_DEPLOYED")
    sel = select_package(
        req.product_id,
        candidates,
        view,
        state,
        policy=req.policy,
        extra_filters=req.extra_filters,
        memo=memo,
    )
    if sel.chosen is None:
        return u, SiteOutcome(site_id, "SKIPPED", reason="NO_ADMISSIBLE", selection=sel)
    if req.dry_run:
        return u, SiteOutcome(site_id, "WOULD_DEPLOY", unit_id=sel.chosen, selection=sel)

    unit = units_by_id[sel.chosen]
    if unit.id not in processes:
        process = unit.process or default_process_for(unit)
        processes[unit.id] = process if validate_process(process).ok else None
    process = processes[unit.id]
    if process is None:
        return u, SiteOutcome(site_id, "FAILED", reason="INVALID_PROCESS", selection=sel)
    return _run_process(
        u, fleet, site_id, unit, process, DeployMode.PUSH, units_by_id, "DEPLOYED", selection=sel
    )


# ---------------------------------------------------------------------------
# Pull update


def pull_update(
    u: Universe,
    site_id: str,
    product_id: str,
    fleet,
    policy: SafetyPolicy = SafetyPolicy.REJECT,
) -> tuple[Universe, FleetReport]:
    """User-requested update of one deployed product on one site.

    Only candidates strictly newer than the deployed version are considered;
    the chosen one replaces the old unit in place (deactivate, update,
    re-activate when the unit was active)."""
    if not any(
        r.site_id == site_id and r.product_id == product_id for r in u.deployments.values()
    ):
        raise NotDeployedError(f"product {product_id!r} was never deployed to {site_id!r}")
    handle = fleet.sites[site_id]
    state = handle.get_state()
    current = next(
        (
            du
            for du in state.deployed_units
            if du.product_id == product_id and du.state in PRESENT
        ),
        None,
    )
    if current is None:
        raise NotDeployedError(f"product {product_id!r} is not installed on {site_id!r}")

    units_by_id = _catalog_candidates(u, product_id)
    newer = {k: v for k, v in units_by_id.items() if v.product_version > current.version}
    if not newer:
        entry = SiteOutcome(site_id, "SKIPPED", reason="UP_TO_DATE", unit_id=current.unit_id)
        return u, FleetReport((entry,))

    view = _site_view(handle)
    sel = select_package(
        product_id,
        [newer[k] for k in sorted(newer)],
        view,
        state,
        policy=policy,
        replacing=current,
    )
    if sel.chosen is None:
        entry = SiteOutcome(site_id, "SKIPPED", reason="UP_TO_DATE", selection=sel)
        return u, FleetReport((entry,))

    u, entry = _apply_update(
        u, fleet, site_id, current, newer[sel.chosen], DeployMode.PULL, units_by_id, "UPDATED",
        selection=sel,
    )
    return u, FleetReport((entry,))


def _apply_update(
    u, fleet, site_id, current: DeployedUnit, new_unit: PackagedUnit, mode, units_by_id, success, **fields
):
    steps = [Activity.make(ActivityKind.UPDATE, unit=new_unit.id)]
    if current.state == LifecycleState.ACTIVE:
        steps = (
            [Activity.make(ActivityKind.DEACTIVATE)]
            + steps
            + [Activity.make(ActivityKind.ACTIVATE)]
        )
    process = ProcessDef(id=f"{current.unit_id}.update", root=Seq(tuple(steps)))
    # ctx.unit is the unit currently on site; the update activity swaps it.
    return _run_process(
        u, fleet, site_id, current, process, mode, units_by_id, success,
        result_unit_id=new_unit.id, **fields,
    )


# ---------------------------------------------------------------------------
# Reconfiguration


def on_property_change(
    u: Universe,
    site_id: str,
    change: ChangeEvent | None,
    fleet,
    apply: bool = False,
):
    """React to changed site characteristics using the retained unit data.

    Re-evaluates every deployed unit's constraints plus the site's standing
    constraints under the new properties. Returns a ReconfigurationPlan when
    ``apply`` is false, else executes the plan and returns
    ``(universe, FleetReport)``.
    """
    handle = fleet.sites[site_id]
    view = _site_view(handle)
    state = handle.get_state()
    memo = EvalMemo()

    standing_ok = all(
        s.outcome.status is Status.SATISFIED for s in expr_mod.check_standing(view, 0, memo)
    )

    actions: list[PlanAction] = []
    for du in state.deployed_units:
        if du.state not in PRESENT:
            continue
        reasons: list[str] = []
        for text in du.constraints:
            outcome = memo.outcome((text,), view.properties)
            if outcome.status is not Status.SATISFIED:
                reasons.append(f"{outcome.status.value}: {text}")
        if not standing_ok:
            reasons.append("STANDING_VIOLATED")
        if not reasons:
            continue

        units_by_id = _catalog_candidates(u, du.product_id)
        candidates = [units_by_id[k] for k in sorted(units_by_id)]
        replacement = None
        if candidates:
            sel = select_package(
                du.product_id, candidates, view, state, replacing=du, memo=memo
            )
            if sel.chosen is not None and sel.chosen != du.unit_id:
                replacement = sel.chosen
        if replacement is not None:
            actions.append(PlanAction(du.unit_id, "RESELECT", replacement, tuple(reasons)))
        elif du.state == LifecycleState.ACTIVE:
            actions.append(PlanAction(du.unit_id, "DEACTIVATE", reasons=tuple(reasons)))
        else:
            actions.append(PlanAction(du.unit_id, "NONE", reasons=tuple(reasons)))

    plan = ReconfigurationPlan(site_id, tuple(actions))
    if not apply:
        return plan
    return apply_reconfiguration(u, plan, fleet)


def apply_reconfiguration(u: Universe, plan: ReconfigurationPlan, fleet) -> tuple[Universe, FleetReport]:
    entries: list[SiteOutcome] = []
    site_id = plan.site_id
    handle = fleet.sites[site_id]
    for action in plan.actions:
        state = handle.get_state()
        du = next((d for d in state.deployed_units if d.unit_id == action.unit_id), None)
        if du is None:
            entries.append(SiteOutcome(site_id, "SKIPPED", reason="GONE", unit_id=action.unit_id))
            continue
        if action.action == "RESELECT":
            units_by_id = _catalog_candidates(u, du.product_id)
            new_unit = units_by_id[action.replacement]
            u, entry = _apply_update(
                u, fleet, site_id, du, new_unit, DeployMode.RECONFIGURE, units_by_id, "RECONFIGURED"
            )
            entries.append(entry)
        elif action.action == "DEACTIVATE":
            u, entry = _single_transition(
                u, fleet, site_id, du, ActivityKind.DEACTIVATE, DeployMode.RECONFIGURE
            )
            entries.append(entry)
        else:
            entries.append(SiteOutcome(site_id, "SKIPPED", reason="NO_ACTION", unit_id=du.unit_id))
    return u, FleetReport(tuple(entries))


# ---------------------------------------------------------------------------
# Removal, activation, deactivation


def _deployed_unit(state, unit_id: str) -> DeployedUnit:
    """The unit ``unit_id`` on the site whose state is ``state``."""
    du = next((d for d in state.deployed_units if d.unit_id == unit_id), None)
    if du is None:
        raise UnknownUnitError(f"unit {unit_id!r} is not deployed on {state.machine_id!r}")
    return du


def undeploy(
    u: Universe, site_id: str, unit_id: str, fleet, force: bool = False
) -> tuple[Universe, FleetReport]:
    state = fleet.sites[site_id].get_state()
    du = _deployed_unit(state, unit_id)
    conflicts = tuple(check_removal_safety(state.deployed_units, unit_id))
    if blocking_conflicts(conflicts) and not force:
        entry = SiteOutcome(
            site_id, "SKIPPED", reason="UNSAFE_REMOVAL", unit_id=unit_id, conflicts=conflicts
        )
        return u, FleetReport((entry,))

    steps = [Activity.make(ActivityKind.UNINSTALL)]
    if du.state == LifecycleState.ACTIVE:
        steps.insert(0, Activity.make(ActivityKind.DEACTIVATE))
    process = ProcessDef(id=f"{unit_id}.uninstall", root=Seq(tuple(steps)))
    u, entry = _run_process(
        u, fleet, site_id, du, process, DeployMode.PUSH, {}, "REMOVED",
        conflicts=conflicts if force else (),
    )
    return u, FleetReport((entry,))


def _single_transition(u, fleet, site_id, du: DeployedUnit, kind: ActivityKind, mode: DeployMode):
    try:
        transition(du.state, kind)
    except IllegalTransitionError:
        return u, SiteOutcome(site_id, "SKIPPED", reason="ILLEGAL_TRANSITION", unit_id=du.unit_id)
    process = ProcessDef(id=f"{du.unit_id}.{kind.value}", root=Seq((Activity.make(kind),)))
    success = "ACTIVATED" if kind is ActivityKind.ACTIVATE else "DEACTIVATED"
    return _run_process(u, fleet, site_id, du, process, mode, {}, success)


def activate(u: Universe, site_id: str, unit_id: str, fleet) -> tuple[Universe, FleetReport]:
    return _activation(u, site_id, unit_id, fleet, ActivityKind.ACTIVATE)


def deactivate(u: Universe, site_id: str, unit_id: str, fleet) -> tuple[Universe, FleetReport]:
    return _activation(u, site_id, unit_id, fleet, ActivityKind.DEACTIVATE)


def _activation(u, site_id, unit_id, fleet, kind):
    du = _deployed_unit(fleet.sites[site_id].get_state(), unit_id)
    u, entry = _single_transition(u, fleet, site_id, du, kind, DeployMode.PUSH)
    return u, FleetReport((entry,))
