"""Enterprise domain types: groups, machines, users, deployed units, site states.

The enterprise model is a forest of groups over machines of two kinds
(app servers and client sites), plus the users and roles that may touch
them. All types are immutable values; mutation helpers return new values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from . import expr as expr_mod
from .errors import (
    ExpressionSyntaxError,
    PropertyTypeChangeError,
    UnknownTargetError,
)
from .process import PRESENT, LifecycleState
from .values import (
    PropertyValue,
    Size,
    Version,
    canonical_json,
    expect,
    expect_items,
    kind_of,
    parse_property_map,
    property_map_to_json,
    size_from_json,
    valid_name,
)


class MachineKind(str, Enum):
    APP_SERVER = "app-server"
    CLIENT_SITE = "client-site"


@dataclass(frozen=True)
class Group:
    id: str
    parent: str | None = None
    members: tuple[str, ...] = ()  # machine ids
    subgroups: tuple[str, ...] = ()
    description: str = ""

    @cached_property
    def canonical_json(self) -> str:
        return canonical_json(group_to_json(self))


@dataclass(frozen=True)
class Machine:
    id: str
    kind: MachineKind
    properties: dict[str, PropertyValue] = field(default_factory=dict)
    standing_constraints: tuple[str, ...] = ()  # constraint source text
    group_ids: tuple[str, ...] = ()

    @cached_property
    def canonical_json(self) -> str:
        """Cached: no code writes ``properties`` in place."""
        return canonical_json(machine_to_json(self))


@dataclass(frozen=True)
class User:
    id: str
    roles: tuple[str, ...] = ()
    machine_ids: tuple[str, ...] = ()


@dataclass(frozen=True)
class EnterpriseModel:
    id: str
    groups: tuple[Group, ...] = ()
    machines: tuple[Machine, ...] = ()
    users: tuple[User, ...] = ()
    roles: tuple[str, ...] = ()

    @cached_property
    def canonical_json(self) -> str:
        """``canonical_json(enterprise_to_json(self))``, joined from each
        group's and machine's cached text in the key order ``sort_keys``
        gives, so a model that differs in one machine serialises one."""
        groups = ",".join([g.canonical_json for g in self.groups])
        machines = ",".join([m.canonical_json for m in self.machines])
        users = canonical_json([user_to_json(u) for u in self.users])
        return (
            f'{{"groups":[{groups}],"id":{canonical_json(self.id)},"machines":[{machines}],'
            f'"roles":{canonical_json(list(self.roles))},"users":{users}}}'
        )


@dataclass(frozen=True)
class DeployedUnit:
    """A unit's retained footprint on one client site.

    Carries enough of the original manifest (constraints, components,
    footprint) for reconfiguration and removal-safety checks to work even
    after the unit disappears from every catalog.
    """

    unit_id: str
    product_id: str
    version: Version
    state: LifecycleState
    footprint: Size = Size(0)
    provides: tuple[tuple[str, Version], ...] = ()
    requires: tuple[tuple[str, Version], ...] = ()
    constraints: tuple[str, ...] = ()
    config: tuple[tuple[str, str], ...] = ()

    @property
    def id(self) -> str:  # installed-unit protocol used by the safety checks
        return self.unit_id


@dataclass(frozen=True)
class ClientSiteState:
    machine_id: str
    deployed_units: tuple[DeployedUnit, ...] = ()
    products: tuple[str, ...] = ()

    @cached_property
    def canonical_json(self) -> str:
        return canonical_json(site_state_to_json(self))


def derive_products(units) -> tuple[str, ...]:
    """Products present on a site: those with >= 1 installed/active unit."""
    seen = []
    for u in units:
        if u.state in PRESENT and u.product_id not in seen:
            seen.append(u.product_id)
    return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# Validation


@dataclass(frozen=True)
class Violation:
    code: str  # DUP_ID | GROUP_CYCLE | DANGLING_REF | NO_ROLE | BAD_CONSTRAINT
    subject: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"code": v.code, "subject": v.subject, "detail": v.detail}
                for v in self.violations
            ],
        }


def validate_enterprise(model: EnterpriseModel) -> ValidationReport:
    """Check every structural invariant; total, reports all violations."""
    violations: list[Violation] = []

    def dup_check(ids, what):
        seen = set()
        for i in ids:
            if i in seen:
                violations.append(Violation("DUP_ID", i, f"duplicate {what} id"))
            seen.add(i)

    group_ids = [g.id for g in model.groups]
    machine_ids = [m.id for m in model.machines]
    user_ids = [u.id for u in model.users]
    dup_check(group_ids, "group")
    dup_check(machine_ids, "machine")
    dup_check(user_ids, "user")

    groups = {g.id: g for g in model.groups}
    machines = {m.id: m for m in model.machines}

    # Forest check: parent pointers must be acyclic and resolve.
    for g in model.groups:
        if g.parent == g.id:
            violations.append(Violation("GROUP_CYCLE", g.id, "group is its own parent"))
            continue
        if g.parent is not None and g.parent not in groups:
            violations.append(Violation("DANGLING_REF", g.id, f"parent {g.parent!r} missing"))
    for g in model.groups:
        seen = {g.id}
        cur = groups.get(g.parent) if g.parent else None
        while cur is not None:
            if cur.id in seen:
                violations.append(Violation("GROUP_CYCLE", g.id, f"cycle through {cur.id!r}"))
                break
            seen.add(cur.id)
            cur = groups.get(cur.parent) if cur.parent else None

    for g in model.groups:
        for m in g.members:
            if m not in machines:
                violations.append(Violation("DANGLING_REF", g.id, f"member {m!r} missing"))
        for s in g.subgroups:
            if s not in groups:
                violations.append(Violation("DANGLING_REF", g.id, f"subgroup {s!r} missing"))

    for m in model.machines:
        for name in m.properties:
            if not valid_name(name):
                violations.append(Violation("BAD_CONSTRAINT", m.id, f"bad property name {name!r}"))
        for text in m.standing_constraints:
            try:
                expr_mod.parse_once(text)
            except ExpressionSyntaxError as err:
                violations.append(Violation("BAD_CONSTRAINT", m.id, f"{text!r}: {err.message}"))
        for gid in m.group_ids:
            if gid not in groups:
                violations.append(Violation("DANGLING_REF", m.id, f"group {gid!r} missing"))

    for u in model.users:
        if not u.roles:
            violations.append(Violation("NO_ROLE", u.id, "user has no role"))
        for mid in u.machine_ids:
            if mid not in machines:
                violations.append(Violation("DANGLING_REF", u.id, f"machine {mid!r} missing"))

    # Report order-insensitively: sort for a stable, permutation-proof output.
    ordered = tuple(sorted(set(violations), key=lambda v: (v.code, v.subject, v.detail)))
    return ValidationReport(ordered)


# ---------------------------------------------------------------------------
# Target resolution


def resolve_targets(model: EnterpriseModel, target) -> set[str]:
    """Expand a group id or explicit machine-id list into client-site ids.

    Group membership is expanded transitively through subgroups; only
    machines of kind client-site survive the filter.
    """
    machines = {m.id: m for m in model.machines}
    groups = {g.id: g for g in model.groups}

    if isinstance(target, str):
        if target not in groups:
            raise UnknownTargetError(f"unknown group {target!r}")
        collected: set[str] = set()
        stack = [target]
        seen_groups: set[str] = set()
        while stack:
            gid = stack.pop()
            if gid in seen_groups:
                continue
            seen_groups.add(gid)
            g = groups.get(gid)
            if g is None:
                raise UnknownTargetError(f"unknown group {gid!r}")
            for m in g.members:
                if m not in machines:
                    raise UnknownTargetError(f"unknown machine {m!r} in group {gid!r}")
                collected.add(m)
            stack.extend(g.subgroups)
        return {m for m in collected if machines[m].kind is MachineKind.CLIENT_SITE}

    collected = set()
    for mid in target:
        if mid not in machines:
            raise UnknownTargetError(f"unknown machine {mid!r}")
        collected.add(mid)
    return {m for m in collected if machines[m].kind is MachineKind.CLIENT_SITE}


def lookup_machine(model: EnterpriseModel, machine_id: str) -> Machine:
    for m in model.machines:
        if m.id == machine_id:
            return m
    raise UnknownTargetError(f"unknown machine {machine_id!r}")


# ---------------------------------------------------------------------------
# Property changes


@dataclass(frozen=True)
class ChangeEvent:
    machine_id: str
    name: str
    old: PropertyValue | None
    new: PropertyValue | None
    removed: bool = False
    noop: bool = False


def apply_property_change(
    machine: Machine,
    name: str,
    value: PropertyValue | None = None,
    *,
    remove: bool = False,
) -> tuple[Machine, ChangeEvent]:
    """Set or remove one property, returning the updated machine and event.

    Setting an equal value is a flagged no-op. Changing the kind of an
    existing property is rejected; remove it first.
    """
    if not valid_name(name):
        raise ValueError(f"invalid property name {name!r}")
    props = dict(machine.properties)
    old = props.get(name)
    if remove:
        if name not in props:
            return machine, ChangeEvent(machine.id, name, None, None, removed=True, noop=True)
        del props[name]
        updated = replace(machine, properties=props)
        return updated, ChangeEvent(machine.id, name, old, None, removed=True)
    if value is None:
        raise ValueError("value required unless remove=True")
    if name in props:
        if old == value and kind_of(old) == kind_of(value):
            return machine, ChangeEvent(machine.id, name, old, value, noop=True)
        if kind_of(old) != kind_of(value):
            raise PropertyTypeChangeError(
                f"property {name!r} is {kind_of(old)}, cannot assign {kind_of(value)}"
            )
    props[name] = value
    updated = replace(machine, properties=props)
    return updated, ChangeEvent(machine.id, name, old, value)


# ---------------------------------------------------------------------------
# JSON document codec (enterprise model document)

_TOP_LEVEL_KEYS = {"id", "groups", "machines", "users", "roles"}


def enterprise_from_json(doc: dict) -> EnterpriseModel:
    """Decode the enterprise model document; rejects unknown top-level keys."""
    expect(doc, dict, "enterprise document")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise ValueError(f"unknown top-level keys: {sorted(unknown)}")
    groups = tuple(
        Group(
            id=expect(g["id"], str, "group id"),
            parent=None if g.get("parent") is None else expect(g["parent"], str, "group parent"),
            members=tuple(expect_items(g.get("members", []), str, "group members")),
            subgroups=tuple(expect_items(g.get("subgroups", []), str, "subgroups")),
            description=g.get("description", ""),
        )
        for g in expect_items(doc.get("groups", []), dict, "groups")
    )
    machines = tuple(
        Machine(
            id=expect(m["id"], str, "machine id"),
            kind=MachineKind(m["kind"]),
            properties=parse_property_map(m.get("properties", {}), f"machine {m['id']}"),
            standing_constraints=tuple(expect_items(m.get("constraints", []), str, "constraints")),
            group_ids=tuple(expect_items(m.get("groups", []), str, "machine groups")),
        )
        for m in expect_items(doc.get("machines", []), dict, "machines")
    )
    users = tuple(
        User(
            id=expect(u["id"], str, "user id"),
            roles=tuple(expect_items(u.get("roles", []), str, "user roles")),
            machine_ids=tuple(expect_items(u.get("machines", []), str, "user machines")),
        )
        for u in expect_items(doc.get("users", []), dict, "users")
    )
    return EnterpriseModel(
        id=doc.get("id", "enterprise"),
        groups=groups,
        machines=machines,
        users=users,
        roles=tuple(expect_items(doc.get("roles", []), str, "roles")),
    )


def group_to_json(g: Group) -> dict:
    return {
        "id": g.id,
        "parent": g.parent,
        "members": list(g.members),
        "subgroups": list(g.subgroups),
        "description": g.description,
    }


def machine_to_json(m: Machine) -> dict:
    return {
        "id": m.id,
        "kind": m.kind.value,
        "properties": property_map_to_json(m.properties),
        "constraints": list(m.standing_constraints),
        "groups": list(m.group_ids),
    }


def user_to_json(u: User) -> dict:
    return {"id": u.id, "roles": list(u.roles), "machines": list(u.machine_ids)}


def enterprise_to_json(model: EnterpriseModel) -> dict:
    return {
        "id": model.id,
        "groups": [group_to_json(g) for g in model.groups],
        "machines": [machine_to_json(m) for m in model.machines],
        "users": [user_to_json(u) for u in model.users],
        "roles": list(model.roles),
    }


def deployed_unit_from_json(d: dict) -> DeployedUnit:
    return DeployedUnit(
        unit_id=expect(d["unit"], str, "unit id"),
        product_id=expect(d["product"], str, "unit product"),
        version=Version.parse(d["version"]),
        state=LifecycleState(d["state"]),
        footprint=size_from_json(d["footprint"]),
        provides=tuple(
            (expect(p["name"], str, "provided name"), Version.parse(p["version"]))
            for p in expect_items(d.get("provides", []), dict, "provides")
        ),
        requires=tuple(
            (expect(r["name"], str, "required name"), Version.parse(r["min"]))
            for r in expect_items(d.get("requires", []), dict, "requires")
        ),
        constraints=tuple(expect_items(d.get("constraints", []), str, "unit constraints")),
        config=tuple(sorted(expect(d.get("config", {}), dict, "unit config").items())),
    )


def deployed_unit_to_json(u: DeployedUnit) -> dict:
    return {
        "unit": u.unit_id,
        "product": u.product_id,
        "version": str(u.version),
        "state": u.state,
        "footprint": str(u.footprint),
        "provides": [{"name": n, "version": str(v)} for n, v in u.provides],
        "requires": [{"name": n, "min": str(v)} for n, v in u.requires],
        "constraints": list(u.constraints),
        "config": {k: v for k, v in u.config},
    }


def site_state_from_json(doc: dict, shared: dict[str, DeployedUnit] | None = None) -> ClientSiteState:
    """Decode a site state. ``shared`` maps the canonical text of each unit
    document decoded so far to its value, so sites holding equal units share
    one ``DeployedUnit``; callers keep it for one store open."""
    shared = {} if shared is None else shared
    units = []
    for d in expect_items(doc.get("units", []), dict, "units"):
        key = canonical_json(d)
        unit = shared.get(key)
        if unit is None:
            unit = shared[key] = deployed_unit_from_json(d)
        units.append(unit)
    return ClientSiteState(
        machine_id=doc["machine"],
        deployed_units=tuple(units),
        products=tuple(expect_items(doc["products"], str, "products")),
    )


def site_state_to_json(state: ClientSiteState) -> dict:
    return {
        "machine": state.machine_id,
        "units": [deployed_unit_to_json(u) for u in state.deployed_units],
        "products": list(state.products),
    }
