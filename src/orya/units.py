"""Packaged deployment units: everything needed to deploy in one entity."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import expr as expr_mod
from .process import ProcessDef, process_from_json, process_to_json
from .values import (
    PropertyValue,
    Size,
    Version,
    canonical_json,
    expect,
    expect_items,
    parse_property_map,
    property_map_to_json,
    size_from_json,
)


@dataclass(frozen=True)
class Resource:
    """A deployment payload, simulated as (size, digest); no real bytes move."""

    name: str
    size: Size = Size(0)
    digest: str = ""


@dataclass(frozen=True)
class PackagedUnit:
    id: str
    product_id: str
    product_version: Version
    descriptive_properties: dict[str, PropertyValue] = field(default_factory=dict)
    constraints: tuple[str, ...] = ()  # constraint source text
    footprint: Size = Size(0)
    resources: tuple[Resource, ...] = ()
    provides: tuple[tuple[str, Version], ...] = ()
    requires: tuple[tuple[str, Version], ...] = ()  # (name, min version)
    process: ProcessDef | None = None  # None: the default install template

    @cached_property
    def parsed_constraints(self) -> tuple[expr_mod.Expression, ...]:
        """The constraint trees, from the shared parse table."""
        return tuple(expr_mod.parse_once(c) for c in self.constraints)

    @cached_property
    def canonical_json(self) -> str:
        return canonical_json(unit_to_json(self))


_MANIFEST_KEYS = {
    "id",
    "product",
    "version",
    "properties",
    "constraints",
    "footprint",
    "resources",
    "provides",
    "requires",
    "process",
}


def unit_from_json(doc: dict) -> PackagedUnit:
    """Decode a unit manifest document."""
    expect(doc, dict, "unit manifest")
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
    for key in ("id", "product", "version"):
        if key not in doc:
            raise ValueError(f"unit manifest missing {key!r}")
    unit_id = expect(doc["id"], str, "unit id")
    constraints = tuple(expect_items(doc.get("constraints", []), str, "constraints"))
    for text in constraints:
        expr_mod.parse_once(text)  # reject bad constraints at load time
    provides = tuple(
        (expect(p["name"], str, "provided name"), Version.parse(p["version"]))
        for p in expect_items(doc.get("provides", []), dict, "provides")
    )
    names = [n for n, _ in provides]
    if len(names) != len(set(names)):
        raise ValueError(f"unit {unit_id!r}: duplicate provided component names")
    process = None
    if doc.get("process") is not None:
        process = process_from_json(doc["process"], default_id=f"{unit_id}.install")
    return PackagedUnit(
        id=unit_id,
        product_id=expect(doc["product"], str, "unit product"),
        product_version=Version.parse(doc["version"]),
        descriptive_properties=parse_property_map(doc.get("properties", {}), f"unit {unit_id}"),
        constraints=constraints,
        footprint=size_from_json(doc.get("footprint", 0)),
        resources=tuple(
            Resource(
                expect(r["name"], str, "resource name"),
                size_from_json(r.get("size", 0)),
                r.get("digest", ""),
            )
            for r in expect_items(doc.get("resources", []), dict, "resources")
        ),
        provides=provides,
        requires=tuple(
            (expect(r["name"], str, "required name"), Version.parse(r["min"]))
            for r in expect_items(doc.get("requires", []), dict, "requires")
        ),
        process=process,
    )


def unit_to_json(unit: PackagedUnit) -> dict:
    out = {
        "id": unit.id,
        "product": unit.product_id,
        "version": str(unit.product_version),
        "properties": property_map_to_json(unit.descriptive_properties),
        "constraints": list(unit.constraints),
        "footprint": str(unit.footprint),
        "resources": [
            {"name": r.name, "size": str(r.size), "digest": r.digest} for r in unit.resources
        ],
        "provides": [{"name": n, "version": str(v)} for n, v in unit.provides],
        "requires": [{"name": n, "min": str(v)} for n, v in unit.requires],
    }
    if unit.process is not None:
        out["process"] = process_to_json(unit.process)
    return out
