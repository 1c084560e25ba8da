"""Shared-component safety analysis.

Installing a unit must not break what is already on the site: a candidate
that provides an already-present component at a different version would
overwrite it, and a candidate whose requirements nothing satisfies would be
broken on arrival. The removal check is the mirror image: nothing still in
use may lose its only provider.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import UnknownUnitError
from .values import Version


class SafetyPolicy(str, Enum):
    REJECT = "reject"
    FORCE = "force"
    SHARED_HIGHEST = "shared-highest"


class ConflictKind(str, Enum):
    OVERWRITE = "OVERWRITE"
    MISSING_REQ = "MISSING_REQ"
    STILL_REQUIRED = "STILL_REQUIRED"


@dataclass(frozen=True)
class Conflict:
    kind: ConflictKind
    name: str
    installed_version: Version | None = None
    candidate_version: Version | None = None
    min_version: Version | None = None
    blocking: bool = True

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "name": self.name, "blocking": self.blocking}
        if self.installed_version is not None:
            out["installed"] = str(self.installed_version)
        if self.candidate_version is not None:
            out["candidate"] = str(self.candidate_version)
        if self.min_version is not None:
            out["min"] = str(self.min_version)
        return out


def _provides_of(units) -> list[tuple[str, Version]]:
    pairs = []
    for u in units:
        pairs.extend(u.provides)
    return pairs


def check_safety(installed_units, candidate, policy: SafetyPolicy) -> list[Conflict]:
    """Conflicts raised by installing ``candidate`` next to ``installed_units``.

    OVERWRITE: same component name provided at a different version. Under
    shared-highest it downgrades to a warning iff the higher of the two
    versions still satisfies every installed requirer; under force every
    conflict is a warning.

    MISSING_REQ: a candidate requirement no installed or self-provided
    component satisfies (same name, version >= min).
    """
    conflicts: list[Conflict] = []
    installed_provides = _provides_of(installed_units)

    for name, cand_version in candidate.provides:
        for inst_name, inst_version in installed_provides:
            if inst_name != name or inst_version == cand_version:
                continue
            blocking = True
            if policy is SafetyPolicy.FORCE:
                blocking = False
            elif policy is SafetyPolicy.SHARED_HIGHEST:
                winner = max(inst_version, cand_version)
                blocking = not all(
                    winner >= min_version
                    for u in installed_units
                    for req_name, min_version in u.requires
                    if req_name == name
                )
            conflicts.append(
                Conflict(
                    ConflictKind.OVERWRITE,
                    name,
                    installed_version=inst_version,
                    candidate_version=cand_version,
                    blocking=blocking,
                )
            )

    available = installed_provides + list(candidate.provides)
    for name, min_version in candidate.requires:
        satisfied = any(n == name and v >= min_version for n, v in available)
        if not satisfied:
            conflicts.append(
                Conflict(
                    ConflictKind.MISSING_REQ,
                    name,
                    min_version=min_version,
                    blocking=policy is not SafetyPolicy.FORCE,
                )
            )
    return conflicts


def check_removal_safety(installed_units, removing: str) -> list[Conflict]:
    """STILL_REQUIRED conflicts for removing one installed unit.

    A component is still required when some remaining unit's requirement was
    satisfied before the removal but no longer is after it.
    """
    by_id = {u.id: u for u in installed_units}
    if removing not in by_id:
        raise UnknownUnitError(f"unit {removing!r} is not installed")
    remaining = [u for u in installed_units if u.id != removing]
    before = _provides_of(installed_units)
    after = _provides_of(remaining)

    conflicts: list[Conflict] = []
    seen: set[str] = set()
    for unit in remaining:
        for name, min_version in unit.requires:
            was = any(n == name and v >= min_version for n, v in before)
            still = any(n == name and v >= min_version for n, v in after)
            if was and not still and name not in seen:
                seen.add(name)
                conflicts.append(
                    Conflict(ConflictKind.STILL_REQUIRED, name, min_version=min_version)
                )
    return conflicts


def blocking_conflicts(conflicts) -> list[Conflict]:
    return [c for c in conflicts if c.blocking]
