"""What an op answers about each site it touched, and ``status``, the one
read op over deployment records. Kept apart from the orchestrator, so that a
read process never loads the push path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .universe import Universe, query_status

if TYPE_CHECKING:
    from .selection import SelectionReport


@dataclass(frozen=True)
class SiteOutcome:
    site_id: str
    outcome: str  # DEPLOYED | SKIPPED | FAILED | ROLLED_BACK | WOULD_DEPLOY | ...
    reason: str = ""
    unit_id: str | None = None
    record_id: str | None = None
    selection: SelectionReport | None = None
    conflicts: tuple = ()

    def to_json(self) -> dict:
        out = {"site": self.site_id, "outcome": self.outcome}
        if self.reason:
            out["reason"] = self.reason
        if self.unit_id:
            out["unit"] = self.unit_id
        if self.record_id:
            out["record"] = self.record_id
        if self.selection is not None:
            out["selection"] = self.selection.to_json()
        if self.conflicts:
            out["conflicts"] = [c.to_json() for c in self.conflicts]
        return out


@dataclass(frozen=True)
class FleetReport:
    entries: tuple[SiteOutcome, ...] = ()

    @property
    def summary(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.outcome] = counts.get(e.outcome, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "summary": dict(sorted(self.summary.items())),
        }


def status(
    u: Universe,
    site: str | None = None,
    product: str | None = None,
    outcome: str | None = None,
    mode: str | None = None,
) -> FleetReport:
    """Read-only aggregation over deployment records."""
    entries = []
    for r in query_status(u, site=site, product=product, outcome=outcome, mode=mode):
        entries.append(
            SiteOutcome(
                r.site_id,
                r.outcome,
                reason=r.mode.value,
                unit_id=r.unit_id,
                record_id=r.id,
            )
        )
    return FleetReport(tuple(entries))
