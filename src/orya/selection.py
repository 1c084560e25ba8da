"""Constraint-based package selection for one product on one site.

A candidate is admissible when its own constraints hold on the site, the
site's standing constraints survive the extra footprint, and installing it
raises no blocking safety conflict. Among admissible candidates the highest
product version wins, then the smallest footprint, then the smallest id.

Every constraint is evaluated through an ``expr.EvalMemo``: one per push, or
one per call when the caller passes none. Its entries are keyed by the
constraint's source text and the typed values of the properties the text
reads, so a push evaluates each text once per distinct input, not once per
site, and the sites that share an outcome share its report fragment, as
sites whose candidate reports match share one report. Keys are never
``Expression``, dataclass or bare value equality: ``1 == True`` and
``Version`` padding would merge constraints whose reports differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .expr import EvalMemo, EvalOutcome, StandingCheck, Status, check_standing
from .safety import Conflict, SafetyPolicy, blocking_conflicts, check_safety


@dataclass(frozen=True)
class CandidateReport:
    unit_id: str
    constraint_outcome: EvalOutcome
    standing: tuple[StandingCheck, ...]
    conflicts: tuple[Conflict, ...]
    filter_outcome: EvalOutcome | None  # None when no extra filters given
    admissible: bool
    reasons: tuple[str, ...] = ()

    def to_json(self) -> dict:
        """Built once per report and shared, like ``EvalOutcome.to_json``."""
        return self._json

    @cached_property
    def _json(self) -> dict:
        out = {
            "unit": self.unit_id,
            "admissible": self.admissible,
            "constraints": self.constraint_outcome.to_json(),
            "standing": [s.to_json() for s in self.standing],
            "conflicts": [c.to_json() for c in self.conflicts],
            "reasons": list(self.reasons),
        }
        if self.filter_outcome is not None:
            out["filter"] = self.filter_outcome.to_json()
        return out


@dataclass(frozen=True)
class SelectionReport:
    product_id: str
    candidates: tuple[CandidateReport, ...]
    chosen: str | None
    rationale: str

    def to_json(self) -> dict:
        return {
            "product": self.product_id,
            "chosen": self.chosen,
            "rationale": self.rationale,
            "candidates": [c.to_json() for c in self.candidates],
        }


def select_package(
    product_id: str,
    candidates,
    site,
    state,
    policy: SafetyPolicy = SafetyPolicy.REJECT,
    extra_filters: tuple[str, ...] = (),
    replacing=None,
    memo: EvalMemo | None = None,
) -> SelectionReport:
    """Rank the product's candidates for one site and pick the winner.

    ``extra_filters`` is constraint text evaluated against each candidate's
    descriptive properties (operator-supplied wishes); any non-satisfied
    filter rules a candidate out before the site checks run. Unknown outcomes
    count as inadmissible but stay distinguishable in the report.

    For update flows ``replacing`` names the deployed unit the winner will
    replace: it is excluded from the safety baseline and its footprint is
    credited back before the standing-constraint check.

    Outcomes come from ``memo``, or from a memo local to the call.
    """
    for unit in candidates:
        if unit.product_id != product_id:
            raise ValueError(f"candidate {unit.id!r} does not belong to product {product_id!r}")

    memo = EvalMemo() if memo is None else memo
    installed = list(state.deployed_units) if state is not None else []
    freed = 0
    if replacing is not None:
        installed = [du for du in installed if du.unit_id != replacing.unit_id]
        freed = replacing.footprint.count
    reports: list[CandidateReport] = []
    admissible_units = []
    standing_by_delta: dict[int, tuple[StandingCheck, ...]] = {}

    for unit in candidates:
        reasons: list[str] = []

        filter_outcome = None
        if extra_filters:
            filter_outcome = memo.outcome(extra_filters, unit.descriptive_properties)
            if not filter_outcome.is_satisfied:
                reasons.append("FILTERED")

        constraint_outcome = memo.outcome(unit.constraints, site.properties)
        if constraint_outcome.status is Status.VIOLATED:
            reasons.append("CONSTRAINT_VIOLATED")
        elif constraint_outcome.status is Status.UNKNOWN:
            reasons.append("CONSTRAINT_UNKNOWN")

        delta = unit.footprint.count - freed
        standing = standing_by_delta.get(delta)
        if standing is None:
            standing = standing_by_delta[delta] = check_standing(site, delta, memo)
        for s in standing:
            if s.outcome.status is Status.VIOLATED:
                reasons.append("STANDING_VIOLATED")
                break
            if s.outcome.status is Status.UNKNOWN:
                reasons.append("STANDING_UNKNOWN")
                break

        conflicts = tuple(check_safety(installed, unit, policy))
        if blocking_conflicts(conflicts):
            reasons.append("SAFETY_CONFLICT")

        # Sites whose candidate got the same shared outcomes and checks (by
        # identity: the memo keeps them alive), equal conflict fragments and
        # the same reasons share one report. ``admissible`` is ``not reasons``.
        key = (
            unit.id,
            id(constraint_outcome),
            id(filter_outcome),
            tuple(map(id, standing)),
            tuple(tuple(c.to_json().items()) for c in conflicts),
            tuple(reasons),
        )
        report = memo.reports.get(key)
        if report is None:
            report = memo.reports[key] = CandidateReport(
                unit_id=unit.id,
                constraint_outcome=constraint_outcome,
                standing=standing,
                conflicts=conflicts,
                filter_outcome=filter_outcome,
                admissible=not reasons,
                reasons=tuple(reasons),
            )
        reports.append(report)
        if report.admissible:
            admissible_units.append(unit)

    if admissible_units:
        top = max(unit.product_version for unit in admissible_units)
        chosen = min(
            (unit for unit in admissible_units if unit.product_version == top),
            key=lambda unit: (unit.footprint.count, unit.id),
        )
        rationale = (
            f"chose {chosen.id}: version {chosen.product_version}, "
            f"footprint {chosen.footprint} among {len(admissible_units)} admissible"
        )
        chosen_id = chosen.id
    else:
        chosen_id = None
        rationale = "no admissible candidate"

    ordered = tuple(sorted(reports, key=lambda r: r.unit_id))
    return SelectionReport(product_id, ordered, chosen_id, rationale)
