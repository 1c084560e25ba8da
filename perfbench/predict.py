"""Independent predictions of what the program must answer, and the ledger.

Nothing here imports the program. ``Model`` follows the fleet as the
benchmark drives it: the properties of each site, the units on it with their
lifecycle state, and every deployment record in the order the program must
number them. Pushes are predicted by ranking the candidates the way the
paper's selection rule reads: a candidate is admissible when its own
constraints hold and the site's standing constraints still hold after its
footprint is charged against ``disk.free`` and no component it provides is
already present at another version; among admissible candidates the highest
version wins, then the smallest footprint, then the smallest id.

Every ``check_*`` function returns a list of mismatch descriptions; an empty
list means the program agreed with the prediction.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

from gen import SIZE_PROPS, Inputs, Unit, prop_json

ACTIVE, INSTALLED = "ACTIVE", "INSTALLED"
_SIZE = re.compile(r"^(\d+)(B|KB|MB|GB)$")
_MULT = {"B": 1, "KB": 10**3, "MB": 10**6, "GB": 10**9}


def parse_size(text: str) -> int:
    m = _SIZE.match(text)
    if not m:
        raise ValueError(f"not a size: {text!r}")
    return int(m.group(1)) * _MULT[m.group(2)]


def _rank(unit: Unit):
    padded = unit.version + (0,) * (4 - len(unit.version))
    return (tuple(-p for p in padded), unit.footprint, unit.id)


@dataclass(frozen=True)
class Placed:
    """A unit on a site, as the ledger expects it."""

    unit: Unit
    state: str


@dataclass(frozen=True)
class Record:
    id: str
    site: str
    unit: str
    product: str
    mode: str = "PUSH"
    status: str = "SUCCESS"


class Model:
    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.props = {sid: dict(site.props) for sid, site in inputs.sites.items()}
        self.placed: dict[str, dict[str, Placed]] = {sid: {} for sid in inputs.sites}
        self.records: list[Record] = []

    # -- prediction ---------------------------------------------------------

    def _next_id(self) -> str:
        return f"d{len(self.records):06d}"

    def admissible(self, unit: Unit, site_id: str, replacing: Placed | None = None) -> bool:
        props = self.props[site_id]
        if not all(c.holds(props) for c in unit.constraints):
            return False
        freed = replacing.unit.footprint if replacing else 0
        charged = dict(props)
        if unit.footprint - freed:
            charged["disk.free"] = max(0, props["disk.free"] - (unit.footprint - freed))
        if not all(c.holds(charged) for c in self.inputs.sites[site_id].standing):
            return False
        others = [p for uid, p in self.placed[site_id].items() if not replacing or uid != replacing.unit.id]
        # Every unit provides "<product>.core" at its own version, so a unit of
        # the same product at another version is an OVERWRITE, which blocks.
        return not any(p.unit.product == unit.product and p.unit.version != unit.version for p in others)

    def candidates(self, product: str) -> list[Unit]:
        return sorted((u for u in self.inputs.units.values() if u.product == product), key=lambda u: u.id)

    def push(self, product: str) -> list[dict]:
        """Predicted report entries of a push to every site; updates the model."""
        expected = []
        for sid in sorted(self.inputs.sites):
            present = set(self.placed[sid])
            cands = [u for u in self.candidates(product) if u.id not in present]
            if not cands:
                expected.append({"site": sid, "outcome": "SKIPPED", "reason": "ALREADY_DEPLOYED"})
                continue
            verdicts = {u.id: self.admissible(u, sid) for u in cands}
            winners = sorted((u for u in cands if verdicts[u.id]), key=_rank)
            entry = {"site": sid, "candidates": verdicts}
            if not winners:
                entry.update(outcome="SKIPPED", reason="NO_ADMISSIBLE", chosen=None)
            else:
                unit = winners[0]
                rid = self._next_id()
                entry.update(outcome="DEPLOYED", unit=unit.id, record=rid, chosen=unit.id)
                self.placed[sid][unit.id] = Placed(unit, ACTIVE)
                self.props[sid]["disk.free"] -= unit.footprint
                self.records.append(Record(rid, sid, unit.id, product))
            expected.append(entry)
        return expected

    def toggle(self, site_id: str, unit_id: str) -> tuple[str, dict]:
        """The op that flips a unit's activation, and its predicted entry."""
        placed = self.placed[site_id][unit_id]
        op, outcome, state = (
            ("deactivate", "DEACTIVATED", INSTALLED)
            if placed.state == ACTIVE
            else ("activate", "ACTIVATED", ACTIVE)
        )
        rid = self._next_id()
        self.placed[site_id][unit_id] = replace(placed, state=state)
        self.records.append(Record(rid, site_id, unit_id, placed.unit.product))
        return op, {"site": site_id, "outcome": outcome, "unit": unit_id, "record": rid}

    def set_prop(self, site_id: str, name: str, value) -> dict:
        """Predicted reconfiguration plan after a property change (not applied)."""
        self.props[site_id][name] = value
        props = self.props[site_id]
        standing_ok = all(c.holds(props) for c in self.inputs.sites[site_id].standing)
        actions = []
        for uid in sorted(self.placed[site_id]):
            placed = self.placed[site_id][uid]
            reasons = [f"VIOLATED: {c.text}" for c in placed.unit.constraints if not c.holds(props)]
            if not standing_ok:
                reasons.append("STANDING_VIOLATED")
            if not reasons:
                continue
            winners = sorted(
                (u for u in self.candidates(placed.unit.product) if self.admissible(u, site_id, placed)),
                key=_rank,
            )
            action = {"unit": uid, "reasons": reasons}
            if winners and winners[0].id != uid:
                action.update(action="RESELECT", replacement=winners[0].id)
            else:
                action["action"] = "DEACTIVATE" if placed.state == ACTIVE else "NONE"
            actions.append(action)
        return {"site": site_id, "actions": actions}

    def status(self, site_id: str) -> list[dict]:
        return [
            {"site": r.site, "outcome": r.status, "reason": r.mode, "unit": r.unit, "record": r.id}
            for r in self.records
            if r.site == site_id
        ]

    def deployed_sites(self) -> list[str]:
        return sorted(sid for sid, units in self.placed.items() if units)


# ---------------------------------------------------------------------------
# Checks of answers


def check_push(entries: list[dict], expected: list[dict]) -> list[str]:
    errors = []
    if [e.get("site") for e in entries] != [x["site"] for x in expected]:
        return ["push report does not list every target site once, in id order"]
    for got, want in zip(entries, expected):
        sid = want["site"]
        for key in ("outcome", "reason", "unit", "record"):
            if got.get(key) != want.get(key):
                errors.append(f"{sid}: {key} {got.get(key)!r}, expected {want.get(key)!r}")
        if "candidates" in want:
            sel = got.get("selection") or {}
            verdicts = {c["unit"]: c["admissible"] for c in sel.get("candidates", ())}
            if verdicts != want["candidates"]:
                errors.append(f"{sid}: candidate admissibility {verdicts}, expected {want['candidates']}")
            if sel.get("chosen") != want["chosen"]:
                errors.append(f"{sid}: chose {sel.get('chosen')!r}, expected {want['chosen']!r}")
    return errors


def check_entry(resp: dict, expected: dict) -> list[str]:
    if not resp.get("ok"):
        return [f"error answer {resp.get('error')}"]
    entries = resp.get("report", {}).get("entries", [])
    got = [{k: e.get(k) for k in expected} for e in entries]
    return [] if got == [expected] else [f"entries {entries}, expected [{expected}]"]


def check_plan(resp: dict, expected: dict) -> list[str]:
    if not resp.get("ok"):
        return [f"error answer {resp.get('error')}"]
    plan = resp.get("plan")
    return [] if plan == expected and resp.get("noop") is False else [f"plan {plan}, expected {expected}"]


def check_status(resp: dict, expected: list[dict]) -> list[str]:
    if not resp.get("ok"):
        return [f"error answer {resp.get('error')}"]
    entries = resp.get("report", {}).get("entries")
    return [] if entries == expected else [f"status {entries}, expected {expected}"]


# ---------------------------------------------------------------------------
# Checks of the reopened store, read straight from its JSON documents


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def check_store(root: Path, model: Model) -> list[str]:
    """The store on disk holds what the model predicts: every site's
    properties and units with their state, and exactly the predicted records."""
    errors = []
    machines = {m["id"]: m for m in _load(root / "enterprise.json")["machines"]}
    for sid in sorted(model.inputs.sites):
        props = machines[sid]["properties"]
        for name, value in model.props[sid].items():
            got = props.get(name)
            if name in SIZE_PROPS and isinstance(got, str):
                got = parse_size(got)
            if got != value:
                errors.append(f"{sid}: {name} is {props.get(name)!r}, expected {prop_json(name, value)!r}")
        state_path = root / "sites" / sid / "state.json"
        units = {u["unit"]: u for u in _load(state_path)["units"]} if state_path.exists() else {}
        if set(units) != set(model.placed[sid]):
            errors.append(f"{sid}: units {sorted(units)}, expected {sorted(model.placed[sid])}")
            continue
        for uid, placed in model.placed[sid].items():
            got = units[uid]
            if got["state"] != placed.state:
                errors.append(f"{sid}/{uid}: state {got['state']}, expected {placed.state}")
            if parse_size(got["footprint"]) != placed.unit.footprint:
                errors.append(f"{sid}/{uid}: footprint {got['footprint']}")
            if placed.unit.config and got["config"] != placed.unit.config:
                errors.append(f"{sid}/{uid}: config {got['config']}, expected {placed.unit.config}")

    dep_dir = root / "deployments"
    names = sorted(n for n in os.listdir(dep_dir) if n.endswith(".json")) if dep_dir.is_dir() else []
    if names != [f"{r.id}.json" for r in model.records]:
        errors.append(f"{len(names)} record files, expected {len(model.records)}")
        return errors
    units = model.inputs.units
    for rec in model.records:
        doc = _load(dep_dir / f"{rec.id}.json")
        got = (doc["site"], doc["unit"], doc["product"], doc["mode"], doc["trace"]["status"])
        if got != (rec.site, rec.unit, rec.product, rec.mode, rec.status):
            errors.append(f"{rec.id}: {got}, expected {rec}")
        paths = units[rec.unit].activity_paths
        if paths and doc["process"]["id"].endswith(".install"):
            ok = [e["path"] for e in doc["trace"]["events"] if e["outcome"] == "OK"]
            if sorted(ok) != sorted(paths):
                errors.append(f"{rec.id}: OK steps {sorted(ok)}, expected each of {sorted(paths)} once")
    return errors
