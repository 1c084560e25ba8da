"""The common universe: persistent store of all shared deployment data.

On disk the universe is a directory of JSON documents, each file its
document's canonical JSON (compact, sorted keys) and a newline::

    enterprise.json
    catalog/<server>/<unit>.json
    sites/<machine>/state.json
    deployments/<id>.json
    universe.lock            (present only while a writer holds the store)

Deployment records are append-only; they embed a full copy of the executed
process so pull updates and reconfiguration survive catalog removal. Files
pretty-printed by older versions open as they are.

Cost model: a store call costs what changed, not the whole store.

- Each frozen document value (enterprise, packaged unit, site state, record,
  and each group and machine of the enterprise) computes its canonical JSON
  once. ``save_universe`` writes that text and ``universe_digest`` joins the
  same texts, so neither re-serialises a value, and a changed machine costs
  one machine's text.
- ``universe_digest`` keeps the SHA-256 state after the records it last
  hashed. Given the same catalog mapping and the same record objects under
  ids d000000.., it feeds only the records added since, then the enterprise
  and sites: its cost no longer grows with the record count. Anything else is
  hashed in full.
- ``save_universe`` writes a document only when its bytes differ from the
  file on disk, and never rewrites an existing record. Given ``base``, it does
  not even read a document whose frozen value ``is`` the one in ``base``.
- ``open_universe`` reads every file, but parses a record only when the bytes
  of its file have not been parsed before by a record that is still alive.
- One open builds each distinct process copy, deployed unit and trace event
  once, matched by canonical JSON text (tables local to the open), and
  computes each process's digest once: every record is still checked
  against its trace's digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

from .errors import (
    DuplicateUnitError,
    ExpressionSyntaxError,
    ProcessTooLargeError,
    StoreCorruptError,
    StoreLockedError,
    UnknownTargetError,
    UnknownUnitError,
)
from .model import (
    ClientSiteState,
    EnterpriseModel,
    MachineKind,
    enterprise_from_json,
    enterprise_to_json,
    site_state_from_json,
    site_state_to_json,
)
from .process import (
    MAX_PROGRESS_POINTS,
    PRESENT,
    ExecutionTrace,
    ProcessDef,
    default_process_for,
    default_verify,
    process_from_json,
    process_to_json,
    progress_points,
    trace_from_json,
)
from .units import PackagedUnit, unit_from_json, unit_to_json
from .values import canonical_json, expect

ENV_UNIVERSE = "ORYA_UNIVERSE"
LOCK_FILE = "universe.lock"


class DeployMode(str, Enum):
    PUSH = "PUSH"
    PULL = "PULL"
    RECONFIGURE = "RECONFIGURE"


@dataclass(frozen=True)
class DeploymentRecord:
    id: str
    site_id: str
    product_id: str
    unit_id: str
    process: ProcessDef  # retained copy of the exact process executed
    params: tuple[tuple[str, str], ...]
    trace: ExecutionTrace
    mode: DeployMode
    started_at: int
    finished_at: int

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "site": self.site_id,
            "product": self.product_id,
            "unit": self.unit_id,
            "process": process_to_json(self.process),
            "params": {k: v for k, v in self.params},
            "trace": self.trace.to_json(),
            "mode": self.mode.value,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

    @cached_property
    def canonical_json(self) -> str:
        return canonical_json(self.to_json())

    @property
    def process_matches_trace(self) -> bool:
        return self.process.digest == self.trace.process_digest


def record_from_json(doc: dict, processes: dict[str, ProcessDef], events: dict) -> DeploymentRecord:
    """Decode a record. ``processes`` maps the canonical text of each process
    copy decoded so far to its ``ProcessDef``, so records holding equal copies
    share one; ``events`` is the event table of ``trace_from_json``. Callers
    keep both for one store open."""
    process_doc = doc["process"]
    key = canonical_json(process_doc)
    process = processes.get(key)
    if process is None:
        process = processes[key] = process_from_json(process_doc)
    return DeploymentRecord(
        id=doc["id"],
        site_id=expect(doc["site"], str, "record site"),
        product_id=expect(doc["product"], str, "record product"),
        unit_id=expect(doc["unit"], str, "record unit"),
        process=process,
        params=tuple(sorted(expect(doc.get("params", {}), dict, "params").items())),
        trace=trace_from_json(doc["trace"], events),
        mode=DeployMode(doc["mode"]),
        started_at=doc["started_at"],
        finished_at=doc["finished_at"],
    )


@dataclass(frozen=True)
class Universe:
    enterprise: EnterpriseModel
    catalog: dict[str, tuple[PackagedUnit, ...]] = field(default_factory=dict)
    site_states: dict[str, ClientSiteState] = field(default_factory=dict)
    deployments: dict[str, DeploymentRecord] = field(default_factory=dict)
    root: Path | None = None

    def next_deployment_id(self) -> str:
        return f"d{len(self.deployments):06d}"


def empty_universe(root: Path | None = None) -> Universe:
    return Universe(enterprise=EnterpriseModel(id="enterprise"), root=root)


# ---------------------------------------------------------------------------
# Canonical serialization and digests


def universe_to_json(u: Universe) -> dict:
    return {
        "enterprise": enterprise_to_json(u.enterprise),
        "catalog": {
            server: [unit_to_json(unit) for unit in units]
            for server, units in sorted(u.catalog.items())
        },
        "sites": {
            site: site_state_to_json(state) for site, state in sorted(u.site_states.items())
        },
        "deployments": {rid: record.to_json() for rid, record in sorted(u.deployments.items())},
    }


def _members(pairs) -> str:
    """The members of a canonical JSON object, from (key, value text) pairs
    already in key order. A key is quoted as ``json.dumps`` quotes a str."""
    return ",".join([f"{encode_basestring_ascii(key)}:{text}" for key, text in pairs])


class _DigestSlot(NamedTuple):
    """What ``universe_digest`` last hashed up to the end of the records: the
    catalog mapping, the record ids in order with weak references to their
    records, and the SHA-256 state after them. A stored state is never
    updated in place; extending it stores a new slot."""

    catalog: dict
    ids: tuple[str, ...]
    records: tuple[weakref.ref, ...]
    state: object


_digest_slot: _DigestSlot | None = None

# Ids d000000..d999999 sort as their numbers do, so records appended in id
# order extend the hashed text at its end.
_MAX_SLOT_RECORDS = 10**6


def _extend_slot(u: Universe) -> _DigestSlot | None:
    """The slot extended by the records added to ``u`` since, or None unless
    ``u`` holds the slot's catalog mapping, each of its records under the same
    id, and new records under exactly the ids that follow."""
    slot, deployments = _digest_slot, u.deployments
    n = len(deployments)
    if slot is None or slot.catalog is not u.catalog or not len(slot.ids) <= n <= _MAX_SLOT_RECORDS:
        return None
    for rid, ref in zip(slot.ids, slot.records):
        record = ref()
        if record is None or deployments.get(rid) is not record:
            return None
    new_ids = [f"d{i:06d}" for i in range(len(slot.ids), n)]
    new = [deployments.get(rid) for rid in new_ids]
    if not new:
        return slot
    if any(record is None for record in new):
        return None
    # n distinct ids, all of them expected ones: the ids are d000000..d{n-1}.
    state = slot.state.copy()
    text = _members(zip(new_ids, [record.canonical_json for record in new]))
    state.update(("," + text if slot.ids else text).encode())
    return _DigestSlot(
        u.catalog, slot.ids + tuple(new_ids), slot.records + tuple(map(weakref.ref, new)), state
    )


def _full_slot(u: Universe) -> _DigestSlot:
    """Hash the text from its start to the end of the records. The ids are
    empty (nothing to extend) unless they are d000000..d{n-1}."""
    catalog = _members(
        (server, "[" + ",".join([unit.canonical_json for unit in units]) + "]")
        for server, units in sorted(u.catalog.items())
    )
    ids = sorted(u.deployments)
    records = [u.deployments[rid] for rid in ids]
    state = hashlib.sha256(f'{{"catalog":{{{catalog}}},"deployments":{{'.encode())
    state.update(_members(zip(ids, [record.canonical_json for record in records])).encode())
    if len(ids) > _MAX_SLOT_RECORDS or ids != [f"d{i:06d}" for i in range(len(ids))]:
        return _DigestSlot(u.catalog, (), (), state)
    return _DigestSlot(u.catalog, tuple(ids), tuple(map(weakref.ref, records)), state)


def universe_digest(u: Universe) -> str:
    """SHA-256 of ``canonical_json(universe_to_json(u))``.

    The text is joined from each document's cached canonical JSON, the text
    its store file holds, in the key order ``sort_keys`` gives. The records
    come after the catalog and before the enterprise and sites, are never
    rewritten, and ids d000000.. sort in the order they were added, so the
    SHA-256 state after the records is kept: when ``u`` has the catalog
    mapping last hashed and every record then hashed under the same id, only
    the records added since are fed, to a copy of that state. Any other
    universe is hashed in full; if its ids are d000000.., its state is kept.
    """
    global _digest_slot
    slot = _extend_slot(u)
    if slot is None:
        slot = _full_slot(u)
    if slot.ids:
        _digest_slot = slot
    sites = _members(
        (site, state.canonical_json) for site, state in sorted(u.site_states.items())
    )
    digest = slot.state.copy()
    digest.update(f'}},"enterprise":{u.enterprise.canonical_json},"sites":{{{sites}}}}}'.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Referential integrity


def cross_validate(u: Universe) -> None:
    """Raise StoreCorruptError on any referential-integrity breach."""
    machines = {m.id: m for m in u.enterprise.machines}
    for server in u.catalog:
        m = machines.get(server)
        if m is None or m.kind is not MachineKind.APP_SERVER:
            raise StoreCorruptError(f"catalog/{server}", "not an app-server machine")
        ids = [unit.id for unit in u.catalog[server]]
        if len(ids) != len(set(ids)):
            raise StoreCorruptError(f"catalog/{server}", "duplicate unit ids")
    for site, state in u.site_states.items():
        m = machines.get(site)
        if m is None or m.kind is not MachineKind.CLIENT_SITE:
            raise StoreCorruptError(f"sites/{site}", "not a client-site machine")
        if state.machine_id != site:
            raise StoreCorruptError(f"sites/{site}", "machine id mismatch")
        ids = [du.unit_id for du in state.deployed_units]
        if len(ids) != len(set(ids)):
            raise StoreCorruptError(f"sites/{site}", "duplicate deployed unit ids")
        contributing = {du.product_id for du in state.deployed_units if du.state in PRESENT}
        for product in state.products:
            if product not in contributing:
                raise StoreCorruptError(f"sites/{site}", f"product {product!r} has no deployed unit")
    for n in range(len(u.deployments)):
        if f"d{n:06d}" not in u.deployments:
            raise StoreCorruptError(f"deployments/d{n:06d}.json", "missing record")
    for rid, record in u.deployments.items():
        if record.id != rid:
            raise StoreCorruptError(f"deployments/{rid}", "record id mismatch")
        if record.site_id not in machines:
            raise StoreCorruptError(f"deployments/{rid}", f"unknown site {record.site_id!r}")
        if not record.process_matches_trace:
            raise StoreCorruptError(f"deployments/{rid}", "process copy does not match trace digest")


# ---------------------------------------------------------------------------
# Locking


@contextmanager
def store_lock(root: Path, writer_id: str = "orya"):
    """Advisory single-writer lock; the second writer gets LOCKED."""
    lock_path = root / LOCK_FILE
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            holder = lock_path.read_text().strip()
        except OSError:
            holder = "unknown"
        raise StoreLockedError(holder) from None
    try:
        os.write(fd, writer_id.encode())
        os.close(fd)
        yield
    finally:
        try:
            lock_path.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Open / init / save


def init_universe(path: str | Path) -> Universe:
    """Write an empty skeleton; the path must be empty or absent."""
    root = Path(path)
    if root.exists() and any(root.iterdir()):
        raise StoreCorruptError(str(root), "directory not empty")
    root.mkdir(parents=True, exist_ok=True)
    u = empty_universe(root)
    save_universe(u)
    return u


# Parsed records keyed by the exact bytes of their file. An entry lives only as
# long as some Universe (or caller) holds its record, so the memo is bounded by
# the live stores; a file whose bytes changed misses and is parsed afresh.
_parsed_records: weakref.WeakValueDictionary[bytes, DeploymentRecord] = (
    weakref.WeakValueDictionary()
)


def _read_document(path: str | Path, document: str, decode, *args, memo=None):
    """``decode(doc, *args)`` of the JSON object in the file at ``path``; any
    fault in the file is StoreCorruptError naming ``document``. With a
    ``memo``, a file whose bytes it holds is not parsed again."""
    try:
        with open(path, "rb") as f:
            data = f.read()
        value = None if memo is None else memo.get(data)
        if value is None:
            value = decode(expect(json.loads(data.decode()), dict, "document"), *args)
            if memo is not None:
                memo[data] = value
    except (OSError, ValueError, KeyError, ExpressionSyntaxError) as err:
        raise StoreCorruptError(document, str(err)) from None
    return value


def open_universe(path: str | Path) -> Universe:
    """Load and cross-validate every document in the store.

    Every file is read on each call. The enterprise, catalog and site states
    are parsed each time; a deployment record is parsed only when no live
    record was parsed from the same file bytes, so a changed record file is
    always parsed and checked again. Equal deployed units, process copies and
    trace events decoded in this call share one value. ``cross_validate``
    runs in full, and a process shared by many records is hashed once.
    """
    root = Path(path)
    if not root.is_dir():
        raise StoreCorruptError(str(root), "not a directory")
    ent_path = root / "enterprise.json"
    if not ent_path.exists():
        raise StoreCorruptError("enterprise.json", "missing")
    enterprise = _read_document(ent_path, "enterprise.json", enterprise_from_json)

    catalog: dict[str, tuple[PackagedUnit, ...]] = {}
    catalog_dir = root / "catalog"
    if catalog_dir.is_dir():
        for server_dir in sorted(catalog_dir.iterdir()):
            if not server_dir.is_dir():
                continue
            catalog[server_dir.name] = tuple(
                _read_document(path, f"catalog/{server_dir.name}/{path.name}", unit_from_json)
                for path in sorted(server_dir.glob("*.json"))
            )

    # Tables local to this open: each distinct deployed unit, process copy and
    # trace event is built once and shared by every document that holds it.
    units: dict = {}
    processes: dict = {}
    events: dict = {}

    site_states: dict[str, ClientSiteState] = {}
    sites_dir = root / "sites"
    if sites_dir.is_dir():
        for site_dir in sorted(sites_dir.iterdir()):
            state_path = site_dir / "state.json"
            if not state_path.exists():
                continue
            site_states[site_dir.name] = _read_document(
                state_path, f"sites/{site_dir.name}/state.json", site_state_from_json, units
            )

    deployments: dict[str, DeploymentRecord] = {}
    dep_dir = os.path.join(root, "deployments")
    if os.path.isdir(dep_dir):
        for name in sorted(n for n in os.listdir(dep_dir) if n.endswith(".json")):
            # Keyed by file name, so a record copied over another fails
            # cross_validate's id check instead of silently replacing it.
            deployments[name[: -len(".json")]] = _read_document(
                os.path.join(dep_dir, name), f"deployments/{name}", record_from_json,
                processes, events, memo=_parsed_records,
            )

    u = Universe(enterprise, catalog, site_states, deployments, root)
    cross_validate(u)
    return u


def save_universe(
    u: Universe, path: str | Path | None = None, writer_id: str = "orya", *, base: Universe | None = None
) -> None:
    """Persist the universe under the single-writer lock.

    Site states are committed before deployment records, so a crash between
    writes leaves at worst a record-less state change. Existing deployment
    records are never rewritten.

    ``base`` is the universe the caller knows is on disk. A document whose
    frozen value ``is`` the one in ``base`` (enterprise, a server's units, a
    site state, a record whose id is in ``base.deployments``) is neither
    serialised nor read. Any other record whose file exists raises
    DuplicateUnitError before anything is written; with no ``base`` it is
    skipped. Every other document is written (by write-and-rename) only when
    its bytes differ from the file on disk.
    """
    root = Path(path) if path is not None else u.root
    if root is None:
        raise ValueError("universe has no root path")
    root.mkdir(parents=True, exist_ok=True)
    with store_lock(root, writer_id):
        dep_dir = root / "deployments"
        dep_dir.mkdir(parents=True, exist_ok=True)
        if base is None:
            existing = set(os.listdir(dep_dir))
            new_records = [rid for rid in u.deployments if f"{rid}.json" not in existing]
        else:
            new_records = [rid for rid in u.deployments if rid not in base.deployments]
            for rid in new_records:
                if (dep_dir / f"{rid}.json").exists():
                    raise DuplicateUnitError(f"deployment record {rid!r} already exists")

        if base is None or u.enterprise is not base.enterprise:
            _write_json(root / "enterprise.json", u.enterprise.canonical_json)

        catalog_dir = root / "catalog"
        for server, units in u.catalog.items():
            if base is not None and base.catalog.get(server) is units:
                continue
            server_dir = catalog_dir / server
            server_dir.mkdir(parents=True, exist_ok=True)
            wanted = {f"{unit.id}.json" for unit in units}
            for stale in server_dir.glob("*.json"):
                if stale.name not in wanted:
                    stale.unlink()
            for unit in units:
                _write_json(server_dir / f"{unit.id}.json", unit.canonical_json)
        if catalog_dir.is_dir() and (base is None or u.catalog.keys() != base.catalog.keys()):
            for server_dir in catalog_dir.iterdir():
                if server_dir.is_dir() and server_dir.name not in u.catalog:
                    for stale in server_dir.glob("*.json"):
                        stale.unlink()
                    server_dir.rmdir()

        sites_dir = root / "sites"
        for site, state in u.site_states.items():
            if base is not None and base.site_states.get(site) is state:
                continue
            site_dir = sites_dir / site
            site_dir.mkdir(parents=True, exist_ok=True)
            _write_json(site_dir / "state.json", state.canonical_json)

        for rid in new_records:  # append-only
            _write_json(dep_dir / f"{rid}.json", u.deployments[rid].canonical_json)


def _write_json(path: Path, text: str) -> None:
    """Write a document's canonical ``text`` and a newline, unless the file
    already holds exactly these bytes."""
    data = (text + "\n").encode()
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass  # missing or unreadable: write it
    tmp = path.with_suffix(".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


# ---------------------------------------------------------------------------
# Catalog and record operations (pure: they return a new Universe)


def publish_unit(u: Universe, server_id: str, unit: PackagedUnit) -> Universe:
    """Add ``unit`` to a server's catalog.

    A unit with no process deploys by the default template, whose verify joins
    all its constraints by "and". When that expression would nest deeper than
    ``expr.MAX_NESTING`` the unit is refused here (SYNTAX), not at every
    deploy; a store that already holds such a unit still opens. A unit whose
    process (given or default) has more than ``MAX_PROGRESS_POINTS`` progress
    points is refused (PROCESS_TOO_LARGE); one already stored fails validation
    at deploy without a search.
    """
    machines = {m.id: m for m in u.enterprise.machines}
    m = machines.get(server_id)
    if m is None or m.kind is not MachineKind.APP_SERVER:
        raise UnknownTargetError(f"{server_id!r} is not an app server")
    units = u.catalog.get(server_id, ())
    if any(existing.id == unit.id for existing in units):
        raise DuplicateUnitError(f"unit {unit.id!r} already published on {server_id!r}")
    if unit.process is None:
        try:
            default_verify(unit).expression
        except ExpressionSyntaxError as err:
            raise ExpressionSyntaxError(
                f"default verify of unit {unit.id!r}: nesting too deep", err.offset, err.expected
            ) from None
    if progress_points((unit.process or default_process_for(unit)).root) > MAX_PROGRESS_POINTS:
        raise ProcessTooLargeError(
            f"process of unit {unit.id!r} has over {MAX_PROGRESS_POINTS} progress points"
        )
    catalog = dict(u.catalog)
    catalog[server_id] = tuple(sorted(units + (unit,), key=lambda x: x.id))
    return replace(u, catalog=catalog)


def remove_unit(u: Universe, server_id: str, unit_id: str) -> Universe:
    machines = {m.id: m for m in u.enterprise.machines}
    m = machines.get(server_id)
    if m is None or m.kind is not MachineKind.APP_SERVER:
        raise UnknownTargetError(f"{server_id!r} is not an app server")
    units = u.catalog.get(server_id, ())
    if not any(existing.id == unit_id for existing in units):
        raise UnknownUnitError(f"unit {unit_id!r} not published on {server_id!r}")
    catalog = dict(u.catalog)
    catalog[server_id] = tuple(x for x in units if x.id != unit_id)
    return replace(u, catalog=catalog)


def record_deployment(u: Universe, record: DeploymentRecord) -> Universe:
    if record.id in u.deployments:
        raise DuplicateUnitError(f"deployment record {record.id!r} already exists")
    deployments = dict(u.deployments)
    deployments[record.id] = record
    return replace(u, deployments=deployments)


def set_site_state(u: Universe, state: ClientSiteState) -> Universe:
    site_states = dict(u.site_states)
    site_states[state.machine_id] = state
    return replace(u, site_states=site_states)


def query_status(
    u: Universe,
    site: str | None = None,
    product: str | None = None,
    outcome: str | None = None,
    mode: str | None = None,
) -> list[DeploymentRecord]:
    records = []
    for rid in sorted(u.deployments):
        r = u.deployments[rid]
        if site is not None and r.site_id != site:
            continue
        if product is not None and r.product_id != product:
            continue
        if outcome is not None and r.trace.status.value != outcome:
            continue
        if mode is not None and r.mode.value != mode:
            continue
        records.append(r)
    return records
