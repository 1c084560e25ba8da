"""The common universe: persistent store of all shared deployment data.

On disk the universe is a directory of JSON documents, each file its
document's canonical JSON (compact, sorted keys) and a newline::

    enterprise.json
    catalog/<server>/<unit>.json
    sites/<machine>/state.json
    deployments/<id>.json
    universe.head            the store's generation; 0 when absent
    universe.lock            (present only while a writer holds the store)

Deployment records are append-only; they embed a full copy of the executed
process so pull updates and reconfiguration survive catalog removal. Files
pretty-printed by older versions open as they are.

A save moves the head's generation before its first change. A ``Store`` is
one opened root; a commit through it is refused, with nothing written, when
the head no longer holds the generation the store read.

Cost model: a store call costs what changed, not the whole store.

- Each frozen document value (enterprise, packaged unit, site state, record,
  and each group and machine of the enterprise) computes its canonical JSON
  once. ``save_universe`` writes that text and ``universe_digest`` joins the
  same texts, so neither re-serialises a value, and a changed machine costs
  one machine's text.
- A ``Store`` keeps the SHA-256 state after its records, and
  ``universe_digest`` of its universe feeds only the records its commits
  added since, then the enterprise and sites: its cost no longer grows with
  the record count. Any other universe is hashed in full.
- ``save_universe`` and ``open_universe`` say which documents they skip.
"""

from __future__ import annotations

import fcntl
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

from .errors import (
    DuplicateUnitError,
    ExpressionSyntaxError,
    ProcessTooLargeError,
    StoreChangedError,
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
    site_state_from_json,
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
from .units import PackagedUnit, unit_from_json
from .values import canonical_json, expect

ENV_UNIVERSE = "ORYA_UNIVERSE"
LOCK_FILE = "universe.lock"
HEAD_FILE = "universe.head"


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


def _members(pairs) -> str:
    """The members of a canonical JSON object, from (key, value text) pairs
    already in key order. A key is quoted as ``json.dumps`` quotes a str."""
    return ",".join([f"{encode_basestring_ascii(key)}:{text}" for key, text in pairs])


# Ids d000000..d999999 sort as their numbers do, so records appended in id
# order extend the hashed text at its end.
_MAX_KEPT_RECORDS = 10**6


def _hash_records(u: Universe):
    """The SHA-256 state of the digest text from its start to the end of the
    records, and whether the ids are d000000..d{n-1}, so that more records
    would extend that text at its end."""
    catalog = _members(
        (server, "[" + ",".join([unit.canonical_json for unit in units]) + "]")
        for server, units in sorted(u.catalog.items())
    )
    ids = sorted(u.deployments)
    state = hashlib.sha256(f'{{"catalog":{{{catalog}}},"deployments":{{'.encode())
    state.update(_members(zip(ids, [u.deployments[rid].canonical_json for rid in ids])).encode())
    extendable = len(ids) <= _MAX_KEPT_RECORDS and ids == [f"d{i:06d}" for i in range(len(ids))]
    return state, extendable


def universe_digest(u: Universe, store: Store | None = None) -> str:
    """SHA-256 of the canonical JSON of the whole universe, joined from each
    document's cached canonical JSON (the text its store file holds) in
    ``sort_keys`` order. The records come after the catalog and before the
    enterprise and sites, so for the universe of ``store`` the state the
    store keeps after its records is extended (see ``Store``); any other
    universe is hashed in full."""
    if store is not None and store.universe is u:
        hashed = store._hashed_records()
    else:
        hashed, _ = _hash_records(u)
    sites = _members(
        (site, state.canonical_json) for site, state in sorted(u.site_states.items())
    )
    digest = hashed.copy()
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


def _holder(text: str) -> tuple[str, bool]:
    """The writer a lock file's text names, and whether it was a process on
    this host that is gone. Read under the directory flock, an empty lock is
    one whose writer died before writing to it. Any other text ``store_lock``
    did not write names itself and is never taken as gone."""
    if not text:
        return "", True
    try:
        doc = json.loads(text)
        writer, pid, host = str(doc["writer"]), doc["pid"], doc["host"]
    except (ValueError, TypeError, KeyError):
        return text.strip(), False
    if host != os.uname().nodename or type(pid) is not int or pid <= 0:
        return writer, False
    try:
        os.kill(pid, 0)  # signal 0 only asks whether the process exists
    except ProcessLookupError:
        return writer, True
    except PermissionError:
        pass  # alive, under another user
    return writer, False


@contextmanager
def store_lock(root: Path, writer_id: str = "orya"):
    """Advisory single-writer lock; the second writer gets LOCKED, naming the
    holder. The lock file records the writer, its pid and its host. Writers
    create and fill it under a flock of the store directory, so a lock whose
    holder on this host is gone is taken over by one writer only."""
    lock_path = root / LOCK_FILE
    fd = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close, or by the process's end
        try:
            lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                text = lock_path.read_text()
            except OSError:
                text = "unknown"
            writer, gone = _holder(text)
            if not gone:
                raise StoreLockedError(writer) from None
            lock_fd = os.open(lock_path, os.O_WRONLY | os.O_TRUNC)
        with os.fdopen(lock_fd, "w") as f:
            json.dump({"host": os.uname().nodename, "pid": os.getpid(), "writer": writer_id}, f)
    finally:
        os.close(fd)
    try:
        yield
    finally:
        lock_path.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# The head and the Store


def _read_generation(root: Path) -> int:
    """The generation in the store's head file; 0 when there is none."""
    try:
        digits = (root / HEAD_FILE).read_bytes().strip()
    except (FileNotFoundError, NotADirectoryError):
        return 0
    if not digits.isdigit():
        raise StoreCorruptError(HEAD_FILE, "not a generation")
    return int(digits)


def _write_head(root: Path, generation: int) -> None:
    """Rewrite the head in place by one write of a fixed width, so a killed
    writer leaves the old or the new generation, and no rename makes the file
    system flush. A store's first head is renamed into place."""
    data = b"%020d\n" % generation
    try:
        fd = os.open(root / HEAD_FILE, os.O_WRONLY)
    except FileNotFoundError:
        _replace(root / HEAD_FILE, data)
        return
    try:
        os.pwrite(fd, data, 0)
    finally:
        os.close(fd)


class Store:
    """One opened store root: the universe last read from or committed to
    disk, the generation the head held when it was read, and the SHA-256
    state ``universe_digest`` keeps after its records. Records are
    append-only, and the universe changes only by a commit, which keeps every
    record, or by a reopen; so the kept state is extended by the records
    commits add, and hashed in full again after a reopen or a catalog change.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.reopen()

    def reopen(self) -> None:
        """Read the store again, without the lock. If a writer held the lock
        or moved the head meanwhile, what was read may be torn: the generation
        is then None, so the next commit is refused."""
        generation = _read_generation(self.root)
        writing = os.path.exists(self.root / LOCK_FILE)
        self.universe = open_universe(self.root)
        torn = writing or _read_generation(self.root) != generation
        self.generation = None if torn else generation
        self._kept = None  # (catalog mapping, records hashed, SHA-256 state after them)

    def commit(self, u: Universe) -> None:
        """Save ``u``, built from ``self.universe``, as the store's universe.
        StoreChangedError, with nothing written, when another writer has
        committed since the store was read."""
        self.generation = save_universe(u, self.root, store=self)
        self.universe = u

    def _hashed_records(self):
        """The SHA-256 state after the records of ``self.universe``."""
        u, n = self.universe, len(self.universe.deployments)
        if self._kept is not None and self._kept[0] is u.catalog and self._kept[1] <= n <= _MAX_KEPT_RECORDS:
            catalog, hashed, state = self._kept
            ids = [f"d{i:06d}" for i in range(hashed, n)]
            records = [u.deployments.get(rid) for rid in ids]
            if None not in records:  # the n ids are d000000..d{n-1}
                if records:
                    text = _members(zip(ids, [record.canonical_json for record in records]))
                    state.update(("," + text if hashed else text).encode())
                    self._kept = (catalog, n, state)
                return state
        state, extendable = _hash_records(u)
        self._kept = (u.catalog, n, state) if extendable else None
        return state


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
    u: Universe, path: str | Path | None = None, writer_id: str = "orya", *, store: Store | None = None
) -> int:
    """Persist the universe under the single-writer lock; return the head's
    generation after the save. The head moves on before the first document
    the save writes or removes, so a writer killed mid-save still moves it.
    Site states are committed before deployment records, so a crash between
    writes leaves at worst a record-less state change. Existing deployment
    records are never rewritten.

    Through a ``store`` the save is refused (StoreChangedError, nothing
    written) unless the head holds the generation the store read; a document
    whose frozen value ``is`` the one in the store's universe is not even
    read, and the records it lacks are new. Without a store, a record whose
    file exists is skipped. Any other document is written (by
    write-and-rename) only when its bytes differ from the file on disk.
    """
    root = Path(path) if path is not None else u.root
    if root is None:
        raise ValueError("universe has no root path")
    root.mkdir(parents=True, exist_ok=True)
    with store_lock(root, writer_id):
        generation, moved = _read_generation(root), []
        if store is not None and store.generation != generation:
            raise StoreChangedError(f"store moved to generation {generation} since it was read")

        def change() -> None:
            """Move the head on, once, before the save's first change."""
            if not moved:
                moved.append(_write_head(root, generation + 1))

        base = store.universe if store is not None else None
        dep_dir = root / "deployments"
        dep_dir.mkdir(exist_ok=True)
        if base is None:
            existing = set(os.listdir(dep_dir))
            new_records = [rid for rid in u.deployments if f"{rid}.json" not in existing]
        else:
            new_records = [rid for rid in u.deployments if rid not in base.deployments]

        if base is None or u.enterprise is not base.enterprise:
            _write_json(root / "enterprise.json", u.enterprise.canonical_json, change)

        catalog_dir = root / "catalog"
        for server, units in u.catalog.items():
            if base is not None and base.catalog.get(server) is units:
                continue
            server_dir = catalog_dir / server
            if not server_dir.is_dir():  # a server with no units is still read
                change()
                server_dir.mkdir(parents=True)
            wanted = {f"{unit.id}.json" for unit in units}
            for stale in server_dir.glob("*.json"):
                if stale.name not in wanted:
                    change()
                    stale.unlink()
            for unit in units:
                _write_json(server_dir / f"{unit.id}.json", unit.canonical_json, change)
        if catalog_dir.is_dir() and (base is None or u.catalog.keys() != base.catalog.keys()):
            for server_dir in catalog_dir.iterdir():
                if server_dir.is_dir() and server_dir.name not in u.catalog:
                    change()
                    for stale in server_dir.glob("*.json"):
                        stale.unlink()
                    server_dir.rmdir()

        sites_dir = root / "sites"
        for site, state in u.site_states.items():
            if base is not None and base.site_states.get(site) is state:
                continue
            site_dir = sites_dir / site
            site_dir.mkdir(parents=True, exist_ok=True)
            _write_json(site_dir / "state.json", state.canonical_json, change)

        for rid in new_records:  # append-only
            _write_json(dep_dir / f"{rid}.json", u.deployments[rid].canonical_json, change)
    return generation + len(moved)


def _write_json(path: Path, text: str, change) -> None:
    """Write a document's canonical ``text`` and a newline, unless the file
    already holds exactly these bytes; ``change()`` is called first."""
    data = (text + "\n").encode()
    try:
        if path.read_bytes() == data:
            return
    except OSError:
        pass  # missing or unreadable: write it
    change()
    _replace(path, data)


def _replace(path: Path, data: bytes) -> None:
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
