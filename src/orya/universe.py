"""The common universe: persistent store of all shared deployment data.

On disk the universe is a directory of JSON documents, each file its
document's canonical JSON (compact, sorted keys) and a newline::

    enterprise.json
    catalog/<server>/<unit>.json
    sites/<machine>/state.json
    deployments/<id>.json
    deployments/index        one line per record: id, sha256 of its file, and
                             the fields ``status`` reads (derived data)
    universe.head            the store's generation; 0 when absent
    universe.lock            (present only while a writer holds the store)

Deployment records are append-only; they embed a full copy of the executed
process so pull updates and reconfiguration survive catalog removal. Files
pretty-printed by older versions open as they are. No file is read whole:
each is read up to its cap (``MAX_DOCUMENT_BYTES`` for a store document or a
file an operator gives, and ``MAX_INDEX_BYTES``, ``MAX_HEAD_BYTES`` and
``MAX_LOCK_BYTES``).

A save moves the head's generation before its first change. Every save is
a commit over the universe it read: a ``Store`` is one opened root, and a
commit through it is refused, with nothing written, when the head no longer
holds the generation the store read. A new store is the one save with no
``Store``, over the empty universe at generation 0.

Cost model: a store call costs what changed, not the whole store.

- Each frozen document value (enterprise, packaged unit, site state, record,
  and each group and machine of the enterprise) computes its canonical JSON
  once. ``save_universe`` writes that text and ``universe_digest`` joins the
  same texts, so neither re-serialises a value, and a changed machine costs
  one machine's text.
- ``open_universe`` reads and hashes every record file but decodes only the
  records the index does not certify; a certified record keeps its file text
  as its canonical JSON and decodes the rest of its body on first access. So a
  cold ``status`` or ``digest`` decodes no record, and only a process that
  reads a record's process or trace pays for that record.
- A ``Store`` keeps the SHA-256 state after its records, and
  ``universe_digest`` of its universe feeds only the records its commits
  added since, then the enterprise and sites: its cost no longer grows with
  the record count. Any other universe is hashed in full.
- A ``Store`` also keeps each site's record ids, listed on its first
  site-filtered ``query_status`` and extended by each commit with the
  records it adds; so a warm ``status --site`` costs that site's records, not
  the store's. Any other status scans every record.
- A save compares only the documents whose value is not its base's. Record
  ids are given in order by ``record_deployment``, so its new records are the
  ids past its base's count, found without a scan. It appends their index
  lines with one write, and neither reads back nor makes a directory for a
  document new to its base.
- ``save_universe`` and ``open_universe`` say which documents they skip.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import (
    DuplicateUnitError,
    ExpressionSyntaxError,
    OryaError,
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
    TraceStatus,
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
INDEX_FILE = "index"  # in deployments/; no .json suffix, so never listed as a record

# The largest store document open reads, in bytes; a larger one is CORRUPT.
MAX_DOCUMENT_BYTES = 16 * 1024 * 1024
# The largest record index open reads, in bytes. Past it the index is ignored
# and no line is added: every record is then decoded, and answers are the same.
MAX_INDEX_BYTES = 64 * 1024 * 1024
# A generation is 20 digits, so a longer head is CORRUPT. A lock file longer
# than its cap names the holder "unknown", which is never taken as gone.
MAX_HEAD_BYTES = 64
MAX_LOCK_BYTES = 4096
# A writer that finds the lock held by a live holder looks again every
# LOCK_POLL_SECONDS for up to LOCK_WAIT_SECONDS before it answers LOCKED.
LOCK_WAIT_SECONDS = 0.5
LOCK_POLL_SECONDS = 0.005


class DeployMode(str, Enum):
    PUSH = "PUSH"
    PULL = "PULL"
    RECONFIGURE = "RECONFIGURE"


# The fields of a record that an index line does not hold; a record opened
# through its line decodes them from its file text on first access.
_BODY = ("process", "params", "trace", "started_at", "finished_at")


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
    def outcome(self) -> str:
        """The trace's status, as ``status`` prints it; a record not yet
        decoded has it from its index line. (Not cached: on CPython 3.11 a
        twelfth attribute moves a record's attributes into a dict of its own,
        about 680 bytes more per record.)"""
        line = self.__dict__.get("_outcome")
        return self.trace.status.value if line is None else line

    @property
    def process_matches_trace(self) -> bool:
        return self.process.digest == self.trace.process_digest

    def __getattr__(self, name: str):
        """Decode the body of a record opened through its index line (see
        ``_unread_record``), check it as an open would, and keep it."""
        tables = self.__dict__.get("_unread")
        if tables is None or name not in _BODY:
            raise AttributeError(name)
        document = f"deployments/{self.id}"
        full = _decode(self.canonical_json.encode(), f"{document}.json", record_from_json, *tables)
        if (full.id, full.site_id, full.product_id, full.unit_id, full.outcome, full.mode) != (
            self.id, self.site_id, self.product_id, self.unit_id, self.outcome, self.mode
        ):
            raise StoreCorruptError(document, "index line does not match record")
        if not full.process_matches_trace:
            raise StoreCorruptError(document, "process copy does not match trace digest")
        for body in _BODY:
            self.__dict__[body] = full.__dict__[body]
        del self.__dict__["_unread"]
        return self.__dict__[name]


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

    def next_deployment_id(self) -> str:
        return f"d{len(self.deployments):06d}"


def empty_universe() -> Universe:
    return Universe(enterprise=EnterpriseModel(id="enterprise"))


# ---------------------------------------------------------------------------
# Canonical serialization and digests


def _members(pairs) -> str:
    """The members of a canonical JSON object, from (key, value text) pairs
    already in key order. A key is quoted as ``json.dumps`` quotes a str."""
    return ",".join([f"{encode_basestring_ascii(key)}:{text}" for key, text in pairs])


# A universe's record ids are d000000.. with no gap (``record_deployment``
# gives them, ``cross_validate`` checks them). Up to this count they sort as
# their numbers do, so the records a commit appends extend the hashed text,
# and each site's list of ids, at its end.
_MAX_KEPT_RECORDS = 10**6


def _record_ids(start: int, stop: int) -> list[str]:
    """The ids of the records numbered ``start`` to ``stop`` - 1."""
    return [f"d{i:06d}" for i in range(start, stop)]


def _hash_records(u: Universe):
    """The SHA-256 state of the digest text from its start to the end of the
    records."""
    catalog = _members(
        (server, "[" + ",".join([unit.canonical_json for unit in units]) + "]")
        for server, units in sorted(u.catalog.items())
    )
    ids = sorted(u.deployments)
    state = hashlib.sha256(f'{{"catalog":{{{catalog}}},"deployments":{{'.encode())
    state.update(_members(zip(ids, [u.deployments[rid].canonical_json for rid in ids])).encode())
    return state


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
        hashed = _hash_records(u)
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
        # A record not yet decoded had this checked before its index line was
        # written, and checks it again when its body is decoded.
        if "_unread" not in record.__dict__ and not record.process_matches_trace:
            raise StoreCorruptError(f"deployments/{rid}", "process copy does not match trace digest")


# ---------------------------------------------------------------------------
# Locking


def _holder(lock_path: Path) -> tuple[str, bool]:
    """The writer the lock file names, and whether it was a process on this
    host that is gone. Read under the directory flock, an empty lock is one
    whose writer died before writing to it. A lock that cannot be read or is
    longer than ``MAX_LOCK_BYTES`` names "unknown", and any other text
    ``store_lock`` did not write names itself; neither is taken as gone."""
    try:
        data = _read_capped(lock_path, MAX_LOCK_BYTES)
    except OSError:
        data = b"unknown"
    text = "unknown" if len(data) > MAX_LOCK_BYTES else data.decode(errors="replace")
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


def _try_lock(root: Path, writer_id: str) -> str | None:
    """Create and fill the lock file under a flock of the store directory,
    so a lock whose holder on this host is gone is taken over by one writer
    only; None when taken, else the live holder's name."""
    lock_path = root / LOCK_FILE
    fd = os.open(root, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released by the close, or by the process's end
        try:
            lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            writer, gone = _holder(lock_path)
            if not gone:
                return writer
            lock_fd = os.open(lock_path, os.O_WRONLY | os.O_TRUNC)
        with os.fdopen(lock_fd, "w") as f:
            json.dump({"host": os.uname().nodename, "pid": os.getpid(), "writer": writer_id}, f)
        return None
    finally:
        os.close(fd)


@contextmanager
def store_lock(root: Path, writer_id: str = "orya"):
    """Advisory single-writer lock. The lock file records the writer, its pid
    and its host. While a live writer holds it, a second writer waits up to
    ``LOCK_WAIT_SECONDS``, then gets LOCKED naming the holder; a dead
    holder's lock is taken over at once."""
    deadline = time.monotonic() + LOCK_WAIT_SECONDS
    while (holder := _try_lock(root, writer_id)) is not None:
        if time.monotonic() >= deadline:
            raise StoreLockedError(holder)
        time.sleep(LOCK_POLL_SECONDS)
    try:
        yield
    finally:
        (root / LOCK_FILE).unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# The head and the Store


def _read_generation(root: Path) -> int:
    """The generation in the store's head file; 0 when there is none."""
    try:
        data = _read_capped(root / HEAD_FILE, MAX_HEAD_BYTES)
    except (FileNotFoundError, NotADirectoryError):
        return 0
    if len(data) > MAX_HEAD_BYTES or not data.strip().isdigit():
        raise StoreCorruptError(HEAD_FILE, "not a generation")
    return int(data)


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
    disk, the generation the head held when it was read, the SHA-256 state
    ``universe_digest`` keeps after its records, and the ids of each site's
    records that ``query_status`` reads. Records are append-only, and the
    universe changes only by a commit, which keeps every record, or by a
    reopen; so the kept state is extended by the records commits add, and
    hashed in full again after a reopen or a catalog change, and each commit
    appends its new records to their sites' ids, which a reopen drops. Past
    ``_MAX_KEPT_RECORDS`` records a commit drops both.
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
        self._sites = None  # site -> ids of its records, in id order; listed on first use
        # Records no index line certified; the next commit adds lines for
        # those whose files hold their canonical text. (Just after the open
        # no record has been decoded, so a certified record is still unread.)
        self._unlined = [rid for rid, r in self.universe.deployments.items() if "_unread" not in r.__dict__]

    def commit(self, u: Universe) -> None:
        """Save ``u``, built from ``self.universe``, as the store's universe.
        StoreChangedError, with nothing written, when another writer has
        committed since the store was read."""
        n = len(self.universe.deployments)
        self.generation = save_universe(u, self.root, store=self)
        self.universe, self._unlined = u, []
        if len(u.deployments) > _MAX_KEPT_RECORDS:
            self._kept = self._sites = None
        elif self._sites is not None:
            self._add_sites(self._sites, _record_ids(n, len(u.deployments)))

    def _hashed_records(self):
        """The SHA-256 state after the records of ``self.universe``."""
        u, m = self.universe, len(self.universe.deployments)
        if self._kept is None or self._kept[0] is not u.catalog:
            self._kept = (u.catalog, m, _hash_records(u))
        catalog, hashed, state = self._kept
        if hashed < m:
            text = _members((rid, u.deployments[rid].canonical_json) for rid in _record_ids(hashed, m))
            state.update(("," + text if hashed else text).encode())
            self._kept = (catalog, m, state)
        return state

    def _site_ids(self, site: str) -> list[str]:
        """The ids of ``site``'s records in ``self.universe``, in id order."""
        if self._sites is None:
            self._sites = self._add_sites({}, sorted(self.universe.deployments))
        return self._sites.get(site, [])

    def _add_sites(self, sites: dict[str, list[str]], ids: list[str]) -> dict[str, list[str]]:
        """``sites`` with each of ``ids``, records of ``self.universe`` in id
        order, appended to its site's list. Only the site is read, which an
        index line gives, so no record is decoded."""
        deployments = self.universe.deployments
        for rid in ids:
            sites.setdefault(deployments[rid].site_id, []).append(rid)
        return sites


# ---------------------------------------------------------------------------
# Open / init / save


def init_universe(path: str | Path, enterprise: EnterpriseModel | None = None) -> Universe:
    """Write a store holding ``enterprise`` (an empty model when None) in one
    save, at generation 1; the path must be empty or absent."""
    u = empty_universe() if enterprise is None else Universe(enterprise)
    save_universe(u, path)
    return u


def _read_capped(path: str | Path, cap: int) -> bytes:
    """The bytes of a file, read up to ``cap`` + 1 by one ``os.read``: more
    than ``cap`` bytes means the file is longer than ``cap``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        return os.read(fd, min(os.fstat(fd).st_size, cap) + 1)
    finally:
        os.close(fd)


def _read_file(path: str | Path, document: str) -> bytes:
    """The bytes of a store file, read up to ``MAX_DOCUMENT_BYTES`` + 1; an
    unreadable or larger file is StoreCorruptError naming ``document``."""
    try:
        data = _read_capped(path, MAX_DOCUMENT_BYTES)
    except OSError as err:
        raise StoreCorruptError(document, str(err)) from None
    if len(data) > MAX_DOCUMENT_BYTES:
        raise StoreCorruptError(document, f"larger than {MAX_DOCUMENT_BYTES} bytes")
    return data


def _decode(data: bytes, document: str, decode, *args):
    """``decode(doc, *args)`` of the JSON object in ``data``; any fault is
    StoreCorruptError naming ``document``."""
    try:
        return decode(expect(json.loads(data.decode()), dict, "document"), *args)
    except (ValueError, KeyError, RecursionError, ExpressionSyntaxError) as err:
        raise StoreCorruptError(document, str(err)) from None


def read_document(path: str | Path, document: str, decode, *args):
    """``decode(doc, *args)`` of the JSON object in the file at ``path``,
    read up to ``MAX_DOCUMENT_BYTES``; an unreadable, larger, non-JSON or
    ill-shaped file is StoreCorruptError naming ``document``."""
    return _decode(_read_file(path, document), document, decode, *args)


# ---------------------------------------------------------------------------
# The record index: deployments/index, derived from the records and appended
# to after them. A line is the canonical JSON of
# [id, sha256 of the record file, site, product, unit, outcome, mode].

_MODES = {m.value: m for m in DeployMode}
_OUTCOMES = {s.value for s in TraceStatus}


def _read_index(dep_dir: str | Path) -> dict[tuple[str, str], tuple | None]:
    """The index's lines keyed by (id, sha256), each to its (site, product,
    unit, outcome, mode); None where lines with the same key disagree. A
    missing, unreadable or over-long index, and any line that is not a
    well-formed entry (a torn last line, say), count as absent."""
    try:
        data = _read_capped(os.path.join(dep_dir, INDEX_FILE), MAX_INDEX_BYTES)
    except OSError:
        return {}
    if len(data) > MAX_INDEX_BYTES:
        return {}
    raw = [line for line in data.split(b"\n") if line]
    try:  # one parse of every line; a line that is not JSON sends it line by line
        entries = json.loads(b"[" + b",".join(raw) + b"]")
    except (ValueError, RecursionError):
        entries = [_json_or_none(line) for line in raw]
    lines: dict = {}
    for entry in entries:
        if (
            type(entry) is list and len(entry) == 7 and all(type(v) is str for v in entry)
            and entry[5] in _OUTCOMES and entry[6] in _MODES
        ):
            fields = tuple(entry[2:])
            if lines.setdefault((entry[0], entry[1]), fields) != fields:
                lines[(entry[0], entry[1])] = None
    return lines


def _json_or_none(data: bytes):
    try:
        return json.loads(data)
    except (ValueError, RecursionError):
        return None


def _index_line(rid: str, record: DeploymentRecord, data: bytes) -> str:
    """The index line of ``record`` stored as ``data`` under ``rid``; empty
    when its decode would fail ``cross_validate``, so no line may stand in
    for it."""
    if record.id != rid or not record.process_matches_trace:
        return ""
    fields = [rid, hashlib.sha256(data).hexdigest(), record.site_id, record.product_id,
              record.unit_id, record.outcome, record.mode.value]
    return canonical_json(fields) + "\n"


def _append_index(dep_dir: Path, text: str) -> None:
    """Append ``text`` to the index by one O_APPEND write, after a newline
    if a torn line ends the file. The index is derived: when it cannot be
    written, or would grow past ``MAX_INDEX_BYTES``, later opens decode the
    records it lacks."""
    try:
        fd = os.open(dep_dir / INDEX_FILE, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    except OSError:
        return
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            text = "\n" + text
        if size + len(text) <= MAX_INDEX_BYTES:
            os.write(fd, text.encode())
    except OSError:
        pass
    finally:
        os.close(fd)


def _unread_record(rid: str, fields: tuple, text: str, tables: tuple) -> DeploymentRecord:
    """A record certified by its index line: id and the line's fields are
    set, ``canonical_json`` is its file text, and the rest of its body is
    decoded on first access with the open's sharing ``tables``."""
    record = object.__new__(DeploymentRecord)
    site, product, unit, outcome, mode = fields
    record.__dict__.update(
        id=rid, site_id=site, product_id=product, unit_id=unit, mode=_MODES[mode],
        _outcome=outcome, canonical_json=text, _unread=tables,
    )
    return record


def open_universe(path: str | Path) -> Universe:
    """Load and cross-validate every document in the store.

    Every file is read on each call, up to ``MAX_DOCUMENT_BYTES``, and every
    record file is hashed. The enterprise, catalog and site states are decoded
    each time. A record whose sha256 and id agree with exactly one line of
    ``deployments/index`` is not decoded: its site, product, unit, outcome and
    mode come from the line, its ``canonical_json`` is its file text less the
    newline, and the rest of its body is decoded and checked on first access.
    Any other record is decoded and checked in full, through
    ``record_from_json``. Equal deployed units, process copies and trace
    events decoded for this open share one value. ``cross_validate`` runs in
    full, and a process shared by many records is hashed once.
    """
    root = Path(path)
    if not root.is_dir():
        raise StoreCorruptError(str(root), "not a directory")
    ent_path = root / "enterprise.json"
    if not ent_path.exists():
        raise StoreCorruptError("enterprise.json", "missing")
    enterprise = read_document(ent_path, "enterprise.json", enterprise_from_json)

    catalog: dict[str, tuple[PackagedUnit, ...]] = {}
    catalog_dir = root / "catalog"
    if catalog_dir.is_dir():
        for server_dir in sorted(catalog_dir.iterdir()):
            if not server_dir.is_dir():
                continue
            catalog[server_dir.name] = tuple(
                read_document(path, f"catalog/{server_dir.name}/{path.name}", unit_from_json)
                for path in sorted(server_dir.glob("*.json"))
            )

    # Tables of this open: each distinct deployed unit, process copy and
    # trace event is built once and shared by every document that holds it.
    units: dict = {}
    tables = ({}, {})  # processes and events, for record_from_json

    site_states: dict[str, ClientSiteState] = {}
    sites_dir = root / "sites"
    if sites_dir.is_dir():
        for site_dir in sorted(sites_dir.iterdir()):
            state_path = site_dir / "state.json"
            if not state_path.exists():
                continue
            site_states[site_dir.name] = read_document(
                state_path, f"sites/{site_dir.name}/state.json", site_state_from_json, units
            )

    deployments: dict[str, DeploymentRecord] = {}
    dep_dir = os.path.join(root, "deployments")
    if os.path.isdir(dep_dir):
        index = _read_index(dep_dir)
        for name in sorted(n for n in os.listdir(dep_dir) if n.endswith(".json")):
            # Keyed by file name, so a record copied over another fails
            # cross_validate's id check instead of silently replacing it.
            rid, document = name[: -len(".json")], f"deployments/{name}"
            data = _read_file(os.path.join(dep_dir, name), document)
            fields = index.get((rid, hashlib.sha256(data).hexdigest()))
            if fields is not None and data.endswith(b"\n") and data.isascii():
                deployments[rid] = _unread_record(rid, fields, data[:-1].decode(), tables)
            else:
                deployments[rid] = _decode(data, document, record_from_json, *tables)

    u = Universe(enterprise, catalog, site_states, deployments)
    cross_validate(u)
    return u


def save_universe(u: Universe, root: str | Path, *, store: Store | None = None) -> int:
    """Write ``u`` over its base under the single-writer lock; return the
    head's generation after the save. The base is the universe ``store``
    read, at the generation it read; without a store it is the empty
    universe at generation 0, and ``root`` must be empty or absent (else
    StoreCorruptError, nothing written). A save whose head no longer holds
    the base's generation is refused (StoreChangedError, nothing written).

    The head moves on before the first document the save writes or removes,
    so a writer killed mid-save still moves it. Site states are committed
    before deployment records, and records before their index lines, so a
    crash between writes leaves at worst a record-less state change or
    records without lines.

    A document whose frozen value ``is`` the base's is not even read. A
    record or site state the base lacks is new, so it is written without a
    read-back; the new records are d{len(base)}..d{len(u)-1}, since
    ``record_deployment`` gives only the next id, and older records are never
    rewritten. Any other document is written (by write-and-rename) only when
    its bytes differ from the file on disk.

    The index gains one line per new record and one per older record the
    store's open found uncertified whose file holds exactly its canonical
    text. Lines are appended, by one write, and do not move the head.
    """
    root = Path(root)
    if store is None:
        if root.exists() and any(root.iterdir()):
            raise StoreCorruptError(str(root), "directory not empty")
        root.mkdir(parents=True, exist_ok=True)
        base, base_generation, unlined = empty_universe(), 0, []
    else:
        base, base_generation, unlined = store.universe, store.generation, store._unlined
    with store_lock(root):
        generation, moved = _read_generation(root), []
        if base_generation != generation:
            raise StoreChangedError(f"store moved to generation {generation} since it was read")

        def change() -> None:
            """Move the head on, once, before the save's first change."""
            if not moved:
                moved.append(_write_head(root, generation + 1))

        if u.enterprise is not base.enterprise:
            _write_json(root / "enterprise.json", u.enterprise.canonical_json, change)

        catalog_dir = root / "catalog"
        for server, units in u.catalog.items():
            if base.catalog.get(server) is units:
                continue
            server_dir = catalog_dir / server
            if server not in base.catalog:  # a server with no units is still read
                change()
                server_dir.mkdir(parents=True, exist_ok=True)
            wanted = {f"{unit.id}.json" for unit in units}
            for stale in server_dir.glob("*.json"):
                if stale.name not in wanted:
                    change()
                    stale.unlink()
            for unit in units:
                _write_json(server_dir / f"{unit.id}.json", unit.canonical_json, change)
        for server in sorted(base.catalog.keys() - u.catalog.keys()):
            change()
            server_dir = catalog_dir / server
            for stale in server_dir.glob("*.json"):
                stale.unlink()
            server_dir.rmdir()

        sites_dir = root / "sites"
        for site, state in u.site_states.items():
            old = base.site_states.get(site)
            if old is state:
                continue
            if old is None:
                (sites_dir / site).mkdir(parents=True, exist_ok=True)
            _write_json(sites_dir / site / "state.json", state.canonical_json, change, old is None)

        dep_dir = root / "deployments"
        if not base.deployments:
            dep_dir.mkdir(exist_ok=True)
        lines = []
        for rid in _record_ids(len(base.deployments), len(u.deployments)):  # append-only
            record = u.deployments[rid]
            _write_json(dep_dir / f"{rid}.json", record.canonical_json, change, True)
            lines.append(_index_line(rid, record, (record.canonical_json + "\n").encode()))
        for rid in unlined:
            record = base.deployments[rid]
            data = (record.canonical_json + "\n").encode()
            try:
                if _read_file(dep_dir / f"{rid}.json", rid) == data:
                    lines.append(_index_line(rid, record, data))
            except StoreCorruptError:
                pass  # unreadable or too long: it stays without a line
        if any(lines):
            _append_index(dep_dir, "".join(lines))
    return generation + len(moved)


def _write_json(path: Path, text: str, change, new: bool = False) -> None:
    """Write a document's canonical ``text`` and a newline, unless the file
    already holds exactly these bytes; ``change()`` is called first. A
    ``new`` document is known to be absent, so it is not read first."""
    data = (text + "\n").encode()
    if not new:
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


def _server_units(u: Universe, server_id: str) -> tuple[PackagedUnit, ...]:
    """The units published on ``server_id``; UnknownTargetError unless the
    last machine with that id, as ``cross_validate`` reads it, is an app
    server."""
    if server_id not in u.enterprise.app_servers:
        raise UnknownTargetError(f"{server_id!r} is not an app server")
    return u.catalog.get(server_id, ())


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
    units = _server_units(u, server_id)
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
    units = _server_units(u, server_id)
    if not any(existing.id == unit_id for existing in units):
        raise UnknownUnitError(f"unit {unit_id!r} not published on {server_id!r}")
    catalog = dict(u.catalog)
    catalog[server_id] = tuple(x for x in units if x.id != unit_id)
    return replace(u, catalog=catalog)


def record_deployment(u: Universe, record: DeploymentRecord) -> Universe:
    """``u`` with ``record`` appended. Only ``u.next_deployment_id()`` is
    accepted, so record ids run on with no gap."""
    if record.id in u.deployments:
        raise DuplicateUnitError(f"deployment record {record.id!r} already exists")
    if record.id != (rid := u.next_deployment_id()):
        raise OryaError(f"deployment record {record.id!r} is not the next id {rid!r}")
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
    *,
    store: Store | None = None,
) -> list[DeploymentRecord]:
    """The records that match every filter given, in id order. A site's
    status over the universe of ``store`` reads only the ids the store keeps
    for that site (see ``Store``); any other status scans every record."""
    ids = None
    if site is not None and store is not None and store.universe is u:
        ids = store._site_ids(site)
    records = []
    for rid in sorted(u.deployments) if ids is None else ids:
        r = u.deployments[rid]
        if site is not None and r.site_id != site:
            continue
        if product is not None and r.product_id != product:
            continue
        if outcome is not None and r.outcome != outcome:
            continue
        if mode is not None and r.mode.value != mode:
            continue
        records.append(r)
    return records
