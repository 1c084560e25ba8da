"""The head, the lock and the record index of a store, across engines and
processes.

Every write moves the head's generation before its first document, and a
commit through a ``Store`` is refused when the head moved since the store
was read. A writer waits briefly for a live holder's lock, and a lock whose
holder died on this host is reclaimed at once. A record that
one index line certifies is not decoded at open, and any damage to the index
only sends records back to a full decode. A crash at each write point of a
commit leaves a store that opens and commits. Child processes are started by
``spawn`` and are never more than four.
"""

import fcntl
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_enterprise, make_unit
from orya import orchestrator as orch
from orya import simharness
from orya import universe as universe_mod
from orya.cli import main
from orya.errors import StoreChangedError, StoreCorruptError, StoreLockedError
from orya.model import ClientSiteState, DeployedUnit
from orya.service import LocalEngine
from orya.units import unit_to_json
from orya.universe import (
    HEAD_FILE,
    INDEX_FILE,
    LOCK_FILE,
    Store,
    empty_universe,
    init_universe,
    open_universe,
    publish_unit,
    record_deployment,
    record_from_json,
    remove_unit,
    save_universe,
    set_site_state,
    store_lock,
    universe_digest,
)
from orya.values import Version
from test_universe import SCENARIO_DIR, make_record, oracle_digest

SPAWN = multiprocessing.get_context("spawn")
TIMEOUT = 60  # seconds any child or pool may take
SITES = 4
WORKERS = 4
OPS = 20


def small_store(root, sites=SITES):
    """``sites`` sites s0.., each running unit u-1 of product p."""
    ent = make_enterprise({f"s{i}": ({"os": "linux", "disk.free": "100GB"}, ()) for i in range(sites)})
    init_universe(root, ent)
    engine = LocalEngine(root)
    manifest = unit_to_json(make_unit("u-1", product="p"))
    assert engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})["ok"]
    assert engine.handle({"op": "deploy", "product": "p", "group": "all"})["ok"]
    return engine


def head(root):
    return int((root / HEAD_FILE).read_text())


def dead_pid():
    """The pid of a process that has exited and been reaped."""
    out = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"], capture_output=True, check=True)
    return int(out.stdout)


def lock_text(pid, writer):
    return json.dumps({"host": os.uname().nodename, "pid": pid, "writer": writer}, sort_keys=True)


# -- children (module level, so ``spawn`` can import them) ---------------------


def hold_lock(root, held):
    """Take the store's lock, say so, and wait to be killed."""
    with store_lock(Path(root), "child"):
        held.set()
        time.sleep(TIMEOUT)


def die_taking_lock(root, when):
    """Take the store's lock, but exit the process just ``before`` or
    ``after`` it writes its name into the lock file it created."""
    dump = json.dump

    def dying(doc, f):
        if when == "after":
            dump(doc, f)
            f.flush()
        os._exit(3)

    json.dump = dying
    with store_lock(Path(root), "child"):
        pass


def die_after_first_document(root, site):
    """Deactivate u-1 on ``site``, but exit the process as soon as the save
    has renamed its first document into place, leaving the lock behind."""
    replace_file = universe_mod._replace

    def dying(path, data):
        replace_file(path, data)
        if path.name != HEAD_FILE:
            os._exit(3)

    universe_mod._replace = dying
    LocalEngine(root).handle({"op": "deactivate", "site": site, "unit": "u-1"})


def die_before_index_lines(root, site):
    """Deactivate u-1 on ``site``, but exit the process after the save has
    written its record and before it appends the record's index line."""

    def dying(dep_dir, text):
        os._exit(3)

    universe_mod._append_index = dying
    LocalEngine(root).handle({"op": "deactivate", "site": site, "unit": "u-1"})


def race(root, worker, ops, start):
    """From the wall-clock time ``start``, ``ops`` ops from one engine, a few
    ms apart: a set_prop of this worker's own property on a random site, or a
    toggle of u-1 on this worker's own site. Returns each request with its
    answer."""
    rng = random.Random(worker)
    engine = LocalEngine(root)
    active = True
    answered = []
    time.sleep(max(0.0, start - time.time()))
    for i in range(ops):
        time.sleep(rng.random() * 0.005)
        if rng.random() < 0.5:
            req = {"op": "set_prop", "site": f"s{rng.randrange(SITES)}", "name": f"w{worker}", "value": f"v{i}"}
        else:
            req = {"op": "deactivate" if active else "activate", "site": f"s{worker}", "unit": "u-1"}
        resp = engine.handle(req)
        if resp["ok"] and req["op"] != "set_prop":
            active = not active
        answered.append((req, resp))
    return answered


# -- the head -----------------------------------------------------------------


class TestHead:
    def test_a_store_without_a_head_opens_at_generation_zero(self, tmp_path):
        root = tmp_path / "u"
        small_store(root)
        (root / HEAD_FILE).unlink()  # as a store written before the head was
        engine = LocalEngine(root)
        assert engine.store.generation == 0
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert head(root) == engine.store.generation == 1

    def test_each_writing_save_moves_the_head_once(self, tmp_path):
        root = tmp_path / "u"
        engine = small_store(root)
        generation = head(root)
        assert engine.handle({"op": "deploy", "product": "p", "group": "all"})["ok"]  # nothing new
        assert engine.handle({"op": "set_prop", "site": "s0", "name": "tier", "value": "gold"})["ok"]
        assert engine.handle({"op": "set_prop", "site": "s0", "name": "tier", "value": "gold"})["ok"]
        assert head(root) == engine.store.generation == generation + 1
        assert sorted(p.name for p in root.iterdir() if p.is_file()) == ["enterprise.json", HEAD_FILE]

    @pytest.mark.parametrize("text", ["", "x\n", "-1\n", "1.5\n", "²\n"])
    def test_a_head_that_is_not_a_generation_is_corrupt(self, tmp_path, text):
        root = tmp_path / "u"
        small_store(root)
        (root / HEAD_FILE).write_text(text)
        with pytest.raises(StoreCorruptError) as exc:
            Store(root)
        assert exc.value.document == HEAD_FILE

    def test_a_head_over_its_cap_is_corrupt(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        small_store(root)
        size = (root / HEAD_FILE).stat().st_size
        monkeypatch.setattr(universe_mod, "MAX_HEAD_BYTES", size - 1)
        with pytest.raises(StoreCorruptError) as exc:
            Store(root)
        assert exc.value.document == HEAD_FILE
        monkeypatch.setattr(universe_mod, "MAX_HEAD_BYTES", size)
        assert Store(root).generation == head(root)

    def test_a_store_read_while_a_writer_holds_the_lock_commits_only_after_reading_again(self, tmp_path):
        root = tmp_path / "u"
        small_store(root)
        with store_lock(root, "other"):
            store = Store(root)  # what it read may be torn
        assert store.generation is None
        u = publish_unit(store.universe, "srv1", make_unit("u-2", product="p"))
        with pytest.raises(StoreChangedError):
            store.commit(u)
        store.reopen()
        store.commit(publish_unit(store.universe, "srv1", make_unit("u-2", product="p")))
        assert [unit.id for unit in open_universe(root).catalog["srv1"]] == ["u-1", "u-2"]


# -- the lock -----------------------------------------------------------------


class TestReclaim:
    def test_a_killed_holders_lock_is_reclaimed(self, tmp_path, short_lock_wait):
        root = tmp_path / "u"
        engine = small_store(root)
        held = SPAWN.Event()
        child = SPAWN.Process(target=hold_lock, args=(str(root), held))
        child.start()
        try:
            assert held.wait(TIMEOUT)
            resp = engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})
            assert resp["error"] == {"code": "LOCKED", "message": "store locked by writer 'child'"}
        finally:
            child.kill()
            child.join(TIMEOUT)
        assert child.exitcode == -signal.SIGKILL
        assert json.loads((root / LOCK_FILE).read_text())["writer"] == "child"
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert not (root / LOCK_FILE).exists()

    def test_a_lock_not_known_dead_is_kept(self, tmp_path, short_lock_wait):
        root = tmp_path / "u"
        engine = small_store(root)
        for text, writer in (
            (lock_text(os.getpid(), "me"), "me"),  # this process: alive
            (json.dumps({"host": "elsewhere", "pid": dead_pid(), "writer": "far"}), "far"),
            (json.dumps({"host": os.uname().nodename, "pid": 0, "writer": "zero"}), "zero"),
            ("writer-a", "writer-a"),  # not a text store_lock writes
        ):
            (root / LOCK_FILE).write_text(text)
            resp = engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})
            assert resp["error"] == {"code": "LOCKED", "message": f"store locked by writer {writer!r}"}
            assert (root / LOCK_FILE).read_text() == text

    def test_a_dead_holders_lock_file_is_reclaimed(self, tmp_path):
        root = tmp_path / "u"
        engine = small_store(root)
        (root / LOCK_FILE).write_text(lock_text(dead_pid(), "dead"))
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert not (root / LOCK_FILE).exists()

    def test_a_lock_over_its_cap_names_no_holder_and_is_kept(self, tmp_path, monkeypatch, short_lock_wait):
        root = tmp_path / "u"
        engine = small_store(root)
        text = lock_text(dead_pid(), "dead")
        (root / LOCK_FILE).write_text(text)
        monkeypatch.setattr(universe_mod, "MAX_LOCK_BYTES", len(text) - 1)
        resp = engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})
        assert resp["error"] == {"code": "LOCKED", "message": "store locked by writer 'unknown'"}
        assert (root / LOCK_FILE).read_text() == text
        monkeypatch.setattr(universe_mod, "MAX_LOCK_BYTES", len(text))
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_a_writer_killed_taking_the_lock_leaves_a_lock_that_is_reclaimed(self, tmp_path, when):
        root = tmp_path / "u"
        engine = small_store(root)
        child = SPAWN.Process(target=die_taking_lock, args=(str(root), when))
        child.start()
        child.join(TIMEOUT)
        assert child.exitcode == 3
        text = (root / LOCK_FILE).read_text()
        assert (text == "") if when == "before" else (json.loads(text)["writer"] == "child")
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert not (root / LOCK_FILE).exists()

    def test_two_reclaimers_cannot_both_win(self, tmp_path, short_lock_wait):
        root = tmp_path / "u"
        small_store(root)
        dead = lock_text(dead_pid(), "dead")
        (root / LOCK_FILE).write_text(dead)
        outcomes = {}
        done = threading.Event()

        def take(writer):
            try:
                with store_lock(root, writer):
                    outcomes[writer] = "won"
                    done.wait(TIMEOUT)  # hold the lock until the other is answered
            except StoreLockedError as err:
                outcomes[writer] = err.holder
                done.set()

        # While the store directory's flock is held, both wait, and the dead
        # lock stays as it is: neither reads it outside the flock.
        fd = os.open(root, os.O_RDONLY)
        fcntl.flock(fd, fcntl.LOCK_EX)
        threads = [threading.Thread(target=take, args=(writer,)) for writer in ("first", "second")]
        for thread in threads:
            thread.start()
        time.sleep(0.2)
        assert (root / LOCK_FILE).read_text() == dead and outcomes == {}
        os.close(fd)
        for thread in threads:
            thread.join(TIMEOUT)
        [winner] = [writer for writer, outcome in outcomes.items() if outcome == "won"]
        assert outcomes == {winner: "won", ({"first", "second"} - {winner}).pop(): winner}
        assert not (root / LOCK_FILE).exists()


def count_attempts(monkeypatch, refused=None):
    """Record what each attempt to take the lock found: None when it took
    the lock, else the holder's name. ``refused`` is set at the first
    attempt that finds a live holder."""
    attempts, try_lock = [], universe_mod._try_lock

    def counted(root, writer_id):
        holder = try_lock(root, writer_id)
        attempts.append(holder)
        if holder is not None and refused is not None:
            refused.set()
        return holder

    monkeypatch.setattr(universe_mod, "_try_lock", counted)
    return attempts


class TestLockWait:
    def test_a_writer_commits_when_the_holder_releases_within_the_bound(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        engine = small_store(root)
        held, refused = threading.Event(), threading.Event()
        attempts = count_attempts(monkeypatch, refused)

        def hold():
            with store_lock(root, "other"):
                held.set()
                refused.wait(TIMEOUT)  # release once the writer has found the lock held

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(TIMEOUT)
            resp = engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})
        finally:
            refused.set()
            holder.join(TIMEOUT)
        assert not holder.is_alive()
        assert resp["ok"]
        assert attempts[0] is None and "other" in attempts and attempts[-1] is None
        assert not (root / LOCK_FILE).exists()

    def test_a_holder_past_the_bound_answers_locked(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        engine = small_store(root)
        attempts = count_attempts(monkeypatch)
        with store_lock(root, "other"):
            t0 = time.monotonic()
            resp = engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})
            waited = time.monotonic() - t0
        assert resp["error"] == {"code": "LOCKED", "message": "store locked by writer 'other'"}
        assert waited >= universe_mod.LOCK_WAIT_SECONDS
        assert len(attempts) > 2 and set(attempts[1:]) == {"other"}

    def test_a_dead_holders_lock_is_taken_at_once(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        engine = small_store(root)
        (root / LOCK_FILE).write_text(lock_text(dead_pid(), "dead"))
        attempts = count_attempts(monkeypatch)
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert attempts == [None]


# -- crashes and races ----------------------------------------------------------


def test_a_writer_killed_mid_save_moves_the_head_and_the_store_recovers(tmp_path):
    root = tmp_path / "u"
    small_store(root)
    stale = LocalEngine(root)
    generation = stale.store.generation
    records = len(stale.universe.deployments)

    child = SPAWN.Process(target=die_after_first_document, args=(str(root), "s0"))
    child.start()
    child.join(TIMEOUT)
    assert child.exitcode == 3
    assert (root / LOCK_FILE).exists()
    assert head(root) == generation + 1  # moved before the first document

    # The store opens: the state was written, its record was not.
    torn = open_universe(root)
    assert torn.site_states["s0"].deployed_units[0].state == "INSTALLED"
    assert len(torn.deployments) == records

    # The stale engine reclaims the lock, is refused because the head moved,
    # reads the store again and commits.
    resp = stale.handle({"op": "deactivate", "site": "s1", "unit": "u-1"})
    assert resp["ok"] and resp["report"]["entries"][0]["record"] == f"d{records:06d}"
    assert not (root / LOCK_FILE).exists()
    assert head(root) == stale.store.generation == generation + 2
    on_disk = open_universe(root)
    assert [s.deployed_units[0].state for _, s in sorted(on_disk.site_states.items())] == [
        "INSTALLED", "INSTALLED", "ACTIVE", "ACTIVE"
    ]
    assert universe_digest(stale.universe) == universe_digest(on_disk) == oracle_digest(on_disk)


class Crash(BaseException):
    """A process killed at a write point; no handler in orya catches it."""


WRITE_POINTS = ("_write_head", "_replace", "_append_index")


def crash_at(monkeypatch, k):
    """Make the ``k``-th call (from 0) of any of ``WRITE_POINTS`` raise
    ``Crash`` before it writes; None never raises. Returns the names of the
    calls made."""
    calls = []
    for name in WRITE_POINTS:
        def point(*args, _name=name, _real=getattr(universe_mod, name)):
            if len(calls) == k:
                raise Crash(_name)
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(universe_mod, name, point)
    return calls


CRASH_OPS = {
    "toggle": {"op": "deactivate", "site": "s0", "unit": "u-1"},
    "push": {"op": "deploy", "product": "q", "group": "all"},
}


@pytest.mark.parametrize("op", sorted(CRASH_OPS))
def test_a_crash_at_any_write_point_leaves_a_store_that_opens_and_commits(tmp_path, monkeypatch, op):
    """Every crash point of one commit, in the manner of ALICE (Pillai et al.,
    OSDI 2014, "All File Systems Are Not Created Equal"), run in process: on
    a fresh copy of a three-site store for each k, the op raises at the k-th
    head write, document write-and-rename or index append, and the copy is
    then opened and written again.

    This models a process crash only, where the writes before the raise land
    in order and whole. A power loss can reorder writes, and nothing is
    fsynced, so it is not covered. The raise unwinds ``store_lock`` and so
    releases the lock, as the next writer's reclaim of a dead holder's lock
    would."""
    template = tmp_path / "template"
    engine = small_store(template, sites=3)
    manifest = unit_to_json(make_unit("u-2", product="q"))
    assert engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})["ok"]
    generation = head(template)
    records = {p.name: p.read_bytes() for p in (template / "deployments").glob("*.json")}
    req = CRASH_OPS[op]

    whole = tmp_path / "whole"
    shutil.copytree(template, whole)
    with monkeypatch.context() as patch:
        calls = crash_at(patch, None)
        assert LocalEngine(whole).handle(req)["ok"]
    after = open_universe(whole)
    assert len(after.deployments) > len(records)

    for k in range(len(calls)):
        root = tmp_path / f"crash{k}"
        shutil.copytree(template, root)
        with monkeypatch.context() as patch:
            crash_at(patch, k)
            with pytest.raises(Crash):
                LocalEngine(root).handle(req)
        assert not (root / LOCK_FILE).exists()
        assert head(root) == generation + (k > 0)  # moved before the first change

        torn = open_universe(root)  # never CORRUPT
        assert sorted(torn.deployments) == [f"d{i:06d}" for i in range(len(torn.deployments))]
        assert {name: (root / "deployments" / name).read_bytes() for name in records} == records
        for rid in torn.deployments.keys() - {name[: -len(".json")] for name in records}:
            site = torn.deployments[rid].site_id
            assert torn.deployments[rid].canonical_json == after.deployments[rid].canonical_json
            # Its site's state was committed before it.
            assert torn.site_states[site].canonical_json == after.site_states[site].canonical_json

        resp = LocalEngine(root).handle({"op": "set_prop", "site": "s1", "name": "crash", "value": f"k{k}"})
        assert resp["ok"], (k, resp)
        machines = {m.id: m for m in open_universe(root).enterprise.machines}
        assert machines["s1"].properties.get("crash") == f"k{k}"


def test_concurrent_writers_lose_no_committed_op(tmp_path):
    root = tmp_path / "u"
    small_store(root)
    before = open_universe(root)
    t0 = time.monotonic()
    start = time.time() + 2  # after every worker has started
    with SPAWN.Pool(WORKERS) as pool:
        results = pool.starmap_async(race, [(str(root), w, OPS, start) for w in range(WORKERS)]).get(TIMEOUT)
    assert time.monotonic() - t0 < TIMEOUT
    after = open_universe(root)

    answers = [resp for answered in results for _, resp in answered]
    assert all(resp["ok"] or resp["error"]["code"] == "LOCKED" for resp in answers), answers
    assert sum(resp["ok"] for resp in answers) >= len(answers) // 10

    # Record ids run on with no gap, and the new records are exactly those
    # the toggles answered ok announced, each on its worker's site.
    assert sorted(after.deployments) == [f"d{i:06d}" for i in range(len(after.deployments))]
    announced = {
        resp["report"]["entries"][0]["record"]: req["site"]
        for answered in results for req, resp in answered
        if req["op"] != "set_prop" and resp["ok"]
    }
    new = {rid: r.site_id for rid, r in after.deployments.items() if rid not in before.deployments}
    assert new == announced

    # Each site holds what the last op answered ok left there; a LOCKED op
    # left nothing.
    machines = {m.id: m for m in after.enterprise.machines}
    for worker, answered in enumerate(results):
        toggles = [req["op"] for req, resp in answered if req["op"] != "set_prop" and resp["ok"]]
        state = after.site_states[f"s{worker}"].deployed_units[0].state
        assert state == ("INSTALLED" if toggles and toggles[-1] == "deactivate" else "ACTIVE")
        last = {req["site"]: req["value"] for req, resp in answered if req["op"] == "set_prop" and resp["ok"]}
        for site in (f"s{i}" for i in range(SITES)):
            assert machines[site].properties.get(f"w{worker}") == last.get(site), (worker, site)

    assert universe_digest(open_universe(root)) == oracle_digest(after)


# -- the record index -----------------------------------------------------------


def index_of(root):
    """The index's lines, each parsed."""
    text = (root / "deployments" / INDEX_FILE).read_text()
    return [json.loads(line) for line in text.splitlines()]


def decoded(root, rid):
    """The record in its file, decoded in full."""
    return record_from_json(json.loads((root / "deployments" / f"{rid}.json").read_text()), {}, {})


def count_decodes(monkeypatch):
    """Count the records decoded in full (``record_from_json`` calls)."""
    calls = []

    def spy(*args):
        calls.append(args[0]["id"])
        return record_from_json(*args)

    monkeypatch.setattr(universe_mod, "record_from_json", spy)
    return calls


def assert_index_matches_records(root):
    """Every record has exactly one line, and every field of it is the
    decoded record's field."""
    lines = index_of(root)
    rids = sorted(p.name[: -len(".json")] for p in (root / "deployments").glob("*.json"))
    assert sorted(line[0] for line in lines) == rids
    for rid, sha, site, product, unit, outcome, mode in lines:
        record = decoded(root, rid)
        data = (root / "deployments" / f"{rid}.json").read_bytes()
        assert sha == hashlib.sha256(data).hexdigest()
        assert [rid, site, product, unit, outcome, mode] == [
            record.id, record.site_id, record.product_id, record.unit_id,
            record.trace.status.value, record.mode.value,
        ]


def two_site_store(root):
    """Sites s0-s2 running u-1 (three push records), then u-1 deactivated
    and activated again on s1 and s2: seven records, each with its line."""
    engine = small_store(root, sites=3)
    for site in ("s1", "s2"):
        assert engine.handle({"op": "deactivate", "site": site, "unit": "u-1"})["ok"]
        assert engine.handle({"op": "activate", "site": site, "unit": "u-1"})["ok"]
    assert len(engine.universe.deployments) == 7
    return engine


def answers(root, capsys):
    """What cold ``status`` of every site and ``digest`` processes print."""
    out = []
    for args in (["status", "--site", "s0"], ["status", "--site", "s1"], ["status"], ["digest"]):
        main(["--universe", str(root), "--format", "json", *args])
        out.append(capsys.readouterr().out)
    return out


class TestRecordIndex:
    def test_cold_status_and_digest_decode_no_record(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "u"
        two_site_store(root)
        full = answers(root, capsys)
        decodes = count_decodes(monkeypatch)
        assert answers(root, capsys) == full
        assert decodes == []
        (root / "deployments" / INDEX_FILE).unlink()
        assert answers(root, capsys) == full
        assert len(decodes) == 4 * 7

    def test_lines_match_the_scenario_stores(self, tmp_path, monkeypatch):
        final = []
        monkeypatch.setattr(simharness, "universe_digest", lambda u: final.append(u) or universe_digest(u))
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            simharness.run_scenario(path)
            root = tmp_path / path.stem
            save_universe(final[-1], root)
            assert_index_matches_records(root)
            assert universe_digest(open_universe(root)) == oracle_digest(final[-1])

    def test_lines_match_a_churned_store(self, tmp_path, monkeypatch):
        rng = random.Random(9)
        root = tmp_path / "u"
        sites = {f"s{i}": ({"os": "linux", "disk.free": "100GB"}, ()) for i in range(3)}
        init_universe(root, make_enterprise(sites))
        store = Store(root)
        u = store.universe
        for step in range(80):
            op = rng.choice(("publish", "remove", "deploy", "record"))
            published = u.catalog.get("srv1", ())
            if op == "publish":
                unit = make_unit(f"u{step:03d}", product=f"p{rng.randrange(3)}", resources=[("bin", 1, "x")])
                u = publish_unit(u, "srv1", unit)
            elif op == "remove" and published:
                u = remove_unit(u, "srv1", rng.choice(published).id)
            elif op == "deploy" and published:
                request = orch.DeployRequest(target=(rng.choice(sorted(sites)),), product_id=rng.choice(published).product_id)
                u, _ = orch.push_deploy(u, request, simharness.build_fleet(u))
            elif op == "record":
                u = record_deployment(u, make_record(u.next_deployment_id(), site=rng.choice(sorted(sites))))
            store.commit(u)
            u = open_universe(root)
        assert len(u.deployments) > 10
        assert_index_matches_records(root)
        oracle = oracle_digest(u)
        decodes = count_decodes(monkeypatch)
        assert universe_digest(open_universe(root)) == oracle
        assert decodes == []

    @pytest.mark.parametrize(
        "damage", ["missing", "torn last line", "line of a missing record", "disagreeing hash",
                   "duplicate lines", "conflicting lines", "not JSON", "over-long"]
    )
    def test_a_damaged_index_changes_no_answer(self, tmp_path, monkeypatch, capsys, damage):
        root = tmp_path / "u"
        two_site_store(root)
        expected = answers(root, capsys)
        oracle = oracle_digest(open_universe(root))
        index = root / "deployments" / INDEX_FILE
        text = index.read_text()
        lines = text.splitlines(keepends=True)
        if damage == "missing":
            index.unlink()
        elif damage == "torn last line":
            index.write_text(text[:-20])
        elif damage == "line of a missing record":
            index.write_text(text + lines[0].replace("d000000", "d000099"))
        elif damage == "disagreeing hash":
            sha = json.loads(lines[3])[1]
            index.write_text(text.replace(sha, "0" * 64))
        elif damage == "duplicate lines":
            index.write_text(text + text)
        elif damage == "conflicting lines":
            index.write_text(text + lines[3].replace('"s1"', '"s2"').replace('"s0"', '"s2"'))
        elif damage == "not JSON":
            index.write_text(text[:40] + "\n" + "[" * 100000 + "\n" + text)
        else:
            monkeypatch.setattr(universe_mod, "MAX_INDEX_BYTES", len(text) - 1)
        decodes = count_decodes(monkeypatch)
        assert answers(root, capsys) == expected
        # Each of the four opens decodes the records no line certifies.
        uncertified = {"missing": 7, "torn last line": 1, "disagreeing hash": 1, "conflicting lines": 1,
                       "over-long": 7}
        assert len(decodes) == 4 * uncertified.get(damage, 0)
        reopened = open_universe(root)
        assert universe_digest(reopened) == oracle_digest(reopened) == oracle
        assert reopened == open_universe(root)  # decoding every body keeps every answer

    def test_a_record_rewritten_with_the_same_length_and_mtime_is_decoded(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "u"
        two_site_store(root)
        path = root / "deployments" / "d000003.json"
        stat = path.stat()
        text = path.read_text()
        assert '"site":"s1"' in text
        path.write_text(text.replace('"site":"s1"', '"site":"s2"'))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        decodes = count_decodes(monkeypatch)
        u = open_universe(root)
        assert decodes == ["d000003"]
        assert u.deployments["d000003"].site_id == "s2"  # the file, not the line
        # A record that no longer matches its trace digest is refused.
        path.write_text(text.replace('"id":"u-1.deactivate"', '"id":"u-1.deactivat!"'))
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000003"
        assert "process copy" in exc.value.reason

    def test_a_body_decoded_later_is_checked_against_its_line(self, tmp_path):
        root = tmp_path / "u"
        two_site_store(root)
        index = root / "deployments" / INDEX_FILE
        index.write_text(index.read_text().replace('"s1"', '"s2"'))  # a consistent rewrite of a line
        u = open_universe(root)
        assert u.deployments["d000003"].site_id == "s2"
        with pytest.raises(StoreCorruptError) as exc:
            u.deployments["d000003"].trace
        assert exc.value.document == "deployments/d000003"
        assert exc.value.reason == "index line does not match record"

    def test_a_writer_killed_before_its_lines_leaves_a_store_that_opens(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        small_store(root)
        child = SPAWN.Process(target=die_before_index_lines, args=(str(root), "s0"))
        child.start()
        child.join(TIMEOUT)
        assert child.exitcode == 3
        assert (root / "deployments" / "d000004.json").exists()
        assert "d000004" not in {line[0] for line in index_of(root)}
        decodes = count_decodes(monkeypatch)
        engine = LocalEngine(root)  # the store opens; the record without a line is decoded
        assert decodes == ["d000004"]
        assert engine.universe.site_states["s0"].deployed_units[0].state == "INSTALLED"
        assert engine.handle({"op": "deactivate", "site": "s1", "unit": "u-1"})["ok"]
        assert_index_matches_records(root)
        oracle = oracle_digest(engine.universe)
        decodes.clear()
        assert universe_digest(open_universe(root)) == oracle
        assert decodes == []

    def test_a_pretty_printed_record_gets_no_line_and_opens(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        engine = small_store(root)
        rid = engine.universe.next_deployment_id()
        pretty = record_deployment(engine.universe, make_record(rid, site="s1"))
        path = root / "deployments" / f"{rid}.json"
        path.write_text(json.dumps(pretty.deployments[rid].to_json(), indent=2))
        engine.store.reopen()
        assert engine.handle({"op": "deactivate", "site": "s1", "unit": "u-1"})["ok"]
        Store(root).commit(open_universe(root))
        assert rid not in {line[0] for line in index_of(root)}
        assert len(index_of(root)) == len(engine.universe.deployments) - 1
        decodes = count_decodes(monkeypatch)
        u = open_universe(root)
        assert decodes == [rid]
        assert universe_digest(u) == oracle_digest(u) == oracle_digest(engine.universe)

    def test_a_commit_lines_an_older_store(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        two_site_store(root)
        (root / "deployments" / INDEX_FILE).unlink()  # as a store written before the index
        engine = LocalEngine(root)
        assert engine.handle({"op": "deactivate", "site": "s0", "unit": "u-1"})["ok"]
        assert_index_matches_records(root)
        assert engine.handle({"op": "activate", "site": "s0", "unit": "u-1"})["ok"]
        assert_index_matches_records(root)  # each record is lined once

    def test_a_document_new_to_the_store_is_not_read_back(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        ent = make_enterprise({"s0": ({}, ()), "s1": ({}, ())})
        save_universe(record_deployment(replace(empty_universe(), enterprise=ent), make_record("d000000", site="s0")), root)
        store = Store(root)
        read, made = [], []
        read_bytes, mkdir = Path.read_bytes, Path.mkdir
        monkeypatch.setattr(Path, "read_bytes", lambda path: read.append(path.name) or read_bytes(path))
        monkeypatch.setattr(Path, "mkdir", lambda path, *a, **k: made.append(path.name) or mkdir(path, *a, **k))
        u = set_site_state(store.universe, ClientSiteState("s1"))
        store.commit(record_deployment(u, make_record("d000001", site="s1")))
        assert "state.json" not in read and "d000001.json" not in read
        assert "s1" in made
        read.clear()
        made.clear()
        unit = DeployedUnit("u-1", "prod", Version.parse("1.0"), "ACTIVE")
        store.commit(set_site_state(store.universe, ClientSiteState("s1", (unit,), ("prod",))))
        assert "state.json" in read and "s1" not in made  # an existing state is compared, its directory kept
        assert universe_digest(open_universe(root)) == oracle_digest(store.universe)


class TestSizeCap:
    @pytest.mark.parametrize(
        "document", ["enterprise.json", "catalog/srv1/u-1.json", "sites/s1/state.json", "deployments/d000003.json"]
    )
    def test_a_document_over_the_cap_is_corrupt(self, tmp_path, monkeypatch, document):
        root = tmp_path / "u"
        two_site_store(root)
        largest = max(p.stat().st_size for p in root.rglob("*.json"))
        path = root / document
        path.write_bytes(path.read_bytes() + b" " * largest)  # still its JSON, now the largest file
        monkeypatch.setattr(universe_mod, "MAX_DOCUMENT_BYTES", path.stat().st_size - 1)
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == document
        assert exc.value.reason == f"larger than {path.stat().st_size - 1} bytes"
        monkeypatch.setattr(universe_mod, "MAX_DOCUMENT_BYTES", path.stat().st_size)
        assert open_universe(root).deployments.keys() == {f"d{n:06d}" for n in range(7)}
