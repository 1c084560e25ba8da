"""The head and the lock of a store, across engines and processes.

Every write moves the head's generation before its first document, and a
commit through a ``Store`` is refused when the head moved since the store
was read. A lock whose holder died on this host is reclaimed. Child
processes are started by ``spawn`` and are never more than four.
"""

import fcntl
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_enterprise, make_unit
from orya import universe as universe_mod
from orya.errors import StoreChangedError, StoreCorruptError, StoreLockedError
from orya.service import LocalEngine
from orya.units import unit_to_json
from orya.universe import (
    HEAD_FILE,
    LOCK_FILE,
    Store,
    empty_universe,
    open_universe,
    publish_unit,
    save_universe,
    store_lock,
    universe_digest,
)
from test_universe import oracle_digest

SPAWN = multiprocessing.get_context("spawn")
TIMEOUT = 60  # seconds any child or pool may take
SITES = 4
WORKERS = 4
OPS = 20


def small_store(root, sites=SITES):
    """``sites`` sites s0.., each running unit u-1 of product p."""
    ent = make_enterprise({f"s{i}": ({"os": "linux", "disk.free": "100GB"}, ()) for i in range(sites)})
    save_universe(replace(empty_universe(root), enterprise=ent))
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
    def test_a_killed_holders_lock_is_reclaimed(self, tmp_path):
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

    def test_a_lock_not_known_dead_is_kept(self, tmp_path):
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

    def test_two_reclaimers_cannot_both_win(self, tmp_path):
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
