import gc
import hashlib
import json
import os
import random
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import make_enterprise, make_unit
from orya import orchestrator as orch
from orya import simharness
from orya import universe as universe_mod
from orya.cli import main
from orya.errors import (
    DuplicateUnitError,
    OryaError,
    StoreChangedError,
    StoreCorruptError,
    StoreLockedError,
    UnknownTargetError,
    UnknownUnitError,
)
from orya.model import ClientSiteState, DeployedUnit, enterprise_to_json, site_state_to_json
from orya.process import (
    PRESENT,
    ActivityKind,
    Activity,
    ExecutionTrace,
    ProcessDef,
    Seq,
    StepEvent,
    StepOutcome,
    TraceStatus,
    process_digest,
)
from orya.engine import USAGE_ERROR_CODES
from orya.report import status
from orya.service import LocalEngine
from orya.units import unit_to_json
from orya.universe import (
    DeployMode,
    DeploymentRecord,
    HEAD_FILE,
    INDEX_FILE,
    LOCK_FILE,
    Store,
    cross_validate,
    empty_universe,
    init_universe,
    open_universe,
    publish_unit,
    query_status,
    record_deployment,
    remove_unit,
    save_universe,
    set_site_state,
    store_lock,
    universe_digest,
)
from orya.values import Version


def base_universe():
    ent = make_enterprise({"site1": ({"os": "linux"}, ())})
    return replace(empty_universe(), enterprise=ent)


def make_record(rid="d000000", site="site1", unit="u-1", mode=DeployMode.PUSH):
    process = ProcessDef(id="p", root=Seq((Activity.make(ActivityKind.INSTALL),)))
    trace = ExecutionTrace(
        deployment_id=rid,
        process_digest=process_digest(process),
        events=(StepEvent("root.0", "install", StepOutcome.OK, 1, 2),),
        status=TraceStatus.SUCCESS,
    )
    return DeploymentRecord(
        id=rid, site_id=site, product_id="prod", unit_id=unit, process=process,
        params=(), trace=trace, mode=mode, started_at=0, finished_at=3,
    )


class TestRoundTrip:
    def test_save_open_preserves_digest(self, tmp_path):
        u = base_universe()
        u = publish_unit(u, "srv1", make_unit("u-1", resources=[("r", 5, "d")]))
        u = set_site_state(
            u,
            ClientSiteState(
                machine_id="site1",
                deployed_units=(DeployedUnit("u-1", "prod", Version.parse("1.0"), "ACTIVE"),),
                products=("prod",),
            ),
        )
        u = record_deployment(u, make_record())
        save_universe(u, tmp_path / "u")
        loaded = open_universe(tmp_path / "u")
        assert universe_digest(loaded) == universe_digest(u)
        assert [unit.id for unit in loaded.catalog["srv1"]] == ["u-1"]
        assert loaded.deployments.keys() == u.deployments.keys()

    def test_init_requires_empty_dir(self, tmp_path):
        (tmp_path / "junk").write_text("x")
        with pytest.raises(StoreCorruptError):
            init_universe(tmp_path)
        # A save with no store is a store's first: it writes into no other.
        with pytest.raises(StoreCorruptError) as exc:
            save_universe(populated_universe(), tmp_path)
        assert exc.value.code == "CORRUPT" and exc.value.reason == "directory not empty"
        assert [p.name for p in tmp_path.iterdir()] == ["junk"]

    def test_init_then_open(self, tmp_path):
        init_universe(tmp_path / "u")
        assert open_universe(tmp_path / "u").catalog == {}

    def test_records_are_append_only_on_disk(self, tmp_path):
        u = base_universe()
        u = record_deployment(u, make_record())
        save_universe(u, tmp_path / "u")
        rec_path = tmp_path / "u" / "deployments" / "d000000.json"
        doc = json.loads(rec_path.read_text())
        doc["marker"] = "untouched"
        rec_path.write_text(json.dumps(doc))
        Store(tmp_path / "u").commit(u)  # must not rewrite the existing record
        assert json.loads(rec_path.read_text())["marker"] == "untouched"

    def test_unpublished_units_cleaned_from_disk(self, tmp_path):
        u = base_universe()
        u = publish_unit(u, "srv1", make_unit("u-1"))
        save_universe(u, tmp_path / "u")
        u = remove_unit(u, "srv1", "u-1")
        Store(tmp_path / "u").commit(u)
        assert open_universe(tmp_path / "u").catalog["srv1"] == ()


STATE, RECORD = "sites/site1/state.json", "deployments/d000000.json"
ILL_SHAPED = [
    *[(STATE, (), value) for value in ([], 1, None, "x")],
    *[(RECORD, (), value) for value in ([], 1, None, "x")],
    (STATE, ("units",), [1]),
    (STATE, ("units",), 5),
    (STATE, ("units", 0, "config"), []),
    (STATE, ("products",), [[]]),
    # A unit's lifecycle state must be a LifecycleState member.
    *[(STATE, ("units", 0, "state"), value) for value in ("BOGUS", 5, None, [])],
    (RECORD, ("trace",), 1),
    (RECORD, ("params",), []),
    (RECORD, ("trace", "events"), [1]),
    (RECORD, ("site",), []),
    (RECORD, ("process", "root", "seq"), 1),
    ("catalog/srv1/u-1.json", (), []),
    ("catalog/srv1/u-1.json", ("provides",), [1]),
    ("catalog/srv1/u-1.json", ("version",), 1),
    ("catalog/srv1/u-1.json", ("constraints",), ["os ="]),
    # Activity parameters of a stored process: each must have its JSON type,
    # and a verify's expression must parse.
    (RECORD, ("process", "root", "seq", 0), {"act": "verify", "expr": 5}),
    (RECORD, ("process", "root", "seq", 0), {"act": "verify", "expr": "os ="}),
    (RECORD, ("process", "root", "seq", 0), {"act": "transfer", "resource": ["r"]}),
    ("catalog/srv1/u-1.json", ("process",), {"act": "copy", "from": "a", "to": None}),
    ("catalog/srv1/u-1.json", ("process",), {"act": "configure", "params": "x"}),
    ("catalog/srv1/u-1.json", ("process",), {"act": "update", "unit": 1}),
    ("enterprise.json", (), []),
    ("enterprise.json", ("machines",), [1]),
    ("enterprise.json", ("machines", 0, "id"), []),
]


def replaced(doc, keys, value):
    """``doc`` with the value at the path ``keys`` replaced by ``value``."""
    if not keys:
        return value
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    return doc


class TestCorruption:
    @pytest.mark.parametrize(
        "document, keys, value",
        ILL_SHAPED,
        ids=[f"{d}:{'.'.join(map(str, k))}={json.dumps(v)}" for d, k, v in ILL_SHAPED],
    )
    def test_ill_shaped_document_is_corrupt(self, tmp_path, document, keys, value):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        path = root / document
        path.write_text(json.dumps(replaced(json.loads(path.read_text()), keys, value)))
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == document

    def test_every_subtree_made_ill_shaped_opens_or_is_corrupt(self, tmp_path):
        """No other exception escapes the open, whichever node is replaced."""
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        outcomes = []
        for path in sorted(root.rglob("*.json")):
            intact = path.read_text()
            paths = [()]
            for keys in paths:  # grows as it goes, to every node in the document
                node = json.loads(intact)
                for key in keys:
                    node = node[key]
                if isinstance(node, dict):
                    paths.extend(keys + (key,) for key in node)
                elif isinstance(node, list):
                    paths.extend(keys + (i,) for i in range(len(node)))
            for keys in paths:
                for value in ([], {}, 1, None, "x", [1]):
                    path.write_text(json.dumps(replaced(json.loads(intact), keys, value)))
                    try:
                        open_universe(root)
                        outcomes.append("opened")
                    except StoreCorruptError:
                        outcomes.append("corrupt")
            path.write_text(intact)
        assert outcomes.count("corrupt") > outcomes.count("opened") > 0

    def test_missing_enterprise(self, tmp_path):
        (tmp_path / "u").mkdir()
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(tmp_path / "u")
        assert exc.value.document == "enterprise.json"

    def test_bad_json_names_the_document(self, tmp_path):
        u = base_universe()
        u = publish_unit(u, "srv1", make_unit("u-1"))
        save_universe(u, tmp_path / "u")
        (tmp_path / "u" / "catalog" / "srv1" / "u-1.json").write_text("{broken")
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(tmp_path / "u")
        assert exc.value.document == "catalog/srv1/u-1.json"

    def test_cross_validate_catalog_on_client_site(self):
        u = base_universe()
        u = replace(u, catalog={"site1": (make_unit("u-1"),)})
        with pytest.raises(StoreCorruptError):
            cross_validate(u)

    def test_cross_validate_state_for_unknown_machine(self):
        u = base_universe()
        u = replace(u, site_states={"ghost": ClientSiteState(machine_id="ghost")})
        with pytest.raises(StoreCorruptError):
            cross_validate(u)

    def test_cross_validate_product_without_unit(self):
        u = base_universe()
        u = set_site_state(u, ClientSiteState(machine_id="site1", products=("phantom",)))
        with pytest.raises(StoreCorruptError):
            cross_validate(u)

    def test_record_copied_over_another_is_rejected(self, tmp_path):
        root = tmp_path / "u"
        save_universe(record_deployment(populated_universe(), make_record("d000001")), root)
        dep_dir = root / "deployments"
        (dep_dir / "d000001.json").write_bytes((dep_dir / "d000000.json").read_bytes())
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000001"
        assert exc.value.reason == "record id mismatch"

    def test_gap_in_record_ids_fails_open(self, tmp_path):
        root = tmp_path / "u"
        u = populated_universe()
        for rid in ("d000001", "d000002"):
            u = record_deployment(u, make_record(rid))
        save_universe(u, root)
        (root / "deployments" / "d000000.json").unlink()
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000000.json"
        assert exc.value.reason == "missing record"

    def test_cross_validate_digest_mismatch(self):
        u = base_universe()
        record = make_record()
        tampered = replace(
            record, process=ProcessDef(id="p", root=Seq((Activity.make(ActivityKind.VERIFY),)))
        )
        u = record_deployment(u, tampered)
        with pytest.raises(StoreCorruptError):
            cross_validate(u)


class TestLocking:
    def test_second_writer_locked(self, tmp_path, short_lock_wait):
        root = tmp_path / "u"
        u = base_universe()
        save_universe(u, root)
        store = Store(root)
        with store_lock(root, "writer-a"):
            with pytest.raises(StoreLockedError) as exc:
                store.commit(u)
            assert exc.value.holder == "writer-a"
        store.commit(u)  # released

    def test_lock_file_removed_after_save(self, tmp_path):
        root = tmp_path / "u"
        save_universe(base_universe(), root)
        assert not (root / LOCK_FILE).exists()


class TestCatalogOps:
    def test_publish_duplicate(self):
        u = publish_unit(base_universe(), "srv1", make_unit("u-1"))
        with pytest.raises(DuplicateUnitError):
            publish_unit(u, "srv1", make_unit("u-1"))

    def test_publish_to_non_server(self):
        with pytest.raises(UnknownTargetError):
            publish_unit(base_universe(), "site1", make_unit("u-1"))

    def test_remove_unknown(self):
        with pytest.raises(UnknownUnitError):
            remove_unit(base_universe(), "srv1", "ghost")

    def test_duplicate_record_rejected(self):
        u = record_deployment(base_universe(), make_record())
        with pytest.raises(DuplicateUnitError):
            record_deployment(u, make_record())

    def test_next_deployment_id_sequential(self):
        u = base_universe()
        assert u.next_deployment_id() == "d000000"
        u = record_deployment(u, make_record("d000000"))
        assert u.next_deployment_id() == "d000001"


class TestQuery:
    def test_filters(self):
        u = base_universe()
        u = record_deployment(u, make_record("d000000", mode=DeployMode.PUSH))
        u = record_deployment(u, make_record("d000001", mode=DeployMode.PULL))
        assert [r.id for r in query_status(u)] == ["d000000", "d000001"]
        assert [r.id for r in query_status(u, mode="PULL")] == ["d000001"]
        assert query_status(u, site="elsewhere") == []
        assert [r.id for r in query_status(u, outcome="SUCCESS", product="prod")] == [
            "d000000",
            "d000001",
        ]


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Digests of the five scenario runs; a change to the store's canonical form
# shows up here first.
SCENARIO_DIGESTS = {
    "basic_push.json": "7f73bff5cdda728c62a3405d18db5881fc27566118808f42f0e4942e65c03746",
    "pull_update.json": "4f3af606400a5a66e3da72246c14e8624d96dda74cb437bd98acd30d8f36526a",
    "reconfigure.json": "4bb357e35691a5fb9e03b0776cd65a135d7bed6816c0fa01b6c8762c4d39cee3",
    "rollback_fault.json": "b57fbe2ba37567c80939dd37c98693a5fe029c1258b6eaf7cf8166bbb9c4637b",
    "shared_component.json": "dc9ca2c75682a108510fa1c47ec656a7bbc979de786df3c7789e0ec93b705782",
}

# sha256 of each scenario's ``orya --format json simulate`` output. The report
# prints lifecycle states and outcome labels that no digest covers.
SCENARIO_REPORTS = {
    "basic_push.json": "b9f08042b16d9bcce266772cf7bd57372722374f6d7110a33a1c7bf61691b4db",
    "pull_update.json": "409e4a896eb8b5ef0f2919d43ef9a073943d899ff8689b43ab8db92100e32734",
    "reconfigure.json": "bc985dc7a371559c3f3c569c2c8840657c6c8d21a1f4ff2424cc7755514a1b96",
    "rollback_fault.json": "2af3a3c1ffcac99c858c0f92de5d1dce2e898e98ba90da4482c6fdb2600f702e",
    "shared_component.json": "3361422cb2c8b476187e456185b6889207bd87e36504a77256d970c21d82cf4f",
}


def universe_to_json(u):
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


def oracle_digest(u):
    """Single-pass reference: hash the canonical text of the whole store."""
    text = json.dumps(universe_to_json(u), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def stat_snapshot(root):
    return {
        path.relative_to(root).as_posix(): (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in sorted(root.rglob("*.json"))
    }


def populated_universe():
    u = base_universe()
    u = publish_unit(u, "srv1", make_unit("u-1", resources=[("r", 5, "d")]))
    u = publish_unit(u, "srv1", make_unit("u-2", version="2.0"))
    u = set_site_state(
        u,
        ClientSiteState(
            machine_id="site1",
            deployed_units=(DeployedUnit("u-1", "prod", Version.parse("1.0"), "ACTIVE"),),
            products=("prod",),
        ),
    )
    return record_deployment(u, make_record())


class TestDigest:
    def test_scenario_digests_match_oracle_and_are_unchanged(self, monkeypatch):
        final = []

        def spy(u):
            final.append(u)
            return universe_digest(u)

        monkeypatch.setattr(simharness, "universe_digest", spy)
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            report = simharness.run_scenario(path)
            assert report.universe_digest == oracle_digest(final[-1]), path.name
            assert report.universe_digest == SCENARIO_DIGESTS[path.name], path.name
        assert len(final) == len(SCENARIO_DIGESTS)

    @pytest.mark.parametrize("name", sorted(SCENARIO_REPORTS))
    def test_scenario_reports_are_unchanged(self, name, capsys):
        main(["--format", "json", "simulate", str(SCENARIO_DIR / name)])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SCENARIO_REPORTS[name]

    def test_churned_store_digest_matches_oracle(self, tmp_path):
        rng = random.Random(3)
        sites = {f"s{i}": ({"os": "linux", "disk.free": "100GB"}, ()) for i in range(2)}
        init_universe(tmp_path / "u", make_enterprise(sites))
        store = Store(tmp_path / "u")
        u = store.universe
        for step in range(60):
            op = rng.choice(("publish", "remove", "deploy", "record"))
            published = u.catalog.get("srv1", ())
            if op == "publish":
                unit = make_unit(f"u{step:03d}", product=f"p{rng.randrange(3)}")
                u = publish_unit(u, "srv1", unit)
            elif op == "remove" and published:
                u = remove_unit(u, "srv1", rng.choice(published).id)
            elif op == "deploy" and published:
                request = orch.DeployRequest(
                    target=(rng.choice(sorted(sites)),),
                    product_id=rng.choice(published).product_id,
                )
                u, _ = orch.push_deploy(u, request, simharness.build_fleet(u))
            elif op == "record":
                record = make_record(u.next_deployment_id(), site=rng.choice(sorted(sites)))
                u = record_deployment(u, replace(record, params=(("note", "na\u00efve \"q\""),)))
            store.commit(u)
            reloaded = open_universe(tmp_path / "u")
            assert universe_digest(u) == oracle_digest(u)
            assert universe_digest(reloaded) == oracle_digest(reloaded) == oracle_digest(u)
            u = reloaded
        assert u.deployments


def digest_store(root, seed, sites=3):
    """A store of ``sites`` sites s0.. with three published units, served by
    an engine."""
    sites = {f"s{i}": ({"os": "linux", "ram": "4GB", "disk.free": "100GB"}, ()) for i in range(sites)}
    init_universe(root, make_enterprise(sites))
    engine = LocalEngine(root)
    for n in range(3):
        unit = make_unit(f"{seed}-u{n}", product=f"p{n % 2}", resources=[("bin", 5, "x")])
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": unit_to_json(unit)})["ok"]
    return engine


class TestWarmDigest:
    """A ``Store`` extends the SHA-256 state it keeps by the records its
    commits add; whatever a sequence of ops does, the digest equals the
    single-pass oracle."""

    @pytest.mark.parametrize("seed", range(3))
    def test_digest_matches_oracle_after_every_op(self, tmp_path, monkeypatch, short_lock_wait, seed):
        full = count_full_passes(monkeypatch)
        rng = random.Random(seed)
        engines = [digest_store(tmp_path / name, f"{seed}{name}") for name in "ab"]
        current = 0
        checked = 0

        def check(u, store):
            nonlocal checked
            assert universe_digest(u, store) == oracle_digest(u)
            checked += 1

        for step in range(80):
            if rng.random() < 0.25:  # the other engine's turn
                current = 1 - current
            engine = engines[current]
            u = engine.universe
            published = [unit for units in u.catalog.values() for unit in units]
            deployed = [
                (site, du) for site, state in sorted(u.site_states.items())
                for du in state.deployed_units if du.state in PRESENT
            ]
            op = rng.choice(
                ["deploy", "toggle", "toggle", "set_prop", "publish", "unpublish",
                 "failed_save", "reopen", "swap", "odd_ids"]
            )
            if op == "deploy" and published:
                sites = rng.sample(["s0", "s1", "s2"], rng.randrange(1, 4))
                product = rng.choice(published).product_id
                assert engine.handle({"op": "deploy", "product": product, "sites": sites})["ok"]
            elif op == "toggle" and deployed:
                site, du = rng.choice(deployed)
                toggle = "deactivate" if du.state == "ACTIVE" else "activate"
                assert engine.handle({"op": toggle, "site": site, "unit": du.unit_id})["ok"]
            elif op == "set_prop":
                req = {"op": "set_prop", "site": rng.choice(["s0", "s1", "s2"]), "name": "ram",
                       "value": rng.choice(["2GB", "4GB", "8GB"])}
                assert engine.handle(req)["ok"]
            elif op == "publish":
                unit = make_unit(f"{seed}-v{step}", product=rng.choice(["p0", "p1"]))
                req = {"op": "publish", "server": "srv1", "manifest": unit_to_json(unit)}
                assert engine.handle(req)["ok"]
            elif op == "unpublish" and published:
                req = {"op": "unpublish", "server": "srv1", "unit": rng.choice(published).id}
                assert engine.handle(req)["ok"]
            elif op == "failed_save":
                lock = engine.store.root / LOCK_FILE
                lock.write_text("other")
                req = {"op": "set_prop", "site": "s0", "name": "ram", "value": rng.choice(["2GB", "8GB"])}
                assert engine.handle(req)["error"]["code"] == "LOCKED"
                lock.unlink()
                assert engine.universe is u  # nothing was written
            elif op == "reopen":
                engine.store.reopen()
            elif op == "swap" and u.deployments:
                rid = rng.choice(sorted(u.deployments))
                record = u.deployments[rid]
                swapped = {**u.deployments, rid: replace(record, finished_at=record.finished_at + 1)}
                check(replace(u, deployments=swapped), engine.store)
            elif op == "odd_ids" and u.deployments:
                record = u.deployments[max(u.deployments)]
                odd = {**u.deployments, "x-1": record}
                for deployments in (
                    odd,
                    {**odd, f"d{len(odd):06d}": record},  # sorts before "x-1"
                    {**u.deployments, "d1000000": record},
                    {rid: r for rid, r in u.deployments.items() if r is not record},
                ):
                    check(replace(u, deployments=deployments), engine.store)
            check(engine.universe, engine.store)
            check(engine.universe, engine.store)
        assert all(e.universe.deployments for e in engines)
        # Reopens, catalog changes and universes that are not a store's hash
        # in full; a good share of digests still extended a store's state.
        assert checked / 4 < checked - len(full) < checked

    def test_two_stores_in_one_process_keep_their_own_state(self, tmp_path, monkeypatch):
        engines = [digest_store(tmp_path / name, name) for name in "ab"]
        for engine in engines:
            assert engine.handle({"op": "deploy", "product": "p0", "sites": ["s0", "s1", "s2"]})["ok"]
            assert engine.handle({"op": "digest"})["ok"]
        full = count_full_passes(monkeypatch)
        for step in range(4):
            for engine in engines:
                toggle = "deactivate" if step % 2 == 0 else "activate"
                unit = engine.universe.site_states["s1"].deployed_units[0].unit_id
                assert engine.handle({"op": toggle, "site": "s1", "unit": unit})["ok"]
                assert engine.handle({"op": "digest"})["digest"] == oracle_digest(engine.universe)
        assert full == []

    def test_a_warm_digest_feeds_only_the_new_records(self, tmp_path, monkeypatch):
        fed = []

        class CountingSha256:
            def __init__(self, data=b"", state=None):
                self.state = hashlib.sha256() if state is None else state
                self.update(data)

            def update(self, data):
                fed.append(len(data))
                self.state.update(data)

            def copy(self):
                return CountingSha256(state=self.state.copy())

            def hexdigest(self):
                return self.state.hexdigest()

        monkeypatch.setattr(universe_mod, "hashlib", SimpleNamespace(sha256=CountingSha256))
        u = populated_universe()
        for n in range(1, 40):
            u = record_deployment(u, make_record(f"d{n:06d}", unit=f"u-{n}"))
        save_universe(u, tmp_path / "u")
        store = Store(tmp_path / "u")
        assert universe_digest(store.universe, store) == oracle_digest(u)
        hashed = sum(len(record.canonical_json) for record in u.deployments.values())
        store.commit(record_deployment(store.universe, make_record(u.next_deployment_id(), unit="u-new")))
        fed.clear()
        assert universe_digest(store.universe, store) == oracle_digest(store.universe)
        assert len(store.universe.deployments["d000040"].canonical_json) < sum(fed) < hashed


def count_full_passes(monkeypatch):
    """Record each universe ``universe_digest`` hashes from the start."""
    full = []
    hash_records = universe_mod._hash_records

    def spy(u):
        full.append(u)
        return hash_records(u)

    monkeypatch.setattr(universe_mod, "_hash_records", spy)
    return full


def count_listings(monkeypatch):
    """Record the record ids each ``Store`` adds to its sites' lists."""
    listed, add_sites = [], Store._add_sites

    def spy(store, sites, ids):
        listed.append(list(ids))
        return add_sites(store, sites, ids)

    monkeypatch.setattr(Store, "_add_sites", spy)
    return listed


def count_refusals(monkeypatch):
    """Record each commit refused because the head moved since its read."""
    refused, save = [], universe_mod.save_universe

    def spy(u, path=None, *, store=None):
        try:
            return save(u, path, store=store)
        except StoreChangedError:
            refused.append(path)
            raise

    monkeypatch.setattr(universe_mod, "save_universe", spy)
    return refused


STATUS_FILTERS = (
    {}, {"product": "p0"}, {"product": "prod"}, {"outcome": "SUCCESS"}, {"outcome": "ROLLED_BACK"},
    {"mode": "PUSH"}, {"mode": "RECONFIGURE"}, {"product": "prod", "outcome": "SUCCESS", "mode": "PULL"},
)
# s3 never gets a record, and no machine is called "nowhere".
STATUS_SITES = ("s0", "s1", "s2", "s3", "nowhere")


def write(engine, req):
    """Run a write op; a stale engine re-runs it on what another committed,
    where it may be refused, but never LOCKED or worse."""
    resp = engine.handle(req)
    assert resp["ok"] or resp["error"]["code"] not in USAGE_ERROR_CODES, resp


def assert_site_statuses(engine):
    """Every site's status through ``engine``, alone and with each filter,
    is what a scan of every record of its universe answers."""
    u = engine.universe
    for site in STATUS_SITES:
        for filters in STATUS_FILTERS:
            answer = engine.handle({"op": "status", "site": site, **filters})
            assert answer["report"] == status(u, site=site, **filters).to_json(), (site, filters)


class TestWarmStatus:
    """A ``Store`` lists each site's record ids once and extends the lists by
    the records its commits add; whatever a sequence of ops does, a site's
    status equals a scan of every record."""

    @pytest.mark.parametrize("seed", range(3))
    def test_site_status_matches_a_full_scan_after_every_op(self, tmp_path, monkeypatch, short_lock_wait, seed):
        listed, refused = count_listings(monkeypatch), count_refusals(monkeypatch)
        reopens, reopen, builds, site_ids = [], Store.reopen, [], Store._site_ids

        def counted_reopen(store):
            reopens.append(store)
            reopen(store)

        def counted_site_ids(store, site):
            if store._sites is None:
                builds.append(store)
            return site_ids(store, site)

        monkeypatch.setattr(Store, "reopen", counted_reopen)
        monkeypatch.setattr(Store, "_site_ids", counted_site_ids)
        rng = random.Random(seed)
        a = digest_store(tmp_path / "a", f"{seed}a", sites=4)
        engines = [a, LocalEngine(tmp_path / "a"), digest_store(tmp_path / "b", f"{seed}b", sites=4)]
        for step in range(60):
            engine = rng.choice(engines)  # the first two share a store, so either may be stale
            u = engine.universe
            published = [unit for units in u.catalog.values() for unit in units]
            deployed = [
                (site, du) for site, state in sorted(u.site_states.items())
                for du in state.deployed_units if du.state in PRESENT
            ]
            site = rng.choice(["s0", "s1", "s2"])
            op = rng.choice(["deploy", "deploy", "toggle", "toggle", "set_prop", "pull", "publish",
                             "unpublish", "record", "failed_save", "reopen"])
            if op == "deploy" and published:
                sites = rng.sample(["s0", "s1", "s2"], rng.randrange(1, 4))
                req = {"op": "deploy", "product": rng.choice(published).product_id, "sites": sites}
                write(engine, req)
            elif op == "toggle" and deployed:
                site, du = rng.choice(deployed)
                toggle = "deactivate" if du.state == "ACTIVE" else "activate"
                write(engine, {"op": toggle, "site": site, "unit": du.unit_id})
            elif op == "set_prop":
                write(engine, {"op": "set_prop", "site": site, "name": "ram", "value": rng.choice(["2GB", "8GB"])})
            elif op == "pull":
                write(engine, {"op": "pull", "site": site, "product": rng.choice(["p0", "p1"])})
            elif op == "publish":
                unit = make_unit(f"{seed}-v{step}", product=rng.choice(["p0", "p1"]))
                write(engine, {"op": "publish", "server": "srv1", "manifest": unit_to_json(unit)})
            elif op == "unpublish" and published:
                write(engine, {"op": "unpublish", "server": "srv1", "unit": rng.choice(published).id})
            elif op == "record":  # any mode and outcome, committed straight through the store
                record = make_record(u.next_deployment_id(), site=site, mode=rng.choice(list(DeployMode)))
                record = replace(record, trace=replace(record.trace, status=rng.choice(list(TraceStatus))))
                try:
                    engine.store.commit(record_deployment(u, record))
                except StoreChangedError:
                    engine.store.reopen()
            elif op == "failed_save":
                lock = engine.store.root / LOCK_FILE
                lock.write_text("other")
                req = {"op": "set_prop", "site": "s0", "name": "ram", "value": rng.choice(["2GB", "8GB"])}
                assert engine.handle(req)["error"]["code"] == "LOCKED"
                lock.unlink()
                assert engine.universe is u  # nothing was written
            elif op == "reopen":
                engine.store.reopen()
            for each in engines:
                assert_site_statuses(each)
        assert refused  # a stale engine's commit was refused, and it read the store again
        # Ids are listed in full at most once per read of a store; otherwise
        # the lists grew by the records each commit added.
        assert 0 < len(builds) <= len(reopens)
        assert len(listed) > len(builds)

    def test_a_store_without_index_lines(self, tmp_path):
        root = tmp_path / "u"
        engine = digest_store(root, "x", sites=4)
        for product, sites in (("p0", ["s0", "s1", "s2"]), ("p1", ["s1"])):
            assert engine.handle({"op": "deploy", "product": product, "sites": sites})["ok"]
        (root / "deployments" / INDEX_FILE).unlink()  # as a store written before the index
        engine = LocalEngine(root)
        assert all("_unread" not in r.__dict__ for r in engine.universe.deployments.values())
        assert_site_statuses(engine)
        assert engine.handle({"op": "status", "site": "s3"})["report"]["entries"] == []
        unit = engine.universe.site_states["s1"].deployed_units[0].unit_id
        assert engine.handle({"op": "deactivate", "site": "s1", "unit": unit})["ok"]
        assert_site_statuses(engine)

    def test_a_commit_lists_only_the_records_it_adds(self, tmp_path, monkeypatch):
        engine = digest_store(tmp_path / "u", "x")
        for _ in range(3):
            assert engine.handle({"op": "deploy", "product": "p0", "sites": ["s0", "s1", "s2"]})["ok"]
        assert engine.handle({"op": "status", "site": "s1"})["ok"]  # lists every record once
        listed = count_listings(monkeypatch)
        expected = []
        unit = engine.universe.site_states["s1"].deployed_units[0].unit_id
        for step in range(6):
            expected.append([engine.universe.next_deployment_id()])
            toggle = "deactivate" if step % 2 == 0 else "activate"
            assert engine.handle({"op": toggle, "site": "s1", "unit": unit})["ok"]
            answer = engine.handle({"op": "status", "site": "s1"})
            assert answer["report"] == status(engine.universe, site="s1").to_json()
        assert listed == expected  # one id per toggle; no status listed the store again

    def test_other_universes_and_unsited_statuses_scan(self, tmp_path, monkeypatch):
        engine = digest_store(tmp_path / "u", "x")
        assert engine.handle({"op": "deploy", "product": "p0", "sites": ["s0", "s1", "s2"]})["ok"]
        store, u = engine.store, engine.universe
        listed = count_listings(monkeypatch)

        def ids(*args, **filters):
            return [r.id for r in query_status(*args, **filters)]

        assert ids(u, store=store) == ids(u)  # no site: a scan
        assert listed == []
        dropped = {rid: r for rid, r in u.deployments.items() if rid != "d000000"}
        other = replace(u, deployments=dropped)
        assert ids(other, "s0", store=store) == ids(other, "s0")
        assert listed == []  # not the store's universe: a scan
        assert ids(u, "s0", store=store) == ids(u, "s0")
        assert listed == [sorted(u.deployments)]


class TestWriteRules:
    def test_noop_save_touches_no_document(self, tmp_path):
        root = tmp_path / "u"
        u = populated_universe()
        save_universe(u, root)
        before = stat_snapshot(root)
        Store(root).commit(u)
        Store(root).commit(open_universe(root))
        assert stat_snapshot(root) == before
        assert len(before) == 5  # enterprise, two units, one state, one record

    def test_changed_state_and_unpublished_unit_are_written(self, tmp_path):
        root = tmp_path / "u"
        u = populated_universe()
        save_universe(u, root)
        before = stat_snapshot(root)
        u = remove_unit(u, "srv1", "u-2")
        u = set_site_state(u, ClientSiteState(machine_id="site1"))
        Store(root).commit(u)
        after = stat_snapshot(root)
        assert "catalog/srv1/u-2.json" not in after
        assert after["sites/site1/state.json"] != before["sites/site1/state.json"]
        for unchanged in ("enterprise.json", "catalog/srv1/u-1.json", "deployments/d000000.json"):
            assert after[unchanged] == before[unchanged]
        assert universe_digest(open_universe(root)) == universe_digest(u)

    def test_existing_record_never_rewritten(self, tmp_path):
        root = tmp_path / "u"
        u = populated_universe()
        save_universe(u, root)
        rec_path = root / "deployments" / "d000000.json"
        rec_path.write_text(rec_path.read_text() + " ")  # differs from what save would write
        before = stat_snapshot(root)["deployments/d000000.json"]
        u = record_deployment(u, make_record("d000001"))
        Store(root).commit(u)
        after = stat_snapshot(root)
        assert after["deployments/d000000.json"] == before
        assert "deployments/d000001.json" in after


class TestRecordMemo:
    def test_memo_cannot_hide_corruption(self, tmp_path):
        root = tmp_path / "u"
        u = record_deployment(populated_universe(), make_record("d000001"))
        save_universe(u, root)
        first = open_universe(root)  # held: nothing it read may stand in for a changed file
        dep_dir = root / "deployments"

        # Same length and mtime: only the bytes tell the change apart.
        tampered = dep_dir / "d000000.json"
        stat = tampered.stat()
        doc = json.loads(tampered.read_text())
        doc["process"]["id"] = "q"
        tampered.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        os.utime(tampered, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert tampered.stat().st_size == stat.st_size

        truncated = dep_dir / "d000001.json"
        intact = truncated.read_bytes()
        truncated.write_bytes(intact[: len(intact) // 2])

        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000001.json"

        truncated.write_bytes(intact)
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000000"
        assert "process copy" in exc.value.reason
        assert first.deployments["d000000"].process.id == "p"


def count_writes(monkeypatch):
    """Record the path of every document ``save_universe`` serialises."""
    written = []
    write_json = universe_mod._write_json

    def spy(path, *args):
        written.append(path)
        write_json(path, *args)

    monkeypatch.setattr(universe_mod, "_write_json", spy)
    return written


class TestSaveOverBase:
    """A commit saves over the store's universe, the base it read."""

    def test_noop_save_serialises_nothing(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        store = Store(root)
        before = stat_snapshot(root)
        head = (root / HEAD_FILE).read_bytes()
        written = count_writes(monkeypatch)
        store.commit(store.universe)
        assert written == []
        assert stat_snapshot(root) == before
        assert (root / HEAD_FILE).read_bytes() == head  # nothing written, so the head stays

    def test_only_changed_values_are_serialised(self, tmp_path, monkeypatch):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        store = Store(root)
        written = count_writes(monkeypatch)
        changed = set_site_state(store.universe, ClientSiteState(machine_id="site1"))
        changed = record_deployment(changed, make_record("d000001"))
        store.commit(changed)
        assert [p.relative_to(root).as_posix() for p in written] == [
            "sites/site1/state.json",
            "deployments/d000001.json",
        ]
        written.clear()
        published = publish_unit(changed, "srv1", make_unit("u-3"))
        store.commit(published)
        # The server's units tuple changed, so its units are compared again.
        assert sorted(p.name for p in written) == ["u-1.json", "u-2.json", "u-3.json"]
        assert universe_digest(open_universe(root)) == universe_digest(published)

    def test_unpublished_server_is_swept(self, tmp_path):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        store = Store(root)
        store.commit(replace(store.universe, catalog={}))
        assert not (root / "catalog" / "srv1").exists()
        assert open_universe(root).catalog == {}

    def test_new_record_whose_file_exists_is_refused(self, tmp_path):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        store = Store(root)
        # Another writer appends d000001 first.
        other = Store(root)
        other.commit(record_deployment(other.universe, make_record("d000001")))
        before = stat_snapshot(root)
        head = (root / HEAD_FILE).read_bytes()
        stale = set_site_state(store.universe, ClientSiteState(machine_id="site1"))
        stale = record_deployment(stale, make_record("d000001", unit="u-2"))
        with pytest.raises(StoreChangedError) as exc:
            store.commit(stale)
        assert exc.value.code == "LOCKED"
        # Refused by the head's generation before any document is written.
        assert stat_snapshot(root) == before
        assert (root / HEAD_FILE).read_bytes() == head
        assert not (root / LOCK_FILE).exists()
        store.reopen()
        with pytest.raises(DuplicateUnitError):
            record_deployment(store.universe, make_record("d000001", unit="u-2"))


    def test_a_record_past_the_next_id_is_refused(self, tmp_path):
        root = tmp_path / "u"
        save_universe(populated_universe(), root)
        store = Store(root)

        def files():
            return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

        before = files()
        with pytest.raises(OryaError) as exc:
            store.commit(record_deployment(store.universe, make_record("d000002")))
        assert exc.value.message == "deployment record 'd000002' is not the next id 'd000001'"
        assert files() == before  # the head and every document are as they were
        assert sorted(open_universe(root).deployments) == ["d000000"]
        store.commit(record_deployment(store.universe, make_record("d000001")))
        assert sorted(open_universe(root).deployments) == ["d000000", "d000001"]


def record_running(rid, process, claimed=None, unit="u-1"):
    """A record of ``process`` whose trace claims the digest of ``claimed``
    (``process`` itself by default)."""
    record = make_record(rid, unit=unit)
    trace = replace(record.trace, process_digest=process_digest(claimed or process))
    return replace(record, process=process, trace=trace)


def verify_at(level):
    return ProcessDef(id="p", root=Seq((Activity.make(ActivityKind.VERIFY, level=level),)))


class TestSharedValuesAtOpen:
    """An open builds each distinct process copy, deployed unit and trace event
    once. Values are matched by JSON text, never by Python equality."""

    @pytest.mark.parametrize("other", [1.0, True], ids=["float", "bool"])
    def test_copies_equal_only_in_python_stay_distinct(self, tmp_path, other):
        root = tmp_path / "u"
        unit = f"u-{type(other).__name__}"  # bytes no other test's live record has
        u = record_deployment(base_universe(), record_running("d000000", verify_at(1), unit=unit))
        save_universe(record_deployment(u, record_running("d000001", verify_at(other), unit=unit)), root)
        assert verify_at(1) == verify_at(other)  # what a dict key would match
        first, second = (r.process for r in open_universe(root).deployments.values())
        assert first is not second
        assert type(second.root.steps[0].param("level")) is type(other)

        (root / "deployments" / "d000001.json").unlink()
        tampered = record_running("d000001", verify_at(other), claimed=verify_at(1), unit=unit)
        Store(root).commit(record_deployment(u, tampered))
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000001"
        assert "process copy" in exc.value.reason

    def test_tampered_copy_in_the_500th_record_fails_open(self, tmp_path):
        root = tmp_path / "u"
        u = base_universe()
        for n in range(500):
            u = record_deployment(u, make_record(f"d{n:06d}", unit="u-500"))
        save_universe(u, root)
        path = root / "deployments" / "d000499.json"
        doc = json.loads(path.read_text())
        assert doc["trace"]["process_digest"] == u.deployments["d000000"].trace.process_digest
        doc["process"]["root"]["seq"][0]["act"] = "verify"
        path.write_text(json.dumps(doc))
        with pytest.raises(StoreCorruptError) as exc:
            open_universe(root)
        assert exc.value.document == "deployments/d000499"
        assert "process copy" in exc.value.reason

    def test_equal_values_are_built_once(self, tmp_path, monkeypatch):
        from orya import process as process_mod

        root = tmp_path / "u"
        ent = make_enterprise({"site1": ({}, ()), "site2": ({}, ())})
        u = replace(empty_universe(), enterprise=ent)
        unit = DeployedUnit("u-1", "prod", Version.parse("1.0"), "ACTIVE", constraints=("exists(os)",))
        for site in ("site1", "site2"):
            u = set_site_state(u, ClientSiteState(site, (unit,), ("prod",)))
        for n in range(4):
            u = record_deployment(u, make_record(f"d{n:06d}", site=f"site{n % 2 + 1}", unit="u-shared"))
        save_universe(u, root)

        digests = []
        digest = process_mod.process_digest
        monkeypatch.setattr(process_mod, "process_digest", lambda p: digests.append(p) or digest(p))
        loaded = open_universe(root)
        first, second = (state.deployed_units[0] for state in loaded.site_states.values())
        assert first is second
        records = list(loaded.deployments.values())
        assert all(r.process is records[0].process for r in records)
        assert all(r.trace.events[0] is records[0].trace.events[0] for r in records)
        assert len(digests) == 1  # every record is checked against the one digest
        assert loaded == u

    @pytest.mark.parametrize("typed", ["d000000", "d000001"])
    def test_events_that_differ_only_by_json_type_stay_distinct(self, tmp_path, typed):
        root = tmp_path / "u"
        u = base_universe()
        for rid in ("d000000", "d000001"):
            u = record_deployment(u, make_record(rid, unit="u-typed"))
        save_universe(u, root)
        path = root / "deployments" / f"{typed}.json"
        doc = json.loads(path.read_text())
        assert doc["trace"]["events"][0]["start"] == 1
        doc["trace"]["events"][0]["start"] = True
        path.write_text(json.dumps(doc))

        loaded = open_universe(root)
        events = {rid: r.trace.events[0] for rid, r in loaded.deployments.items()}
        assert events["d000000"] is not events["d000001"]
        assert [type(e.start) for e in events.values()] == [
            bool if rid == typed else int for rid in events
        ]
        assert loaded.deployments[typed].to_json()["trace"]["events"][0]["start"] is True
        assert universe_digest(loaded) == oracle_digest(loaded)

    def test_opening_twice_gives_equal_universes(self, tmp_path):
        root = tmp_path / "u"
        u = populated_universe()
        for n in range(1, 4):
            u = record_deployment(u, make_record(f"d{n:06d}", unit="u-twice"))
        save_universe(u, root)
        first = open_universe(root)
        second = open_universe(root)  # its records come from their index lines
        assert first == second == u
        assert universe_digest(first) == universe_digest(second) == universe_digest(u)
        del first, second
        gc.collect()
        third = open_universe(root)  # parsed afresh, with new tables
        assert third == u
        assert universe_digest(third) == universe_digest(u)
        process = weakref.ref(third.deployments["d000001"].process)
        del third
        gc.collect()
        assert process() is None  # no table outlives the open
