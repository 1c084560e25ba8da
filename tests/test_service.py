import io
import json
import random
import socket
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest

from conftest import make_enterprise, make_unit
from orya import service as svc
from orya.engine import STALE_RERUNS
from orya import universe as universe_mod
from orya.process import MAX_PROGRESS_POINTS, Activity, ActivityKind, ProcessDef, Seq
from orya.units import unit_to_json
from orya.universe import HEAD_FILE, Store, init_universe, open_universe, universe_digest
from orya.values import canonical_json
from test_universe import count_writes, oracle_digest, stat_snapshot


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "universe"
    ent = make_enterprise(
        {
            "site1": ({"os": "linux", "disk.free": "10GB"}, ()),
            "site2": ({"os": "win", "disk.free": "10GB"}, ()),
        }
    )
    init_universe(root, ent)
    return root


def editor_manifest(version="1.2", constraints=('os = "linux"',)):
    return unit_to_json(
        make_unit(
            f"editor-{version}",
            product="editor",
            version=version,
            constraints=constraints,
            footprint="500MB",
        )
    )


class TestLocalEngine:
    def test_ping(self, store):
        assert svc.LocalEngine(store).handle({"op": "ping"}) == {"ok": True, "pong": True}

    def test_read_ops_build_no_fleet(self, store, monkeypatch):
        engine = svc.LocalEngine(store)
        engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})
        assert engine.handle({"op": "deploy", "product": "editor", "sites": ["site1"]})["ok"]

        def no_fleet(u):
            raise AssertionError("a read op built a fleet")

        monkeypatch.setattr(engine, "_fleet", no_fleet)
        for op in ("status", "digest", "model_show", "model_validate", "ping"):
            assert engine.handle({"op": op})["ok"], op

    def test_unknown_op(self, store):
        resp = svc.LocalEngine(store).handle({"op": "explode"})
        assert not resp["ok"] and resp["error"]["code"] == "USAGE"

    def test_missing_op(self, store):
        resp = svc.LocalEngine(store).handle({})
        assert resp["error"]["code"] == "USAGE"

    def test_domain_error_code_surfaces(self, store):
        engine = svc.LocalEngine(store)
        resp = engine.handle({"op": "unpublish", "server": "srv1", "unit": "ghost"})
        assert not resp["ok"] and resp["error"]["code"] == "UNKNOWN_UNIT"

    def test_malformed_request_is_usage(self, store):
        resp = svc.LocalEngine(store).handle({"op": "publish"})  # no server/manifest
        assert resp["error"]["code"] == "USAGE"

    def test_publish_then_deploy(self, store):
        engine = svc.LocalEngine(store)
        resp = engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})
        assert resp["ok"] and resp["published"] == "editor-1.2"
        resp = engine.handle({"op": "deploy", "product": "editor", "group": "all"})
        assert resp["ok"] and not resp["refusal"]
        by_site = {e["site"]: e["outcome"] for e in resp["report"]["entries"]}
        assert by_site == {"site1": "DEPLOYED", "site2": "SKIPPED"}

    def test_refusal_flag_when_nothing_positive(self, store):
        engine = svc.LocalEngine(store)
        engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})
        resp = engine.handle({"op": "deploy", "product": "editor", "sites": ["site2"]})
        assert resp["ok"] and resp["refusal"]

    def test_deploy_requires_target(self, store):
        resp = svc.LocalEngine(store).handle({"op": "deploy", "product": "editor"})
        assert resp["error"]["code"] == "USAGE"

    def test_digest_reflects_writes(self, store):
        engine = svc.LocalEngine(store)
        before = engine.handle({"op": "digest"})["digest"]
        engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})
        after = engine.handle({"op": "digest"})["digest"]
        assert before != after

    def test_set_prop_returns_plan_without_apply(self, store):
        engine = svc.LocalEngine(store)
        engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})
        engine.handle({"op": "deploy", "product": "editor", "sites": ["site1"]})
        resp = engine.handle({"op": "set_prop", "site": "site1", "name": "os", "value": "win"})
        assert resp["ok"] and resp["plan"]["actions"]
        assert resp["noop"] is False


def deployed_engine(store):
    """site1 runs editor-1.2 (linux only); editor-1.0 fits any site."""
    engine = svc.LocalEngine(store)
    for manifest in (editor_manifest(), editor_manifest("1.0", ())):
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})["ok"]
    assert engine.handle({"op": "deploy", "product": "editor", "sites": ["site1"]})["ok"]
    return engine


def set_prop(engine, **req):
    return engine.handle({"op": "set_prop", **req})


def error(code, message):
    return {"ok": False, "error": {"code": code, "message": message}}


class TestSetPropAnswers:
    def test_unknown_machine(self, store):
        engine = deployed_engine(store)
        for name in ("os", "Bad Name!"):
            resp = set_prop(engine, site="ghost", name=name, value="win")
            assert resp == error("UNKNOWN_TARGET", "unknown machine 'ghost'")

    def test_app_server_is_not_a_client_site(self, store):
        engine = deployed_engine(store)
        before = engine.handle({"op": "digest"})
        for name in ("os", "Bad Name!"):
            resp = set_prop(engine, site="srv1", name=name, value="win")
            assert resp == error("UNKNOWN_TARGET", "machine 'srv1' is not a client site")
        assert engine.handle({"op": "digest"}) == before

    def test_bad_name(self, store):
        resp = set_prop(deployed_engine(store), site="site1", name="Bad Name!", value="win")
        assert resp == error("USAGE", "invalid property name 'Bad Name!'")

    def test_kind_change(self, store):
        resp = set_prop(deployed_engine(store), site="site1", name="os", value=3)
        assert resp == error("TYPE_CHANGE", "property 'os' is text, cannot assign integer")

    def test_remove_absent_is_noop(self, store):
        resp = set_prop(deployed_engine(store), site="site1", name="absent", remove=True)
        assert resp == {
            "ok": True, "refusal": False, "plan": {"site": "site1", "actions": []}, "noop": True
        }

    def test_same_value_twice(self, store):
        engine = deployed_engine(store)
        plan = {"site": "site2", "actions": []}
        first = set_prop(engine, site="site2", name="tier", value="gold")
        assert first == {"ok": True, "refusal": False, "plan": plan, "noop": False}
        digest = engine.handle({"op": "digest"})
        second = set_prop(engine, site="site2", name="tier", value="gold")
        assert second == {"ok": True, "refusal": False, "plan": plan, "noop": True}
        assert engine.handle({"op": "digest"}) == digest

    def test_apply_with_plan(self, store):
        resp = set_prop(deployed_engine(store), site="site1", name="os", value="win", apply=True)
        entry = {"site": "site1", "outcome": "RECONFIGURED", "unit": "editor-1.0", "record": "d000001"}
        assert resp == {
            "ok": True,
            "refusal": False,
            "report": {"entries": [entry], "summary": {"RECONFIGURED": 1}},
            "noop": False,
        }

    def test_apply_without_actions(self, store):
        resp = set_prop(deployed_engine(store), site="site2", name="tier", value="gold", apply=True)
        assert resp == {
            "ok": True, "refusal": False, "report": {"entries": [], "summary": {}}, "noop": False
        }


# (prelude requests, the op under test)
WRITE_OPS = {
    "deploy": ((), {"op": "deploy", "product": "editor", "sites": ["site2"]}),
    "pull": (
        ({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.3")},),
        {"op": "pull", "site": "site1", "product": "editor"},
    ),
    "undeploy": ((), {"op": "undeploy", "site": "site1", "unit": "editor-1.2"}),
    "activate": (
        ({"op": "deactivate", "site": "site1", "unit": "editor-1.2"},),
        {"op": "activate", "site": "site1", "unit": "editor-1.2"},
    ),
    "deactivate": ((), {"op": "deactivate", "site": "site1", "unit": "editor-1.2"}),
    "set_prop": ((), {"op": "set_prop", "site": "site1", "name": "os", "value": "win"}),
    "set_prop-apply": (
        (),
        {"op": "set_prop", "site": "site1", "name": "os", "value": "win", "apply": True},
    ),
}


class TestCommittedUniverseUntouched:
    """A write op builds a new universe; the one it started from stays as it was."""

    @pytest.mark.parametrize("name", sorted(WRITE_OPS))
    def test_op_leaves_prior_universe_unchanged(self, store, name):
        prelude, req = WRITE_OPS[name]
        engine = deployed_engine(store)
        for r in prelude:
            assert engine.handle(r)["ok"]
        before = engine.universe
        digest = universe_digest(before)
        props = {m.id: dict(m.properties) for m in before.enterprise.machines}

        resp = engine.handle(req)
        assert resp["ok"] and not resp["refusal"], resp
        assert engine.universe is not before
        # The digest joins texts cached before the op; the oracle re-encodes
        # every value, so it also sees a value written in place.
        assert universe_digest(before) == oracle_digest(before) == digest
        assert {m.id: m.properties for m in before.enterprise.machines} == props

    def test_activate_keeps_the_enterprise_object(self, store):
        engine = deployed_engine(store)
        engine.handle({"op": "deactivate", "site": "site1", "unit": "editor-1.2"})
        enterprise = engine.universe.enterprise
        assert engine.handle({"op": "activate", "site": "site1", "unit": "editor-1.2"})["ok"]
        assert engine.universe.enterprise is enterprise

    def test_set_prop_replaces_exactly_one_machine(self, store):
        engine = deployed_engine(store)
        before = engine.universe.enterprise.machines
        assert set_prop(engine, site="site2", name="tier", value="gold")["ok"]
        after = engine.universe.enterprise.machines
        assert [m.id for m in after] == [m.id for m in before]
        changed = [new.id for new, old in zip(after, before) if new is not old]
        assert changed == ["site2"]


DEEP_FILTERS = {
    "parens": "(" * 5000 + 'os = "linux"' + ")" * 5000,
    "not": "not " * 5000 + 'os = "linux"',
    "and-chain": " and ".join(['os = "linux"'] * 5000),
}


def dry_run_with(text):
    return {"op": "deploy", "product": "editor", "sites": ["site1"], "dry_run": True,
            "filters": [text]}


class TestDeepExpressions:
    @pytest.mark.parametrize("kind", sorted(DEEP_FILTERS))
    def test_handle_answers_syntax(self, store, kind):
        engine = deployed_engine(store)
        resp = engine.handle(dry_run_with(DEEP_FILTERS[kind]))
        assert not resp["ok"] and resp["error"]["code"] == "SYNTAX"

    def test_unix_socket_answers_syntax_and_keeps_the_connection(self, store, tmp_path):
        deployed_engine(store)
        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
        server.start_background()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.address)
            f = sock.makefile("rw")
            for kind in sorted(DEEP_FILTERS):
                f.write(json.dumps(dry_run_with(DEEP_FILTERS[kind])) + "\n")
                f.flush()
                resp = json.loads(f.readline())
                assert resp["error"]["code"] == "SYNTAX", kind
            f.write(json.dumps({"op": "ping"}) + "\n")
            f.flush()
            assert json.loads(f.readline()) == {"ok": True, "pong": True}
            f.close()
            sock.close()
        finally:
            server.shutdown()


def many_linux(copies):
    return editor_manifest("3.0", ('os = "linux"',) * copies)


class TestDeepDefaultVerify:
    """A unit with no process verifies all its constraints joined by "and"."""

    def test_publish_refuses_past_the_cap_and_writes_nothing(self, store):
        engine = svc.LocalEngine(store)
        for copies in (102, 150, 1200):
            before = stat_snapshot(store)
            resp = engine.handle({"op": "publish", "server": "srv1", "manifest": many_linux(copies)})
            assert resp["error"]["code"] == "SYNTAX", copies
            assert "default verify of unit 'editor-3.0'" in resp["error"]["message"]
            assert stat_snapshot(store) == before
            assert not engine.universe.catalog.get("srv1")

    def test_at_the_cap_publishes_and_deploys(self, store):
        engine = svc.LocalEngine(store)
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": many_linux(101)})["ok"]
        resp = engine.handle({"op": "deploy", "product": "editor", "sites": ["site1"]})
        assert resp["report"]["summary"] == {"DEPLOYED": 1}

    @pytest.mark.parametrize("copies", [150, 1200])
    def test_a_stored_unit_past_the_cap_opens_and_is_an_invalid_process(self, store, copies):
        from orya.units import unit_from_json

        unit = unit_from_json(many_linux(copies))
        stored = Store(store)
        stored.commit(replace(stored.universe, catalog={"srv1": (unit,)}))
        engine = svc.LocalEngine(store)
        resp = engine.handle({"op": "deploy", "product": "editor", "group": "all"})
        entries = {e["site"]: (e["outcome"], e.get("reason")) for e in resp["report"]["entries"]}
        assert entries == {
            "site1": ("FAILED", "INVALID_PROCESS"),
            "site2": ("SKIPPED", "NO_ADMISSIBLE"),
        }


ILL_TYPED_STEPS = {
    "verify-expr-integer": ({"act": "verify", "expr": 5}, "USAGE"),
    "verify-expr-unparsable": ({"act": "verify", "expr": "os ="}, "SYNTAX"),
    "transfer-resource-array": ({"act": "transfer", "resource": ["r0"]}, "USAGE"),
    "copy-to-null": ({"act": "copy", "from": "a", "to": None}, "USAGE"),
    "configure-params-text": ({"act": "configure", "params": "k=v"}, "USAGE"),
    "update-unit-integer": ({"act": "update", "unit": 7}, "USAGE"),
}


@pytest.mark.parametrize("step, code", ILL_TYPED_STEPS.values(), ids=list(ILL_TYPED_STEPS))
def test_publish_refuses_an_ill_typed_activity_and_writes_nothing(store, step, code):
    engine = svc.LocalEngine(store)
    manifest = dict(editor_manifest(), process={"seq": [{"act": "install"}, step]})
    before = stat_snapshot(store)
    resp = engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})
    assert resp["error"]["code"] == code
    assert stat_snapshot(store) == before
    assert not engine.universe.catalog.get("srv1")


def sized_manifest(points, default):
    """An editor unit whose process has exactly ``points`` progress points:
    the default template (transfers, install, verify, activate) or a given
    seq of install, verifies and activate."""
    if default:
        resources = [(f"r{i}", 1, "d") for i in range(points - 4)]
        unit = make_unit("editor-4.0", product="editor", version="4.0", resources=resources)
    else:
        steps = (
            (Activity.make(ActivityKind.INSTALL),)
            + tuple(Activity.make(ActivityKind.VERIFY) for _ in range(points - 3))
            + (Activity.make(ActivityKind.ACTIVATE),)
        )
        process = ProcessDef("editor-4.0.install", Seq(steps))
        unit = make_unit("editor-4.0", product="editor", version="4.0", process=process)
    return unit_to_json(unit)


@pytest.mark.parametrize("default", [False, True], ids=["given", "default"])
class TestProcessSizeCap:
    def test_at_the_cap_publishes(self, store, default):
        engine = svc.LocalEngine(store)
        resp = engine.handle(
            {"op": "publish", "server": "srv1", "manifest": sized_manifest(MAX_PROGRESS_POINTS, default)}
        )
        assert resp == {"ok": True, "published": "editor-4.0", "server": "srv1"}

    def test_one_over_the_cap_is_refused_and_writes_nothing(self, store, default):
        engine = svc.LocalEngine(store)
        before = stat_snapshot(store)
        manifest = sized_manifest(MAX_PROGRESS_POINTS + 1, default)
        resp = engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})
        assert resp["error"]["code"] == "PROCESS_TOO_LARGE"
        assert "editor-4.0" in resp["error"]["message"]
        assert stat_snapshot(store) == before
        assert not engine.universe.catalog.get("srv1")

    def test_a_stored_unit_over_the_cap_is_an_invalid_process_without_a_search(
        self, store, default, monkeypatch
    ):
        from orya import process as process_mod
        from orya.units import unit_from_json

        unit = unit_from_json(sized_manifest(MAX_PROGRESS_POINTS + 1, default))
        stored = Store(store)
        stored.commit(replace(stored.universe, catalog={"srv1": (unit,)}))

        def no_search(*args):
            raise AssertionError("searched a process over the cap")

        monkeypatch.setattr(process_mod, "_deepest_illegal", no_search)
        resp = svc.LocalEngine(store).handle({"op": "deploy", "product": "editor", "group": "all"})
        entries = {e["site"]: (e["outcome"], e.get("reason")) for e in resp["report"]["entries"]}
        assert entries == {"site1": ("FAILED", "INVALID_PROCESS"), "site2": ("FAILED", "INVALID_PROCESS")}


BAD_LINES = {
    "not-utf8": b"\xff\n",
    "deep-json": b"[" * 100_000 + b"\n",
    "not-an-object": b"[1]\n",
    "not-json": b"{not json\n",
}


class TestOneAnswerPerLine:
    def test_non_object_request_is_usage(self, store):
        resp = svc.LocalEngine(store).handle([1])
        assert resp == error("USAGE", "request must be a JSON object")

    def test_unexpected_fault_propagates_from_the_engine(self, store, monkeypatch):
        engine = svc.LocalEngine(store)

        def explode(req):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "op_digest", explode)
        with pytest.raises(RuntimeError):
            engine.handle({"op": "digest"})

    def test_unexpected_fault_is_internal_over_the_socket(self, store, tmp_path, monkeypatch, capsys):
        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))

        def explode(req):
            raise RuntimeError("boom")

        monkeypatch.setattr(server.engine, "op_digest", explode)
        server.start_background()
        try:
            assert svc.request(server.address, {"op": "digest"}) == error("INTERNAL", "RuntimeError: boom")
            assert svc.request(server.address, {"op": "ping"}) == {"ok": True, "pong": True}
        finally:
            server.shutdown()
        assert "RuntimeError: boom" in capsys.readouterr().err

    def test_unix_socket_answers_every_bad_line_and_keeps_the_connection(self, store, tmp_path):
        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
        server.start_background()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.address)
            f = sock.makefile("rwb")
            for kind in sorted(BAD_LINES):
                f.write(BAD_LINES[kind])
                f.flush()
                resp = json.loads(f.readline())
                assert resp["error"]["code"] == "USAGE", kind
            f.write(json.dumps({"op": "ping"}).encode() + b"\n")
            f.flush()
            assert json.loads(f.readline()) == {"ok": True, "pong": True}
            f.close()
            sock.close()
        finally:
            server.shutdown()

    def test_an_over_long_line_is_usage_and_the_connection_keeps_serving(self, store, tmp_path, monkeypatch):
        monkeypatch.setattr(svc, "MAX_REQUEST_BYTES", 64)
        ping = json.dumps({"op": "ping"}).encode()
        too_long = error("USAGE", "request line longer than 64 bytes")
        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
        server.start_background()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.address)
            f = sock.makefile("rwb")
            # One byte over the cap, many times the cap, exactly the cap, and
            # a plain ping, on one connection.
            for line, answer in (
                (ping.ljust(65), too_long),
                (b"[" * 1000, too_long),
                (ping.ljust(64), {"ok": True, "pong": True}),
                (ping, {"ok": True, "pong": True}),
            ):
                f.write(line + b"\n")
                f.flush()
                assert json.loads(f.readline()) == answer
            f.close()
            sock.close()
        finally:
            server.shutdown()


def written_by(engine, req, monkeypatch):
    """The documents ``req`` serialised, checked to be exactly those it created
    or changed on disk."""
    root = engine.store.root
    before = stat_snapshot(root)
    with monkeypatch.context() as patch:
        serialised = count_writes(patch)
        resp = engine.handle(req)
    assert resp["ok"] and not resp.get("refusal"), resp
    after = stat_snapshot(root)
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    assert sorted(p.relative_to(root).as_posix() for p in serialised) == changed
    return changed


class TestCommitWritesWhatChanged:
    def test_toggles_write_one_state_and_one_record(self, store, monkeypatch):
        engine = deployed_engine(store)
        deactivate = {"op": "deactivate", "site": "site1", "unit": "editor-1.2"}
        assert written_by(engine, deactivate, monkeypatch) == [
            "deployments/d000001.json",
            "sites/site1/state.json",
        ]
        activate = {"op": "activate", "site": "site1", "unit": "editor-1.2"}
        assert written_by(engine, activate, monkeypatch) == [
            "deployments/d000002.json",
            "sites/site1/state.json",
        ]

    def test_set_prop_without_apply_writes_only_the_enterprise(self, store, monkeypatch):
        engine = deployed_engine(store)
        req = {"op": "set_prop", "site": "site1", "name": "os", "value": "win"}
        assert written_by(engine, req, monkeypatch) == ["enterprise.json"]
        assert written_by(engine, req, monkeypatch) == []  # the same value again

    def test_publish_writes_only_the_new_unit(self, store, monkeypatch):
        engine = deployed_engine(store)
        before = stat_snapshot(store)
        serialised = count_writes(monkeypatch)
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.3")})["ok"]
        after = stat_snapshot(store)
        assert [k for k in after if before.get(k) != after[k]] == ["catalog/srv1/editor-1.3.json"]
        assert before.keys() <= after.keys()
        # The server's units tuple changed, so its other units are compared too.
        assert sorted(p.name for p in serialised) == [
            "editor-1.0.json", "editor-1.2.json", "editor-1.3.json"
        ]

    def test_disk_follows_memory_over_random_ops(self, store):
        rng = random.Random(7)
        engine = deployed_engine(store)
        done = 0
        for step in range(40):
            site = rng.choice(("site1", "site2"))
            kind = rng.choice(("deploy", "pull", "undeploy", "toggle", "toggle", "set_prop"))
            if kind == "deploy":
                req = {"op": "deploy", "product": "editor", "sites": [site]}
            elif kind == "pull":
                if rng.random() < 0.5:
                    manifest = editor_manifest(f"1.{step + 3}", rng.choice(((), ('os = "win"',))))
                    assert engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})["ok"]
                req = {"op": "pull", "site": site, "product": "editor"}
            elif kind == "set_prop":
                req = {"op": "set_prop", "site": site, "name": "os",
                       "value": rng.choice(("linux", "win")), "apply": rng.random() < 0.5}
            else:
                state = engine.universe.site_states.get(site)
                units = [du.unit_id for du in state.deployed_units] if state else []
                units = units or ["editor-1.2"]
                op = rng.choice(("activate", "deactivate")) if kind == "toggle" else "undeploy"
                req = {"op": op, "site": site, "unit": rng.choice(units)}
            resp = engine.handle(req)
            done += resp["ok"] and not resp.get("refusal")
            assert universe_digest(open_universe(store)) == universe_digest(engine.universe), req
        assert done >= 15

    def test_a_failed_save_moves_the_head_and_the_next_op_reads_again(self, store, monkeypatch):
        engine = deployed_engine(store)
        held = engine.universe
        write_json = universe_mod._write_json
        calls = []

        def fail_after_first(path, *args):
            calls.append(path)
            if len(calls) > 1:
                raise OSError("disk full")
            write_json(path, *args)

        monkeypatch.setattr(universe_mod, "_write_json", fail_after_first)
        with pytest.raises(OSError):
            engine.handle({"op": "deactivate", "site": "site1", "unit": "editor-1.2"})
        monkeypatch.setattr(universe_mod, "_write_json", write_json)

        # The state was written, its record was not, and the head moved first.
        assert [p.name for p in calls] == ["state.json", "d000001.json"]
        assert engine.universe is held
        assert int((store / HEAD_FILE).read_text()) == engine.store.generation + 1
        assert "d000001" not in open_universe(store).deployments
        # So the next commit is refused once; the engine reads the store again.
        resp = engine.handle({"op": "activate", "site": "site1", "unit": "editor-1.2"})
        assert resp["ok"] and resp["report"]["entries"][0]["record"] == "d000001"
        assert universe_digest(engine.universe) == universe_digest(open_universe(store))


def store_files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*.json"))}


def canonical_bytes(data):
    return (canonical_json(json.loads(data)) + "\n").encode()


class TestOneEncoding:
    """Each store file holds its document's canonical JSON, the text the digest hashes."""

    def test_every_saved_file_is_its_canonical_text(self, store):
        engine = deployed_engine(store)
        assert set_prop(engine, site="site2", name="tier", value="gold")["ok"]
        assert engine.handle({"op": "deactivate", "site": "site1", "unit": "editor-1.2"})["ok"]
        files = store_files(store)
        assert sorted(files) == [
            "catalog/srv1/editor-1.0.json",
            "catalog/srv1/editor-1.2.json",
            "deployments/d000000.json",
            "deployments/d000001.json",
            "enterprise.json",
            "sites/site1/state.json",
        ]
        for name, data in files.items():
            assert data == canonical_bytes(data), name

    def test_pretty_printed_store_opens_and_keeps_unchanged_files(self, store):
        engine = deployed_engine(store)
        digest = engine.handle({"op": "digest"})["digest"]
        for path in store.rglob("*.json"):
            path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n")
        pretty = store_files(store)
        assert all(data != canonical_bytes(data) for data in pretty.values())

        engine = svc.LocalEngine(store)
        assert engine.handle({"op": "digest"})["digest"] == digest
        assert set_prop(engine, site="site1", name="tier", value="gold")["ok"]
        after = store_files(store)
        assert after.keys() == pretty.keys()
        assert [name for name in after if after[name] != pretty[name]] == ["enterprise.json"]
        assert after["enterprise.json"] == canonical_bytes(after["enterprise.json"])


class TestTwoEngines:
    def test_stale_engine_is_refused_then_recovers(self, store):
        setup = svc.LocalEngine(store)
        assert setup.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.0", ())})["ok"]
        resp = setup.handle({"op": "deploy", "product": "editor", "group": "all"})
        assert [e["record"] for e in resp["report"]["entries"]] == ["d000000", "d000001"]

        a, b = svc.LocalEngine(store), svc.LocalEngine(store)
        resp = a.handle({"op": "deactivate", "site": "site1", "unit": "editor-1.0"})
        assert resp["report"]["entries"][0]["record"] == "d000002"

        resp = b.handle({"op": "deactivate", "site": "site2", "unit": "editor-1.0"})
        assert resp["ok"] and resp["report"]["entries"][0]["record"] == "d000003"
        on_disk = open_universe(store)
        assert universe_digest(on_disk) == universe_digest(b.universe)
        assert [du.state for du in on_disk.site_states["site1"].deployed_units] == ["INSTALLED"]
        assert [du.state for du in on_disk.site_states["site2"].deployed_units] == ["INSTALLED"]

    def test_stale_set_prop_keeps_the_other_engines_write(self, store):
        a, b = svc.LocalEngine(store), svc.LocalEngine(store)
        assert set_prop(a, site="site1", name="ram", value="7GB")["ok"]
        assert set_prop(b, site="site2", name="ram", value="9GB")["ok"]
        props = {m.id: m.properties for m in open_universe(store).enterprise.machines}
        assert str(props["site1"]["ram"]) == "7GB"
        assert str(props["site2"]["ram"]) == "9GB"

    def test_stale_publish_keeps_the_other_engines_unit(self, store):
        a, b = svc.LocalEngine(store), svc.LocalEngine(store)
        assert a.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.2")})["ok"]
        assert b.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.3")})["ok"]
        units = [unit.id for unit in open_universe(store).catalog["srv1"]]
        assert units == ["editor-1.2", "editor-1.3"]
        assert universe_digest(b.universe) == universe_digest(open_universe(store))

    def test_a_refusal_past_the_rerun_bound_answers_locked_with_nothing_written(self, store, monkeypatch):
        a, b = svc.LocalEngine(store), svc.LocalEngine(store)
        reopen, published = b.store.reopen, ["editor-1.2"]

        def reopen_then_another_commit():
            reopen()
            version = f"1.{len(published) + 3}"  # 1.4, 1.5, ...
            assert a.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest(version, ())})["ok"]
            published.append(f"editor-{version}")

        monkeypatch.setattr(b.store, "reopen", reopen_then_another_commit)
        assert a.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest()})["ok"]
        resp = b.handle({"op": "publish", "server": "srv1", "manifest": editor_manifest("1.3")})
        assert resp["error"]["code"] == "LOCKED"
        assert len(published) == 1 + STALE_RERUNS  # each re-run was refused in turn
        # b wrote nothing: the head is the one a's last commit left.
        assert int((store / HEAD_FILE).read_text()) == a.store.generation
        assert [unit.id for unit in open_universe(store).catalog["srv1"]] == sorted(published)

    def test_a_rerun_within_the_bound_commits(self, store, monkeypatch):
        a, b = svc.LocalEngine(store), svc.LocalEngine(store)
        reopen, reruns = b.store.reopen, []

        def reopen_then_another_commit():
            reopen()
            reruns.append(len(reruns))
            if len(reruns) < STALE_RERUNS:  # every re-run but the last is refused
                assert set_prop(a, site="site1", name="ram", value=f"{len(reruns)}GB")["ok"]

        monkeypatch.setattr(b.store, "reopen", reopen_then_another_commit)
        assert set_prop(a, site="site1", name="ram", value="9GB")["ok"]
        assert set_prop(b, site="site2", name="ram", value="9GB")["ok"]
        assert len(reruns) == STALE_RERUNS
        props = {m.id: m.properties for m in open_universe(store).enterprise.machines}
        assert (str(props["site1"]["ram"]), str(props["site2"]["ram"])) == (f"{STALE_RERUNS - 1}GB", "9GB")


class TestTransports:
    def _exercise(self, addr, store):
        server = svc.ServiceServer(store, addr)
        server.start_background()
        try:
            assert svc.request(server.address, {"op": "ping"}) == {"ok": True, "pong": True}
            resp = svc.request(
                server.address,
                {"op": "publish", "server": "srv1", "manifest": editor_manifest()},
            )
            assert resp["ok"]
            resp = svc.request(server.address, {"op": "deploy", "product": "editor", "group": "all"})
            assert resp["ok"]
            local = svc.LocalEngine(store).handle({"op": "digest"})["digest"]
            remote = svc.request(server.address, {"op": "digest"})["digest"]
            assert local == remote
        finally:
            server.shutdown()

    def test_tcp_round_trip(self, store):
        self._exercise("127.0.0.1:0", store)

    def test_unix_socket_round_trip(self, store, tmp_path):
        self._exercise(str(tmp_path / "orya.sock"), store)

    def test_bad_request_line(self, store, tmp_path):
        import socket

        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
        server.start_background()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.address)
            sock.sendall(b"{not json\n")
            resp = json.loads(sock.makefile().readline())
            sock.close()
            assert resp["error"]["code"] == "USAGE"
        finally:
            server.shutdown()

    def test_multiple_requests_per_connection(self, store, tmp_path):
        import socket

        server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
        server.start_background()
        try:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(server.address)
            f = sock.makefile("rw")
            for _ in range(3):
                f.write(json.dumps({"op": "ping"}) + "\n")
                f.flush()
                assert json.loads(f.readline())["pong"] is True
            f.close()
            sock.close()
        finally:
            server.shutdown()


# ---------------------------------------------------------------------------
# Answers written in slices of site entries


def wire_bytes(resp):
    """The bytes every answer must be: ``json.dumps`` with sorted keys, one line."""
    return (json.dumps(resp, sort_keys=True) + "\n").encode()


def written(resp):
    sink = io.BytesIO()
    svc.write_answer(sink, resp)
    return sink.getvalue()


# Sites enough for a push to answer in many slices.
SLICED_SITES = 150


@pytest.fixture(scope="class")
def sliced_store(tmp_path_factory):
    """SLICED_SITES sites, one in seven on bsd and of the rest one in three
    on win, with editor-1.2 (linux), editor-1.0 (win) and viewer-1.0 (mac)
    published."""
    sites = {
        f"site{i:03}": ({"os": "bsd" if i % 7 == 0 else "linux" if i % 3 else "win", "disk.free": "10GB"}, ())
        for i in range(SLICED_SITES)
    }
    root = tmp_path_factory.mktemp("sliced") / "universe"
    init_universe(root, make_enterprise(sites))
    engine = svc.LocalEngine(root)
    viewer = unit_to_json(make_unit("viewer-1.0", product="viewer", constraints=('os = "mac"',)))
    for manifest in (editor_manifest(), editor_manifest("1.0", ('os = "win"',)), viewer):
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": manifest})["ok"]
    return root


@pytest.fixture(scope="class")
def sliced_answers(sliced_store):
    """Each answer the writer is checked on, by name, in the order the ops ran."""
    engine = svc.LocalEngine(sliced_store)
    push = {"op": "deploy", "product": "editor", "group": "all"}
    return {
        "dry-run push": engine.handle({**push, "dry_run": True}),
        "push": engine.handle(push),
        "status": engine.handle({"op": "status"}),
        "one-site status": engine.handle({"op": "status", "site": "site001"}),
        "digest": engine.handle({"op": "digest"}),
        "refusal": engine.handle({"op": "deploy", "product": "viewer", "group": "all"}),
        "domain error": engine.handle({"op": "deploy", "product": "ghost", "group": "all"}),
        "internal": error("INTERNAL", "RuntimeError: boom"),
    }


class CountingSink:
    """A write-only stream that checks each write against ``expected`` and
    keeps no byte of it."""

    def __init__(self, expected):
        self.expected, self.pos, self.writes = memoryview(expected), 0, 0

    def write(self, data):
        n = len(memoryview(data))
        assert self.expected[self.pos : self.pos + n] == data
        self.pos, self.writes = self.pos + n, self.writes + 1
        return n


def count_encodes(monkeypatch):
    """Count calls of the C encoder, whichever ``json`` entry point makes them."""
    import json.encoder

    calls = []
    real = json.encoder.c_make_encoder

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(json.encoder, "c_make_encoder", counted)
    return calls


def synthetic_push_answer(sites):
    """A push answer shaped like a real one: each site's selection over 20
    candidates, on ``sites`` sites."""
    candidates = [
        {"unit": f"editor-{k}.0", "admissible": bool(k % 2), "failed": [f'disk.free >= "{k}GB"', 'os = "linux"']}
        for k in range(20)
    ]
    entries = [
        {"site": f"site{i:04}", "outcome": "DEPLOYED", "unit": "editor-19.0", "record": f"r{i:08}",
         "selection": {"candidates": candidates, "chosen": "editor-19.0"}}
        for i in range(sites)
    ]
    return {"ok": True, "refusal": False, "report": {"entries": entries, "summary": {"DEPLOYED": sites}}}


class TestSlicedAnswers:
    MULTI_SLICE = ("dry-run push", "push", "status", "refusal")

    @pytest.mark.parametrize(
        "name",
        ["dry-run push", "push", "status", "one-site status", "digest", "refusal", "domain error", "internal"],
    )
    def test_each_answer_is_the_bytes_of_json_dumps(self, sliced_answers, name):
        resp = sliced_answers[name]
        if name in self.MULTI_SLICE:
            assert len(resp["report"]["entries"]) > 2 * svc.SLICE_ENTRIES
        assert written(resp) == wire_bytes(resp)

    def test_the_answers_cover_what_a_push_reports(self, sliced_answers):
        assert sliced_answers["push"]["report"]["summary"] == {"DEPLOYED": 128, "SKIPPED": 22}
        assert sliced_answers["refusal"]["refusal"] is True
        assert sliced_answers["domain error"]["error"]["code"] == "UNKNOWN_PRODUCT"

    @pytest.mark.parametrize("entries", [0, 1, svc.SLICE_ENTRIES - 1, svc.SLICE_ENTRIES, svc.SLICE_ENTRIES + 1])
    def test_every_entry_count_around_one_slice(self, entries):
        resp = synthetic_push_answer(entries)
        resp["noop"] = False  # a key that sorts before "ok"
        assert written(resp) == wire_bytes(resp)

    @pytest.mark.parametrize("name", ["one-site status", "digest", "domain error", "internal"])
    def test_an_answer_of_one_slice_is_one_encode_and_one_write(self, sliced_answers, name, monkeypatch):
        self._assert_one_encode_and_one_write(sliced_answers[name], monkeypatch)

    def test_a_report_of_exactly_one_slice_is_one_encode_and_one_write(self, monkeypatch):
        self._assert_one_encode_and_one_write(synthetic_push_answer(svc.SLICE_ENTRIES), monkeypatch)

    @staticmethod
    def _assert_one_encode_and_one_write(resp, monkeypatch):
        sink = CountingSink(wire_bytes(resp))
        encodes = count_encodes(monkeypatch)
        svc.write_answer(sink, resp)
        assert (len(encodes), sink.writes, sink.pos) == (1, 1, len(sink.expected))

    def test_a_sliced_answer_holds_under_a_quarter_of_its_line(self):
        resp = synthetic_push_answer(1000)
        expected = wire_bytes(resp)
        sink = CountingSink(expected)
        tracemalloc.start()
        try:
            svc.write_answer(sink, resp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.pos == len(expected)
        assert peak < len(expected) / 4, (peak, len(expected))

    def test_over_a_socket_each_line_is_exact_and_the_connection_keeps_serving(
        self, sliced_store, tmp_path, monkeypatch
    ):
        server = svc.ServiceServer(sliced_store, str(tmp_path / "s.sock"))
        handled = []
        real_handle = server.engine.handle

        def kept(req):
            if req["op"] == "digest":
                raise RuntimeError("boom")
            handled.append(real_handle(req))
            return handled[-1]

        monkeypatch.setattr(server.engine, "handle", kept)
        server.start_background()
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(server.address)
                f = sock.makefile("rwb")
                push = {"op": "deploy", "product": "editor", "group": "all", "dry_run": True}
                with pytest.raises(ValueError) as bad_line:
                    json.loads("{not json")
                for line, answer in (
                    (json.dumps(push).encode(), None),
                    (b"{not json", error("USAGE", f"bad request line: {bad_line.value}")),
                    (json.dumps({"op": "digest"}).encode(), error("INTERNAL", "RuntimeError: boom")),
                    (json.dumps({"op": "ping"}).encode(), {"ok": True, "pong": True}),
                ):
                    f.write(line + b"\n")
                    f.flush()
                    got = f.readline()
                    if answer is None:
                        answer = handled[0]
                        assert len(answer["report"]["entries"]) == SLICED_SITES
                    assert got == wire_bytes(answer)
                f.close()
        finally:
            server.shutdown()


def answer_once(path, answer):
    """Listen on ``path``; answer one request line with the bytes ``answer``,
    then close. Returns the listening thread."""
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)

    def serve():
        with listener:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()
                conn.sendall(answer)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return thread


class TestClient:
    def test_reads_a_long_answer_line(self, tmp_path):
        resp = synthetic_push_answer(500)
        thread = answer_once(str(tmp_path / "s.sock"), wire_bytes(resp))
        assert svc.request(str(tmp_path / "s.sock"), {"op": "deploy"}) == resp
        thread.join(timeout=5)
        assert not thread.is_alive()

    @pytest.mark.parametrize("answer", [b"", b'{"ok": true, "pong"'], ids=["nothing", "torn"])
    def test_a_connection_closed_mid_answer_is_an_os_error(self, tmp_path, answer):
        thread = answer_once(str(tmp_path / "s.sock"), answer)
        with pytest.raises(OSError, match="connection closed mid-answer"):
            svc.request(str(tmp_path / "s.sock"), {"op": "ping"})
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_the_cli_exits_2_on_a_torn_answer(self, tmp_path, capsys):
        from orya.cli import main

        thread = answer_once(str(tmp_path / "s.sock"), b'{"ok": true, "digest": "ab')
        assert main(["--remote", str(tmp_path / "s.sock"), "digest"]) == 2
        assert "orya: connection closed mid-answer" in capsys.readouterr().err
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_shutdown_returns_without_waiting_out_the_default_poll(store, tmp_path):
    server = svc.ServiceServer(store, str(tmp_path / "s.sock"))
    server.start_background()
    assert svc.request(server.address, {"op": "ping"}) == {"ok": True, "pong": True}
    t0 = time.perf_counter()
    server.shutdown()
    assert time.perf_counter() - t0 < 0.25
    assert not server._thread.is_alive()
