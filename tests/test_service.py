import json
from dataclasses import replace

import pytest

from conftest import make_enterprise, make_unit
from orya import service as svc
from orya.units import unit_to_json
from orya.universe import empty_universe, save_universe


@pytest.fixture
def store(tmp_path):
    root = tmp_path / "universe"
    ent = make_enterprise(
        {
            "site1": ({"os": "linux", "disk.free": "10GB"}, ()),
            "site2": ({"os": "win", "disk.free": "10GB"}, ()),
        }
    )
    save_universe(replace(empty_universe(root), enterprise=ent))
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
