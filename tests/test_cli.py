import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import orya
from conftest import make_enterprise, make_unit
from orya import service as svc
from orya import universe as universe_mod
from orya.cli import _emit, main
from orya.model import enterprise_to_json
from orya.units import unit_to_json
from orya.universe import HEAD_FILE, init_universe, open_universe

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def store(tmp_path):
    ent = make_enterprise(
        {
            "site1": ({"os": "linux", "disk.free": "10GB"}, ()),
            "site2": ({"os": "win", "disk.free": "10GB"}, ()),
        }
    )
    ent_path = tmp_path / "enterprise.json"
    ent_path.write_text(json.dumps(enterprise_to_json(ent)))
    root = tmp_path / "universe"
    assert main(["--universe", str(root), "init", "--enterprise", str(ent_path)]) == 0
    return root


def run(store, *argv, fmt="json"):
    return main(["--universe", str(store), "--format", fmt, *argv])


def run_json(store, capsys, *argv):
    code = run(store, *argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_manifest(tmp_path, unit, name="unit.json"):
    path = tmp_path / name
    path.write_text(json.dumps(unit_to_json(unit)))
    return str(path)


def publish_editor(store, tmp_path, capsys, version="1.2", constraints=('os = "linux"',)):
    manifest = write_manifest(
        tmp_path,
        make_unit(
            f"editor-{version}",
            product="editor",
            version=version,
            constraints=constraints,
            footprint="500MB",
            resources=[("editor.bin", 500 * 10**6, "abc")],
        ),
        name=f"editor-{version}.json",
    )
    code, doc = run_json(store, capsys, "publish", "srv1", manifest)
    assert code == 0 and doc["published"] == f"editor-{version}"


class TestInit:
    def test_init_refuses_non_empty(self, tmp_path, capsys):
        (tmp_path / "junk").write_text("x")
        assert main(["--universe", str(tmp_path), "init"]) == 2

    @pytest.mark.parametrize(
        "text", [None, "not json", "[" * 10000 + "]" * 10000, '{"id": "e", "machines": [{"id": "x"}]}']
    )
    def test_a_bad_enterprise_file_creates_nothing(self, tmp_path, capsys, text):
        ent_path, root = tmp_path / "enterprise.json", tmp_path / "u"
        if text is not None:  # None: the file is missing
            ent_path.write_text(text)
        assert main(["--universe", str(root), "init", "--enterprise", str(ent_path)]) == 2
        assert str(ent_path) in capsys.readouterr().err
        assert not root.exists()
        model = enterprise_to_json(make_enterprise({"site1": ({"os": "linux"}, ())}))
        ent_path.write_text(json.dumps(model))
        assert main(["--universe", str(root), "init", "--enterprise", str(ent_path)]) == 0
        assert int((root / HEAD_FILE).read_text()) == 1  # one save
        capsys.readouterr()
        assert run_json(root, capsys, "model", "show") == (0, {"ok": True, "model": model})

    def test_missing_universe_flag_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.delenv("ORYA_UNIVERSE", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["digest"])
        assert exc.value.code == 2

    def test_universe_from_env(self, store, capsys, monkeypatch):
        monkeypatch.setenv("ORYA_UNIVERSE", str(store))
        assert main(["--format", "json", "digest"]) == 0


class TestModel:
    def test_validate_ok(self, store, capsys):
        code, doc = run_json(store, capsys, "model", "validate")
        assert code == 0 and doc["report"]["ok"]

    def test_show_round_trips(self, store, capsys):
        code, doc = run_json(store, capsys, "model", "show")
        assert code == 0
        assert {m["id"] for m in doc["model"]["machines"]} == {"srv1", "site1", "site2"}


class TestCatalog:
    def test_publish_and_unpublish(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        assert open_universe(store).catalog["srv1"][0].id == "editor-1.2"
        code, doc = run_json(store, capsys, "unpublish", "srv1", "editor-1.2")
        assert code == 0 and doc["removed"] == "editor-1.2"

    def test_duplicate_publish_is_refusal(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        manifest = write_manifest(tmp_path, make_unit("editor-1.2", product="editor", version="1.2"))
        assert run(store, "publish", "srv1", manifest) == 1

    def test_bad_manifest_path(self, store, capsys):
        assert run(store, "publish", "srv1", "/nonexistent.json") == 2

    @pytest.mark.parametrize("doc", [{}, {"id": 5, "product": "p", "version": "1.0"}, {"id": "u", "x": 1}])
    def test_an_ill_shaped_manifest_is_corrupt_naming_the_file(self, store, tmp_path, capsys, doc):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        before = (store / HEAD_FILE).read_text()
        assert run(store, "publish", "srv1", str(manifest), fmt="text") == 2
        assert capsys.readouterr().err.startswith(f"error [CORRUPT]: {manifest}: ")
        assert (store / HEAD_FILE).read_text() == before
        # The same manifest sent as a protocol request is still the request's fault.
        resp = svc.LocalEngine(store).handle({"op": "publish", "server": "srv1", "manifest": doc})
        assert resp["error"]["code"] == "USAGE"


class TestInputCap:
    """A manifest, an enterprise or a scenario file is read up to
    ``MAX_DOCUMENT_BYTES``; past it the command exits 2 and names the file."""

    def cap_at(self, monkeypatch, path, over):
        """Set the cap ``over`` bytes below the size of ``path``."""
        monkeypatch.setattr(universe_mod, "MAX_DOCUMENT_BYTES", path.stat().st_size - over)

    def test_manifest(self, store, tmp_path, capsys, monkeypatch):
        manifest = Path(write_manifest(tmp_path, make_unit("editor-1.2", product="editor", version="1.2")))
        largest = max(p.stat().st_size for p in store.rglob("*.json"))
        manifest.write_bytes(manifest.read_bytes() + b" " * largest)  # larger than any store file
        self.cap_at(monkeypatch, manifest, 1)
        assert run(store, "publish", "srv1", str(manifest)) == 2
        assert f"{manifest}: larger than" in capsys.readouterr().err
        self.cap_at(monkeypatch, manifest, 0)
        assert run(store, "publish", "srv1", str(manifest)) == 0

    def test_enterprise(self, tmp_path, capsys, monkeypatch):
        ent_path, root = tmp_path / "enterprise.json", tmp_path / "u"
        ent_path.write_text(json.dumps(enterprise_to_json(make_enterprise({"site1": ({}, ())}))))
        self.cap_at(monkeypatch, ent_path, 1)
        assert main(["--universe", str(root), "init", "--enterprise", str(ent_path)]) == 2
        assert f"{ent_path}: larger than" in capsys.readouterr().err
        assert not root.exists()
        self.cap_at(monkeypatch, ent_path, 0)
        assert main(["--universe", str(root), "init", "--enterprise", str(ent_path)]) == 0

    def test_scenario(self, capsys, monkeypatch):
        scenario = SCENARIO_DIR / "basic_push.json"
        self.cap_at(monkeypatch, scenario, 1)
        assert main(["simulate", str(scenario)]) == 2
        assert f"{scenario}: larger than" in capsys.readouterr().err
        self.cap_at(monkeypatch, scenario, 0)
        assert main(["simulate", str(scenario)]) == 0


class TestDeploy:
    def test_group_deploy_partitions(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        code, doc = run_json(store, capsys, "deploy", "--product", "editor", "--group", "all")
        assert code == 0
        by_site = {e["site"]: e["outcome"] for e in doc["report"]["entries"]}
        assert by_site == {"site1": "DEPLOYED", "site2": "SKIPPED"}

    def test_site_deploy_all_skipped_exits_1(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        assert run(store, "deploy", "--product", "editor", "--site", "site2") == 1

    def test_dry_run_leaves_store_unchanged(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        _, before = run_json(store, capsys, "digest")
        code, doc = run_json(
            store, capsys, "deploy", "--product", "editor", "--site", "site1", "--dry-run"
        )
        assert code == 0
        assert doc["report"]["entries"][0]["outcome"] == "WOULD_DEPLOY"
        _, after = run_json(store, capsys, "digest")
        assert before["digest"] == after["digest"]

    def test_group_and_site_together_is_usage_error(self, store, capsys):
        assert run(store, "deploy", "--product", "p", "--group", "g", "--site", "s") == 2

    def test_neither_group_nor_site_is_usage_error(self, store, capsys):
        assert run(store, "deploy", "--product", "p") == 2

    def test_unknown_product_is_refusal(self, store, capsys):
        assert run(store, "deploy", "--product", "ghost", "--group", "all") == 1


class TestLifecycleCommands:
    def test_deactivate_activate_undeploy(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()
        assert run(store, "deactivate", "--site", "site1", "--unit", "editor-1.2") == 0
        capsys.readouterr()
        assert run(store, "activate", "--site", "site1", "--unit", "editor-1.2") == 0
        capsys.readouterr()
        code, doc = run_json(store, capsys, "undeploy", "--site", "site1", "--unit", "editor-1.2")
        assert code == 0
        assert doc["report"]["entries"][0]["outcome"] == "REMOVED"

    def test_failed_store_write_is_a_plain_error(self, store, tmp_path, capsys, monkeypatch):
        from orya import universe as universe_mod

        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()

        def disk_full(path, *args):
            raise OSError("disk full")

        monkeypatch.setattr(universe_mod, "_write_json", disk_full)
        assert run(store, "deactivate", "--site", "site1", "--unit", "editor-1.2") == 2
        captured = capsys.readouterr()
        assert captured.err == "orya: disk full\n"
        assert captured.out == ""

    def test_activate_when_active_is_refusal(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()
        assert run(store, "activate", "--site", "site1", "--unit", "editor-1.2") == 1

    def test_pull_with_newer_version(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()
        publish_editor(store, tmp_path, capsys, version="1.3")
        code, doc = run_json(store, capsys, "pull", "--site", "site1", "--product", "editor")
        assert code == 0
        assert doc["report"]["entries"][0]["outcome"] == "UPDATED"


class TestSetProp:
    def test_assignment_and_plan(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()
        code, doc = run_json(store, capsys, "set-prop", "--site", "site1", 'os=win')
        assert code == 0
        assert doc["plan"]["actions"], "constrained unit should be flagged"

    def test_remove_with_apply(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--site", "site1")
        capsys.readouterr()
        publish_editor(store, tmp_path, capsys, version="1.1", constraints=())
        code, doc = run_json(
            store, capsys, "set-prop", "--site", "site1", "--remove", "os", "--apply-reconfig"
        )
        assert code == 0
        outcomes = [e["outcome"] for e in doc["report"]["entries"]]
        assert "RECONFIGURED" in outcomes

    def test_missing_assignment_is_usage_error(self, store, capsys):
        assert run(store, "set-prop", "--site", "site1") == 2


class TestStatusAndDigest:
    def test_status_filters(self, store, tmp_path, capsys):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--group", "all")
        capsys.readouterr()
        code, doc = run_json(store, capsys, "status", "--site", "site1")
        assert code == 0 and len(doc["report"]["entries"]) == 1
        code, doc = run_json(store, capsys, "status", "--site", "site2")
        assert code == 0 and doc["report"]["entries"] == []

    def test_digest_stable(self, store, capsys):
        _, a = run_json(store, capsys, "digest")
        _, b = run_json(store, capsys, "digest")
        assert a["digest"] == b["digest"]

    def test_text_format_runs(self, store, capsys):
        assert run(store, "digest", fmt="text") == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("command", [["status", "--site", "site1"], ["digest"]])
    def test_a_read_loads_neither_the_push_path_nor_the_transport(self, store, tmp_path, capsys, command):
        publish_editor(store, tmp_path, capsys)
        run(store, "deploy", "--product", "editor", "--group", "all")
        probe = (
            "import sys\n"
            "from orya.cli import main\n"
            f"code = main(['--universe', {str(store)!r}, '--format', 'json', *{command!r}])\n"
            "loaded = {'orya.orchestrator', 'orya.selection', 'orya.simharness', 'orya.service', 'socketserver'}\n"
            "print(code, sorted(loaded & set(sys.modules)), file=sys.stderr)\n"
        )
        src = str(Path(orya.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=60)
        assert out.stderr.strip().splitlines()[-1] == "0 []"


class TestSimulate:
    def test_scenario_passes(self, store, capsys):
        code = main(["--format", "json", "simulate", str(SCENARIO_DIR / "basic_push.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["passed"]

    def test_failing_scenario_exits_1(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "basic_push.json").read_text())
        doc["expects"] = [
            {"expect": "lifecycle", "site": "site2", "unit": "editor-1.2", "state": "ACTIVE"}
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1

    def test_missing_scenario_file(self, capsys):
        assert main(["simulate", "/nonexistent.json"]) == 2


def test_printers_leave_a_push_response_unchanged(tmp_path, capsys):
    """Sites with equal properties share their outcomes' report fragments, so
    a printer that wrote one in place would change every site's answer."""
    linux, win = {"os": "linux", "disk.free": "10GB"}, {"os": "win", "disk.free": "10GB"}
    sites = {"l1": (linux, ()), "l2": (linux, ()), "w1": (win, ()), "w2": (win, ())}
    init_universe(tmp_path / "u", make_enterprise(sites))
    engine = svc.LocalEngine(tmp_path / "u")
    for version, constraints in (("1.0", ['os = "linux"']), ("2.0", ['os = "linux"', "ram >= 1GB"])):
        unit = make_unit(f"ed-{version}", product="editor", version=version, constraints=constraints)
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": unit_to_json(unit)})["ok"]
    resp = engine.handle({"op": "deploy", "product": "editor", "group": "all", "dry_run": True})
    entries = {e["site"]: e["selection"]["candidates"] for e in resp["report"]["entries"]}
    assert entries["w1"][0]["constraints"] is entries["w2"][0]["constraints"]
    assert entries["w1"][0]["constraints"]["reasons"]
    before = json.dumps(resp, sort_keys=True)
    for fmt in ("json", "text"):
        _emit(resp, fmt)
    capsys.readouterr()
    assert json.dumps(resp, sort_keys=True) == before


def push_answer(root, sites):
    """The answer of a dry-run push to ``sites`` sites, each entry with its
    selection report."""
    init_universe(root, make_enterprise({f"s{i}": ({"os": "linux", "disk.free": "10GB"}, ()) for i in range(sites)}))
    engine = svc.LocalEngine(root)
    for version, constraints in (("1.0", ['os = "linux"']), ("2.0", ['os = "linux"', "ram >= 1GB"])):
        unit = make_unit(f"ed-{version}", product="editor", version=version, constraints=constraints)
        assert engine.handle({"op": "publish", "server": "srv1", "manifest": unit_to_json(unit)})["ok"]
    return engine.handle({"op": "deploy", "product": "editor", "group": "all", "dry_run": True})


class TestJsonOutput:
    def test_the_bytes_are_those_of_json_dumps(self, tmp_path, capsys):
        resp = push_answer(tmp_path / "u", 4)
        assert len(resp["report"]["entries"]) == 4
        assert _emit(resp, "json") == 0
        assert capsys.readouterr().out == json.dumps(resp, sort_keys=True, indent=2) + "\n"

    def test_the_answer_is_written_as_it_is_encoded(self, tmp_path, monkeypatch):
        """No copy of the whole text is held: the peak is a small share of it
        (``json.dumps`` with ``indent`` holds every chunk, over five times
        the text)."""
        resp = push_answer(tmp_path / "u", 300)

        class Sink:
            size = 0

            def write(self, text):
                self.size += len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            _emit(resp, "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.size == len(json.dumps(resp, sort_keys=True, indent=2)) + 1
        assert peak < sink.size / 4, (peak, sink.size)
