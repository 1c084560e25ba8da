import json
import random
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import make_enterprise, make_unit
from orya import orchestrator as orch
from orya.cli import main
from orya.errors import OryaError, StepFailure
from orya.model import Machine, MachineKind, lookup_machine
from orya.process import Activity, ActivityKind, ExecutionContext, LifecycleState
from orya.simharness import (
    Fault,
    SimulatedSite,
    VirtualClock,
    build_fleet,
    inject,
    run_scenario,
    sync_properties,
)
from orya.service import LocalEngine
from orya.units import unit_to_json
from orya.universe import Store, empty_universe, init_universe, publish_unit
from orya.values import Size

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def fresh_site(props=None, units=None):
    clock = VirtualClock()
    machine = Machine("s1", MachineKind.CLIENT_SITE, props or {"disk.free": Size.parse("1GB")})
    site = SimulatedSite(machine, clock, [])
    return site, clock


def ctx_for(unit, **params):
    return ExecutionContext(deployment_id="d", unit=unit, params={"unit_id": unit.id, **params})


class TestClockAndLog:
    def test_clock_ticks_per_primitive(self):
        site, clock = fresh_site()
        unit = make_unit("u")
        before = clock.tick
        site.run_primitive("root.0", Activity.make(ActivityKind.INSTALL), ctx_for(unit))
        assert clock.tick == before + 1

    def test_call_log_records_role_calls(self):
        site, _ = fresh_site()
        site.get_properties()
        site.get_constraints()
        assert [e.method for e in site.call_log] == ["get_properties", "get_constraints"]


class TestSnapshotRestore:
    def test_bit_exact_round_trip(self):
        site, _ = fresh_site({"os": "linux", "disk.free": Size.parse("1GB")})
        unit = make_unit("u", footprint=100, resources=[("r", 100, "dig")])
        snap = site.snapshot()
        ctx = ctx_for(unit, _payload=None)
        site.run_primitive("root.0", Activity.make(ActivityKind.TRANSFER, resource="r"), ctx)
        site.run_primitive("root.1", Activity.make(ActivityKind.INSTALL), ctx)
        assert site.snapshot() != snap
        site.restore(snap)
        assert site.snapshot() == snap
        assert site.units == {}

    def test_compensated_configure_and_update_restore_snapshot(self):
        site, _ = fresh_site({"disk.free": Size.parse("1GB")})
        old = make_unit("old", footprint=300, resources=[("r", 300, "d")])
        new = make_unit("new", version="2.0", footprint=500, resources=[("r", 500, "e")])
        ctx = ctx_for(old, _payload=None)
        site.run_primitive("p0", Activity.make(ActivityKind.TRANSFER, resource="r"), ctx)
        site.run_primitive("p1", Activity.make(ActivityKind.INSTALL), ctx)

        configure = Activity.make(ActivityKind.CONFIGURE, params={"a": "1"})
        snap = site.snapshot()
        token = site.run_primitive("p2", configure, ctx)
        assert site.units["old"].config == (("a", "1"),)
        site.compensate("p2", configure, token, ctx)
        assert site.snapshot() == snap

        update = Activity.make(ActivityKind.UPDATE, unit="new")
        ctx.params["_new_unit"] = new
        token = site.run_primitive("p3", update, ctx)
        assert set(site.units) == {"new"} and site.snapshot() != snap
        site.compensate("p3", update, token, ctx)
        assert site.snapshot() == snap
        assert ctx.params["unit_id"] == "old"

    def test_compensated_copy_restores_snapshot(self):
        site, _ = fresh_site()
        unit = make_unit("u", resources=[("r", 10, "d")])
        ctx = ctx_for(unit, _payload=None)
        site.run_primitive("p0", Activity.make(ActivityKind.TRANSFER, resource="r"), ctx)
        site.run_primitive("p1", Activity.make(ActivityKind.INSTALL), ctx)
        for dst in ("etc/u.conf", "installed/u/r"):  # a new file, then one that exists
            copy = Activity.make(ActivityKind.COPY, **{"from": "installed/u/r", "to": dst})
            snap = site.snapshot()
            token = site.run_primitive("p2", copy, ctx)
            assert site.files[dst] == site.files["installed/u/r"]
            site.compensate("p2", copy, token, ctx)
            assert site.snapshot() == snap

    def test_snapshot_is_a_copy(self):
        site, _ = fresh_site()
        snap = site.snapshot()
        site.set_property("os", "linux")
        assert "os" not in snap["properties"]


class TestConservation:
    def test_disk_changes_only_by_footprint(self):
        site, _ = fresh_site({"disk.free": Size.parse("1GB")})
        unit = make_unit("u", footprint=300, resources=[("r", 300, "d")])
        ctx = ctx_for(unit, _payload=None)
        free = lambda: site.properties["disk.free"].count

        start = free()
        site.run_primitive("p0", Activity.make(ActivityKind.TRANSFER, resource="r"), ctx)
        assert free() == start  # staging is not accounted
        site.run_primitive("p1", Activity.make(ActivityKind.INSTALL), ctx)
        assert free() == start - 300
        site.run_primitive("p2", Activity.make(ActivityKind.ACTIVATE), ctx)
        site.run_primitive("p3", Activity.make(ActivityKind.DEACTIVATE), ctx)
        site.run_primitive("p4", Activity.make(ActivityKind.CONFIGURE, params={"a": "b"}), ctx)
        assert free() == start - 300  # neutral activities conserve
        site.run_primitive("p5", Activity.make(ActivityKind.UNINSTALL), ctx)
        assert free() == start

    def test_update_applies_footprint_delta(self):
        site, _ = fresh_site({"disk.free": Size.parse("1GB")})
        old = make_unit("old", footprint=300)
        new = make_unit("new", version="2.0", footprint=500)
        ctx = ctx_for(old)
        site.run_primitive("p0", Activity.make(ActivityKind.INSTALL), ctx)
        start = site.properties["disk.free"].count
        ctx.params["_new_unit"] = new
        site.run_primitive("p1", Activity.make(ActivityKind.UPDATE, unit="new"), ctx)
        assert site.properties["disk.free"].count == start - 200
        assert ctx.params["unit_id"] == "new"

    def test_disk_floors_at_zero(self):
        site, _ = fresh_site({"disk.free": Size(100)})
        unit = make_unit("u", footprint=500)
        site.run_primitive("p0", Activity.make(ActivityKind.INSTALL), ctx_for(unit))
        assert site.properties["disk.free"] == Size(0)


class TestFaults:
    def test_fault_by_kind_and_occurrence(self):
        site, _ = fresh_site()
        site.arm(Fault(site_id="s1", match="configure", occurrence=2))
        unit = make_unit("u")
        ctx = ctx_for(unit)
        site.run_primitive("p0", Activity.make(ActivityKind.INSTALL), ctx)
        site.run_primitive("p1", Activity.make(ActivityKind.CONFIGURE, params={}), ctx)
        with pytest.raises(StepFailure):
            site.run_primitive("p2", Activity.make(ActivityKind.CONFIGURE, params={}), ctx)

    def test_fault_by_path(self):
        site, _ = fresh_site()
        site.arm(Fault(site_id="s1", match="root.3"))
        with pytest.raises(StepFailure):
            site.run_primitive("root.3", Activity.make(ActivityKind.INSTALL), ctx_for(make_unit("u")))

    def test_hang_then_fail_burns_clock(self):
        site, clock = fresh_site()
        site.arm(Fault(site_id="s1", match="install", mode="HANG_THEN_FAIL"))
        before = clock.tick
        with pytest.raises(StepFailure):
            site.run_primitive("p", Activity.make(ActivityKind.INSTALL), ctx_for(make_unit("u")))
        assert clock.tick >= before + 6  # 1 for the step, 5 for the hang

    def test_occurrence_must_be_positive(self):
        with pytest.raises(ValueError):
            Fault(site_id="s1", match="install", occurrence=0)

    def test_inject_unknown_site(self):
        u = replace(empty_universe(), enterprise=make_enterprise({"s1": ({}, ())}))
        fleet = build_fleet(u)
        with pytest.raises(Exception):
            inject(fleet, [Fault(site_id="ghost", match="install")])


class TestVerifyPrimitive:
    def test_verify_against_site_properties(self):
        site, _ = fresh_site({"os": "linux"})
        unit = make_unit("u")
        ctx = ctx_for(unit)
        site.run_primitive("p0", Activity.make(ActivityKind.INSTALL), ctx)
        site.run_primitive("p1", Activity.make(ActivityKind.VERIFY, expr='os = "linux"'), ctx)
        with pytest.raises(StepFailure):
            site.run_primitive("p2", Activity.make(ActivityKind.VERIFY, expr='os = "win"'), ctx)


class TestLifecycleEnforcement:
    def test_illegal_primitive_raises(self):
        site, _ = fresh_site()
        unit = make_unit("u")
        with pytest.raises(Exception):
            site.run_primitive("p", Activity.make(ActivityKind.ACTIVATE), ctx_for(unit))

    def test_states_tracked_per_unit(self):
        site, _ = fresh_site()
        unit = make_unit("u")
        ctx = ctx_for(unit)
        site.run_primitive("p0", Activity.make(ActivityKind.INSTALL), ctx)
        assert site.units["u"].state == LifecycleState.INSTALLED.value
        site.run_primitive("p1", Activity.make(ActivityKind.ACTIVATE), ctx)
        assert site.units["u"].state == LifecycleState.ACTIVE.value


class TestSiteModel:
    def test_built_fleet_state_round_trips(self):
        sites = {f"s{i}": ({"os": "linux", "disk.free": "10GB"}, ()) for i in range(3)}
        u = replace(empty_universe(), enterprise=make_enterprise(sites))
        lib = make_unit("a-1", resources=[("r", 5, "x")], provides=[("liba", "1.0")])
        u = publish_unit(u, "srv1", lib)
        u = publish_unit(u, "srv1", make_unit("b-1", product="b", requires=[("liba", "1.0")]))
        for product, target in (("prod", "all"), ("b", ("s0", "s2"))):
            request = orch.DeployRequest(target=target, product_id=product)
            u, _ = orch.push_deploy(u, request, build_fleet(u))
        assert [len(u.site_states[s].deployed_units) for s in sorted(sites)] == [2, 1, 2]
        for site_id, state in u.site_states.items():
            assert build_fleet(u).sites[site_id].get_state() == state

    def test_sites_hold_the_enterprise_machines(self):
        sites = {f"s{i}": ({"disk.free": "10GB"}, ('exists(os)',)) for i in range(3)}
        u = replace(empty_universe(), enterprise=make_enterprise(sites))
        fleet = build_fleet(u)
        machines = {m.id: m for m in u.enterprise.machines}
        assert all(site.machine is machines[sid] for sid, site in fleet.sites.items())
        assert sync_properties(u, fleet) is u

        fleet.sites["s1"].set_property("os", "linux")
        assert machines["s1"].properties == {"disk.free": Size.parse("10GB")}
        synced = sync_properties(u, fleet)
        changed = [m.id for m in synced.enterprise.machines if m is not machines[m.id]]
        assert changed == ["s1"]
        s1 = lookup_machine(synced.enterprise, "s1")
        assert s1.properties["os"] == "linux"
        assert s1.standing_constraints == ("exists(os)",) and s1.group_ids == ("all",)


class TestScenarios:
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
    )
    def test_corpus_passes(self, name):
        report = run_scenario(SCENARIO_DIR / name)
        failed = [r for r in report.results if not r.passed]
        assert not failed, json.dumps([r.to_json() for r in failed], indent=2)

    def test_determinism_same_digest_and_log(self):
        path = SCENARIO_DIR / "basic_push.json"
        r1 = run_scenario(path)
        r2 = run_scenario(path)
        assert r1.universe_digest == r2.universe_digest

    def test_refused_step_stops_the_run(self, tmp_path, capsys):
        doc = json.loads((SCENARIO_DIR / "basic_push.json").read_text())
        doc["script"].append({"id": "bad", "cmd": "deploy", "product": "ghost", "sites": ["site1"]})
        with pytest.raises(OryaError) as exc:
            run_scenario(doc)
        assert exc.value.code == "UNKNOWN_PRODUCT"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error [UNKNOWN_PRODUCT]: product 'ghost' not in any catalog\n"
        )

    def test_deactivate_step(self):
        doc = json.loads((SCENARIO_DIR / "basic_push.json").read_text())
        doc["script"].append(
            {"id": "off", "cmd": "deactivate", "site": "site1", "unit": "editor-1.2"}
        )
        doc["expects"] = [
            {"expect": "outcome", "step": "off", "site": "site1", "value": "DEACTIVATED"},
            {"expect": "lifecycle", "site": "site1", "unit": "editor-1.2", "state": "INSTALLED"},
        ]
        report = run_scenario(doc)
        assert report.passed, json.dumps(report.to_json())

    def test_failed_expectation_reported(self):
        doc = json.loads((SCENARIO_DIR / "basic_push.json").read_text())
        doc["expects"] = [
            {"expect": "lifecycle", "site": "site2", "unit": "editor-1.2", "state": "ACTIVE"}
        ]
        report = run_scenario(doc)
        assert not report.passed
        assert "ABSENT" in report.results[0].detail


# ---------------------------------------------------------------------------
# A write op's fleet: its one site, the app servers and the same answers


class FullFleetEngine(LocalEngine):
    """The reference: every write op runs on the whole fleet, and a pull
    scans every record for the site's history."""

    def _fleet(self, u, site_ids=None):
        return build_fleet(u)

    def _site_op(self, name, site, target, **options):
        if "store" in options:
            options["store"] = None
        return super()._site_op(name, site, target, **options)


def store_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def fleet_store(root: Path) -> None:
    """Six sites s0..s5 with s0-s3 deployed, two servers, a product with a
    newer version and an update that needs more ram."""
    sites = {
        f"s{i}": ({"os": "linux", "ram": f"{2 + 2 * (i % 3)}GB", "disk.free": "100GB"}, ())
        for i in range(6)
    }
    init_universe(root, make_enterprise(sites, servers=("srv1", "srv2")))
    engine = LocalEngine(root)
    manifests = [
        ("srv1", make_unit("ed-1", product="ed", version="1.0", resources=[("bin", 5, "x")])),
        ("srv1", make_unit("lib-1", product="lib", provides=[("liblib", "1.0")])),
        ("srv2", make_unit("app-1", product="app", requires=[("liblib", "1.0")])),
    ]
    for server, unit in manifests:
        assert engine.handle({"op": "publish", "server": server, "manifest": unit_to_json(unit)})["ok"]
    for product in ("ed", "lib", "app"):
        req = {"op": "deploy", "product": product, "sites": ["s0", "s1", "s2", "s3"]}
        assert engine.handle(req)["ok"]
    for server, unit in (
        ("srv2", make_unit("ed-2", product="ed", version="2.0", constraints=["ram >= 4GB"])),
        ("srv1", make_unit("ed-3", product="ed", version="3.0", constraints=["ram >= 6GB"])),
    ):
        assert engine.handle({"op": "publish", "server": server, "manifest": unit_to_json(unit)})["ok"]


def count_sites_built(monkeypatch) -> list:
    built, init = [], SimulatedSite.__init__

    def counted(site, machine, *args, **kwargs):
        built.append(machine.id)
        init(site, machine, *args, **kwargs)

    monkeypatch.setattr(SimulatedSite, "__init__", counted)
    return built


class TestOneSiteFleet:
    """A single-site op builds only its site: its answers, the store's
    files and the digest are those of the same op on the whole fleet."""

    @pytest.mark.parametrize("seed", range(4))
    def test_answers_and_store_match_the_full_fleet(self, tmp_path, monkeypatch, seed):
        fleet_store(tmp_path / "one")
        shutil.copytree(tmp_path / "one", tmp_path / "full")
        one, full = LocalEngine(tmp_path / "one"), FullFleetEngine(tmp_path / "full")
        built = count_sites_built(monkeypatch)
        rng = random.Random(seed)
        client_sites = ("s0", "s1", "s2", "s3", "s4")
        for _ in range(80):
            site = rng.choice(client_sites + ("nowhere", "srv1"))
            state = one.universe.site_states.get(site)
            on_site = {du.unit_id: du.state for du in state.deployed_units} if state else {}
            unit = rng.choice(sorted(on_site) + ["ghost"]) if rng.random() < 0.9 else "ed-1"
            op = rng.choice(["toggle", "toggle", "pull", "set_prop", "set_prop", "undeploy", "deploy"])
            if op == "toggle":
                legal = "deactivate" if on_site.get(unit) == "ACTIVE" else "activate"
                flip = {"activate": "deactivate", "deactivate": "activate"}
                req = {"op": legal if rng.random() < 0.8 else flip[legal], "site": site, "unit": unit}
            elif op == "undeploy":
                req = {"op": op, "site": site, "unit": unit, "force": rng.random() < 0.5}
            elif op == "pull":
                req = {"op": op, "site": site, "product": rng.choice(["ed", "ed", "lib", "ghost"])}
            elif op == "deploy":  # both engines push on the whole fleet
                product = rng.choice(["ed", "lib", "app"])
                req = {"op": op, "product": product, "sites": [f"s{i}" for i in range(5)]}
            else:
                req = {"op": op, "site": site, "name": "ram", "apply": rng.random() < 0.5}
                if rng.random() < 0.15:
                    req["remove"] = True
                else:
                    req["value"] = rng.choice(["2GB", "4GB", "6GB", "8GB"])
            del built[:]
            answer = one.handle(req)
            if op == "deploy":
                assert len(built) == 6, req
            else:
                assert built == ([site] if site in client_sites else []), req
            assert answer == full.handle(req), req
            assert one.handle({"op": "digest"}) == full.handle({"op": "digest"})
        assert store_files(tmp_path / "one") == store_files(tmp_path / "full")

    def test_a_site_op_builds_one_site(self, tmp_path, monkeypatch):
        fleet_store(tmp_path / "u")
        engine = LocalEngine(tmp_path / "u")
        built = count_sites_built(monkeypatch)
        for req in (
            {"op": "deactivate", "site": "s1", "unit": "ed-1"},
            {"op": "activate", "site": "s1", "unit": "ed-1"},
            {"op": "pull", "site": "s2", "product": "ed"},
            {"op": "set_prop", "site": "s3", "name": "ram", "value": "2GB", "apply": True},
            {"op": "undeploy", "site": "s0", "unit": "app-1"},
        ):
            del built[:]
            assert engine.handle(req)["ok"], req
            assert built == [req["site"]], req
        del built[:]
        assert engine.handle({"op": "deploy", "product": "ed", "group": "all"})["ok"]
        assert sorted(built) == [f"s{i}" for i in range(6)]  # a push builds every site

    @pytest.mark.parametrize(
        "req",
        [
            {"op": "activate", "site": "nowhere", "unit": "ed-1"},
            {"op": "undeploy", "site": "srv1", "unit": "ed-1"},
            {"op": "pull", "site": "srv2", "product": "ed"},
            {"op": "pull", "site": "s4", "product": "ed"},
            {"op": "pull", "site": "s0", "product": "ghost"},
            {"op": "set_prop", "site": "nowhere", "name": "ram", "value": "2GB"},
            {"op": "set_prop", "site": "srv1", "name": "ram", "value": "2GB"},
        ],
    )
    def test_unknown_sites_and_servers_answer_as_before(self, tmp_path, req):
        fleet_store(tmp_path / "u")
        engine = LocalEngine(tmp_path / "u")
        before = store_files(tmp_path / "u")
        answer = engine.handle(req)
        if req["op"] == "pull":
            message = f"product {req['product']!r} was never deployed to {req['site']!r}"
            expected = ("NOT_DEPLOYED", message)
        elif req["op"] == "set_prop":
            expected = ("UNKNOWN_TARGET", "unknown machine 'nowhere'" if req["site"] == "nowhere"
                        else "machine 'srv1' is not a client site")
        else:  # the fleet has no site of that id
            expected = ("USAGE", repr(req["site"]))
        assert answer == {"ok": False, "error": {"code": expected[0], "message": expected[1]}}
        assert store_files(tmp_path / "u") == before

    def test_a_warm_pull_reads_the_sites_record_ids(self, tmp_path, monkeypatch):
        fleet_store(tmp_path / "u")
        engine = LocalEngine(tmp_path / "u")
        read, site_ids = [], Store._site_ids

        def spy(store, site):
            read.append(site)
            return site_ids(store, site)

        monkeypatch.setattr(Store, "_site_ids", spy)
        assert engine.handle({"op": "pull", "site": "s1", "product": "ed"})["ok"]
        answer = engine.handle({"op": "pull", "site": "s4", "product": "ed"})
        assert answer["error"]["code"] == "NOT_DEPLOYED"
        assert read == ["s1", "s4"]


def duplicate_id_store(root: Path, kinds) -> LocalEngine:
    """Machines a, then x once for each of ``kinds`` in order, then srv1."""
    machines = [Machine("a", MachineKind.CLIENT_SITE, {"ram": Size.parse("2GB")})]
    machines += [Machine("x", kind, {"ram": Size.parse("2GB")}) for kind in kinds]
    machines.append(Machine("srv1", MachineKind.APP_SERVER))
    enterprise = replace(make_enterprise({}), machines=tuple(machines), groups=(), users=())
    init_universe(root, enterprise)
    return LocalEngine(root)


class TestDuplicateMachineIds:
    """An id names the last machine with that id, for every reader; a
    property change folds back into that one position."""

    def test_a_client_site_after_an_app_server_takes_the_id(self, tmp_path):
        engine = duplicate_id_store(tmp_path / "u", (MachineKind.APP_SERVER, MachineKind.CLIENT_SITE))
        before = engine.universe.enterprise.machines
        answer = engine.handle({"op": "set_prop", "site": "x", "name": "ram", "value": "8GB"})
        assert answer["ok"] and answer["noop"] is False, answer
        after = LocalEngine(tmp_path / "u").universe.enterprise.machines
        assert [m.kind for m in after] == [m.kind for m in before]
        assert after[1] == before[1]  # the app server is untouched
        assert after[2].properties["ram"] == Size.parse("8GB")
        fleet = build_fleet(engine.universe)
        assert fleet.sites["x"].machine is engine.universe.enterprise.machines[2]
        assert sorted(fleet.servers) == ["srv1"]

    def test_an_app_server_after_a_client_site_takes_the_id(self, tmp_path):
        engine = duplicate_id_store(tmp_path / "u", (MachineKind.CLIENT_SITE, MachineKind.APP_SERVER))
        before = store_files(tmp_path / "u")
        answer = engine.handle({"op": "set_prop", "site": "x", "name": "ram", "value": "8GB"})
        assert answer == {
            "ok": False,
            "error": {"code": "UNKNOWN_TARGET", "message": "machine 'x' is not a client site"},
        }
        assert store_files(tmp_path / "u") == before
        fleet = build_fleet(engine.universe)
        assert sorted(fleet.sites) == ["a"] and sorted(fleet.servers) == ["srv1", "x"]

    def test_two_client_sites_fold_back_into_the_last(self, tmp_path):
        engine = duplicate_id_store(tmp_path / "u", (MachineKind.CLIENT_SITE, MachineKind.CLIENT_SITE))
        before = engine.universe.enterprise.machines
        assert engine.handle({"op": "set_prop", "site": "x", "name": "ram", "value": "8GB"})["ok"]
        after = engine.universe.enterprise.machines
        assert after[:2] == before[:2] and after[1] is before[1]
        assert after[2].properties["ram"] == Size.parse("8GB")
        assert lookup_machine(engine.universe.enterprise, "x") is after[2]
