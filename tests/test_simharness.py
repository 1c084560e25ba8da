import json
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
from orya.universe import empty_universe, publish_unit
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
