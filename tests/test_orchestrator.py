import random
from dataclasses import replace

import pytest

from collections import Counter

from conftest import make_enterprise, make_unit
from orya import expr as expr_mod
from orya import orchestrator as orch
from orya.errors import NotDeployedError, UnknownProductError, UnknownUnitError
from orya.process import Activity, ActivityKind, ProcessDef, Seq, StepOutcome
from orya.report import status
from orya.safety import ConflictKind
from orya.simharness import Fault, build_fleet, inject
from orya.model import ClientSiteState, DeployedUnit
from orya.universe import empty_universe, publish_unit, set_site_state, universe_digest
from orya.values import Size, Version


def make_universe(sites, units, servers=("srv1",)):
    u = replace(empty_universe(), enterprise=make_enterprise(sites, servers=servers))
    for server, unit in units:
        u = publish_unit(u, server, unit)
    return u


LINUX = {"os": "linux", "disk.free": "10GB"}
WIN = {"os": "win", "disk.free": "10GB"}


def linux_unit(unit_id="ed-1.0", version="1.0", **kw):
    kw.setdefault("constraints", ['os = "linux"'])
    kw.setdefault("resources", [("bin", 10**6, "x")])
    kw.setdefault("footprint", 10**6)
    return make_unit(unit_id, product="editor", version=version, **kw)


def deploy(u, fleet, sites=("s1",), product="editor", **kw):
    req = orch.DeployRequest(target=tuple(sites), product_id=product, **kw)
    return orch.push_deploy(u, req, fleet)


class TestPushDeploy:
    def test_partition_by_constraint(self):
        u = make_universe({"s1": (LINUX, ()), "s2": (WIN, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, report = deploy(u, fleet, sites=("s1", "s2"))
        by_site = {e.site_id: e for e in report.entries}
        assert by_site["s1"].outcome == "DEPLOYED"
        assert by_site["s2"].outcome == "SKIPPED"
        assert by_site["s2"].reason == "NO_ADMISSIBLE"
        cand = by_site["s2"].selection.candidates[0]
        assert any(r.code == "FALSE_CLAUSE" for r in cand.constraint_outcome.reasons)
        assert report.summary == {"DEPLOYED": 1, "SKIPPED": 1}

    def test_deployed_site_state_and_record(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, report = deploy(u, fleet)
        assert report.entries[0].record_id == "d000000"
        state = u.site_states["s1"]
        assert state.deployed_units[0].unit_id == "ed-1.0"
        assert state.deployed_units[0].state == "ACTIVE"
        assert state.products == ("editor",)
        assert fleet.sites["s1"].properties["disk.free"] == Size(10**10 - 10**6)

    def test_dry_run_purity(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        before = universe_digest(u)
        snap = fleet.sites["s1"].snapshot()
        u2, report = deploy(u, fleet, dry_run=True)
        assert report.entries[0].outcome == "WOULD_DEPLOY"
        assert universe_digest(u2) == before
        assert fleet.sites["s1"].snapshot() == snap

    def test_unknown_product(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        with pytest.raises(UnknownProductError):
            deploy(u, build_fleet(u), product="ghost")

    def test_group_target(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, report = orch.push_deploy(
            u, orch.DeployRequest(target="all", product_id="editor"), fleet
        )
        assert report.entries[0].outcome == "DEPLOYED"

    def test_idempotent_redeploy(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        u, report = deploy(u, fleet)
        assert report.entries[0].outcome == "SKIPPED"
        assert report.entries[0].reason == "ALREADY_DEPLOYED"

    def test_per_site_fault_isolation(self):
        u = make_universe(
            {"s1": (LINUX, ()), "s2": (LINUX, ())}, [("srv1", linux_unit())]
        )
        fleet = build_fleet(u)
        inject(fleet, [Fault(site_id="s1", match="install")])
        u, report = deploy(u, fleet, sites=("s1", "s2"))
        by_site = {e.site_id: e for e in report.entries}
        assert by_site["s1"].outcome == "ROLLED_BACK"
        assert by_site["s2"].outcome == "DEPLOYED"

    def test_dedupe_across_servers_first_in_id_order(self):
        unit_a = linux_unit()
        unit_b = replace(linux_unit(), footprint=Size(5))  # same id, other server
        u = make_universe(
            {"s1": (LINUX, ())},
            [("srv1", unit_a), ("srv2", unit_b)],
            servers=("srv1", "srv2"),
        )
        fleet = build_fleet(u)
        u, report = deploy(u, fleet)
        assert report.entries[0].outcome == "DEPLOYED"
        # srv1 sorts first, so its copy (1MB footprint) won
        assert u.site_states["s1"].deployed_units[0].footprint == Size(10**6)


STANDING = "disk.free >= 1MB"


def mixed_fleet(n=4):
    """``n`` linux and ``n`` windows sites sharing one standing constraint, and
    three candidates: two that only linux admits and one that only windows does."""
    sites = {f"l{i}": (LINUX, (STANDING,)) for i in range(n)}
    sites.update({f"w{i}": (WIN, (STANDING,)) for i in range(n)})
    units = [
        ("srv1", linux_unit("ed-1.0", constraints=['os = "linux"', "disk.free >= 2MB"])),
        ("srv1", linux_unit("ed-1.1", version="1.1", constraints=['os = "linux"', "exists(os)"])),
        ("srv1", linux_unit("ed-w", constraints=['os = "win"'])),
    ]
    return make_universe(sites, units), 2 * n


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(arg):
        calls.append(arg)
        return original(arg)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestUnitWorkOncePerPush:
    def test_each_chosen_unit_is_validated_once(self, monkeypatch):
        u, n_sites = mixed_fleet()
        validated = counting(monkeypatch, orch, "validate_process")
        fleet = build_fleet(u)
        u, report = deploy(u, fleet, sites=tuple(sorted(fleet.sites)))
        assert report.summary == {"DEPLOYED": n_sites}
        assert sorted(p.id for p in validated) == ["ed-1.1.install", "ed-w.install"]

    def test_each_text_is_parsed_once_per_value(self, monkeypatch):
        u, n_sites = mixed_fleet()
        fleet = build_fleet(u)
        monkeypatch.setattr(expr_mod, "_parsed", {})
        parsed = Counter()
        monkeypatch.setattr(
            expr_mod,
            "parse_expression",
            lambda text, parse=expr_mod.parse_expression: parsed.update([text]) or parse(text),
        )
        u, report = deploy(u, fleet, sites=tuple(sorted(fleet.sites)))
        assert report.summary == {"DEPLOYED": n_sites}
        # One tree per distinct text, whatever the number of sites and
        # candidates that read it: the standing text, the units' constraints
        # (the table was emptied after they were published) and each chosen
        # unit's verify.
        assert parsed == Counter(
            [STANDING, 'os = "linux"', "disk.free >= 2MB", "exists(os)", 'os = "win"']
            + ['os = "linux" and exists(os)']
        )

    def test_unit_text_is_parsed_once_per_unit(self, monkeypatch):
        unit = linux_unit(constraints=['os = "linux"', "exists(os)"])
        parsed = counting(monkeypatch, expr_mod, "parse_expression")
        u = make_universe({f"s{i}": (LINUX, ()) for i in range(3)}, [("srv1", unit)])
        deploy(u, build_fleet(u), sites=("s0", "s1", "s2"))
        assert parsed.count('os = "linux"') == 1
        assert parsed.count("exists(os)") == 1

    def test_a_second_push_reuses_the_unit_trees(self, monkeypatch):
        u, _ = mixed_fleet()
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet, sites=("l0",))
        parsed = counting(monkeypatch, expr_mod, "parse_expression")
        deploy(u, fleet, sites=("w0",))
        assert 'os = "linux"' not in parsed

    def test_standing_trees_live_with_the_site_machine(self, monkeypatch):
        u, n_sites = mixed_fleet()
        fleet = build_fleet(u)
        sites = tuple(sorted(fleet.sites))
        deploy(u, fleet, sites=sites, dry_run=True)
        parsed = counting(monkeypatch, expr_mod, "parse_expression")
        del fleet.call_log[:]
        _, report = deploy(u, fleet, sites=sites, dry_run=True)
        assert report.summary == {"WOULD_DEPLOY": n_sites}
        assert STANDING not in parsed
        # The view is still read through the sites' role calls.
        for method in ("get_properties", "get_constraints"):
            assert sorted(e.actor for e in fleet.call_log if e.method == method) == list(sites)

    def test_invalid_process_fails_every_site_that_chooses_it(self, monkeypatch):
        bad = ProcessDef(
            "ed-1.0.bad",
            Seq((Activity.make(ActivityKind.ACTIVATE), Activity.make(ActivityKind.ACTIVATE))),
        )
        u = make_universe(
            {f"s{i}": (LINUX, ()) for i in range(3)} | {"w": (WIN, ())},
            [("srv1", linux_unit(process=bad))],
        )
        validated = counting(monkeypatch, orch, "validate_process")
        u, report = deploy(u, build_fleet(u), sites=("s0", "s1", "s2", "w"))
        outcomes = {e.site_id: (e.outcome, e.reason) for e in report.entries}
        assert outcomes == {
            "s0": ("FAILED", "INVALID_PROCESS"),
            "s1": ("FAILED", "INVALID_PROCESS"),
            "s2": ("FAILED", "INVALID_PROCESS"),
            "w": ("SKIPPED", "NO_ADMISSIBLE"),
        }
        assert validated == [bad]
        assert not u.deployments


def top_level_evaluations(monkeypatch):
    """Every outermost ``expr.evaluate`` call, as (printed expression, typed
    values of the properties it reads)."""
    calls = []
    depth = [0]
    original = expr_mod.evaluate

    def counted(tree, props):
        if not depth[0]:
            names = sorted(expr_mod.names_read(tree))
            values = tuple((n, type(props.get(n)), props.get(n)) for n in names)
            calls.append((expr_mod.print_expression(tree), values))
        depth[0] += 1
        try:
            return original(tree, props)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(expr_mod, "evaluate", counted)
    return calls


class TestOneEvaluationPerInput:
    def test_each_text_is_evaluated_once_per_projection_on_200_sites(self, monkeypatch):
        rng = random.Random(12)
        sites = {}
        for i in range(200):
            props = {
                "os": rng.choice(["linux", "win", "mac"]),
                "tier": rng.choice([1, 2, 3, True]),
                "disk.free": rng.choice(["1GB", "3GB", "20GB"]),
            }
            if rng.random() < 0.7:
                props["ram"] = rng.choice(["2GB", "8GB", "16GB"])
            standing = rng.choice([("disk.free >= 2GB",), ("ram >= 4GB", "tier <= 2"), ()])
            sites[f"s{i:03d}"] = (props, standing)
        pool = ['os = "linux"', "tier >= 2", "tier = true", "ram >= 4GB", "exists(ram)",
                'os != "win" or tier = 1']
        units = [
            ("srv1", linux_unit(f"ed-{k}", constraints=rng.sample(pool, rng.randrange(3)),
                                footprint=rng.choice([10**8, 10**9]),
                                properties={"channel": rng.choice(["stable", "beta"])}))
            for k in range(8)
        ]
        u = make_universe(sites, units)
        calls = top_level_evaluations(monkeypatch)
        _, report = deploy(u, build_fleet(u), sites=tuple(sorted(sites)), dry_run=True,
                           extra_filters=('channel = "stable"',))
        assert len(report.entries) == 200
        assert calls and max(Counter(calls).values()) == 1
        assert len(calls) < len(sites)  # 43: fewer evaluations than sites

    def test_an_extra_filter_is_evaluated_once_per_unit_not_per_site(self, monkeypatch):
        units = [
            ("srv1", linux_unit(f"ed-{c}-{i}", constraints=[], properties={"channel": c}))
            for i, c in enumerate(["stable", "beta", "stable"])
        ]
        u = make_universe({f"s{i}": (LINUX, ()) for i in range(20)}, units)
        calls = top_level_evaluations(monkeypatch)
        _, report = deploy(u, build_fleet(u), sites=tuple(f"s{i}" for i in range(20)),
                           dry_run=True, extra_filters=('channel = "stable"',))
        assert report.summary == {"WOULD_DEPLOY": 20}
        # Three units, two distinct channels: two evaluations for 60 checks.
        assert [text for text, _ in calls] == ['channel = "stable"'] * 2


class TestBrokerIsolation:
    def test_sites_never_talk_to_servers(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        deploy(u, fleet)
        site_methods = {e.method for e in fleet.call_log if e.role == "site"}
        server_methods = {e.method for e in fleet.call_log if e.role == "server"}
        assert "fetch_resource" not in site_methods
        assert server_methods <= {"fetch_resource", "list_units", "add_unit", "remove_unit", "unit_info"}

    def test_every_transfer_is_brokered(self):
        u = make_universe(
            {"s1": (LINUX, ())},
            [("srv1", linux_unit(resources=[("a", 1, "x"), ("b", 1, "y")]))],
        )
        fleet = build_fleet(u)
        deploy(u, fleet)
        log = fleet.call_log
        for i, entry in enumerate(log):
            if entry.role == "site" and "transfer" in entry.detail:
                assert any(
                    prev.role == "server" and prev.method == "fetch_resource"
                    for prev in log[max(0, i - 2) : i]
                )


class TestPullUpdate:
    def _deployed(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        return u, fleet

    def test_update_to_newer(self):
        u, fleet = self._deployed()
        u = publish_unit(u, "srv1", linux_unit("ed-2.0", version="2.0"))
        u, report = orch.pull_update(u, "s1", "editor", fleet)
        assert report.entries[0].outcome == "UPDATED"
        units = {du.unit_id: du for du in u.site_states["s1"].deployed_units}
        assert set(units) == {"ed-2.0"}
        assert units["ed-2.0"].state == "ACTIVE"  # re-activated after update

    def test_up_to_date(self):
        u, fleet = self._deployed()
        u, report = orch.pull_update(u, "s1", "editor", fleet)
        assert report.entries[0].outcome == "SKIPPED"
        assert report.entries[0].reason == "UP_TO_DATE"

    def test_older_versions_not_considered(self):
        u, fleet = self._deployed()
        u = publish_unit(u, "srv1", linux_unit("ed-0.9", version="0.9"))
        u, report = orch.pull_update(u, "s1", "editor", fleet)
        assert report.entries[0].reason == "UP_TO_DATE"

    def test_no_admissible_newer_candidate(self):
        u, fleet = self._deployed()
        u = publish_unit(u, "srv1", linux_unit("ed-2.0", version="2.0", constraints=['os = "win"']))
        after, report = orch.pull_update(u, "s1", "editor", fleet)
        [entry] = report.entries
        assert (entry.outcome, entry.reason, entry.selection.chosen) == ("SKIPPED", "UP_TO_DATE", None)
        assert [c.unit_id for c in entry.selection.candidates] == ["ed-2.0"]
        assert after is u

    def test_never_deployed_raises(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        with pytest.raises(NotDeployedError):
            orch.pull_update(u, "s1", "editor", build_fleet(u))


class TestReconfiguration:
    def _universe(self):
        units = [
            ("srv1", linux_unit("ed-full-1.1", version="1.1", constraints=["ram >= 8"])),
            ("srv1", linux_unit("ed-lite-1.0", version="1.0", constraints=[])),
        ]
        return make_universe({"s1": ({**LINUX, "ram": 16}, ())}, units)

    def test_plan_reselect(self):
        u = self._universe()
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        event = fleet.sites["s1"].set_property("ram", 4)
        plan = orch.on_property_change(u, "s1", event, fleet)
        assert not plan.empty
        action = plan.actions[0]
        assert (action.unit_id, action.action, action.replacement) == (
            "ed-full-1.1", "RESELECT", "ed-lite-1.0",
        )

    def test_apply_reselect(self):
        u = self._universe()
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        event = fleet.sites["s1"].set_property("ram", 4)
        u, report = orch.on_property_change(u, "s1", event, fleet, apply=True)
        assert report.entries[0].outcome == "RECONFIGURED"
        units = {du.unit_id for du in u.site_states["s1"].deployed_units}
        assert units == {"ed-lite-1.0"}
        assert u.deployments["d000001"].mode.value == "RECONFIGURE"

    def test_deactivate_when_no_replacement(self):
        u = make_universe(
            {"s1": ({**LINUX, "ram": 16}, ())},
            [("srv1", linux_unit(constraints=["ram >= 8"]))],
        )
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        event = fleet.sites["s1"].set_property("ram", 4)
        plan = orch.on_property_change(u, "s1", event, fleet)
        assert plan.actions[0].action == "DEACTIVATE"

    def test_apply_deactivates_when_no_replacement(self):
        u, fleet = pushed()
        u, report = reconfigured(u, fleet)
        assert [(e.outcome, e.unit_id) for e in report.entries] == [("DEACTIVATED", "ed-1.0")]
        assert u.site_states["s1"].deployed_units[0].state == "INSTALLED"
        assert u.deployments["d000001"].mode.value == "RECONFIGURE"

    def test_apply_leaves_an_installed_unit_with_no_replacement(self):
        u, fleet = deactivated()
        after, report = reconfigured(u, fleet)
        assert [(e.outcome, e.reason, e.unit_id) for e in report.entries] == [("SKIPPED", "NO_ACTION", "ed-1.0")]
        assert after.deployments == u.deployments
        assert after.site_states["s1"].deployed_units[0].state == "INSTALLED"

    def test_satisfied_units_untouched(self):
        u = self._universe()
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        event = fleet.sites["s1"].set_property("ram", 32)
        plan = orch.on_property_change(u, "s1", event, fleet)
        assert plan.empty


class TestRemoval:
    def _with_dependency(self):
        lib = make_unit(
            "libz-1.1", product="zlib", version="1.1",
            provides=[("libz", "1.1")], resources=[("so", 1, "z")],
        )
        app = make_unit(
            "app-1.0", product="app", version="1.0",
            requires=[("libz", "1.1")], resources=[("tar", 1, "a")],
        )
        u = make_universe({"s1": (LINUX, ())}, [("srv1", lib), ("srv1", app)])
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet, product="zlib")
        u, _ = deploy(u, fleet, product="app")
        return u, fleet

    def test_unsafe_removal_blocked(self):
        u, fleet = self._with_dependency()
        u, report = orch.undeploy(u, "s1", "libz-1.1", fleet)
        entry = report.entries[0]
        assert entry.outcome == "SKIPPED"
        assert entry.reason == "UNSAFE_REMOVAL"
        assert entry.conflicts[0].kind is ConflictKind.STILL_REQUIRED

    def test_forced_removal_carries_conflicts(self):
        u, fleet = self._with_dependency()
        u, report = orch.undeploy(u, "s1", "libz-1.1", fleet, force=True)
        entry = report.entries[0]
        assert entry.outcome == "REMOVED"
        assert entry.conflicts
        assert all(du.unit_id != "libz-1.1" for du in u.site_states["s1"].deployed_units)

    def test_safe_removal(self):
        u, fleet = self._with_dependency()
        u, report = orch.undeploy(u, "s1", "app-1.0", fleet)
        assert report.entries[0].outcome == "REMOVED"
        assert report.entries[0].conflicts == ()

    def test_unknown_unit(self):
        u, fleet = self._with_dependency()
        with pytest.raises(UnknownUnitError):
            orch.undeploy(u, "s1", "ghost", fleet)


class TestActivation:
    def test_cycle_and_illegal(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)  # lands ACTIVE
        u, report = orch.activate(u, "s1", "ed-1.0", fleet)
        assert report.entries[0].outcome == "SKIPPED"
        assert report.entries[0].reason == "ILLEGAL_TRANSITION"
        u, report = orch.deactivate(u, "s1", "ed-1.0", fleet)
        assert report.entries[0].outcome == "DEACTIVATED"
        u, report = orch.activate(u, "s1", "ed-1.0", fleet)
        assert report.entries[0].outcome == "ACTIVATED"

    def test_a_state_outside_the_enum_is_skipped_as_illegal(self):
        u = make_universe({"s1": (LINUX, ())}, [])
        bogus = DeployedUnit("a", "p", Version.parse("1.0"), "BOGUS")
        u = set_site_state(u, ClientSiteState("s1", (bogus,), ()))
        fleet = build_fleet(u)
        after, report = orch.deactivate(u, "s1", "a", fleet)
        assert [e.to_json() for e in report.entries] == [
            {"site": "s1", "outcome": "SKIPPED", "reason": "ILLEGAL_TRANSITION", "unit": "a"}
        ]
        assert after is u


def unpushed():
    u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
    return u, build_fleet(u)


def pushed(*published):
    """s1 holding ed-1.0 ACTIVE, with ``published`` units added to the catalog
    after the push."""
    u = make_universe({"s1": ({**LINUX, "ram": 16}, ())}, [("srv1", linux_unit(constraints=["ram >= 8"]))])
    fleet = build_fleet(u)
    u, _ = deploy(u, fleet)
    for unit in published:
        u = publish_unit(u, "srv1", unit)
    return u, fleet


def deactivated():
    u, fleet = pushed()
    u, _ = orch.deactivate(u, "s1", "ed-1.0", fleet)
    return u, fleet


def reconfigured(u, fleet):
    event = fleet.sites["s1"].set_property("ram", 4)
    return orch.on_property_change(u, "s1", event, fleet, apply=True)


# Each site op: its setup, the op, the label it reports when its process
# succeeds, and the kind of its process's last step.
SITE_OPS = {
    "push": (unpushed, deploy, "DEPLOYED", "activate"),
    "pull": (
        lambda: pushed(linux_unit("ed-2.0", version="2.0")),
        lambda u, fleet: orch.pull_update(u, "s1", "editor", fleet), "UPDATED", "activate",
    ),
    "reconfigure": (
        lambda: pushed(linux_unit("ed-lite-0.9", version="0.9", constraints=[])),
        reconfigured, "RECONFIGURED", "activate",
    ),
    "undeploy": (
        pushed, lambda u, fleet: orch.undeploy(u, "s1", "ed-1.0", fleet), "REMOVED", "uninstall",
    ),
    "activate": (
        deactivated, lambda u, fleet: orch.activate(u, "s1", "ed-1.0", fleet), "ACTIVATED", "activate",
    ),
    "deactivate": (
        pushed, lambda u, fleet: orch.deactivate(u, "s1", "ed-1.0", fleet), "DEACTIVATED", "deactivate",
    ),
}


class TestOutcomeLabels:
    @pytest.mark.parametrize("fault", [False, True], ids=["done", "fault"])
    @pytest.mark.parametrize("op", sorted(SITE_OPS))
    def test_every_site_op_labels_its_outcome(self, op, fault):
        """Done, the op reports its own label; failed at its last step, it
        rolls back. Either way the entry names the record it appended."""
        setup, run, label, last = SITE_OPS[op]
        u, fleet = setup()
        if fault:
            inject(fleet, [Fault(site_id="s1", match=last)])
        record_id = u.next_deployment_id()
        u, report = run(u, fleet)
        (entry,) = report.entries
        assert (entry.outcome, entry.record_id) == ("ROLLED_BACK" if fault else label, record_id)
        record = u.deployments[record_id]
        assert entry.unit_id == record.unit_id
        failed = [e.path for e in record.trace.events if e.outcome is StepOutcome.FAILED]
        assert failed == ([f"root.{len(record.process.root.steps) - 1}"] if fault else [])


class TestStatus:
    def test_status_lists_records(self):
        u = make_universe({"s1": (LINUX, ())}, [("srv1", linux_unit())])
        fleet = build_fleet(u)
        u, _ = deploy(u, fleet)
        report = status(u)
        assert len(report.entries) == 1
        assert report.entries[0].outcome == "SUCCESS"
        assert status(u, site="nowhere").entries == ()
